import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dropmaze as dm
from dropmaze import solver
from dropmaze.maze import (
    CellKind,
    coat_sharp_corners,
    conductivity_grid,
    parse_maze,
    validate_and_components,
)
from dropmaze.solver import (
    FieldSolveError,
    Quantity,
    compute_fields,
    conservation,
    current_density,
    face_currents,
    maze_dirichlet,
    solve_potential,
)
from dropmaze.generators import bifurcation_layout, generate_bifurcation_maze

from oracles import (
    allocating_pcg,
    bfs_distances,
    compact_pcg,
    dense_solve_potential,
    mg_levels,
    mg_pcg,
    two_branch_current_ratio,
)


def _strip(nx=20, ny=3, v=1.0):
    rows = ["S" + "." * (nx - 2) + "T"] * ny
    return parse_maze(f"voltage = {v}\ncell_size_mm = 0.5\n\n" + "\n".join(rows))


def test_strip_linear_potential_and_uniform_j():
    spec = _strip()
    phi, rep = solve_potential(conductivity_grid(spec), maze_dirichlet(spec), spec.cell_size)
    assert rep.converged
    # exact discrete solution is linear in x
    expected = np.linspace(1.0, 0.0, spec.nx)
    assert np.abs(phi.values - expected[None, :]).max() < 1e-6
    sigma = conductivity_grid(spec)
    j = current_density(phi, sigma)
    L = (spec.nx - 1) * spec.cell_size * 1e-3
    j_exp = spec.sigma_electrolyte * spec.applied_voltage / L
    assert np.abs(j.vx / j_exp - 1.0).max() < 1e-6
    assert np.abs(j.vy).max() < 1e-6 * j_exp


def test_constant_potential_zero_current():
    sigma = np.full((4, 4), 3.0)
    phi = dm.ScalarField(np.full((4, 4), 2.0), 0.5, Quantity.POTENTIAL)
    j = current_density(phi, sigma)
    assert np.all(j.vx == 0) and np.all(j.vy == 0)


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_iterative_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    nx, ny = int(rng.integers(3, 9)), int(rng.integers(3, 9))
    sigma = np.full((ny, nx), 10.0)
    # sprinkle walls but keep the grid mostly open
    walls = rng.random((ny, nx)) < 0.2
    sigma[walls] = 0.0
    open_cells = [(int(x), int(y)) for y, x in np.argwhere(sigma > 0)]
    if len(open_cells) < 3:
        return
    picks = rng.choice(len(open_cells), size=2, replace=False)
    dirichlet = {open_cells[picks[0]]: 1.0, open_cells[picks[1]]: 0.0}
    try:
        phi, rep = solve_potential(sigma, dirichlet, 0.5, tol=1e-12)
    except FieldSolveError:
        return  # the two pinned cells landed in separate wall-split pockets
    expected = dense_solve_potential(sigma, dirichlet)
    assert np.abs(phi.values - expected).max() < 1e-8


def test_five_by_five_random_electrodes_against_dense():
    rng = np.random.default_rng(42)
    sigma = np.full((5, 5), 10.0)
    cells = [(x, y) for x in range(5) for y in range(5)]
    for _ in range(10):
        picks = rng.choice(len(cells), size=3, replace=False)
        dirichlet = {cells[picks[0]]: 1.0, cells[picks[1]]: 0.5, cells[picks[2]]: 0.0}
        phi, rep = solve_potential(sigma, dirichlet, 0.5, tol=1e-12)
        expected = dense_solve_potential(sigma, dirichlet)
        assert np.abs(phi.values - expected).max() < 1e-8


def test_conservation_on_strip():
    spec = _strip()
    fields = compute_fields(spec)
    div, i_in, i_out = conservation(fields.phi, conductivity_grid(spec), spec.positive, spec.negative)
    assert abs(i_in - i_out) / i_in < 1e-4
    off = div.values[:, 1:-1]  # off-electrode columns
    h_m = spec.cell_size * 1e-3
    bound = 1e-3 * np.abs(fields.j.magnitude()).mean() / h_m
    assert np.abs(off).max() <= bound


def test_conservation_on_ring(ring_maze, ring_fields):
    div, i_in, i_out = conservation(
        ring_fields.phi, conductivity_grid(ring_maze), ring_maze.positive, ring_maze.negative
    )
    assert abs(i_in - i_out) / i_in < 1e-4
    electrode = np.zeros((ring_maze.ny, ring_maze.nx), dtype=bool)
    for ix, iy in ring_maze.positive | ring_maze.negative:
        electrode[iy, ix] = True
    off = div.values[ring_maze.channel_mask() & ~electrode]
    h_m = ring_maze.cell_size * 1e-3
    j_on = ring_fields.j.magnitude()[ring_maze.channel_mask()]
    assert np.abs(off).max() <= 1e-3 * j_on.mean() / h_m


def test_unconverged_solve_fails_conservation():
    spec = _strip(nx=30)
    sigma = conductivity_grid(spec)
    phi, rep = solve_potential(sigma, maze_dirichlet(spec), spec.cell_size, max_iter=1)
    assert not rep.converged
    j = current_density(phi, sigma)
    div, i_in, i_out = conservation(phi, sigma, spec.positive, spec.negative)
    h_m = spec.cell_size * 1e-3
    j_scale = np.abs(j.magnitude()).mean()
    # the diagnostic must reject this solve
    assert np.abs(div.values[:, 1:-1]).max() > 1e-3 * j_scale / h_m


def test_disconnected_electrodes_detected():
    """A five-cell line split by a wall, and two 186-cell pockets split by
    a wall column, where one iteration leaves the positive pocket
    unconverged: the component labels alone show that no current can
    flow, so the solve raises whether or not it would converge."""
    rows = ["S" + "." * 30 + "#" + "." * 30 + "T"] + ["." * 31 + "#" + "." * 31] * 5
    for text, max_iter in (("S.#.T", None), ("\n".join(rows), 1)):
        spec = parse_maze(text)
        sigma, dirichlet = conductivity_grid(spec), maze_dirichlet(spec)
        with pytest.raises(FieldSolveError, match="disconnected"):
            solve_potential(sigma, dirichlet, spec.cell_size, max_iter=max_iter)


def test_electrodes_joined_by_a_leaky_wall_solve():
    """A wall of sigma 1e-10 S/m carries a negligible current, but it is a
    current: the solve converges and matches the dense solve."""
    spec = parse_maze("sigma_wall = 1e-10\n\nS.....#.....T")
    sigma, dirichlet = conductivity_grid(spec), maze_dirichlet(spec)
    phi, report = solve_potential(sigma, dirichlet, spec.cell_size)
    assert report.converged
    assert report.current_in > 0
    assert np.abs(phi.values - dense_solve_potential(sigma, dirichlet)).max() < 1e-8


def test_cells_whose_faces_all_underflow_are_not_unknowns():
    """bifurcation_lock with sigma_wall = 1e-200 S/m: every cell is
    conductive, but a face between two wall cells rounds to 0.0, so the
    walls inside the wall mass have no face and stay out of the system.
    The 2 056 unknowns are the oracle's: the 1 648 channel cells of the
    insulated maze and the wall cells that touch the channel. phi on the
    channel is the insulated maze's within 1e-9 V."""
    insulated = generate_bifurcation_maze(38.0, 42.0, 4.0)
    maze = dataclasses.replace(insulated, sigma_wall=1e-200)
    sigma, dirichlet = conductivity_grid(maze), maze_dirichlet(maze)
    assert (sigma > 0).all()
    phi, report = solve_potential(sigma, dirichlet, maze.cell_size)
    _, insulated_report = solve_potential(
        conductivity_grid(insulated), dirichlet, maze.cell_size
    )
    assert report.converged
    assert (report.unknowns, insulated_report.unknowns) == (2056, 1648)
    assert report.unknowns == int(mg_levels(sigma, dirichlet)[0]["unknown"].sum())
    channel = maze.channel_mask()
    insulated_phi = compute_fields(insulated).phi.values
    assert np.abs(phi.values - insulated_phi)[channel].max() < 1e-9


def test_branch_currents_follow_kirchhoff_ratio():
    spec = generate_bifurcation_maze(40.0, 80.0, 2.0)
    lay = bifurcation_layout(40.0, 80.0, 2.0)
    _, fy = face_currents(compute_fields(spec).phi, conductivity_grid(spec))
    # horizontal cuts across both vertical branch legs, just off the junction
    row_top = lay.inlet_row - 2
    row_bot = lay.inlet_row + lay.width_cells + 1
    cols = slice(lay.riser_col, lay.riser_col + lay.width_cells)
    i_a = abs(float(fy[row_top, cols].sum()))
    i_b = abs(float(fy[row_bot, cols].sum()))
    expected = two_branch_current_ratio(lay.branch_a_cells * 0.5, lay.branch_b_cells * 0.5)
    assert i_a / i_b == pytest.approx(expected, rel=0.05)


def test_compute_fields_holds_phi_and_j_only(ring_maze, ring_fields):
    """A solved maze holds three float grids, phi, Jx and Jy, and nothing
    else: face currents are derived where they are read."""
    assert [f.name for f in dataclasses.fields(dm.VectorField)] == [
        "vx", "vy", "cell_size", "quantity"
    ]
    held, stack = [], [ring_fields]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            held.append(item)
        elif dataclasses.is_dataclass(item):
            stack += [getattr(item, f.name) for f in dataclasses.fields(item)]
    shape = (ring_maze.ny, ring_maze.nx)
    assert [(a.dtype, a.shape) for a in held] == [(np.dtype(np.float64), shape)] * 3
    assert {id(a) for a in held} == {
        id(ring_fields.phi.values), id(ring_fields.j.vx), id(ring_fields.j.vy)
    }


def test_compute_fields_peaks_at_seven_grids():
    """compute_fields of ring_m2 at 0.25 mm cells (280 x 280) allocates at
    most 7 float64 grids under tracemalloc: the solve reads sigma only at
    the cells it couples, with no face-conductance grids or masks. With
    those it took 8.3 grids."""
    maze = dm.generate_ring_maze(2, [1, 1], 70.0, 4.0, 1, cell_size_mm=0.25)
    tracemalloc.start()
    try:
        fields = compute_fields(maze)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fields.report.converged
    assert peak <= 7 * maze.ny * maze.nx * 8


def test_joule_power_ratio_between_branches():
    spec = generate_bifurcation_maze(40.0, 80.0, 2.0)
    lay = bifurcation_layout(40.0, 80.0, 2.0)
    fields = compute_fields(spec)
    p = dm.joule_heating(fields.j, conductivity_grid(spec)).values
    w = lay.width_cells
    top = p[lay.top_row : lay.top_row + w, lay.riser_col + 2 * w : lay.downcomer_col - 2 * w]
    bot = p[lay.bottom_row : lay.bottom_row + w, lay.riser_col + 2 * w : lay.downcomer_col - 2 * w]
    # currents 2:1 -> power density 4:1
    assert top.mean() / bot.mean() == pytest.approx(4.0, rel=0.12)


def test_joule_uniform_strip():
    spec = _strip()
    fields = compute_fields(spec)
    p = dm.joule_heating(fields.j, conductivity_grid(spec)).values
    L = (spec.nx - 1) * spec.cell_size * 1e-3
    p_exp = spec.sigma_electrolyte * (spec.applied_voltage / L) ** 2
    assert np.abs(p / p_exp - 1.0).max() < 1e-6


def test_maximum_principle_on_ring(ring_maze, ring_fields):
    phi = ring_fields.phi.values
    channel = ring_maze.channel_mask()
    v = ring_maze.applied_voltage
    assert phi[channel].max() <= v + 1e-9
    assert phi[channel].min() >= -1e-9
    electrode = np.zeros_like(channel)
    for ix, iy in ring_maze.positive | ring_maze.negative:
        electrode[iy, ix] = True
    interior = channel & ~electrode
    assert phi[interior].max() < v - 1e-12
    assert phi[interior].min() > 1e-12


def test_linearity_in_voltage(ring_maze, ring_fields):
    double = dm.MazeSpec(
        cells=np.array(ring_maze.cells),
        positive=ring_maze.positive,
        negative=ring_maze.negative,
        cell_size=ring_maze.cell_size,
        sigma_electrolyte=ring_maze.sigma_electrolyte,
        sigma_wall=ring_maze.sigma_wall,
        sigma_coating=ring_maze.sigma_coating,
        applied_voltage=2 * ring_maze.applied_voltage,
    )
    phi2, rep2 = solve_potential(
        conductivity_grid(double), maze_dirichlet(double), double.cell_size
    )
    assert rep2.converged
    scale = np.abs(phi2.values - 2.0 * ring_fields.phi.values).max()
    assert scale < 10 * 1e-9 * 2 * ring_maze.applied_voltage


def test_mirror_symmetry_of_potential():
    spec = generate_bifurcation_maze(40.0, 40.0, 4.0)
    phi, rep = solve_potential(conductivity_grid(spec), maze_dirichlet(spec), spec.cell_size)
    assert rep.converged
    mirrored = np.flipud(phi.values)
    assert np.abs(phi.values - mirrored).max() < 10 * 1e-9 * spec.applied_voltage


def test_solver_deterministic(ring_maze):
    sigma, pins = conductivity_grid(ring_maze), maze_dirichlet(ring_maze)
    a, ra = solve_potential(sigma, pins, ring_maze.cell_size)
    b, rb = solve_potential(sigma, pins, ring_maze.cell_size)
    assert a.values.tobytes() == b.values.tobytes()
    assert ra == rb


def test_coated_maze_solve_converges(ring_maze):
    coated = coat_sharp_corners(ring_maze)
    phi, rep = solve_potential(conductivity_grid(coated), maze_dirichlet(coated), coated.cell_size)
    assert rep.converged
    assert rep.current_imbalance() < 1e-4


def _high_contrast_sigma(seed):
    """Random conductivities spanning 24 decades with insulating holes,
    pinned at 1 V on the left column and 0 V on the right."""
    rng = np.random.default_rng(seed)
    nx, ny = int(rng.integers(4, 16)), int(rng.integers(3, 12))
    sigma = 10.0 ** rng.uniform(-12, 12, size=(ny, nx))
    sigma[rng.random((ny, nx)) < 0.2] = 0.0
    sigma[:, 0] = sigma[:, -1] = 1.0
    dirichlet = {(0, iy): 1.0 for iy in range(ny)}
    dirichlet.update({(nx - 1, iy): 0.0 for iy in range(ny)})
    return sigma, dirichlet


def _assert_same_solve(sigma, dirichlet, tol, max_iter):
    phi_ref, iterations, final_residual, _ = mg_pcg(sigma, dirichlet, tol, max_iter)
    phi, report = solve_potential(sigma, dirichlet, 0.5, tol, max_iter)
    assert np.array_equal(phi.values.view(np.int64), phi_ref.view(np.int64))
    assert report.iterations == iterations
    assert report.final_residual == final_residual


@pytest.fixture(scope="module")
def pcg_cases(ring_maze):
    coated = coat_sharp_corners(ring_maze)
    lock = generate_bifurcation_maze(38.0, 42.0, 4.0)
    mazes = {"ring_m2": ring_maze, "ring_coated": coated, "bifurcation_lock": lock}
    cases = {name: (conductivity_grid(spec), maze_dirichlet(spec)) for name, spec in mazes.items()}
    cases["high_contrast"] = _high_contrast_sigma(199)
    return cases


@pytest.mark.parametrize("max_iter", [None, 1, 2, 17])
@pytest.mark.parametrize("name", ["ring_m2", "ring_coated", "bifurcation_lock", "high_contrast"])
def test_pcg_is_bit_identical_to_allocating_reference(pcg_cases, name, max_iter):
    sigma, dirichlet = pcg_cases[name]
    _assert_same_solve(sigma, dirichlet, 1e-9, max_iter)


@pytest.mark.parametrize("seed, tol", [(68, 1e-9), (371, 1e-9), (106, 1e-9), (71, 1e-14)])
def test_pcg_restart_branch_is_bit_identical(seed, tol):
    """Inputs whose curvature p.Ap rounds to <= 0: one restart, three,
    and the cap of eight (twice)."""
    sigma, dirichlet = _high_contrast_sigma(seed)
    restarts = {68: 1, 371: 3, 106: 8, 71: 8}[seed]
    assert mg_pcg(sigma, dirichlet, tol)[3] == restarts
    _assert_same_solve(sigma, dirichlet, tol, None)


@pytest.fixture(scope="module")
def dense_solution(pcg_cases):
    """dense_solve_potential of a pcg case, solved on first use."""
    solved = {}

    def solve(name):
        if name not in solved:
            solved[name] = dense_solve_potential(*pcg_cases[name])
        return solved[name]

    return solve


@pytest.mark.parametrize("max_iter", [None, 1, 2, 17])
@pytest.mark.parametrize("name", ["ring_m2", "ring_coated", "bifurcation_lock"])
def test_pcg_stays_within_rounding_of_the_whole_grid_reference(
    pcg_cases, dense_solution, name, max_iter
):
    """Against the Jacobi-PCG references, the whole-grid one with np.dot
    products and the compact one with np.sum products: run to the same
    tolerance, phi agrees within 2e-8 V (4e-9 of the applied 5 V) in a
    tenth of their iterations or fewer; stopped after the same number of
    iterations, the multigrid solve is the closer to the solution."""
    sigma, dirichlet = pcg_cases[name]
    phi, report = solve_potential(sigma, dirichlet, 0.5, 1e-9, max_iter)
    exact = dense_solution(name) if max_iter else None
    for reference in (allocating_pcg, compact_pcg):
        phi_ref, iterations, _, _ = reference(sigma, dirichlet, 1e-9, max_iter)
        if max_iter is None:
            assert np.abs(phi.values - phi_ref).max() <= 2e-8
            assert report.iterations <= iterations / 10
        else:
            assert report.iterations <= iterations == max_iter
            assert np.abs(phi.values - exact).max() < np.abs(phi_ref - exact).max()


def _levels(sigma, dirichlet):
    """The package's multigrid levels for a solve, finest first."""
    sigma = np.asarray(sigma, dtype=np.float64)
    pinned = sorted((iy * sigma.shape[1] + ix, v) for (ix, iy), v in dirichlet.items())
    pins, values = (np.array(column) for column in zip(*pinned))
    unknown = mg_levels(sigma, dirichlet)[0]["unknown"]
    level = solver._finest_level(sigma, unknown, pins, values)[0]
    levels = [level]
    while level.inverse is None:
        level = level.coarse
        levels.append(level)
    return levels


def _dense(level):
    """A level's operator as a dense matrix, read from its colour sets."""
    a = np.diag(level.diag)
    for cells, nb, g, _, _ in level.colours:
        for side in range(4):
            linked = nb[side] < level.n
            a[cells[linked], nb[side][linked]] = -g[side][linked]
    return a


@pytest.mark.parametrize("name", ["ring", "ring_coated"])
def test_each_coarse_level_is_the_galerkin_product(name, monkeypatch):
    """Every level's operator equals P^T A P of the level above, with P
    the 0/1 map of cells to their 2x2 blocks, to 1e-13 of its largest
    entry, and the finest is the 5-point system that the oracle builds
    cell by cell. A low coarsening limit gives a deep hierarchy on two
    small one-ring mazes, one with coated corners."""
    monkeypatch.setattr(solver, "_COARSEST_UNKNOWNS", 8)
    maze = dm.generate_ring_maze(1, [1], 30.0, 4.0, 2, cell_size_mm=1.0)
    if name == "ring_coated":
        maze = coat_sharp_corners(maze)
    sigma, dirichlet = conductivity_grid(maze), maze_dirichlet(maze)
    levels = _levels(sigma, dirichlet)
    assert len(levels) >= 4 and levels[-1].n <= 8
    top = mg_levels(sigma, dirichlet, coarsest=8)[0]
    fine = np.diag(top["diag"])
    for side in range(4):
        for k, j in enumerate(top["nb"][side]):
            if j < len(top["cells"]):
                fine[k, j] = -top["g"][side][k]
    assert np.abs(_dense(levels[0]) - fine).max() <= 1e-13 * np.abs(fine).max()
    for level, coarse in zip(levels, levels[1:]):
        p = np.zeros((level.n, coarse.n))
        p[np.arange(level.n), level.agg] = 1.0
        galerkin = p.T @ _dense(level) @ p
        assert np.abs(_dense(coarse) - galerkin).max() <= 1e-13 * np.abs(galerkin).max()


def test_sealed_pockets_stay_at_zero():
    """A 180x240 grid of thousands of sealed pockets, with the electrodes
    at the two ends of a channel row: every cell that no conductive route
    links to an electrode reports phi = 0 exactly, and the rest match the
    dense solve."""
    rng = np.random.default_rng(7)
    cells = np.where(rng.random((180, 240)) < 0.45, 0, 1).astype(np.int8)
    cells[::4, :] = CellKind.WALL
    cells[1, :] = cells[-2, :] = CellKind.CHANNEL
    spec = dm.MazeSpec(cells, {(0, 1)}, {(239, 1)})
    assert validate_and_components(spec).n_components > 3000
    sigma, dirichlet = conductivity_grid(spec), maze_dirichlet(spec)
    phi, report = solve_potential(sigma, dirichlet, spec.cell_size)
    assert report.converged
    linked = bfs_distances(sigma > 0, list(dirichlet)) >= 0
    assert report.unknowns == int(linked.sum()) - 2
    assert np.all(phi.values[~linked] == 0.0)
    assert np.abs(phi.values - dense_solve_potential(sigma, dirichlet)).max() < 1e-8


@pytest.mark.parametrize("cell_size_mm", [0.5, 0.25, 0.125])
def test_iterations_do_not_grow_with_the_grid(cell_size_mm):
    """ring_m2 at 140, 280 and 560 cells a side: at most 40 iterations
    each, where the Jacobi-preconditioned solve took 492, 968 and 1943."""
    maze = dm.generate_ring_maze(2, [1, 1], 70.0, 4.0, 1, cell_size_mm=cell_size_mm)
    _, report = solve_potential(conductivity_grid(maze), maze_dirichlet(maze), cell_size_mm)
    assert report.converged
    assert report.iterations <= 40
