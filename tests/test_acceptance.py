"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (visible with pytest -s)."""

import dataclasses
import functools
import json
import math
import time

import numpy as np
import pytest

import dropmaze as dm
from dropmaze.currents import current_route
from dropmaze.dynamics import (
    DynamicsParams,
    RowSums,
    Termination,
    disk_integrate,
    dwell_segments,
)
from dropmaze.generators import bifurcation_layout, generate_bifurcation_maze, generate_ring_maze
from dropmaze.maze import conductivity_grid, convex_corner_cells, parse_maze
from dropmaze.oracle import (
    StreamTermination,
    extract_path,
    lee_label,
    region_sequence,
    segment_corridors,
    trace_route_streamline,
)
from dropmaze.scenario import ScenarioConfig, run_and_export, run_scenario
from dropmaze.solver import (
    VectorField,
    VectorQuantity,
    compute_fields,
    conservation,
    current_density,
    face_currents,
    maze_dirichlet,
    solve_potential,
)

from conftest import CONFIGS, bundle_bytes, ring_config, run_cli, run_droplet
from oracles import dense_solve_potential, hot_region_route, two_branch_current_ratio


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {num:2d} FAIL: {desc}")
                raise
            print(f"\n[acceptance] criterion {num:2d} PASS: {desc}")

        return wrapper

    return deco


def _random_maze(seed):
    rng = np.random.default_rng(seed)
    nx, ny = int(rng.integers(4, 13)), int(rng.integers(4, 13))
    sigma = np.full((ny, nx), 10.0)
    sigma[rng.random((ny, nx)) < 0.25] = 0.0
    open_cells = [(int(x), int(y)) for y, x in np.argwhere(sigma > 0)]
    if len(open_cells) < 2:
        return None
    picks = rng.choice(len(open_cells), size=2, replace=False)
    return sigma, {open_cells[picks[0]]: 1.0, open_cells[picks[1]]: 0.0}


@criterion(1, "iterative solve matches dense oracle on 50 random mazes (<1e-8 V, <10 s)")
def test_criterion_1_solver_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0
    seed = 0
    while checked < 50:
        seed += 1
        case = _random_maze(seed)
        if case is None:
            continue
        sigma, dirichlet = case
        try:
            phi, rep = solve_potential(sigma, dirichlet, 0.5, tol=1e-12)
        except dm.FieldSolveError:
            continue  # pinned cells in unconnected pockets: not a solve
        expected = dense_solve_potential(sigma, dirichlet)
        assert np.abs(phi.values - expected).max() < 1e-8
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"50 oracle comparisons took {elapsed:.1f} s"


@criterion(2, "current balance <1e-4 and off-electrode divergence bounded on every converged solve")
def test_criterion_2_conservation(ring_maze, ring_fields):
    cases = [(ring_maze, ring_fields)]
    strip = parse_maze("\n".join(["S" + "." * 38 + "T"] * 6))
    cases.append((strip, compute_fields(strip)))
    bif = generate_bifurcation_maze(38.0, 42.0, 4.0)
    cases.append((bif, compute_fields(bif)))
    coated = dm.coat_sharp_corners(ring_maze)
    cases.append((coated, compute_fields(coated)))
    for maze, fields in cases:
        assert fields.report.converged
        div, i_in, i_out = conservation(
            fields.phi, conductivity_grid(maze), maze.positive, maze.negative
        )
        assert abs(i_in - i_out) / i_in < 1e-4
        assert abs(fields.report.current_imbalance()) < 1e-4
        electrode = np.zeros((maze.ny, maze.nx), dtype=bool)
        for ix, iy in maze.positive | maze.negative:
            electrode[iy, ix] = True
        off = div.values[maze.channel_mask() & ~electrode]
        h_m = maze.cell_size * 1e-3
        j_mean = fields.j.magnitude()[maze.channel_mask()].mean()
        assert np.abs(off).max() <= 1e-3 * j_mean / h_m


@criterion(3, "1D strip gives linear potential and uniform J = sigma*V/L within 1e-6 (<1 s)")
def test_criterion_3_analytic_strip():
    t0 = time.monotonic()
    spec = parse_maze("voltage = 1.0\ncell_size_mm = 0.5\n\n" + "\n".join(["S" + "." * 18 + "T"] * 3))
    phi, rep = solve_potential(conductivity_grid(spec), maze_dirichlet(spec), spec.cell_size)
    assert rep.converged
    expected = np.linspace(1.0, 0.0, spec.nx)
    assert np.abs(phi.values - expected[None, :]).max() < 1e-6
    sigma = conductivity_grid(spec)
    j = current_density(phi, sigma)
    L = (spec.nx - 1) * spec.cell_size * 1e-3
    j_exp = spec.sigma_electrolyte * spec.applied_voltage / L
    assert np.abs(j.vx / j_exp - 1.0).max() < 1e-6
    assert np.abs(j.vy).max() <= 1e-6 * j_exp
    assert time.monotonic() - t0 < 1.0


@criterion(4, "two-branch maze with 1:2 centerlines carries 2:1 currents within 5% of Kirchhoff")
def test_criterion_4_branch_ratio():
    spec = generate_bifurcation_maze(40.0, 80.0, 2.0)
    lay = bifurcation_layout(40.0, 80.0, 2.0)
    _, fy = face_currents(compute_fields(spec).phi, conductivity_grid(spec))
    cols = slice(lay.riser_col, lay.riser_col + lay.width_cells)
    i_a = abs(float(fy[lay.inlet_row - 2, cols].sum()))
    i_b = abs(float(fy[lay.inlet_row + lay.width_cells + 1, cols].sum()))
    expected = two_branch_current_ratio(lay.branch_a_cells * 0.5, lay.branch_b_cells * 0.5)
    assert expected == pytest.approx(2.0, rel=0.02)  # the generator hit 1:2
    assert i_a / i_b == pytest.approx(expected, rel=0.05)


@criterion(5, "Joule ridge and streamline both match the Lee path on the ring maze (<60 s at 256x256)")
def test_criterion_5_shortest_path_readout(ring_maze, ring_fields, ring_segmentation, ring_labels):
    def readout(maze, fields, seg, labels):
        start = sorted(maze.positive)[0]
        path = extract_path(labels, start, maze.cell_size)
        p_seq = region_sequence(path.cells, seg)
        hot = hot_region_route(dm.joule_heating(fields.j, conductivity_grid(maze)), seg, labels)
        route = current_route(fields.phi, maze, seg)
        ((_, stream, _),) = trace_route_streamline(fields.j, maze, seg, route)
        s_seq = region_sequence(stream.cells(maze.cell_size), seg)
        assert stream.termination is StreamTermination.REACHED
        assert hot == p_seq, f"hot ridge {hot} != path {p_seq}"
        assert s_seq == p_seq, f"streamline {s_seq} != path {p_seq}"
        overlap_hot = seg.cell_overlap(hot, p_seq)
        overlap_stream = seg.cell_overlap(s_seq, p_seq)
        assert overlap_hot >= 0.9
        assert overlap_stream >= 0.9

    # the M2-scale maze itself (4 mm channels, 0.5 mm cells, 5 V)
    readout(ring_maze, ring_fields, ring_segmentation, ring_labels)

    # runtime envelope at 256x256: full solve + read-out stays under a minute
    t0 = time.monotonic()
    big = generate_ring_maze(3, [1, 1, 1], diameter_mm=127.5, channel_width_mm=4.0, seed=1)
    assert max(big.nx, big.ny) >= 250
    fields = compute_fields(big)
    seg = segment_corridors(big)
    labels = lee_label(big)
    readout(big, fields, seg, labels)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"256x256 read-out took {elapsed:.1f} s"


@criterion(6, "droplet reaches the target along the Lee route and dwells near a corner")
def test_criterion_6_droplet_solves_maze(ring_maze, ring_fields, ring_segmentation, ring_labels):
    params = DynamicsParams(static_threshold=1.9e-3, radius_mm=1.0, max_steps=100_000)
    assert params.static_threshold > 0
    traj = run_droplet(ring_maze, params, ring_fields)
    assert traj.termination is Termination.REACHED_TARGET
    path = extract_path(ring_labels, traj.start_cell, ring_maze.cell_size)
    m = dm.compare_trajectory(traj, path, ring_segmentation)
    assert m["corridor_sequence_equal"]
    assert m["cell_overlap"] >= 0.9
    corners = convex_corner_cells(ring_maze)
    width_mm = 4.0
    h = ring_maze.cell_size
    near = []
    for i0, i1 in dwell_segments(traj):
        if i0 == 0:
            continue
        xm, ym = traj.xs[(i0 + i1) // 2], traj.ys[(i0 + i1) // 2]
        d = min(math.hypot(xm - (cx + 0.5) * h, ym - (cy + 0.5) * h) for cx, cy in corners)
        near.append(d)
    assert near and min(near) <= 2 * width_mm


@criterion(7, "symmetric bifurcation locks deterministically, noise seed inert at zero noise; 38/42 mm at defaults locks, flagged sensitive")
def test_criterion_7_bifurcation_lock():
    sym = generate_bifurcation_maze(40.0, 40.0, 4.0)
    sym_fields = compute_fields(sym)
    h = sym.cell_size
    axis = f"{(2 + 6) * h},{sym.ny * h / 2}"
    params = DynamicsParams(lock_window=500, max_steps=8000)
    # With noise_amplitude 0 the run is deterministic: the noise seed must
    # not change a single sample, so one locking run stands for every seed.
    runs = [
        run_droplet(sym, dataclasses.replace(params, noise_seed=seed), sym_fields, axis)
        for seed in (0, 1)
    ]
    for name in ("times", "xs", "ys", "speeds", "forces"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name))
    assert runs[0].termination is Termination.LOCKED

    cfg = ScenarioConfig(
        generator="bifurcation",
        len_a_mm=38.0,
        len_b_mm=42.0,
        channel_width_mm=4.0,
        start="axis",
        dynamics=DynamicsParams(),  # default parameters reproduce the lock
    )
    result = run_scenario(cfg)
    assert result.trajectory.termination is Termination.LOCKED
    assert result.report["trajectory"]["lock_parameter_sensitive"] is True
    # ... while the symmetric lock is geometric, not parameter-tuned
    sym_traj = run_droplet(sym, DynamicsParams(), sym_fields, axis)
    assert sym_traj.termination is Termination.LOCKED
    assert sym_traj.forces[-1] <= 1e-4 * DynamicsParams().static_threshold


@criterion(8, "coating the sharp corners strictly lowers the corner-force maximum")
def test_criterion_8_coated_edges(ring_scenario):
    coated = run_scenario(ring_config(coat_corners=True))
    assert coated.fields.report.converged
    assert (
        coated.report["corner_force"]["max_per_ampere"]
        < ring_scenario.report["corner_force"]["max_per_ampere"]
    )


@criterion(9, "halving the disk radius quarters the integrated force within 1%")
def test_criterion_9_disk_proportionality():
    f = VectorField(
        np.full((400, 400), 3.0),
        np.full((400, 400), -1.0),
        0.25,
        VectorQuantity.CURRENT_DENSITY,
    )
    center = (50.0, 50.0)
    sums = RowSums(f, np.zeros((400, 400), dtype=bool))
    big = disk_integrate(sums, center, 20.0)
    small = disk_integrate(sums, center, 10.0)
    ratio = np.linalg.norm(big) / np.linalg.norm(small)
    assert ratio == pytest.approx(4.0, rel=0.01)


@criterion(10, "re-running a scenario reproduces every output byte except the timestamp")
def test_criterion_10_determinism(tmp_path):
    cfg = ring_config()
    run_and_export(cfg, tmp_path / "a")
    run_and_export(cfg, tmp_path / "b")
    names_a = {p.name for p in (tmp_path / "a").iterdir()}
    names_b = {p.name for p in (tmp_path / "b").iterdir()}
    assert names_a == names_b
    for name in sorted(names_a):
        fa, fb = (tmp_path / "a" / name), (tmp_path / "b" / name)
        if name == "report.json":
            ra, rb = json.loads(fa.read_text()), json.loads(fb.read_text())
            ra.pop("timestamp")
            rb.pop("timestamp")
            assert ra == rb
        else:
            assert fa.read_bytes() == fb.read_bytes(), f"{name} differs between runs"


@criterion(10, "a scenario writes the same bundle at one and at two BLAS threads")
def test_criterion_10_determinism_across_blas_threads(tmp_path):
    bundles = []
    for threads in (1, 2):
        out = tmp_path / str(threads)
        done = run_cli(
            ["simulate", "--config", str(CONFIGS / "ring_m2.cfg"), "--out", str(out)], threads
        )
        assert done.returncode == 0, done.stderr
        bundles.append({p.name: bundle_bytes(p) for p in sorted(out.iterdir())})
    assert bundles[0].keys() == bundles[1].keys() and len(bundles[0]) == 8
    for name in bundles[0]:
        assert bundles[0][name] == bundles[1][name], f"{name} differs between 1 and 2 threads"
