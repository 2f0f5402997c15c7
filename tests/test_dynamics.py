import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dropmaze as dm
from dropmaze import dynamics
from dropmaze.dynamics import (
    DynamicsError,
    DynamicsParams,
    ForceSource,
    Termination,
    _contact_normals,
    _disk_fits,
    _disk_overlaps_negative,
    _Geometry,
    _resolve_overlap,
    disk_integrate,
    droplet_radius_mm,
    find_start,
    simulate,
    velocity_profile,
)
from dropmaze.generators import bifurcation_layout, generate_bifurcation_maze
from dropmaze.maze import Polarity, convex_corner_cells, parse_maze
from dropmaze.oracle import extract_path, lee_label, segment_corridors
from dropmaze.scenario import build_maze, load_config, resolve_start
from dropmaze.solver import VectorField, VectorQuantity, compute_fields

from conftest import count_calls, run_droplet
from oracles import (
    arange_disk_integrate,
    bfs_order_find_start,
    closest_point_on_cell,
    scan_contact_normals,
    scan_disk_fits,
    scan_disk_overlaps_cells,
    scan_resolve_overlap,
    scan_wall_cells,
    stepwise_simulate,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def uniform_field(nx=60, ny=60, h=0.5, ux=3.0, uy=0.0):
    return VectorField(
        np.full((ny, nx), ux), np.full((ny, nx), uy), h, VectorQuantity.CURRENT_DENSITY
    )


def test_disk_integrate_uniform_field_area_sum():
    f = uniform_field()
    h = f.cell_size
    center = (15.0, 15.0)
    radius = 5.0
    force = disk_integrate(f, center, radius)
    # sum over covered cell centres times cell area
    xs = (np.arange(f.nx) + 0.5) * h
    ys = (np.arange(f.ny) + 0.5) * h
    inside = (xs[None, :] - center[0]) ** 2 + (ys[:, None] - center[1]) ** 2 <= radius**2
    expected = 3.0 * inside.sum() * (h * 1e-3) ** 2
    assert force[0] == pytest.approx(expected, rel=1e-12)
    assert force[1] == 0.0


def test_disk_integrate_gain_scales_linearly():
    f = uniform_field()
    f1 = disk_integrate(f, (15.0, 15.0), 5.0, gain=1.0)
    f2 = disk_integrate(f, (15.0, 15.0), 5.0, gain=2.5)
    assert f2[0] == pytest.approx(2.5 * f1[0])


def test_disk_integrate_half_radius_quarters_force():
    # fine grid so the lattice disk is a good circle
    f = uniform_field(nx=400, ny=400, h=0.25)
    center = (50.0, 50.0)
    big = disk_integrate(f, center, 20.0)
    small = disk_integrate(f, center, 10.0)
    assert big[0] / small[0] == pytest.approx(4.0, rel=0.01)


def test_disk_integrate_outside_grid_rejected():
    f = uniform_field()
    with pytest.raises(ValueError, match="outside"):
        disk_integrate(f, (1000.0, 1000.0), 2.0)


def test_disk_integrate_wall_cells_contribute_zero():
    f = uniform_field()
    wall = np.zeros((f.ny, f.nx), dtype=bool)
    wall[:, 41:] = True  # wall starts at x = 20.5 mm
    full = disk_integrate(f, (15.0, 15.0), 5.0)
    clipped = disk_integrate(f, (15.0, 15.0), 5.0, wall_mask=wall)
    assert clipped[0] == pytest.approx(full[0])  # disk does not reach the wall
    half = disk_integrate(f, (20.5, 15.0), 3.0, wall_mask=wall)
    assert 0 < half[0] < disk_integrate(f, (20.5, 15.0), 3.0)[0]
    buried = disk_integrate(f, (15.5, 15.0), 0.6, wall_mask=np.ones_like(wall))
    assert buried[0] == 0.0


def test_disk_lateral_force_zero_on_symmetry_axis():
    """The solve is mirror-symmetric to about its tolerance (its multigrid
    cycle is not), so it runs to 1e-12 here: the lateral force is then a
    rounding error of the solve, not of its stopping point."""
    spec = generate_bifurcation_maze(40.0, 40.0, 4.0)
    fields = compute_fields(spec, tol=1e-12)
    lay = bifurcation_layout(40.0, 40.0, 4.0)
    h = spec.cell_size
    axis_y = spec.ny * h / 2
    x = (lay.riser_col - 2) * h
    force = disk_integrate(fields.j, (x, axis_y), 1.5, wall_mask=spec.wall_mask())
    assert abs(force[1]) <= 1e-9 * np.linalg.norm(force)


def _open_box(n=40, h=0.5):
    rows = ["#" * n]
    for _ in range(n - 2):
        rows.append("#" + "." * (n - 2) + "#")
    rows.append("#" * n)
    rows[1] = "#S" + "." * (n - 3) + "#"
    rows[n - 2] = "#" + "." * (n - 3) + "T#"
    return parse_maze("\n".join(rows))


def _uniform_run(maze, ux, uy, params, start_mm):
    """A max_steps run of simulate in the uniform field (ux, uy)."""
    fields = replace(
        compute_fields(maze),
        j=uniform_field(nx=maze.nx, ny=maze.ny, h=maze.cell_size, ux=ux, uy=uy),
    )
    return run_droplet(maze, params, fields, f"{start_mm[0]},{start_mm[1]}")


def test_step_uniform_force_displacement():
    maze = _open_box()
    f = uniform_field(nx=maze.nx, ny=maze.ny, h=maze.cell_size, ux=2.0, uy=0.0)
    params = DynamicsParams(
        mobility=10.0, static_threshold=0.0, dt=0.001, max_steps=1, radius_mm=1.0
    )
    traj = _uniform_run(maze, 2.0, 0.0, params, (5.0, 10.0))
    force = disk_integrate(f, (5.0, 10.0), 1.0, wall_mask=maze.wall_mask())
    assert traj.xs[1] - traj.xs[0] == pytest.approx(10.0 * force[0] * 0.001)
    assert traj.ys[1] == traj.ys[0]
    assert traj.times[1] == pytest.approx(0.001)


def test_step_below_threshold_stays_put():
    maze = _open_box()
    f = uniform_field(nx=maze.nx, ny=maze.ny, h=maze.cell_size, ux=2.0, uy=0.0)
    force = disk_integrate(f, (5.0, 10.0), 1.0, wall_mask=maze.wall_mask())
    params = DynamicsParams(
        mobility=10.0, static_threshold=2.0 * float(np.hypot(*force)), dt=0.001,
        stall_fraction=0.9, max_steps=1, radius_mm=1.0,
    )
    traj = _uniform_run(maze, 2.0, 0.0, params, (5.0, 10.0))
    assert (traj.xs[1], traj.ys[1]) == (traj.xs[0], traj.ys[0])
    assert traj.speeds[1] == 0.0


def test_step_force_into_wall_slides_tangentially():
    maze = _open_box()
    h = maze.cell_size
    radius = 1.0
    params = DynamicsParams(
        mobility=50.0, static_threshold=0.0, dt=0.002, max_steps=40, radius_mm=radius
    )
    # force pointing 45 degrees into the top wall, on a disk already
    # touching it (wall rows end at y = h)
    traj = _uniform_run(maze, 2.0, -2.0, params, (5.0, h + radius))
    assert len(traj) == 41
    assert traj.ys[-1] == pytest.approx(h + radius, abs=1e-6)  # never penetrates
    assert traj.xs[-1] > 5.0  # slid along the wall


def test_wall_exclusion_holds_all_run(ring_maze, ring_fields):
    params = DynamicsParams(static_threshold=0.0, radius_mm=1.0, max_steps=20_000)
    traj = run_droplet(ring_maze, params, ring_fields)
    wall = ring_maze.wall_mask()
    h = ring_maze.cell_size
    # sample every 10th position: closest wall distance >= radius - h/2
    for i in range(0, len(traj), 10):
        x, y = traj.xs[i], traj.ys[i]
        worst = min(
            (
                math.hypot(x - px, y - py)
                for ix, iy in scan_wall_cells(wall, h, x, y, traj.radius_mm + 2 * h)
                for px, py in [closest_point_on_cell(h, ix, iy, x, y)]
            ),
            default=np.inf,
        )
        assert worst >= traj.radius_mm - h / 2


def test_simulate_straight_channel_monotone(straight_maze):
    fields = compute_fields(straight_maze)
    traj = run_droplet(straight_maze, DynamicsParams(static_threshold=0.0), fields)
    assert traj.termination is Termination.REACHED_TARGET
    assert np.all(np.diff(traj.xs) >= -1e-9)
    dt = np.diff(traj.times)
    assert np.allclose(dt, dt[0])
    # the reached-target claim means the disk really overlaps a target cell
    h = straight_maze.cell_size
    x, y = traj.xs[-1], traj.ys[-1]
    assert any(
        math.hypot(
            x - min(max(x, ix * h), (ix + 1) * h),
            y - min(max(y, iy * h), (iy + 1) * h),
        )
        <= traj.radius_mm
        for ix, iy in straight_maze.electrode_cells(dm.Polarity.NEGATIVE)
    )


def test_simulate_symmetric_bifurcation_locks():
    spec = generate_bifurcation_maze(40.0, 40.0, 4.0)
    fields = compute_fields(spec)
    h = spec.cell_size
    start = f"{(2 + 6) * h},{spec.ny * h / 2}"
    traj = run_droplet(spec, DynamicsParams(), fields, start)
    assert traj.termination is Termination.LOCKED
    # lateral symmetry cannot break: the lock is geometric, not tuned
    assert traj.final_effective_force <= 1e-4 * DynamicsParams().static_threshold
    # also locks with the pin disabled entirely (zero force -> zero motion)
    traj0 = run_droplet(spec, DynamicsParams(static_threshold=0.0), fields, start)
    assert traj0.termination is Termination.LOCKED


def test_simulate_ring_follows_lee_path(ring_maze, ring_fields, ring_segmentation, ring_labels):
    params = DynamicsParams(static_threshold=1.9e-3, radius_mm=1.0, max_steps=100_000)
    traj = run_droplet(ring_maze, params, ring_fields)
    assert traj.termination is Termination.REACHED_TARGET
    path = extract_path(ring_labels, traj.start_cell)
    m = dm.compare_trajectory(traj, path, ring_segmentation)
    assert m.corridor_sequence_equal
    assert m.cell_overlap >= 0.9
    assert m.max_lateral_deviation_mm <= 4.0  # within one channel width


def test_simulate_trajectories_are_deterministic(ring_maze, ring_fields):
    params = DynamicsParams(static_threshold=1.9e-3, radius_mm=1.0, max_steps=50_000)
    a = run_droplet(ring_maze, params, ring_fields)
    b = run_droplet(ring_maze, params, ring_fields)
    assert a.termination == b.termination
    assert a.xs.tobytes() == b.xs.tobytes()
    assert a.ys.tobytes() == b.ys.tobytes()
    assert a.forces.tobytes() == b.forces.tobytes()


def test_voltage_scaling_preserves_route(straight_maze):
    # same maze at double voltage: direction field unchanged, route identical
    double = dm.MazeSpec(
        cells=np.array(straight_maze.cells),
        electrodes=straight_maze.electrodes,
        cell_size=straight_maze.cell_size,
        sigma_electrolyte=straight_maze.sigma_electrolyte,
        sigma_wall=straight_maze.sigma_wall,
        sigma_coating=straight_maze.sigma_coating,
        applied_voltage=2 * straight_maze.applied_voltage,
    )
    seg = segment_corridors(straight_maze)
    params = DynamicsParams(static_threshold=0.0, radius_mm=1.0)
    t1 = run_droplet(straight_maze, params, compute_fields(straight_maze))
    t2 = run_droplet(double, params, compute_fields(double))
    c1 = [(int(x // 0.5), int(y // 0.5)) for x, y in t1.positions_mm()]
    c2 = [(int(x // 0.5), int(y // 0.5)) for x, y in t2.positions_mm()]
    from dropmaze.oracle import region_sequence

    assert region_sequence(c1, seg) == region_sequence(c2, seg)
    # double voltage -> double force scale at the start
    assert t2.forces[0] == pytest.approx(2 * t1.forces[0], rel=1e-6)


def test_progress_along_labels_with_zero_threshold(straight_maze):
    fields = compute_fields(straight_maze)
    labels = lee_label(straight_maze)
    traj = run_droplet(straight_maze, DynamicsParams(static_threshold=0.0), fields)
    h = straight_maze.cell_size
    lab = [labels.label(int(x // h), int(y // h)) for x, y in traj.positions_mm()]
    assert all(b <= a for a, b in zip(lab, lab[1:]))


def test_no_start_position_in_too_narrow_maze():
    spec = parse_maze("S.T")
    fields = compute_fields(spec)
    with pytest.raises(DynamicsError, match="no start position"):
        run_droplet(spec, DynamicsParams(radius_mm=5.0), fields)


def test_velocity_profile_constant_speed(straight_maze):
    fields = compute_fields(straight_maze)
    traj = run_droplet(straight_maze, DynamicsParams(static_threshold=0.0), fields)
    vp = velocity_profile(traj)
    mid = vp.speeds[len(vp.speeds) // 4 : -len(vp.speeds) // 4]
    assert np.ptp(mid) / vp.peak_speed < 0.4
    # the only sub-1% samples are at the resting start
    for i0, i1 in vp.dwell_segments:
        assert i0 == 0


def test_velocity_profile_dwell_near_corner():
    # L-shaped corridor with a pinning threshold: the force dips where the
    # field turns the corner, so that is where the droplet dwells
    W, wch = 40, 4
    rows = [["#"] * W for _ in range(W)]
    for iy in range(2, 26 + wch):
        for ix in range(2, 2 + wch):
            rows[iy][ix] = "."
    for ix in range(2, 38):
        for iy in range(26, 26 + wch):
            rows[iy][ix] = "."
    for ix in range(2, 2 + wch):
        rows[2][ix] = "S"
    for iy in range(26, 26 + wch):
        rows[iy][37] = "T"
    spec = parse_maze("\n".join("".join(r) for r in rows))
    fields = compute_fields(spec)
    probe = run_droplet(spec, DynamicsParams(static_threshold=0.0, radius_mm=0.5), fields)
    med = float(np.median(probe.forces))
    params = DynamicsParams(static_threshold=0.8 * med, radius_mm=0.5, max_steps=100_000)
    traj = run_droplet(spec, params, fields)
    assert traj.termination is Termination.REACHED_TARGET
    vp = velocity_profile(traj)
    corners = convex_corner_cells(spec)
    width_mm = wch * spec.cell_size
    hits = []
    for i0, i1 in vp.dwell_segments:
        if i0 == 0:
            continue  # resting start
        xm, ym = traj.xs[(i0 + i1) // 2], traj.ys[(i0 + i1) // 2]
        d = min(
            math.hypot(xm - (cx + 0.5) * spec.cell_size, ym - (cy + 0.5) * spec.cell_size)
            for cx, cy in corners
        )
        hits.append(d)
    assert hits and min(hits) <= 2 * width_mm


def test_lock_dwell_spans_window():
    spec = generate_bifurcation_maze(40.0, 40.0, 4.0)
    fields = compute_fields(spec)
    h = spec.cell_size
    params = DynamicsParams(lock_window=800, max_steps=20_000)
    traj = run_droplet(spec, params, fields, f"{(2 + 6) * h},{spec.ny * h / 2}")
    assert traj.termination is Termination.LOCKED
    vp = velocity_profile(traj)
    i0, i1 = vp.dwell_segments[-1]
    assert i1 == len(traj) - 1
    # the run ends as soon as a full window shows no displacement, so the
    # terminal dwell spans the window up to the couple of samples it took
    # the droplet to settle against the junction wall
    assert i1 - i0 >= params.lock_window - 5


def test_pinned_droplet_locks_after_exactly_lock_window_steps(straight_maze):
    """The lock check compares each position with the one lock_window
    steps before it, from the first step that has one."""
    traj = run_droplet(
        straight_maze, DynamicsParams(static_threshold=1e3, lock_window=50),
        compute_fields(straight_maze),
    )
    assert traj.termination is Termination.LOCKED
    assert len(traj) == 50 + 1
    assert traj.path_length_mm == 0.0


def test_noise_hook_deterministic_per_seed(straight_maze):
    fields = compute_fields(straight_maze)
    noisy = DynamicsParams(static_threshold=0.0, noise_amplitude=2e-4, noise_seed=1)
    a = run_droplet(straight_maze, noisy, fields)
    b = run_droplet(straight_maze, noisy, fields)
    c = run_droplet(
        straight_maze,
        DynamicsParams(static_threshold=0.0, noise_amplitude=2e-4, noise_seed=2),
        fields,
    )
    assert a.ys.tobytes() == b.ys.tobytes()  # same seed, same perturbed run
    assert a.ys.tobytes() != c.ys.tobytes()  # different seed, different run


def test_grad_speed_force_source_runs(ring_maze, ring_fields):
    params = DynamicsParams(
        static_threshold=0.0,
        radius_mm=1.0,
        force_source=ForceSource.DISK_MEAN_GRAD_SPEED_J,
        max_steps=4000,
    )
    traj = run_droplet(ring_maze, params, ring_fields)
    assert len(traj) > 1  # the alternative force field drives motion too


# ---------------------------------------------------------------------------
# The prefiltered wall queries against the cell-by-cell scans.


@pytest.fixture(scope="module")
def query_mazes(ring_maze):
    out = {}
    bifurcation = generate_bifurcation_maze(38.0, 42.0, 4.0)
    for name, maze in (("ring", ring_maze), ("bifurcation", bifurcation)):
        cells = {
            "negative": sorted(maze.electrode_cells(Polarity.NEGATIVE)),
            "wall": [(int(x), int(y)) for y, x in zip(*np.nonzero(maze.wall_mask()))],
            "channel": [(int(x), int(y)) for y, x in zip(*np.nonzero(maze.channel_mask()))],
        }
        out[name] = (_Geometry(maze), cells)
    return out


_DIRECTIONS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)) + tuple(
    (sx * math.sqrt(0.5), sy * math.sqrt(0.5)) for sx in (1, -1) for sy in (1, -1)
)
# Offsets (in cells) of the disk edge from the point it should touch: exact
# touch, round-off either side, the contact tolerance and its edges, and
# clear gaps or overlaps.
_JITTER = (0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-3, 1e-3 + 1e-12, 1e-3 - 1e-12, -1e-3, 0.3, -0.3)


@settings(max_examples=1000)
@given(
    name=st.sampled_from(("ring", "bifurcation")),
    radius=st.sampled_from((0.4, 1.0, 1.5, 2.25)),
    kind=st.sampled_from(("free", "channel", "wall", "negative", "rim")),
    u=st.floats(0.0, 1.0),
    v=st.floats(0.0, 1.0),
    k=st.integers(0, 10**6),
    direction=st.sampled_from(_DIRECTIONS),
    jitter=st.sampled_from(_JITTER),
)
def test_wall_queries_match_cell_scan(query_mazes, name, radius, kind, u, v, k, direction, jitter):
    geom, cells = query_mazes[name]
    h = geom.h
    width, height = geom.nx * h, geom.ny * h
    reach = radius + jitter * h
    if kind == "free":
        x, y = u * width, v * height
    elif kind == "channel":
        ix, iy = cells["channel"][k % len(cells["channel"])]
        x, y = (ix + u) * h, (iy + v) * h
    elif kind == "rim":
        x = reach if k % 2 else width - reach
        y = v * height
        if k % 4 >= 2:
            x, y = u * width, (reach if k % 2 else height - reach)
    else:
        # a corner, an edge point or an inner point of a wall or electrode
        # cell, with the disk centre `reach` away from it along `direction`
        ix, iy = cells[kind][k % len(cells[kind])]
        px = (ix + (round(u) if k % 3 == 0 else u)) * h
        py = (iy + (round(v) if k % 3 != 2 else v)) * h
        x, y = px + reach * direction[0], py + reach * direction[1]

    wall = geom.wall
    gaps = geom.gaps(wall, x, y, radius)
    # Each gap runs from the cell's closest point to the disk centre.
    assert [gap[2:] for gap in gaps] == [
        (x - px, y - py, math.hypot(x - px, y - py))
        for ix, iy, *_ in gaps
        for px, py in [closest_point_on_cell(h, ix, iy, x, y)]
    ]
    assert _contact_normals(geom, x, y, radius, gaps) == scan_contact_normals(wall, h, x, y, radius)
    rx, ry, end_gaps, settled = _resolve_overlap(geom, x, y, radius)
    *want, capped = scan_resolve_overlap(wall, h, x, y, radius)
    assert [rx, ry] == want
    # The push hands on the gaps where it stopped, which give the contact
    # normals there. It settled unless its pushes ran out or left the
    # grid clamp, and a settled position pushes to itself.
    assert end_gaps == geom.gaps(wall, rx, ry, radius)
    inside = radius <= rx <= width - radius and radius <= ry <= height - radius
    assert settled == (not capped and inside)
    if settled:
        assert _resolve_overlap(geom, rx, ry, radius) == (rx, ry, end_gaps, True)
    assert _contact_normals(geom, rx, ry, radius, end_gaps) == scan_contact_normals(
        wall, h, rx, ry, radius
    )
    assert _disk_fits(geom, x, y, radius) == scan_disk_fits(wall, h, x, y, radius)
    assert _disk_overlaps_negative(geom, x, y, radius) == scan_disk_overlaps_cells(
        h, x, y, radius, cells["negative"]
    )


def test_overlap_push_cap_leaves_normals_to_their_own_query(query_mazes):
    """Deep inside a wall block the 16 pushes run out before the disk is
    free: the last push's query then lies behind the last move, so the
    push queries once more where it stopped and hands that on."""
    geom, cells = query_mazes["bifurcation"]
    h = geom.h
    x, y = (geom.nx - 0.5) * h, (geom.ny - 0.5) * h
    assert geom.wall[geom.ny - 1, geom.nx - 1]
    rx, ry, gaps, settled = _resolve_overlap(geom, x, y, 1.0)
    assert (rx, ry, True) == scan_resolve_overlap(geom.wall, h, x, y, 1.0)
    assert not settled
    assert any(d < 1.0 - 1e-9 * h for *_, d in gaps)  # still overlapping: the cap stopped it
    assert gaps == geom.gaps(geom.wall, rx, ry, 1.0)
    assert _contact_normals(geom, rx, ry, 1.0, gaps) == scan_contact_normals(geom.wall, h, rx, ry, 1.0)


@pytest.mark.parametrize("name", ["ring_m2", "bifurcation_lock"])
def test_one_wall_query_per_droplet_position(name, monkeypatch):
    """At an explicit dt, a step that moves queries the wall cells once at
    the position it ends on, inside the overlap push (that query also
    gives the contact normals there), plus once per push, at each position
    the push moved from. A step that stays at a settled position queries
    nothing: it does not push at all."""
    cfg = load_config(CONFIGS / f"{name}.cfg")
    maze = build_maze(cfg)
    fields = compute_fields(maze)
    dt = run_droplet(maze, replace(cfg.dynamics, max_steps=0), fields, cfg.start).dt
    pushes = []  # [candidate, wall queries, result] per overlap push
    early = []  # wall queries outside a push, by how many pushes preceded them
    pushing = False
    real_gaps = _Geometry.gaps
    real_resolve = dynamics._resolve_overlap

    def gaps(self, mask, x, y, radius):
        if mask is self.wall:
            if pushing:
                pushes[-1][1].append((x, y))
            else:
                early.append(len(pushes))
        return real_gaps(self, mask, x, y, radius)

    def resolve(geom, x, y, radius):
        nonlocal pushing
        pushes.append([(x, y), [], None])
        pushing = True
        try:
            pushes[-1][2] = real_resolve(geom, x, y, radius)
        finally:
            pushing = False
        return pushes[-1][2]

    monkeypatch.setattr(_Geometry, "gaps", gaps)
    monkeypatch.setattr(dynamics, "_resolve_overlap", resolve)
    traj = run_droplet(maze, replace(cfg.dynamics, dt=dt), fields, cfg.start)
    steps = len(traj) - 1
    assert steps > 500 and early and set(early) == {0}  # the start's queries only
    pending = iter(pushes)
    settled, here = False, (traj.xs[0], traj.ys[0])
    stays = extra = 0
    for k in range(1, steps + 1):
        end = (traj.xs[k], traj.ys[k])
        if settled and end == here:
            stays += 1
            continue
        candidate, queries, (rx, ry, _, now_settled) = next(pending)
        assert not (settled and candidate == here)
        assert (rx, ry) == end
        assert queries[-1] == end
        assert all(q != end for q in queries[:-1])
        extra += len(queries) - 1
        settled, here = now_settled, end
    assert next(pending, None) is None
    assert extra > 0 and stays > steps / 2


def test_disk_sum_once_per_position_a_move_reaches(monkeypatch):
    """simulate sums the disk along the Lee path to size dt, at the start,
    and at the end of each step that moves; a pinned step at a settled
    position reuses its sum. On bifurcation_lock that is 76 moves of 2575
    steps."""
    cfg = load_config(CONFIGS / "bifurcation_lock.cfg")
    maze = build_maze(cfg)
    fields = compute_fields(maze)
    route = resolve_start(
        cfg.start, cfg.dynamics, maze, segment_corridors(maze), lee_label(maze)
    )
    calls = count_calls(monkeypatch, disk_integrate)
    traj = simulate(maze, cfg.dynamics, fields, *route)
    moves = int(np.count_nonzero((np.diff(traj.xs) != 0) | (np.diff(traj.ys) != 0)))
    assert calls["disk_integrate"] == len(route[2].cells) + 1 + moves
    assert traj.termination is Termination.LOCKED and 30 * moves < len(traj) - 1


def _wedge_text(n=24):
    """A room that narrows to the right into a lopsided wedge a wide disk
    sticks in, with the negative electrode in a corner pocket. The 16
    pushes of a disk there can run out short of a settled position."""
    rows = []
    for iy in range(n):
        rows.append("".join(
            "#" if min(ix, iy, n - 1 - ix, n - 1 - iy) == 0
            or abs(iy - n / 2 + 0.3) > (n - ix) * 0.4 + 0.6 else "."
            for ix in range(n)
        ))
    rows[n // 2] = "#S" + rows[n // 2][2:]
    rows[1] = "#T" + rows[1][2:]
    return "cell_size_mm = 0.5\n" + "\n".join(rows)


@pytest.fixture(scope="module")
def wedge():
    maze = parse_maze(_wedge_text())
    return maze, compute_fields(maze), lee_label(maze)


def _run_both(wedge, seed, radius, slope, start_gap, thr, noise, release, lock_window):
    """simulate and stepwise_simulate in a noisy rightward field on the
    wedge, from a start touching its left wall. start_gap is the start's
    overlap with that wall in mm: one the fit check allows but the push
    does not leaves the start unsettled. thr, noise and release scale
    with the start's force and the time step."""
    maze, fields, labels = wedge
    h = maze.cell_size
    rng = np.random.default_rng(seed)
    vx = 3.0 + rng.normal(0.0, 1.0, (maze.ny, maze.nx))
    vy = slope * 3.0 + rng.normal(0.0, 1.0, (maze.ny, maze.nx))
    fields = replace(fields, j=VectorField(vx, vy, h, VectorQuantity.CURRENT_DENSITY))
    start = (h + radius - start_gap, 6.0 + 0.37 * slope)
    wall = maze.wall_mask()
    f0 = float(np.hypot(*disk_integrate(fields.j, start, radius, wall_mask=wall)))
    mobility = 6000.0
    dt = h / (4.0 * mobility * f0)
    params = DynamicsParams(
        mobility=mobility, static_threshold=thr * f0, dt=dt, max_steps=150,
        lock_window=lock_window, radius_mm=radius, release_time=release * dt,
        noise_amplitude=noise * f0, noise_seed=seed,
    )
    path = extract_path(labels, (int(start[0] // h), int(start[1] // h)))
    traj = simulate(maze, params, fields, start, radius, path)
    want = stepwise_simulate(
        wall, sorted(maze.electrode_cells(Polarity.NEGATIVE)), fields.j, params, start, radius, dt
    )
    return traj, want


_WEDGE_CASE = dict(
    seed=3, radius=1.0, slope=0.0, start_gap=0.75e-9, thr=1.2, noise=0.3, release=1.0,
    lock_window=400,
)


@settings(max_examples=30)
@example(**_WEDGE_CASE)
@given(
    seed=st.integers(0, 10_000),
    radius=st.sampled_from((0.3, 0.5, 0.7, 1.0)),
    slope=st.sampled_from((0.0, 0.2, -0.4)),
    start_gap=st.sampled_from((0.0, 0.75e-9, -0.1)),
    thr=st.sampled_from((0.0, 0.8, 1.5, 4.0)),
    noise=st.sampled_from((0.0, 0.1, 0.5)),
    release=st.sampled_from((1.0, 4.0, 30.0)),
    lock_window=st.sampled_from((15, 400)),
)
def test_simulate_matches_stepwise_reference(
    wedge, seed, radius, slope, start_gap, thr, noise, release, lock_window
):
    """Bit for bit, the run of a droplet that pushes, sums and tests every
    step's end afresh: with and without noise and pinning, from settled
    and unsettled starts, and wedged where the 16 pushes run out."""
    traj, want = _run_both(
        wedge, seed, radius, slope, start_gap, thr, noise, release, lock_window
    )
    times, xs, ys, speeds, forces, termination, path_length, _ = want
    for got, ref in zip(
        (traj.times, traj.xs, traj.ys, traj.speeds, traj.forces), (times, xs, ys, speeds, forces)
    ):
        assert got.tolist() == ref
    assert (traj.termination.value, traj.path_length_mm) == (termination, path_length)


def test_stepwise_reference_case_pins_wedges_and_unsettles_its_start(wedge):
    """The explicit example above exercises what the reuse must get right:
    noisy pinned steps, a start the first push moves, and steps whose
    pushes run out."""
    traj, (*_, capped) = _run_both(wedge, **_WEDGE_CASE)
    moved = (np.diff(traj.xs) != 0) | (np.diff(traj.ys) != 0)
    assert 0 < traj.xs[1] - traj.xs[0] < 1e-8  # pinned, but pushed out of the wall
    assert np.count_nonzero(~moved) > 20 and capped > 20


def test_far_target_check_makes_no_wall_query(straight_maze, monkeypatch):
    """The target check queries the electrode cells only once the disk's
    search window reaches the electrode's bounding box."""
    geom = _Geometry(straight_maze)
    calls = []
    real_gaps = _Geometry.gaps

    def gaps(self, *args):
        calls.append(args)
        return real_gaps(self, *args)

    monkeypatch.setattr(_Geometry, "gaps", gaps)
    # The negative electrode is the column of cells from x = 30 to 30.5 mm.
    assert sorted({ix for ix, _ in straight_maze.electrode_cells(Polarity.NEGATIVE)}) == [60]
    assert not _disk_overlaps_negative(geom, 10.0, 2.5, 1.0)
    assert not _disk_overlaps_negative(geom, 28.4, 2.5, 1.0)
    assert calls == []
    assert not _disk_overlaps_negative(geom, 28.9, 2.5, 1.0)
    assert len(calls) == 1
    assert _disk_overlaps_negative(geom, 29.1, 2.5, 1.0)
    assert len(calls) == 2


@settings(max_examples=400)
@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    h=st.sampled_from((0.1, 0.25, 0.3, 0.37, 0.5, 1.0)),
    seed=st.integers(0, 10_000),
    u=st.floats(-0.2, 1.2),
    v=st.floats(-0.2, 1.2),
    radius_cells=st.floats(0.1, 6.0),
    wall_share=st.sampled_from((0.0, 0.3, 0.7)),
    gain=st.sampled_from((1.0, 2.5)),
    snap=st.booleans(),
)
def test_disk_integrate_matches_arange_windows(
    shape, h, seed, u, v, radius_cells, wall_share, gain, snap
):
    """Bit for bit, on grids of many sizes (the cell centres are cached
    per size), for disks inside the grid, clipped at its rim or off it,
    with and without wall cells in the window. A snapped disk sits on a
    cell centre with a radius of whole cells, so other cell centres lie
    on its rim, where the last bit of a centre decides membership."""
    rng = np.random.default_rng(seed)
    field = VectorField(
        rng.normal(size=shape), rng.normal(size=shape), h, VectorQuantity.CURRENT_DENSITY
    )
    wall = rng.random(shape) < wall_share
    center = (u * shape[1] * h, v * shape[0] * h)
    radius = radius_cells * h
    if snap:
        center = tuple((math.floor(c / h) + 0.5) * h for c in center)
        radius = max(round(radius_cells), 1) * h
    for mask in (None, wall):
        try:
            want = arange_disk_integrate(field, center, radius, mask, gain)
        except ValueError:
            with pytest.raises(ValueError):
                disk_integrate(field, center, radius, wall_mask=mask, gain=gain)
            continue
        assert np.array_equal(disk_integrate(field, center, radius, wall_mask=mask, gain=gain), want)


def test_simulate_started_at_the_target_takes_no_step(straight_maze):
    # The negative electrode is the column of cells from x = 30 to 30.5 mm.
    traj = run_droplet(
        straight_maze, DynamicsParams(radius_mm=1.0), compute_fields(straight_maze), "29.1,2.5"
    )
    assert traj.termination is Termination.REACHED_TARGET
    assert len(traj) == 1
    assert (traj.xs[0], traj.ys[0], traj.path_length_mm) == (29.1, 2.5, 0.0)


def test_simulate_evaluates_force_once_per_position(straight_maze, monkeypatch):
    fields = compute_fields(straight_maze)
    auto = run_droplet(straight_maze, DynamicsParams(static_threshold=0.0), fields)
    params = DynamicsParams(static_threshold=0.0, dt=auto.dt, noise_amplitude=2e-4, noise_seed=3)
    calls = 0
    integrate = dynamics.disk_integrate

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return integrate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "disk_integrate", counting)
    traj = run_droplet(straight_maze, params, fields)
    steps = len(traj) - 1
    assert steps > 50
    assert calls == steps + 1


def test_simulate_builds_one_wall_geometry(straight_maze, monkeypatch):
    """A run builds the maze's _Geometry once, for all its wall queries."""
    params = DynamicsParams(static_threshold=0.0, max_steps=5)
    fields = compute_fields(straight_maze)
    route = resolve_start(
        "auto", params, straight_maze, segment_corridors(straight_maze), lee_label(straight_maze)
    )
    built = []

    class Counted(_Geometry):
        def __init__(self, maze):
            built.append(maze)
            super().__init__(maze)

    monkeypatch.setattr(dynamics, "_Geometry", Counted)
    assert len(simulate(straight_maze, params, fields, *route)) == 6
    assert len(built) == 1


# An open room whose negative electrode is walled off: every Lee label is
# -1, so start cells equally near the positive electrode tie on the label
# and the row, then the column, decides.
ROOM_TEXT = """cell_size_mm = 0.5

#########
#.......#
#.......#
#.......#
#...S...#
#.......#
#.......#
#.......#
#########
#T#######
"""


@pytest.fixture(scope="module")
def placement_mazes(ring_maze):
    bifurcation = generate_bifurcation_maze(38.0, 42.0, 4.0)
    return {"ring": ring_maze, "bifurcation": bifurcation, "room": parse_maze(ROOM_TEXT)}


@pytest.mark.parametrize("name", ["ring", "bifurcation", "room"])
def test_find_start_matches_bfs_order_scan(placement_mazes, name):
    maze = placement_mazes[name]
    labels = lee_label(maze)
    default = droplet_radius_mm(DynamicsParams(), segment_corridors(maze), maze.cell_size)
    pos = sorted(maze.electrode_cells(Polarity.POSITIVE))
    wants = []
    for radius in (0.3, 0.5, 1.0, 1.25, default, 1.9, 3.0):
        want = bfs_order_find_start(
            maze.channel_mask(), maze.wall_mask(), maze.cell_size, pos, radius, labels.labels
        )
        wants.append(want)
        if want is None:
            with pytest.raises(DynamicsError):
                find_start(maze, radius, labels)
        else:
            assert find_start(maze, radius, labels) == want
    assert wants[0] is not None and wants[-1] is None


# The six example configs, and the two seed-0 benchmark mazes they do not
# cover: ring_m2 at 0.25 mm cells and the 36/44 mm bifurcation.
START_CONFIGS = [p.stem for p in sorted(CONFIGS.glob("*.cfg"))] + ["ring_fine", "pair3"]


@pytest.mark.parametrize("name", START_CONFIGS)
def test_find_start_equals_the_full_search_on_the_configs(name):
    """The widening search picks the start that scanning every channel
    cell in breadth-first order picks."""
    if name == "ring_fine":
        cfg = replace(load_config(CONFIGS / "ring_m2.cfg"), cell_size_mm=0.25)
    elif name == "pair3":
        cfg = replace(load_config(CONFIGS / "bifurcation_lock.cfg"), len_a_mm=36.0, len_b_mm=44.0)
    else:
        cfg = load_config(CONFIGS / f"{name}.cfg")
    maze = build_maze(cfg)
    labels = lee_label(maze)
    radius = droplet_radius_mm(cfg.dynamics, segment_corridors(maze), maze.cell_size)
    pos = sorted(maze.electrode_cells(Polarity.POSITIVE))
    want = bfs_order_find_start(
        maze.channel_mask(), maze.wall_mask(), maze.cell_size, pos, radius, labels.labels
    )
    assert want is not None
    assert find_start(maze, radius, labels) == want
