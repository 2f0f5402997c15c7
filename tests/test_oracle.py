import dataclasses
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dropmaze as dm
from dropmaze import oracle, scenario
from dropmaze.cli import main
from dropmaze.currents import current_route
from dropmaze.maze import cell_index, parse_maze
from dropmaze.oracle import (
    StreamTermination,
    UnreachableError,
    bfs,
    extract_path,
    lee_label,
    prune_spurs,
    region_sequence,
    segment_corridors,
    streamline,
    thin_mask,
    trace_route_streamline,
)
from dropmaze.generators import bifurcation_layout, generate_bifurcation_maze
from dropmaze.scenario import build_maze, load_config, run_oracle_only, run_scenario
from dropmaze.solver import VectorField, VectorQuantity, compute_fields

from conftest import count_calls, ring_config, straight_channel_text
from oracles import (
    array_bilinear,
    array_streamline,
    bfs_distances,
    bfs_wall_distance,
    flood_fill_components,
    hot_region_route,
    loop_prune_spurs,
    max_distance_to_unit_segments,
    neighbours_stay_connected,
    region_currents_by_scan,
    region_net_currents_by_scan,
    region_overlap_by_scan,
    shifted_skeleton_degree,
    shifted_thin_mask,
    vote_fan_route,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# The six example configs and ring_m2 at 0.25 mm cells (280 x 280).
CORPUS = sorted(p.stem for p in CONFIGS.glob("*.cfg")) + ["ring_m2_0.25mm"]
# ring_m2 at finer cells (280 x 280 and 560 x 560), by name.
FINE_RINGS = {"ring_m2_0.25mm": 0.25, "ring_m2_0.125mm": 0.125}


def corpus_maze(name):
    if name in FINE_RINGS:
        config = load_config(CONFIGS / "ring_m2.cfg")
        return build_maze(dataclasses.replace(config, cell_size_mm=FINE_RINGS[name]))
    return build_maze(load_config(CONFIGS / f"{name}.cfg"))


def test_lee_corridor_labels():
    spec = parse_maze("S...T")
    labels = lee_label(spec)
    assert labels.labels.tolist() == [[4, 3, 2, 1, 0]]


def test_lee_unreachable_cell_unlabeled():
    spec = parse_maze("S.#.T")
    labels = lee_label(spec)
    assert labels.label(0, 0) == -1
    assert labels.label(3, 0) == 1


@given(st.integers(0, 10_000))
@settings(max_examples=30)
def test_lee_matches_exhaustive_bfs(seed):
    rng = np.random.default_rng(seed)
    nx, ny = int(rng.integers(4, 16)), int(rng.integers(4, 16))
    glyphs = np.where(rng.random((ny, nx)) < 0.3, "#", ".")
    open_cells = [(int(x), int(y)) for y, x in np.argwhere(glyphs == ".")]
    if len(open_cells) < 2:
        return
    s = open_cells[int(rng.integers(len(open_cells)))]
    t = next(c for c in open_cells if c != s)
    glyphs[s[1], s[0]] = "S"
    glyphs[t[1], t[0]] = "T"
    spec = parse_maze("\n".join("".join(r) for r in glyphs))
    labels = lee_label(spec)
    expected = bfs_distances(spec.channel_mask(), spec.negative)
    assert np.array_equal(labels.labels, expected)


def test_extract_path_corridor():
    spec = parse_maze("S...T")
    path = extract_path(lee_label(spec), (0, 0))
    assert len(path.cells) == 5
    assert path.length_cells == 4
    assert path.length_mm == pytest.approx(4 * spec.cell_size)


def test_extract_path_unreachable():
    spec = parse_maze("S.#.T")
    with pytest.raises(UnreachableError):
        extract_path(lee_label(spec), (0, 0))


def test_extract_path_descends_by_one(ring_maze, ring_labels):
    start = sorted(ring_maze.positive)[0]
    path = extract_path(ring_labels, start)
    values = [ring_labels.label(ix, iy) for ix, iy in path.cells]
    assert values == list(range(values[0], -1, -1))
    assert path.length_cells == values[0]
    # consecutive cells are 4-adjacent and unique
    assert len(set(path.cells)) == len(path.cells)
    for (ax, ay), (bx, by) in zip(path.cells, path.cells[1:]):
        assert abs(ax - bx) + abs(ay - by) == 1


def test_extract_path_uses_short_branch_38_42():
    spec = generate_bifurcation_maze(38.0, 42.0, 4.0)
    lay = bifurcation_layout(38.0, 42.0, 4.0)
    labels = lee_label(spec)
    start = sorted(spec.positive)[0]
    path = extract_path(labels, start)
    assert path.length_cells == labels.label(*start)
    assert min(iy for _, iy in path.cells) < lay.inlet_row  # rises into branch a


def test_streamline_straight_strip():
    spec = parse_maze("\n".join(["S" + "." * 28 + "T"] * 5))
    fields = compute_fields(spec)
    sl = streamline(
        fields.j,
        spec.cell_center_mm(1, 2),
        target_cells=spec.negative,
        channel_mask=spec.channel_mask(),
    )
    assert sl.termination is StreamTermination.REACHED
    # essentially straight: no lateral wander beyond half a cell
    assert np.ptp(sl.points[:, 1]) < spec.cell_size


def test_streamline_stagnation_point_vanishes():
    spec = generate_bifurcation_maze(40.0, 40.0, 4.0)
    fields = compute_fields(spec)
    # on the mirror axis ahead of the junction wall the lateral components
    # cancel and the axial component dies at the wall: the trace must stop
    lay = bifurcation_layout(40.0, 40.0, 4.0)
    h = spec.cell_size
    axis_y = spec.ny * h / 2
    wall_x = (lay.riser_col + lay.width_cells) * h
    sl = streamline(
        fields.j,
        (wall_x - 0.6 * h, axis_y),
        channel_mask=spec.channel_mask(),
    )
    assert sl.termination is StreamTermination.FIELD_VANISHED
    # it stalled at the junction instead of escaping into a branch
    assert abs(sl.points[-1][1] - axis_y) < lay.width_cells * h / 2


def test_streamline_start_in_wall_rejected(ring_maze, ring_fields):
    wall = np.argwhere(ring_maze.wall_mask())
    iy, ix = wall[0]
    with pytest.raises(ValueError, match="wall"):
        streamline(
            ring_fields.j,
            ring_maze.cell_center_mm(int(ix), int(iy)),
            channel_mask=ring_maze.channel_mask(),
        )


def _field(vx):
    return VectorField(vx, np.zeros_like(vx), 0.5, VectorQuantity.CURRENT_DENSITY)


def test_streamline_stops_where_the_current_ends():
    vx = np.zeros((10, 20))
    vx[:, :10] = 1.0  # current in columns 0-9 only (x < 5 mm)
    sl = streamline(_field(vx), (1.25, 2.25))
    assert sl.termination is StreamTermination.FIELD_VANISHED
    # the bilinear speed reaches 0 at the centre of column 10
    assert tuple(sl.points[-1]) == (5.25, 2.25)


def test_streamline_leaves_an_unmasked_grid():
    sl = streamline(_field(np.ones((10, 20))), (1.25, 2.25))
    assert sl.termination is StreamTermination.LEFT_DOMAIN
    assert tuple(sl.points[-1]) == (10.0, 2.25)


def test_streamline_stalls_against_a_wall_at_normal_incidence():
    channel = np.ones((10, 20), dtype=bool)
    channel[:, 12:14] = False  # a wall across the grid, x in [6, 7) mm
    sl = streamline(_field(np.ones((10, 20))), (1.25, 2.25), channel_mask=channel)
    # sliding along the wall leaves no direction: the trace stops short of it
    assert sl.termination is StreamTermination.FIELD_VANISHED
    assert 6.0 - 0.5 <= sl.points[-1][0] < 6.0
    assert np.all(sl.points[:, 1] == 2.25)


def _endpoints(skel):
    """Skeleton cells with exactly one 8-neighbour in the skeleton."""
    ny, nx = skel.shape
    p = np.pad(skel, 1).astype(int)
    neighbours = sum(
        p[1 + dy : 1 + dy + ny, 1 + dx : 1 + dx + nx]
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
        if dy or dx
    )
    return int(np.count_nonzero(skel & (neighbours == 1)))


def test_prune_spurs_removes_short_branches_only():
    mask = np.zeros((40, 40), dtype=bool)
    for x, y, w, h in ((20, 4, 7, 14), (8, 2, 6, 8), (14, 7, 15, 6), (24, 27, 4, 11)):
        mask[y : y + h, x : x + w] = True
    skel = thin_mask(mask)
    pruned = prune_spurs(skel, 6)
    assert not np.any(pruned & ~skel)
    assert int(skel.sum()) - int(pruned.sum()) == 6
    assert flood_fill_components(skel, True) == flood_fill_components(pruned, True) == 2
    assert (_endpoints(skel), _endpoints(pruned)) == (5, 4)


def _random_mask(ny, nx, seed, kind):
    """Noise of a random density, a union of random rectangles (wide
    corridors with junctions and spurs), or every cell set."""
    rng = np.random.default_rng(seed)
    if kind == "full":
        return np.ones((ny, nx), dtype=bool)
    if kind == "noise":
        return rng.random((ny, nx)) < rng.uniform(0.3, 0.9)
    mask = np.zeros((ny, nx), dtype=bool)
    for _ in range(int(rng.integers(1, 6))):
        x0, y0 = int(rng.integers(nx)), int(rng.integers(ny))
        mask[y0 : y0 + int(rng.integers(1, 9)), x0 : x0 + int(rng.integers(1, 9))] = True
    return mask


@given(st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**32 - 1),
       st.sampled_from(["noise", "rectangles", "full"]), st.integers(1, 8))
@example(1, 17, 0, "full", 3)
@example(17, 1, 0, "full", 3)
@settings(max_examples=300)
def test_skeleton_matches_shifted_copy_reference(ny, nx, seed, kind, max_len):
    """Thinning, degrees and spur pruning equal the reference built from
    shifted grid copies and neighbour loops, on any grid shape: a 1 x n or
    n x 1 grid is all rim, and random masks set cells on the rim."""
    mask = _random_mask(ny, nx, seed, kind)
    skel = thin_mask(mask)
    want = shifted_thin_mask(mask)
    assert skel.dtype == bool and np.array_equal(skel, want)
    for grid in (mask, skel):
        deg = oracle._skeleton_degree(grid)
        assert np.array_equal(deg, shifted_skeleton_degree(grid)) and deg.dtype == np.int8
    assert np.array_equal(prune_spurs(skel, max_len), loop_prune_spurs(want, max_len))


def test_neighbour_code_tables_hold_the_spelled_out_predicates():
    """Every one of the 256 neighbour codes: the Zhang-Suen subpass
    conditions on p2..p9 (clockwise from north), the set-neighbour count,
    and redundancy as a flood over the set neighbours."""
    centre = np.zeros((3, 3), dtype=bool)
    centre[1, 1] = True
    codes = oracle._neighbour_codes(centre)
    nbr8 = oracle._NBR8
    for k, (dx, dy) in enumerate(nbr8):
        # The centre is neighbour (dx, dy) of the cell at (1 - dx, 1 - dy).
        assert codes[1 - dy, 1 - dx] == 1 << k
    clockwise_from_north = ((0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1))
    subpass_0, subpass_1 = oracle._ZHANG_SUEN
    for code in range(256):
        nbrs = [offset for k, offset in enumerate(nbr8) if code >> k & 1]
        p2, p3, p4, p5, p6, p7, p8, p9 = (int(o in nbrs) for o in clockwise_from_north)
        ring = [p2, p3, p4, p5, p6, p7, p8, p9, p2]
        a = sum(ring[i] == 0 and ring[i + 1] == 1 for i in range(8))
        b = len(nbrs)
        thinnable = 2 <= b <= 6 and a == 1
        assert subpass_0[code] == (thinnable and p2 * p4 * p6 == 0 and p4 * p6 * p8 == 0)
        assert subpass_1[code] == (thinnable and p2 * p4 * p8 == 0 and p2 * p6 * p8 == 0)
        assert oracle._SET_COUNT[code] == b
        assert oracle._REDUNDANT[code] == neighbours_stay_connected(nbrs)


def test_ring_streamline_matches_lee_path(ring_maze, ring_fields, ring_segmentation, ring_labels):
    seg = ring_segmentation
    start = sorted(ring_maze.positive)[0]
    path = extract_path(ring_labels, start)
    ((_, sl),) = trace_route_streamline(ring_fields.j, ring_maze, seg=seg)
    assert sl.termination is StreamTermination.REACHED
    s_seq = region_sequence(sl.cells(ring_maze.cell_size), seg)
    p_seq = region_sequence(path.cells, seg)
    assert s_seq == p_seq
    assert seg.cell_overlap(s_seq, p_seq) >= 0.9


def test_hot_regions_match_lee_path(ring_maze, ring_fields, ring_segmentation, ring_labels):
    start = sorted(ring_maze.positive)[0]
    path = extract_path(ring_labels, start)
    p_seq = region_sequence(path.cells, ring_segmentation)
    hot = hot_region_route(ring_fields.joule, ring_segmentation, ring_labels)
    assert hot == p_seq


def test_streamline_lee_agreement_over_corpus():
    for seed in (2, 3, 4, 5):
        spec = dm.generate_ring_maze(2, [1, 1], 70.0, 4.0, seed)
        fields = compute_fields(spec)
        seg = segment_corridors(spec)
        labels = lee_label(spec)
        start = sorted(spec.positive)[0]
        path = extract_path(labels, start)
        ((_, sl),) = trace_route_streamline(fields.j, spec, seg=seg)
        assert region_sequence(sl.cells(spec.cell_size), seg) == region_sequence(path.cells, seg)


def test_segmentation_straight_channel_single_region(straight_maze):
    seg = segment_corridors(straight_maze)
    corridors = [r for r in range(seg.n_regions) if not seg.is_node[r]]
    assert len(corridors) == 1
    # every channel cell is assigned somewhere
    assert (seg.region[straight_maze.channel_mask()] >= 0).all()


def test_segmentation_covers_all_channel_cells(ring_maze, ring_segmentation):
    assert (ring_segmentation.region[ring_maze.channel_mask()] >= 0).all()
    assert (ring_segmentation.region[~ring_maze.channel_mask()] == -1).all()


def test_compare_trajectory_on_itself(ring_maze, ring_segmentation, ring_labels):
    from dropmaze.dynamics import Trajectory, Termination

    start = sorted(ring_maze.positive)[0]
    path = extract_path(ring_labels, start)
    pts = path.points_mm()
    traj = Trajectory(
        times=np.arange(len(pts), dtype=float),
        xs=pts[:, 0],
        ys=pts[:, 1],
        speeds=np.ones(len(pts)),
        forces=np.ones(len(pts)),
        termination=Termination.REACHED_TARGET,
        path_length_mm=path.length_mm,
        dt=1.0,
        radius_mm=1.0,
        start_cell=start,
    )
    m = dm.compare_trajectory(traj, path, ring_segmentation)
    assert m["max_lateral_deviation_mm"] == pytest.approx(0.0, abs=1e-12)
    assert m["length_ratio"] == pytest.approx(1.0)
    assert m["corridor_sequence_equal"]
    assert m["cell_overlap"] == 1.0


def test_compare_trajectory_bounded_by_channel_width(straight_maze):
    from dropmaze.dynamics import Trajectory, Termination

    labels = lee_label(straight_maze)
    start = (1, 4)
    path = extract_path(labels, start)
    # a trajectory hugging the top wall of the channel
    h = straight_maze.cell_size
    xs = np.linspace((start[0] + 0.5) * h, (straight_maze.nx - 2) * h, 50)
    ys = np.full(50, 1.5 * h)
    traj = Trajectory(
        times=np.arange(50, dtype=float),
        xs=xs,
        ys=ys,
        speeds=np.ones(50),
        forces=np.ones(50),
        termination=Termination.REACHED_TARGET,
        path_length_mm=float(xs[-1] - xs[0]),
        dt=1.0,
        radius_mm=1.0,
        start_cell=start,
    )
    seg = segment_corridors(straight_maze)
    m = dm.compare_trajectory(traj, path, seg)
    assert m["max_lateral_deviation_mm"] <= 4 * straight_maze.cell_size


@st.composite
def _path_and_points(draw):
    """A walk between 4-neighbour cells that never steps straight back
    (as a Lee path never does), in runs of 1 to 12 steps, and a cloud of
    points around it, some of them on its cell centres."""
    h = draw(st.one_of(st.sampled_from([0.1, 0.125, 0.25, 0.3, 0.5, 1.0]), st.floats(0.01, 3.0)))
    steps = ((1, 0), (0, -1), (-1, 0), (0, 1))
    ix, iy = draw(st.integers(0, 200)), draw(st.integers(0, 200))
    cells = [(ix, iy)]
    last = None
    for _ in range(draw(st.integers(0, 12))):
        way = draw(st.sampled_from([s for s in steps if last is None or s != (-last[0], -last[1])]))
        for _ in range(draw(st.integers(1, 12))):
            ix, iy = ix + way[0], iy + way[1]
            cells.append((ix, iy))
        last = way
    path = oracle.Path(tuple(cells), h)
    centres = [tuple(p) for p in path.points_mm().tolist()]
    lo = [min(c) - 3 * h for c in zip(*centres)]
    hi = [max(c) + 3 * h for c in zip(*centres)]
    near = st.tuples(st.floats(lo[0], hi[0]), st.floats(lo[1], hi[1]))
    points = draw(st.lists(st.one_of(near, st.sampled_from(centres)), min_size=1, max_size=40))
    return np.array(points, dtype=np.float64), path


@settings(max_examples=1000)
@given(_path_and_points())
# At 0.3 mm cells the one-cell step from cell 1 to cell 0 lands one ulp
# off cell 0's centre (b + (c - b) != c), and a point beyond the path's
# end measures from there.
@example((np.array([[0.039, 3.213]]), oracle.Path(tuple((ix, 10) for ix in range(6, -1, -1)), 0.3)))
def test_path_distance_over_straight_runs_equals_every_segment(case):
    """One segment per straight run gives the float that every one-cell
    segment measured on its own gives. Near the path the one-cell
    projection is off by a few ulps of the coordinates (under 1e-12 mm
    here), which a hypot with an offset of 1e-4 mm or more rounds away; a
    cloud whose farthest point lies closer than that may differ by that
    rounding, where the straight runs' distance is the exact one."""
    points, path = case
    got = oracle._max_distance_to_path(points, path)
    want = max_distance_to_unit_segments(points, path.points_mm())
    if want >= 1e-4:
        assert got == want
    else:
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("h", [0.1, 0.25, 0.5, 1.0, 0.3])
def test_numpy_floor_division_gives_python_s_cell(h):
    """cell_index's floor division takes the cell int(x // h) takes, for
    negative coordinates, exact multiples of h and their neighbours."""
    xs = [k * h for k in range(-40, 41)]
    xs += [math.nextafter(x, math.inf) for x in xs] + [math.nextafter(x, -math.inf) for x in xs]
    xs += [x + 0.5 * h for x in xs] + [-0.0, 1e-300, -1e-300]
    assert cell_index(np.array(xs), h).tolist() == [int(x // h) for x in xs]


@pytest.mark.parametrize(
    "maze",
    [
        pytest.param(lambda: generate_bifurcation_maze(38.0, 42.0, 4.0), id="bifurcation"),
        pytest.param(lambda: build_maze(ring_config(cell_size_mm=0.25)), id="ring_m2_0.25mm"),
        pytest.param(lambda: build_maze(ring_config(coat_corners=True)), id="ring_coated"),
    ],
)
def test_wall_distance_matches_bfs(maze):
    channel = maze().channel_mask()
    dist = oracle._wall_distance(channel)
    assert dist.dtype == np.int32
    assert np.array_equal(dist, bfs_wall_distance(channel))


@given(st.integers(0, 10_000))
def test_wall_distance_matches_bfs_on_random_masks(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
    channel = rng.random(shape) < rng.choice([0.5, 0.9, 1.0])
    assert np.array_equal(oracle._wall_distance(channel), bfs_wall_distance(channel))


@pytest.mark.parametrize(
    "maze",
    [
        pytest.param(lambda: generate_bifurcation_maze(38.0, 42.0, 4.0), id="bifurcation"),
        pytest.param(lambda: build_maze(ring_config()), id="ring_m2"),
    ],
)
def test_bfs_distances_match_reference(maze):
    maze = maze()
    channel = maze.channel_mask()
    for electrode in (maze.negative, maze.positive):
        sources = sorted(electrode)
        dist, owner = bfs(channel, sources)
        want = bfs_distances(channel, sources)
        assert dist.dtype == np.int32
        assert np.array_equal(dist, want)
        assert np.array_equal(owner >= 0, want >= 0)
        for depth in (0, 2, 7):
            capped, _ = bfs(channel, sources, max_depth=depth)
            assert np.array_equal(capped, np.where(want <= depth, want, -1))


@given(st.integers(0, 10_000))
def test_bfs_matches_reference_on_random_masks(seed):
    """Distances equal the reference BFS, and each reached cell's owner is
    the first-listed source among those nearest to it."""
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
    passable = rng.random(shape) < rng.choice([0.5, 0.8, 1.0])
    cells = [(ix, iy) for iy in range(shape[0]) for ix in range(shape[1])]
    picks = rng.choice(len(cells), size=int(rng.integers(1, min(4, len(cells)) + 1)), replace=False)
    sources = [cells[k] for k in picks]
    want = bfs_distances(passable, sources)
    per_source = np.array([bfs_distances(passable, [s]) for s in sources])
    want_owner = np.where(want >= 0, np.argmax(per_source == want, axis=0), -1)
    dist, owner = bfs(passable, sources)
    assert np.array_equal(dist, want)
    assert np.array_equal(owner, want_owner)
    depth = int(rng.integers(0, 6))
    dist, owner = bfs(passable, sources, max_depth=depth)
    assert np.array_equal(dist, np.where(want <= depth, want, -1))
    assert np.array_equal(owner, np.where(want <= depth, want_owner, -1))


def test_list_backed_streamlines_match_array_sampler(monkeypatch):
    """Every reference fan streamline is point for point, and in its termination,
    the one the numpy-element sampler traces, on the ring, the
    bifurcation and the coated ring, whose seeds slide along walls and
    stall."""
    traced = []
    real_streamline = oracle.streamline

    def recording(j, start, target_cells, channel_mask, **kwargs):
        result = real_streamline(j, start, target_cells, channel_mask, **kwargs)
        traced.append((start, frozenset(target_cells), channel_mask, result))
        return result

    monkeypatch.setattr(oracle, "streamline", recording)
    ends = set()
    for name in ("ring_m2", "bifurcation_lock", "ring_coated"):
        maze = corpus_maze(name)
        j = compute_fields(maze).j
        traced.clear()
        vote_fan_route(j, maze, segment_corridors(maze))
        assert len(traced) >= 8
        assert sum(len(result.points) for *_, result in traced) > 1000
        for start, targets, channel, result in traced:
            points, end = array_streamline(j, start, targets, channel)
            assert np.array_equal(result.points, points)
            assert result.termination.value == end
            ends.add(end)
    assert {"reached", "stalled", "field_vanished"} <= ends


@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    h=st.sampled_from((0.25, 0.5, 0.37, 1.0)),
    seed=st.integers(0, 10_000),
    u=st.floats(-0.3, 1.3),
    v=st.floats(-0.3, 1.3),
    quiet=st.booleans(),
)
def test_list_sampler_matches_array_sampler_bit_for_bit(shape, h, seed, u, v, quiet):
    """The sampler's unit direction and magnitude are those of the
    element-wise numpy sample: inside the grid, on its rim and beyond it
    (clamped), on grids one cell wide, and at or below the speed floor,
    where the direction is zero."""
    rng = np.random.default_rng(seed)
    vx, vy = rng.normal(size=shape), rng.normal(size=shape)
    if quiet:  # all but one cell far below the floor of 1e-9 of the peak
        vx[1:] *= 1e-12
        vy[1:] *= 1e-12
    j = dm.VectorField(vx, vy, h, dm.VectorQuantity.CURRENT_DENSITY)
    x, y = u * shape[1] * h, v * shape[0] * h
    ax, ay = array_bilinear(j, x, y)
    s = float(np.hypot(ax, ay))
    floor = 1e-9 * float(np.hypot(vx, vy).max())
    want = (0.0, 0.0, s) if s <= floor else (ax / s, ay / s, s)
    assert oracle._RowField.of(j).sample(x, y) == want


def test_streamline_that_keeps_exploring_stops_at_its_budget():
    """An outward spiral enters a new cell every few steps, so it never
    stalls; it stops at the budget, 4 steps per cell above the floor."""
    n = 40
    c = np.arange(n) + 0.5 - n / 2
    rx, ry = np.meshgrid(c, c)
    j = VectorField(-ry + 0.005 * rx, rx + 0.005 * ry, 1.0, VectorQuantity.CURRENT_DENSITY)
    sl = streamline(j, (n / 2 + 10.0, n / 2))
    assert sl.termination is StreamTermination.MAX_STEPS
    assert len(sl.points) - 1 == 4 * n * n
    assert np.hypot(*(sl.points[-1] - n / 2)) > 12.0


# A closed corridor loop cut off from the electrodes' corridor: its
# skeleton is a cycle with no junction on it.
LOOP_MAZE = "\n".join([
    "##############",
    "#S..........T#",
    "##############",
    "#............#",
    "#............#",
    "#..########..#",
    "#..########..#",
    "#............#",
    "#............#",
    "##############",
])

# SHA-256 of each array's dtype, shape and bytes, recorded before the two
# chain walks of segment_corridors were merged into one; ring_m2_0.125mm's
# before the skeleton read neighbour codes.
SEGMENTATION_DIGESTS = {
    "bifurcation_lock": {
        "region": "6916953c6cebb657f4d0c4217244aa1a69a90386e417f9efb8bead8cd719abe1",
        "is_node": "89f56f26dfcc25eac3017f3d1affc4f60901427eee8c5fdf21901b04fff05d15",
        "skeleton": "c7abf5ad877e11520682713fc2aa50f0a8162195a131c7299e8e3c5d813a9f7f",
        "width_cells": 8.0,
    },
    "bifurcation_symmetric": {
        "region": "f985d99b467e96d22dc0abaa0cf22407501390aa456b48d5c3d1f6e9cce95a6c",
        "is_node": "89f56f26dfcc25eac3017f3d1affc4f60901427eee8c5fdf21901b04fff05d15",
        "skeleton": "31e602d3a241b6da281149c29d4eca9e6c18f1f3e8e73386c33df21688c91faa",
        "width_cells": 8.0,
    },
    "loop": {
        "region": "5d56754f6fe7d12f723303b492685cfa82406287fbead57a63258d67ddb4fc0a",
        "is_node": "637b19475c59ab43ac6999431b52fab1dd1793033b9e905c9baa9663e11b9578",
        "skeleton": "3d0f1c0ce6e088c6dbb3faddb3ab084b2d490d4fc15783d54a3efb5fadd51f62",
        "width_cells": 2.0,
    },
    "ring_coated": {
        "region": "a653ec72b2bd124c3744a733381304ad0fd0af95841500ad90563c4adf4d9c36",
        "is_node": "5b7c7259fd57e858fc063c45e735d464701a01288076a82f4276e3aa6b243736",
        "skeleton": "0ce4a7903d9a0d24b373e374f33a1c48d2ac7e836b603a7fe5daa47dd18c1249",
        "width_cells": 10.0,
    },
    "ring_insulated": {
        "region": "a653ec72b2bd124c3744a733381304ad0fd0af95841500ad90563c4adf4d9c36",
        "is_node": "5b7c7259fd57e858fc063c45e735d464701a01288076a82f4276e3aa6b243736",
        "skeleton": "0ce4a7903d9a0d24b373e374f33a1c48d2ac7e836b603a7fe5daa47dd18c1249",
        "width_cells": 10.0,
    },
    "ring_m1": {
        "region": "e5255a7594f45aa000d5c8cf96a53bc62dbb40d01cc664883488917ee2d95f07",
        "is_node": "c93ba005ce9b9f309ff6565461f4cb5b738a1732f672aaed6647837f6d2ccaf7",
        "skeleton": "7c0455aa32313130f45eb036fb3eb07f8856b9ee3f1951487504c72e16eeb741",
        "width_cells": 8.0,
    },
    "ring_m2": {
        "region": "a653ec72b2bd124c3744a733381304ad0fd0af95841500ad90563c4adf4d9c36",
        "is_node": "5b7c7259fd57e858fc063c45e735d464701a01288076a82f4276e3aa6b243736",
        "skeleton": "0ce4a7903d9a0d24b373e374f33a1c48d2ac7e836b603a7fe5daa47dd18c1249",
        "width_cells": 10.0,
    },
    "ring_m2_0.25mm": {
        "region": "c90d715a98a266f66996c561338bac86d0496b751e40bed08ffcf534c1411d68",
        "is_node": "a8bd9df6f2ef4371c7b7161501e474128853f2be2eb1efea4c076d480420d41d",
        "skeleton": "6b0bc2f9a26bfc0b333f46ff61869f8b340bfd0abaf5e643ac1699489459f0d0",
        "width_cells": 18.0,
    },
    "ring_m2_0.125mm": {
        "region": "b015e8631b41cb802672e089ec455d373a667bdcbef92d8198606b27846326c3",
        "is_node": "a8bd9df6f2ef4371c7b7161501e474128853f2be2eb1efea4c076d480420d41d",
        "skeleton": "2c5d93161ce730cab9b4fbd8e76b39c5949c29cf78b45e79f973e462c32af3f4",
        "width_cells": 36.0,
    },
}


def _array_digest(a):
    a = np.asarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SEGMENTATION_DIGESTS))
def test_segmentation_matches_recorded_digests(name):
    maze = parse_maze(LOOP_MAZE) if name == "loop" else corpus_maze(name)
    seg = segment_corridors(maze)
    assert {
        "region": _array_digest(seg.region),
        "is_node": _array_digest(seg.is_node),
        "skeleton": _array_digest(seg.skeleton),
        "width_cells": seg.width_cells,
    } == SEGMENTATION_DIGESTS[name]


@pytest.mark.parametrize("name", CORPUS)
def test_fan_step_budget(name, monkeypatch):
    """The reference fan's budget is 4 steps per cell whose |J| exceeds
    1e-9 of the peak, and every seed that reaches the target uses under a
    fifth of it. A seed that enters no new cell for 64 steps stalls
    instead of running the budget out: the coated ring's three
    wall-sliding seeds, after a few hundred steps."""
    maze = corpus_maze(name)
    j = compute_fields(maze).j
    magnitude = j.magnitude()
    budget = 4 * int(np.count_nonzero(magnitude > 1e-9 * magnitude.max()))
    fan = []
    real_streamline = oracle.streamline

    def recording(*args, **kwargs):
        result = real_streamline(*args, **kwargs)
        fan.append((len(result.points) - 1, result.termination))
        return result

    monkeypatch.setattr(oracle, "streamline", recording)
    vote_fan_route(j, maze, segment_corridors(maze))
    reached = [n for n, end in fan if end is StreamTermination.REACHED]
    stalled = [n for n, end in fan if end is StreamTermination.STALLED]
    assert reached and max(reached) < budget / 5
    assert not any(end is StreamTermination.MAX_STEPS for _, end in fan)
    # The coated ring's three wall ping-pong seeds, and no other.
    assert len(stalled) == (3 if name == "ring_coated" else 0)
    assert all(300 < n < 600 for n in stalled)


@pytest.mark.parametrize("rows, seeds", [(24, 24), (25, 13), (32, 16), (47, 24), (49, 17)])
def test_fan_traces_at_most_max_seeds_streamlines(rows, seeds, monkeypatch):
    """A straight channel `rows` cells tall has an electrode as tall, and
    its seed ring (the column two cells out) holds `rows` cells. The ring
    is thinned at the smallest stride that leaves at most _MAX_SEEDS
    seeds, so a ring of 25 to 47 cells is thinned too: the reference fan
    traces every seed left. The route's cross-check traces the same seeds
    until one follows the route, before the last here; with the field
    reversed none does, and it traces them all."""
    maze = parse_maze(straight_channel_text(length_cells=12, rows=rows))
    j = compute_fields(maze).j
    seg = segment_corridors(maze)
    calls = count_calls(monkeypatch, oracle.streamline)
    vote_fan_route(j, maze, seg)
    assert calls == {"streamline": seeds}
    assert seeds <= oracle._MAX_SEEDS
    calls.clear()
    ((seq, stream),) = trace_route_streamline(j, maze, seg)
    assert 1 <= calls["streamline"] < seeds
    assert stream.termination is StreamTermination.REACHED
    assert region_sequence(stream.cells(maze.cell_size), seg) == seq
    calls.clear()
    reversed_j = VectorField(-j.vx, -j.vy, j.cell_size, j.quantity,
                             face_flux_x=j.face_flux_x, face_flux_y=j.face_flux_y)
    assert trace_route_streamline(reversed_j, maze, seg)[0][0] == seq
    assert calls == {"streamline": seeds}


def _mirrored(j, scale=1.0):
    """j plus its mirror image about the grid's middle row, face currents
    too, times scale (an (ny, 1) array of row factors, or 1)."""
    scale = np.broadcast_to(scale, (j.ny, 1))
    return VectorField(
        (j.vx + j.vx[::-1]) * scale,
        (j.vy - j.vy[::-1]) * scale,
        j.cell_size,
        j.quantity,
        face_flux_x=(j.face_flux_x + j.face_flux_x[::-1]) * scale,
        face_flux_y=(j.face_flux_y - j.face_flux_y[::-1]) * scale[:-1],
    )


def test_fan_reports_both_branches_of_a_mirrored_field():
    """On an exactly mirror-symmetric field the two branches of the
    symmetric bifurcation carry currents that agree to rounding: the route
    returns one streamline per branch, in sequence order, each reaching
    the target through its branch, as the reference fan's votes do. On
    the solved field the currents differ in their last bits only, which
    a tol below that spread lets settle the pick again."""
    maze = corpus_maze("bifurcation_symmetric")
    j = compute_fields(maze).j
    mirrored = _mirrored(j)
    seg = segment_corridors(maze)
    branches = trace_route_streamline(mirrored, maze, seg=seg)
    want = [(4, 5, 6, 7, 11), (4, 8, 9, 10, 11)]
    assert [seq for seq, _ in branches] == want
    assert [seq for seq, _ in vote_fan_route(mirrored, maze, seg)] == want
    for seq, stream in branches:
        assert stream.termination is StreamTermination.REACHED
        assert region_sequence(stream.cells(maze.cell_size), seg) == seq
    assert len(trace_route_streamline(j, maze, seg=seg)) == 2
    assert len(trace_route_streamline(j, maze, seg=seg, tol=1e-15)) == 1


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.cfg")))
def test_fan_returns_each_branch_with_its_own_sequence(name):
    """Each branch's corridor sequence is the one its streamline visits."""
    solved = scenario.prepare_fields(load_config(CONFIGS / f"{name}.cfg"))
    h = solved.maze.cell_size
    assert solved.branches
    for seq, stream in solved.branches:
        assert seq == region_sequence(stream.cells(h), solved.seg)


@pytest.mark.parametrize("name", ["bifurcation_symmetric", "bifurcation_lock"])
def test_route_reports_a_tie_only_where_the_branches_are_equal(name):
    """The oracle reads the symmetric maze's currents as a tie and reports
    the tied branch on the Lee path; the lock maze, whose branches differ
    by a few cells, has none."""
    report = run_scenario(load_config(CONFIGS / f"{name}.cfg")).report["oracle"]
    assert report["streamline_matches_path"]
    assert report["streamline_follows_route"]
    if name == "bifurcation_symmetric":
        assert report["streamline_tie"] == [[4, 5, 6, 7, 11], [4, 8, 9, 10, 11]]
        assert report["streamline_sequence"] == report["path_sequence"] == [4, 8, 9, 10, 11]
    else:
        assert report["streamline_tie"] == []


@pytest.mark.parametrize("start", ["axis", "21.25,23.25"])
def test_route_report_does_not_depend_on_the_fan_order(start, tmp_path):
    """The route returns the symmetric maze's tied branches in corridor-
    sequence order, whichever branch the solve's error makes heavier: on
    the mirrored field and face currents with the rows above the axis
    scaled by 1 + 1e-7 or by 1 - 1e-7, either branch gets the larger
    current, still within the tie. (The mirrored currents balance only to
    the solve's residual, so its branches differ by about 1e-9 relative
    before the scaling.) The route stage lists them in that order, and
    reports the tied branch on the Lee path or, from a start inside one
    branch whose path follows neither, the first in that order."""
    cfg = dataclasses.replace(load_config(CONFIGS / "bifurcation_symmetric.cfg"), start=start)
    want = run_oracle_only(cfg, tmp_path / "fan")["oracle"]
    solved = scenario.prepare_fields(cfg)
    maze, j = solved.maze, solved.fields.j
    above = (np.arange(maze.ny) < maze.ny // 2)[:, None]
    orders = []
    for factor in (1 + 1e-7, 1 - 1e-7):
        field = _mirrored(j, np.where(above, factor, 1.0))
        route = current_route(field, maze, solved.seg)
        branch = [route.region_current[seq[1]] for seq in route.sequences]
        assert (branch[0] > branch[1]) == (factor > 1)
        orders.append([seq for seq, _ in trace_route_streamline(field, maze, solved.seg)])
    assert orders[0] == orders[1] == [(4, 5, 6, 7, 11), (4, 8, 9, 10, 11)]
    assert want["streamline_tie"] == [[4, 5, 6, 7, 11], [4, 8, 9, 10, 11]]
    if start == "axis":
        assert want["streamline_sequence"] == want["path_sequence"] == [4, 8, 9, 10, 11]
    else:
        assert want["path_sequence"] == [9, 10, 11]
        assert want["streamline_sequence"] == [4, 5, 6, 7, 11]


def _workload_configs(monkeypatch, name, seed):
    """The configs of a benchmark workload (bench/workloads.py)."""
    monkeypatch.syspath_prepend(str(CONFIGS.parent / "bench"))
    from workloads import config_text, make_workload

    return [scenario.parse_config(config_text(c.config)) for c in make_workload(name, seed).cases]


@pytest.mark.parametrize(
    "source", ["configs"] + [f"{w}:{s}" for w in ("ring_fine", "droplet_sweep") for s in (0, 1, 5)]
)
def test_current_route_gives_the_reference_fans_branches(source, monkeypatch):
    """On the six configs and on both benchmark workloads' mazes at seeds
    0, 1 and 5, the route from corridor currents has the reference fan's
    sequences and ties, and its streamline follows every branch."""
    if source == "configs":
        configs = [load_config(p) for p in sorted(CONFIGS.glob("*.cfg"))]
    else:
        name, seed = source.split(":")
        configs = _workload_configs(monkeypatch, name, int(seed))
    keys = set()
    for cfg in configs:
        solved = scenario.prepare_fields(cfg)
        if solved.key in keys:
            continue
        keys.add(solved.key)
        j, maze, seg, h = solved.fields.j, solved.maze, solved.seg, solved.maze.cell_size
        fan = vote_fan_route(j, maze, seg, solved.fields.report.tol)
        assert [seq for seq, _ in solved.branches] == [seq for seq, _ in fan]
        assert solved.route.sequences == tuple(seq for seq, _ in fan)
        for seq, stream in solved.branches:
            assert stream.termination is StreamTermination.REACHED
            assert region_sequence(stream.cells(h), seg) == seq
    assert len(keys) == (3 if source.startswith("droplet") else 5 if source == "configs" else 1)


@pytest.mark.parametrize("seed", [3, 4])
def test_route_breaks_a_shared_bottleneck_by_the_next_corridor(seed):
    """On these two-gap rings several downstream paths share the narrowest
    corridor, so the widest-path rule alone would tie them. The next-
    narrowest corridors tell them apart, and the route is the one the
    reference fan votes for."""
    cfg = scenario.parse_config(
        f"generator = ring\nrings = 2\ngaps_per_ring = 2,2\ndiameter_mm = 70\n"
        f"channel_width_mm = 4\nseed = {seed}\n"
    )
    solved = scenario.prepare_fields(cfg)
    j, maze, seg = solved.fields.j, solved.maze, solved.seg
    (route,) = solved.route.sequences
    fan = vote_fan_route(j, maze, seg, solved.fields.report.tol)
    assert [seq for seq, _ in fan] == [route]
    currents = solved.route.region_current
    bottleneck = min(currents[r] for r in route)
    sharing = set()
    for alternative in _downstream_sequences(solved):
        if alternative != route and min(currents[r] for r in alternative) == bottleneck:
            sharing.add(alternative)
    assert sharing


def _downstream_sequences(solved):
    """Every downstream path's corridor sequence, searched over the net
    currents the reference scan gives."""
    seg, maze = solved.seg, solved.maze
    net = region_net_currents_by_scan(solved.fields.j, seg.region)
    sinks = {int(seg.region[iy, ix]) for ix, iy in maze.negative}
    found, stack = set(), [(int(seg.region[iy, ix]),) for ix, iy in maze.positive]
    while stack:
        path = stack.pop()
        if path[-1] in sinks:
            found.add(tuple(r for r in path if not seg.is_node[r]))
            continue
        stack += [path + (b,) for (a, b), f in net.items()
                  if a == path[-1] and f > 0 and b not in path]
    return found


def test_route_without_face_currents_raises():
    """The route is read from the solve's face currents: a field that
    carries none (a synthetic one) has no route."""
    maze = corpus_maze("ring_m2")
    j = compute_fields(maze).j
    bare = VectorField(j.vx, j.vy, j.cell_size, j.quantity)
    seg = segment_corridors(maze)
    with pytest.raises(ValueError, match="no face currents"):
        trace_route_streamline(bare, maze, seg)
    with pytest.raises(ValueError, match="no face currents"):
        current_route(bare, maze, seg)


# A coated four-ring maze on which no seed's streamline follows the route
# from the currents; the strongest seed's trace ends `field_vanished`.
NO_FOLLOW_CFG = """\
generator = ring
rings = 4
gaps_per_ring = 1,1,1,1
diameter_mm = 110
channel_width_mm = 4
seed = 7
coat_corners = true
"""


def test_route_no_streamline_follows_is_reported(tmp_path, monkeypatch):
    """Where no seed's trace follows the route, every seed is traced, the
    strongest seed's trace is reported, `streamline_follows_route` is
    false, and `oracle` still exits 0."""
    config = tmp_path / "no_follow.cfg"
    config.write_text(NO_FOLLOW_CFG)
    traced = []
    real_streamline = oracle.streamline

    def recording(j, start, **kwargs):
        weight = oracle._RowField.of(j).sample(*start)[2]
        traced.append((weight, real_streamline(j, start, **kwargs)))
        return traced[-1][1]

    monkeypatch.setattr(oracle, "streamline", recording)
    scenario._forget_solved_maze()
    assert main(["oracle", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "oracle.json").read_text())["oracle"]
    solved = scenario.prepare_fields(load_config(config))
    ((seq, stream),) = solved.branches
    assert report["streamline_follows_route"] is False
    assert report["streamline_sequence"] == list(seq) == report["path_sequence"]
    assert len(traced) == 12
    assert [w for w, _ in traced] == sorted((w for w, _ in traced), reverse=True)
    assert stream is traced[0][1]
    assert report["streamline_termination"] == stream.termination.value


def test_route_currents_explain_the_ring():
    """On ring_m2 the route's two corridors carry 77 % and 81 % of the
    current in, and the closest call is a 64 % gap. Each region's current
    is half the absolute net current it exchanges with its neighbours,
    the face currents summed face by face."""
    solved = scenario.prepare_fields(load_config(CONFIGS / "ring_m2.cfg"))
    route, current_in = solved.route, solved.fields.report.current_in
    ((seq, _),) = solved.branches
    assert route.sequences == (seq,) == ((7, 9),)
    shares = [route.region_current[r] / current_in for r in seq]
    assert shares == pytest.approx([0.771, 0.806], abs=1e-3)
    assert route.split_margin == pytest.approx(0.643, abs=1e-3)
    want = region_currents_by_scan(solved.fields.j, solved.seg.region, solved.seg.n_regions)
    assert route.region_current.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12 * current_in)


def test_cross_check_holds_no_copy_of_the_grid():
    """The sampler reads the field's rows through memoryviews, so a value
    becomes a Python float only when a sample reads it. The route's
    cross-check on ring_m2 at 0.25 mm cells (280 x 280) peaks below two
    float64 copies of J (2.5 MB), where J's rows as lists of Python floats
    alone would take 5 MB."""
    maze = corpus_maze("ring_m2_0.25mm")
    j = compute_fields(maze).j
    seg = segment_corridors(maze)
    tracemalloc.start()
    try:
        trace_route_streamline(j, maze, seg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * (j.vx.nbytes + j.vy.nbytes)


@pytest.mark.parametrize("name", ["ring_m2", "bifurcation_lock"])
def test_cell_overlap_equals_region_scan(name):
    """Every overlap of the pipeline is the float that comparing the
    visited regions' cell sets gives."""
    result = run_scenario(load_config(CONFIGS / f"{name}.cfg"))
    seg, path, h = result.solved.seg, result.path, result.maze.cell_size
    traj_cells = [(int(x // h), int(y // h)) for x, y in result.trajectory.positions_mm()]
    ((_, stream),) = result.solved.branches
    routes = [traj_cells, stream.cells(h), path.cells, [], path.cells[: len(path.cells) // 3]]
    overlaps = set()
    for a in routes:
        for b in routes:
            want = region_overlap_by_scan(region_sequence(a, seg), region_sequence(b, seg), seg.region)
            assert seg.cell_overlap(region_sequence(a, seg), region_sequence(b, seg)) == want
            overlaps.add(want)
    assert 0.0 in overlaps and 1.0 in overlaps and len(overlaps) > 2
    comparison, p_seq = result.report["comparison"], result.report["oracle"]["path_sequence"]
    assert comparison["cell_overlap"] == region_overlap_by_scan(
        comparison["trajectory_sequence"], p_seq, seg.region
    )
