import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import dropmaze as dm
from dropmaze.maze import (
    CellKind,
    MazeError,
    MazeFormatError,
    coat_sharp_corners,
    conductivity_grid,
    convex_corner_cells,
    emit_maze,
    label_components,
    parse_maze,
    validate_and_components,
)

from dropmaze.generators import generate_bifurcation_maze
from dropmaze.scenario import build_maze

from conftest import ring_config
from oracles import (
    convex_corner_cells_by_loop,
    deque_components,
    flood_fill_components,
    scan_glyph_grid,
)


def test_parse_minimal_strip():
    spec = parse_maze("S.T")
    assert (spec.nx, spec.ny) == (3, 1)
    assert spec.cells.tolist() == [[0, 0, 0]]
    assert spec.positive == {(0, 0)}
    assert spec.negative == {(2, 0)}
    # defaults applied
    assert spec.cell_size == 0.5
    assert spec.sigma_electrolyte == 10.0


def test_parse_missing_negative_electrode():
    with pytest.raises(MazeError, match="no negative electrode"):
        parse_maze("S..")


def test_parse_missing_positive_electrode():
    with pytest.raises(MazeError, match="no positive electrode"):
        parse_maze("..T")
    # MazeSpec checks the header's values before the electrodes.
    with pytest.raises(MazeError, match="applied_voltage must be positive"):
        parse_maze("voltage = -1\n\n..T")


# Maze texts with a fault, and its message, line and column (None for a
# fault of a whole line).
_GRID_FAULTS = [
    ("S.T\n.?.\n...", "unknown glyph '?'", 2, 2),
    # A non-ASCII glyph, after one that is not a glyph either.
    ("S.T\n.\u00e9\u2603", "unknown glyph '\u00e9'", 2, 2),
    ("S.T\n..\u00e9", "unknown glyph '\u00e9'", 2, 3),
    # A bad glyph on a row after good rows, below a header.
    ("voltage = 2\n\nS.T\n...\n#+#\n..x", "unknown glyph 'x'", 6, 3),
    # The first bad row decides, whichever its fault.
    ("S.T\n.?.\n.....", "unknown glyph '?'", 2, 2),
    ("S.T\n.....\n.?.", "grid line length 5 != 3", 2, 6),
    # A tab on any line is the fault reported, below the grid's first row,
    # on a separator line, or below a line with another fault.
    ("S.T\n...\n.\t.", "tabs are not allowed", 3, 2),
    ("voltage = 1\n\n\t\nS.T", "tabs are not allowed", 3, 1),
    ("voltage = x\n\nS.T\n.\t.", "tabs are not allowed", 4, 2),
    ("voltage = 2\n\nS.T\n \n...\n\n", "blank line inside grid block", 4, None),
    ("voltage = 2\n\n \n", "no grid block found", 3, None),
]


def test_parse_reports_line_and_column():
    for text, message, line, col in _GRID_FAULTS:
        with pytest.raises(MazeFormatError) as err:
            parse_maze(text)
        where = f"line {line}" if col is None else f"line {line}, col {col}"
        assert str(err.value) == f"{message} ({where})"
        assert (err.value.line, err.value.col) == (line, col)


def test_parse_rejects_tabs():
    with pytest.raises(MazeFormatError, match="tabs"):
        parse_maze("S.\tT")


def test_parse_rejects_ragged_grid():
    with pytest.raises(MazeFormatError, match="length"):
        parse_maze("S.T\n....")


def test_parse_rejects_unknown_header_key():
    with pytest.raises(MazeFormatError, match="unknown header key"):
        parse_maze("cell_size = 1\n\nS.T")
    with pytest.raises(MazeFormatError, match=r"duplicate header key 'voltage' \(line 2\)"):
        parse_maze("voltage = 1\nvoltage = 2\n\nS.T")


def test_parse_rejects_bad_header_value():
    with pytest.raises(MazeFormatError, match="bad numeric value"):
        parse_maze("voltage = five\n\nS.T")


HAND_MAZE = """\
cell_size_mm = 1.0
sigma_electrolyte = 12.5
sigma_wall = 0.0
sigma_coating = 250000.0
voltage = 7.5

################
#S.....#.......#
#......#.......#
#..#####..###..#
#..+...#..#.#..#
#..#.#.#..#.#..#
#..#.#....#.#..#
#..#.#######.#.#
#..#.........#.#
#..###########.#
#..............#
#..###########.#
#..#.........#.#
#..#.#######.#.#
#............#T#
################
"""


def test_hand_maze_round_trip_and_coated_cells():
    spec = parse_maze(HAND_MAZE)
    assert (spec.nx, spec.ny) == (16, 16)
    coated = np.argwhere(spec.cells == CellKind.COATED_WALL)
    assert [(int(x), int(y)) for y, x in coated] == [(3, 4)]
    # canonical re-emission parses back to an equal spec
    assert parse_maze(emit_maze(spec)) == spec
    # and emission is canonical: emitting the reparse gives identical text
    assert emit_maze(parse_maze(emit_maze(spec))) == emit_maze(spec)


def _grid_strategy():
    glyph = st.sampled_from(".#")
    row = st.lists(glyph, min_size=3, max_size=9)
    return st.lists(row, min_size=2, max_size=9).filter(
        lambda rows: len({len(r) for r in rows}) == 1
    )


@given(
    grid=_grid_strategy(),
    cell=st.floats(0.1, 5.0, allow_nan=False),
    sig=st.floats(1.0, 100.0, allow_nan=False),
    volt=st.floats(0.5, 50.0, allow_nan=False),
    data=st.data(),
)
def test_round_trip_property(grid, cell, sig, volt, data):
    ny, nx = len(grid), len(grid[0])
    cells = [list(r) for r in grid]
    spots = [(x, y) for y in range(ny) for x in range(nx)]
    s_cell = data.draw(st.sampled_from(spots))
    t_cell = data.draw(st.sampled_from([c for c in spots if c != s_cell]))
    cells[s_cell[1]][s_cell[0]] = "S"
    cells[t_cell[1]][t_cell[0]] = "T"
    text = (
        f"cell_size_mm = {cell!r}\nsigma_electrolyte = {sig!r}\nvoltage = {volt!r}\n\n"
        + "\n".join("".join(r) for r in cells)
    )
    spec = parse_maze(text)
    assert parse_maze(emit_maze(spec)) == spec


def _grid_row(min_size, max_size):
    return st.text(st.sampled_from(".#+ST"), min_size=min_size, max_size=max_size)


@settings(max_examples=300)
@given(width=st.integers(1, 6), data=st.data())
def test_grid_read_matches_a_glyph_by_glyph_scan(width, data):
    """parse_maze reads a grid as the glyph-by-glyph scan does: the same
    cells and electrode sets, or the same first fault at the same line
    and column."""
    rows = data.draw(st.lists(_grid_row(width, width), min_size=1, max_size=6))
    if data.draw(st.integers(0, 3)) == 0:  # one row of any length
        rows.insert(data.draw(st.integers(0, len(rows))), data.draw(_grid_row(1, 7)))
    for _ in range(data.draw(st.integers(0, 2))):  # characters that are no glyph
        iy = data.draw(st.integers(0, len(rows) - 1))
        ix = data.draw(st.integers(0, len(rows[iy]) - 1))
        bad = data.draw(st.sampled_from(["x", "?", " ", "\u00e9", "\u2603"]))
        rows[iy] = rows[iy][:ix] + bad + rows[iy][ix + 1 :]
    rows = [row if row.strip() else "#" * len(row) for row in rows]
    text = "voltage = 2.0\n\n" + "\n".join(rows) + "\n"
    found = scan_glyph_grid(rows)
    if isinstance(found[0], str):
        message, iy, col = found
        with pytest.raises(MazeFormatError) as err:
            parse_maze(text)
        assert str(err.value) == f"{message} (line {iy + 3}, col {col})"
    elif not found[1] or not found[2]:
        with pytest.raises(MazeError, match="electrode"):
            parse_maze(text)
    else:
        spec = parse_maze(text)
        assert spec.cells.tolist() == found[0]
        assert (spec.positive, spec.negative) == found[1:]


def test_components_single_corridor():
    spec = parse_maze("S..T")
    rep = validate_and_components(spec)
    assert rep.n_components == 1
    assert rep.solvable


def test_components_sealed_wall():
    spec = parse_maze("S..\n###\n..T")
    rep = validate_and_components(spec)
    assert rep.n_components == 2
    assert not rep.solvable
    assert rep.labels[0, 0] != rep.labels[2, 2]


def test_components_match_flood_fill_on_ring(ring_maze):
    rep = validate_and_components(ring_maze)
    assert rep.solvable
    assert rep.n_components == flood_fill_components(ring_maze.channel_mask())
    assert rep.n_components == 1


@pytest.mark.parametrize(
    "maze",
    [
        pytest.param(lambda: generate_bifurcation_maze(38.0, 42.0, 4.0), id="bifurcation_lock"),
        pytest.param(lambda: build_maze(ring_config(cell_size_mm=0.25)), id="ring_m2_0.25mm"),
        pytest.param(lambda: build_maze(ring_config(coat_corners=True)), id="ring_coated"),
    ],
)
def test_component_labels_match_deque_flood_fill(maze):
    maze = maze()
    rep = validate_and_components(maze)
    labels, count = deque_components(maze.channel_mask())
    assert rep.labels.dtype == np.int32
    assert np.array_equal(rep.labels, labels)
    assert rep.n_components == count


@given(st.integers(0, 10_000))
def test_component_labels_match_deque_flood_fill_on_random_masks(seed):
    """Sparse random masks break into many components, numbered in
    row-major order of their first cell."""
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 30)), int(rng.integers(2, 30)))
    cells = np.where(rng.random(shape) < rng.choice([0.3, 0.5, 0.7]), 0, 1).astype(np.int8)
    flat = cells.reshape(-1)
    pos, neg = rng.choice(flat.size, size=2, replace=False)
    flat[[pos, neg]] = CellKind.CHANNEL
    nx = shape[1]
    spec = dm.MazeSpec(cells, {(int(pos % nx), int(pos // nx))}, {(int(neg % nx), int(neg // nx))})
    rep = validate_and_components(spec)
    labels, count = deque_components(spec.channel_mask())
    assert np.array_equal(rep.labels, labels)
    assert rep.n_components == count
    assert rep.solvable == (labels.flat[pos] == labels.flat[neg])


@settings(max_examples=300)
@given(arrays(np.bool_, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24)))
@example(np.ones((1, 9), dtype=bool))
@example(np.ones((9, 1), dtype=bool))
@example(np.array([[True, False, True, True, False, True]]))
@example(np.array([[True], [False], [True], [True]]))
@example(np.ones((6, 7), dtype=bool))
@example(np.zeros((6, 7), dtype=bool))
@example(np.indices((7, 8)).sum(axis=0) % 2 == 0)
def test_label_components_matches_the_flood_fills(mask):
    """Row runs with union-find give the deque flood fill's labels at
    4-connectivity, numbering included, and the plain flood fill's count
    at 8-connectivity. The examples add single rows and columns, all-open
    and all-wall grids, and a checkerboard, whose cells touch only at
    corners."""
    labels, count = label_components(mask)
    want, want_count = deque_components(mask)
    assert labels.dtype == np.int32
    assert np.array_equal(labels, want)
    assert count == want_count
    labels8, count8 = label_components(mask, diagonal=True)
    assert count8 == flood_fill_components(mask, diagonal=True)
    assert labels8.dtype == np.int32
    assert np.array_equal(labels8 < 0, ~mask)
    # Numbered in row-major order of each component's first cell.
    in_order = labels8[mask]
    assert np.array_equal(np.unique(in_order), np.arange(count8))
    assert np.all(np.diff(np.maximum.accumulate(in_order), prepend=-1) <= 1)


def test_component_labels_match_deque_flood_fill_with_thousands_of_pockets():
    """A 180x240 grid of sealed pockets, single cells and short runs, in
    and around a few larger random channels."""
    rng = np.random.default_rng(7)
    cells = np.where(rng.random((180, 240)) < 0.45, 0, 1).astype(np.int8)
    cells[::4, :] = CellKind.WALL
    cells[1, :] = cells[-2, :] = CellKind.CHANNEL
    spec = dm.MazeSpec(cells, {(0, 1)}, {(239, 178)})
    rep = validate_and_components(spec)
    labels, count = deque_components(spec.channel_mask())
    assert count > 3000
    assert rep.labels.dtype == np.int32
    assert np.array_equal(rep.labels, labels)
    assert rep.n_components == count
    assert not rep.solvable


def test_conductivity_uniform():
    spec = parse_maze("S..T\n....\n....\n....")
    sigma = conductivity_grid(spec)
    assert np.all(sigma == spec.sigma_electrolyte)


def test_conductivity_single_coated_cell():
    spec = parse_maze("S.+.T\n.....")
    sigma = conductivity_grid(spec)
    assert np.count_nonzero(sigma == spec.sigma_coating) == 1
    assert sigma[0, 2] == spec.sigma_coating


def test_conductivity_m2_analogue_range(ring_maze):
    sigma = conductivity_grid(ring_maze)
    assert sigma.min() == ring_maze.sigma_wall == 0.0
    # 0.5 mol/L NaOH handbook value used as the default electrolyte
    assert sigma.max() == 10.0


def test_conductivity_is_pure(ring_maze):
    a = conductivity_grid(ring_maze)
    b = conductivity_grid(ring_maze)
    assert a.tobytes() == b.tobytes()


def _electrodes(name: str, cells: set) -> dict:
    """MazeSpec's electrode keywords on a 3x2 channel grid: cells as the
    `name` set, and the channel cell (2, 1) as the other set."""
    other = "negative" if name == "positive" else "positive"
    return {name: cells, other: {(2, 1)}}


def test_invariant_electrode_on_wall_rejected():
    """Either set on a wall cell is rejected."""
    cells = np.zeros((2, 3), dtype=np.int8)
    cells[0, 0] = CellKind.WALL
    for name in ("positive", "negative"):
        with pytest.raises(MazeError, match="not a channel"):
            dm.MazeSpec(cells, **_electrodes(name, {(0, 0)}))


@pytest.mark.parametrize(
    "cells", [set(), {(3, 0)}, {(0, 2)}, {(-1, 0)}, {(0, -1)}],
    ids=["empty", "x=3", "y=2", "x=-1", "y=-1"],
)
@pytest.mark.parametrize("name", ["positive", "negative"])
def test_invariant_electrode_set_empty_or_out_of_bounds_rejected(name, cells):
    """Either set empty, or holding a cell past any edge of the 3x2 grid,
    is rejected; negative indices too, which numpy would wrap."""
    message = f"{name} electrode cell {min(cells)} out of bounds" if cells else f"no {name} electrode"
    with pytest.raises(MazeError, match=re.escape(message)):
        dm.MazeSpec(np.zeros((2, 3), dtype=np.int8), **_electrodes(name, cells))


def test_invariant_sigma_ordering_with_coating():
    cells = np.zeros((1, 4), dtype=np.int8)
    cells[0, 2] = CellKind.COATED_WALL
    with pytest.raises(MazeError, match="sigma_coating"):
        dm.MazeSpec(
            cells=cells,
            positive={(0, 0)},
            negative={(3, 0)},
            sigma_coating=1.0,
        )


def test_invariant_overlapping_electrodes_rejected():
    cells = np.zeros((1, 3), dtype=np.int8)
    with pytest.raises(MazeError, match="two electrodes"):
        dm.MazeSpec(
            cells=cells,
            positive={(0, 0)},
            negative={(0, 0)},
        )


L_MAZE = """\
##########
#S.......#
#........#
#...######
#...#.####
#...#..#T#
#...#..#.#
#...#....#
##########
"""


def test_convex_corners_on_hand_maze():
    spec = parse_maze(L_MAZE)
    corners = convex_corner_cells(spec)
    assert (4, 3) in corners  # the sharp tip between the two legs
    for ix, iy in corners:
        assert spec.cells[iy, ix] != CellKind.CHANNEL


def test_coat_sharp_corners_only_changes_corners():
    spec = parse_maze(L_MAZE)
    coated = coat_sharp_corners(spec)
    changed = np.argwhere(coated.cells != spec.cells)
    assert len(changed) == len(convex_corner_cells(spec))
    for iy, ix in changed:
        assert coated.cells[iy, ix] == CellKind.COATED_WALL
    # the electrodes and physics are untouched
    assert (coated.positive, coated.negative) == (spec.positive, spec.negative)
    assert coated.applied_voltage == spec.applied_voltage


class _Mask:
    """Stands in for a MazeSpec where only the channel mask is read."""

    def __init__(self, channel):
        self.channel = channel

    def channel_mask(self):
        return self.channel


@pytest.mark.parametrize("name", ["ring", "bifurcation", "ring_coated", "random"])
def test_convex_corners_match_cell_loop(name, ring_maze):
    if name == "random":
        rng = np.random.default_rng(5)
        shapes = (((1, 9), 0.5), ((9, 1), 0.5), ((13, 17), 0.4), ((40, 31), 0.6))
        masks = [rng.random(shape) < p for shape, p in shapes]
        # channel on every rim cell, so the shifts must not wrap around
        masks.append(np.pad(rng.random((20, 24)) < 0.3, 1, constant_values=True))
    else:
        spec = {
            "ring": ring_maze,
            "bifurcation": dm.generate_bifurcation_maze(38.0, 42.0, 4.0),
            "ring_coated": coat_sharp_corners(ring_maze),
        }[name]
        masks = [spec.channel_mask()]
    for channel in masks:
        want = convex_corner_cells_by_loop(channel)
        got = convex_corner_cells(_Mask(channel))
        assert got == want
        assert all(type(v) is int for cell in got for v in cell)
    assert want
