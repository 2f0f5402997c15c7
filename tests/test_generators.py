import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dropmaze as dm
from dropmaze.generators import bifurcation_layout, generate_bifurcation_maze, generate_ring_maze
from dropmaze.maze import GeometryError, validate_and_components
from dropmaze.oracle import extract_path, lee_label


def test_single_ring_single_gap_solvable():
    spec = generate_ring_maze(1, [1], diameter_mm=40.0, channel_width_mm=4.0, seed=3)
    assert validate_and_components(spec).solvable


def test_four_ring_maze_has_route_to_e1():
    spec = generate_ring_maze(4, [1, 1, 1, 1], diameter_mm=120.0, channel_width_mm=6.0, seed=7)
    assert validate_and_components(spec).solvable
    labels = lee_label(spec)
    for ix, iy in spec.positive:
        assert labels[iy, ix] >= 0


def test_m2_scale_analogue_dimensions():
    spec = generate_ring_maze(2, [1, 1], diameter_mm=70.0, channel_width_mm=4.0, seed=0)
    assert spec.nx * spec.cell_size == pytest.approx(70.0, abs=1.0)
    assert spec.cell_size == 0.5
    assert spec.applied_voltage == 5.0


def test_ring_maze_deterministic_per_seed():
    a = generate_ring_maze(2, [1, 1], seed=11)
    b = generate_ring_maze(2, [1, 1], seed=11)
    c = generate_ring_maze(2, [1, 1], seed=12)
    assert a == b
    assert a != c


def test_ring_geometry_infeasible():
    with pytest.raises(GeometryError, match="diameter"):
        generate_ring_maze(6, [1] * 6, diameter_mm=40.0, channel_width_mm=4.0)


def test_ring_needs_three_cells_of_width():
    with pytest.raises(GeometryError, match="3 cells"):
        generate_ring_maze(1, [1], channel_width_mm=1.0, cell_size_mm=0.5)


@pytest.mark.parametrize("diameter_mm, n", [(20.0, 40), (20.5, 41)])
@pytest.mark.parametrize("seed", [0, 5])
def test_ring_positive_electrode_sits_at_the_centre_of_the_narrowest_maze(diameter_mm, n, seed):
    """At the narrowest channel (3 cells) the chamber still holds the cell
    nearest the grid centre: it lies at the centre when n is odd, half a
    cell off in x and y when n is even."""
    h = 0.5
    spec = generate_ring_maze(1, [1], diameter_mm=diameter_mm, channel_width_mm=3 * h,
                              seed=seed, cell_size_mm=h)
    assert spec.nx == spec.ny == n
    assert spec.positive
    channel = spec.channel_mask()
    for ix, iy in spec.positive:
        assert channel[iy, ix]
        assert np.hypot((ix + 0.5) * h - n * h / 2, (iy + 0.5) * h - n * h / 2) <= 1.5 * h


@pytest.mark.parametrize("wall_mm", [0.0, -1.0])
def test_ring_wall_must_be_positive(wall_mm):
    with pytest.raises(GeometryError, match="wall_mm"):
        generate_ring_maze(2, [1, 1], diameter_mm=70.0, wall_mm=wall_mm)


def test_ring_gap_count_validation():
    with pytest.raises(GeometryError, match="entries"):
        generate_ring_maze(2, [1], diameter_mm=70.0)


def test_bifurcation_symmetric_grid_is_mirror_invariant():
    spec = generate_bifurcation_maze(40.0, 40.0, 4.0)
    assert np.array_equal(spec.cells, np.flipud(spec.cells))
    # electrodes mirror onto themselves as cell sets
    for cells in (spec.positive, spec.negative):
        mirrored = {(ix, spec.ny - 1 - iy) for ix, iy in cells}
        assert mirrored == cells


def test_bifurcation_paper_lengths_within_one_cell():
    lay = bifurcation_layout(38.0, 42.0, 4.0)
    assert abs(lay.branch_a_cells * 0.5 - 38.0) <= 0.5
    assert abs(lay.branch_b_cells * 0.5 - 42.0) <= 0.5
    spec = generate_bifurcation_maze(38.0, 42.0, 4.0)
    assert validate_and_components(spec).solvable


def test_bifurcation_35_36_mm_branches_do_not_tie():
    """35 and 36 mm at 0.5 mm cells leave each branch an odd 35 cells and
    37 cells beyond the shared run; halving rounds the shorter's rise down
    and the longer's up instead of both to the even 18."""
    lay = bifurcation_layout(35.0, 36.0, 4.0)
    assert (lay.branch_a_cells, lay.branch_b_cells) == (69, 73)


@settings(max_examples=300)
@given(
    st.integers(40, 160),
    st.integers(40, 160),
    st.sampled_from([(4.0, 0.5), (2.0, 0.5), (4.0, 1.0), (2.0, 0.25)]),
)
def test_bifurcation_shorter_branch_stays_strictly_shorter(la, lb, width_and_cell):
    """Branches of la and lb cells keep their order, ties included, and each
    is within one cell of its length."""
    width_mm, h = width_and_cell
    lay = bifurcation_layout(la * h, lb * h, width_mm, h)
    a, b = lay.branch_a_cells, lay.branch_b_cells
    assert (a < b, a == b) == (la < lb, la == lb)
    assert abs(a - la) <= 1 and abs(b - lb) <= 1


def test_bifurcation_short_branch_carries_lee_path():
    spec = generate_bifurcation_maze(20.0, 60.0, 2.0)
    labels = lee_label(spec)
    start = sorted(spec.positive)[0]
    path = extract_path(labels, start, spec.cell_size)
    lay = bifurcation_layout(20.0, 60.0, 2.0)
    axis_row = lay.inlet_row + lay.width_cells // 2
    # branch a is the upper one; the shortest route must rise above the inlet
    assert min(iy for _, iy in path.cells) < lay.inlet_row
    assert max(iy for _, iy in path.cells) < lay.bottom_row + lay.width_cells
    assert path.length_cells == labels[start[1], start[0]]
    del axis_row


def test_bifurcation_requires_room_for_branches():
    with pytest.raises(GeometryError, match="exceed|fit"):
        generate_bifurcation_maze(7.0, 7.0, 4.0)


def test_generated_mazes_always_solvable_property():
    for seed in range(6):
        ring = generate_ring_maze(2, [1, 1], seed=seed)
        assert validate_and_components(ring).solvable
    for la, lb in ((30.0, 30.0), (25.0, 45.0), (38.0, 42.0)):
        bif = generate_bifurcation_maze(la, lb, 4.0)
        assert validate_and_components(bif).solvable
