import numpy as np
import pytest

import dropmaze as dm
from dropmaze.maze import conductivity_grid
from dropmaze.render import (
    normalize_u8,
    read_field_csv,
    render_field,
    render_trajectory_overlay,
    write_field_csv,
    write_pgm,
)
from dropmaze.solver import Quantity, ScalarField, VectorField, VectorQuantity

from oracles import write_field_csv_by_cell


def test_constant_field_renders_mid_gray(tmp_path):
    field = ScalarField(np.full((5, 7), 3.25), 0.5, Quantity.POTENTIAL)
    out = tmp_path / "flat.pgm"
    render_field(field, out)
    data = out.read_bytes()
    assert data.startswith(b"P5\n7 5\n255\n")
    assert set(data.split(b"255\n", 1)[1]) == {128}


def test_pgm_min_max_normalization():
    arr = np.array([[0.0, 5.0], [10.0, 5.0]])
    u8 = normalize_u8(arr)
    assert u8[0, 0] == 0 and u8[1, 0] == 255
    assert u8[0, 1] == 128


def test_pgm_bytes_deterministic(tmp_path, ring_fields):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(a, normalize_u8(ring_fields.phi.values))
    write_pgm(b, normalize_u8(ring_fields.phi.values))
    assert a.read_bytes() == b.read_bytes()


def test_uniform_vector_field_strokes(tmp_path):
    f = VectorField(
        np.full((32, 32), 2.0), np.zeros((32, 32)), 0.5, VectorQuantity.CURRENT_DENSITY
    )
    out = tmp_path / "strokes.pgm"
    render_field(f, out, style="strokes")
    body = out.read_bytes().split(b"255\n", 1)[1]
    img = np.frombuffer(body, dtype=np.uint8).reshape(32, 32)
    # background is uniform mid-dim; strokes are horizontal white runs
    stroke_rows = np.nonzero((img == 255).any(axis=1))[0]
    assert len(stroke_rows) == 4  # one row of glyphs per 8-cell stride
    runs = (img[stroke_rows[0]] == 255).sum()
    for r in stroke_rows[1:]:
        assert (img[r] == 255).sum() == runs  # equal-length strokes


@pytest.mark.parametrize(
    "rows, style, message",
    [
        (0, "gray", "empty field"),
        (2, "strokes", "needs a vector"),
        (2, "overlay", "needs the maze"),
        (2, "sepia", "unknown render style"),
    ],
)
def test_render_field_rejects_what_it_cannot_draw(tmp_path, rows, style, message):
    field = ScalarField(np.zeros((rows, 3)), 0.5, Quantity.POTENTIAL)
    with pytest.raises(ValueError, match=message):
        render_field(field, tmp_path / "f.pgm", style=style)
    assert not (tmp_path / "f.pgm").exists()


def test_overlay_blacks_out_walls(tmp_path, ring_maze, ring_fields):
    out = tmp_path / "joule.pgm"
    joule = dm.joule_heating(ring_fields.j, conductivity_grid(ring_maze))
    render_field(joule, out, style="overlay", maze=ring_maze)
    body = out.read_bytes().split(b"255\n", 1)[1]
    img = np.frombuffer(body, dtype=np.uint8).reshape(ring_maze.ny, ring_maze.nx)
    assert (img[ring_maze.wall_mask()] == 0).all()
    assert (img[ring_maze.channel_mask()] >= 64).all()


def test_scalar_csv_round_trip(tmp_path, ring_fields):
    p = tmp_path / "phi.csv"
    write_field_csv(p, ring_fields.phi)
    back = read_field_csv(p)
    assert isinstance(back, ScalarField)
    assert back.quantity is Quantity.POTENTIAL
    assert back.cell_size == ring_fields.phi.cell_size
    assert np.array_equal(back.values, ring_fields.phi.values)


def test_vector_csv_round_trip(tmp_path, ring_fields):
    p = tmp_path / "j.csv"
    write_field_csv(p, ring_fields.j)
    back = read_field_csv(p)
    assert isinstance(back, VectorField)
    assert back.quantity is VectorQuantity.CURRENT_DENSITY
    assert np.array_equal(back.vx, ring_fields.j.vx)
    assert np.array_equal(back.vy, ring_fields.j.vy)
    assert back.cell_size == ring_fields.j.cell_size


@pytest.mark.parametrize("nx", [1, 5])
@pytest.mark.parametrize("h", [0.3, 0.1, 0.125, 0.7])
def test_csv_round_trip_keeps_the_cell_size_exactly(tmp_path, h, nx):
    """The spacing of the x column rounds (0.3 mm cells gave
    0.29999999999999993); twice the first centre does not."""
    rng = np.random.default_rng(3)
    p, pv = tmp_path / "phi.csv", tmp_path / "j.csv"
    write_field_csv(p, ScalarField(rng.random((4, nx)), h, Quantity.POTENTIAL))
    write_field_csv(
        pv, VectorField(rng.random((4, nx)), rng.random((4, nx)), h, VectorQuantity.CURRENT_DENSITY)
    )
    assert read_field_csv(p).cell_size == h
    assert read_field_csv(pv).cell_size == h


def test_csv_schema_columns(tmp_path, ring_fields):
    ps = tmp_path / "phi.csv"
    pv = tmp_path / "j.csv"
    write_field_csv(ps, ring_fields.phi)
    write_field_csv(pv, ring_fields.j)
    s_lines = ps.read_text().splitlines()
    v_lines = pv.read_text().splitlines()
    assert s_lines[0] == "x_mm,y_mm,potential_V"
    assert v_lines[0] == "x_mm,y_mm,current_density_A_per_m2,vx,vy"
    assert all(len(line.split(",")) == 3 for line in s_lines[1:])
    assert all(len(line.split(",")) == 5 for line in v_lines[1:])


def test_joule_image_ridge_follows_lee_path(tmp_path, ring_maze, ring_fields, ring_labels):
    from dropmaze.oracle import extract_path

    out = tmp_path / "joule.pgm"
    joule = dm.joule_heating(ring_fields.j, conductivity_grid(ring_maze))
    render_field(joule, out, style="overlay", maze=ring_maze)
    body = out.read_bytes().split(b"255\n", 1)[1]
    img = np.frombuffer(body, dtype=np.uint8).reshape(ring_maze.ny, ring_maze.nx)

    start = sorted(ring_maze.positive)[0]
    path = extract_path(ring_labels, start, ring_maze.cell_size)
    path_arr = np.array(path.cells)
    thr = np.percentile(img[ring_maze.channel_mask()], 90)
    bright = np.argwhere(ring_maze.channel_mask() & (img >= thr))
    d = np.sqrt(((bright[:, None, ::-1] - path_arr[None, :, :]) ** 2).sum(-1)).min(1)
    # the bright ridge hugs the shortest path: one channel width is 8 cells
    assert (d <= 8).mean() >= 0.9


def test_trajectory_overlay_has_red_dots(tmp_path, ring_maze, ring_fields):
    from dropmaze.dynamics import DynamicsParams
    from conftest import run_droplet

    traj = run_droplet(
        ring_maze,
        DynamicsParams(static_threshold=0.0, radius_mm=1.0, max_steps=20_000),
        ring_fields,
    )
    out = tmp_path / "trace.ppm"
    render_trajectory_overlay(ring_maze, traj, out)
    data = out.read_bytes()
    assert data.startswith(b"P6\n")
    body = data.split(b"255\n", 1)[1]
    img = np.frombuffer(body, dtype=np.uint8).reshape(ring_maze.ny, ring_maze.nx, 3)
    reds = (img[:, :, 0] == 220) & (img[:, :, 1] == 30)
    assert reds.sum() > 50


def _edge_values(shape, seed):
    """Random values salted with signed zeros, subnormals, huge and tiny
    magnitudes and values whose repr needs all 17 digits."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 0.1, 1 / 3]
    flat = values.ravel()
    flat[: len(special)] = special
    rng.shuffle(flat)
    return values


def _zero_run_values(shape, seed):
    """Rows that cycle through the runs the field writer splits a row into:
    all +0.0; all -0.0; +0.0 and -0.0 alternating in runs of 1-3 cells;
    nonzero runs at column 0 and the last column around -0.0; +0.0 at both
    ends around nonzero values."""
    rng = np.random.default_rng(seed)
    ny, nx = shape
    values = np.zeros(shape)
    k = max(1, nx // 3)
    for iy in range(ny):
        row = values[iy]
        kind = iy % 5
        if kind == 1:
            row[:] = -0.0
        elif kind == 2:
            signs = np.repeat([1.0, -1.0] * nx, rng.integers(1, 4, size=2 * nx))
            row[:] = 0.0 * signs[:nx]
        elif kind == 3:
            row[:] = -0.0
            row[:k], row[nx - k :] = rng.normal(size=k), rng.normal(size=k)
        elif kind == 4:
            row[1 : nx - 1] = rng.normal(size=max(0, nx - 2))
    return values


def _scalar(values, h=0.3):
    return ScalarField(values, h, Quantity.POTENTIAL)


def _vector(vx, vy, h=0.25):
    return VectorField(vx, vy, h, VectorQuantity.CURRENT_DENSITY)


# One-row grids are one-column ones transposed, so their one row holds
# every kind of run.
_STRESS_FIELDS = {
    "scalar": lambda: _scalar(_edge_values((7, 9), 1)),
    "vector": lambda: _vector(_edge_values((6, 11), 2), _edge_values((6, 11), 3)),
    "zero_runs_scalar": lambda: _scalar(_zero_run_values((10, 13), 4)),
    "zero_runs_vector": lambda: _vector(
        _zero_run_values((10, 13), 5), _zero_run_values((10, 13), 6)[::-1]
    ),
    "all_zero_scalar": lambda: _scalar(np.zeros((3, 4))),
    "all_zero_vector": lambda: _vector(np.full((3, 4), -0.0), np.zeros((3, 4))),
    "one_column_scalar": lambda: _scalar(_zero_run_values((10, 1), 7)),
    "one_column_vector": lambda: _vector(
        _zero_run_values((10, 1), 8), _zero_run_values((10, 1), 9)[::-1]
    ),
    "one_row_scalar": lambda: _scalar(_zero_run_values((40, 1), 10).T),
    "one_row_vector": lambda: _vector(
        _zero_run_values((40, 1), 11).T, _zero_run_values((40, 1), 12)[::-1].T
    ),
}


@pytest.fixture(scope="module")
def ring_fine_fields():
    """ring_m2 at 0.25 mm cells (280 x 280), the grid of the benchmark."""
    return dm.compute_fields(dm.generate_ring_maze(2, [1, 1], 70.0, 4.0, 1, cell_size_mm=0.25))


@pytest.mark.parametrize(
    "kind", [*_STRESS_FIELDS, "ring_phi", "ring_j", "ring_fine_phi", "ring_fine_j"]
)
def test_field_csv_bytes_match_cell_by_cell_writer(tmp_path, request, kind):
    """The writer's bytes are the cell-by-cell writer's, and the reader
    gives back the field's arrays bit for bit and its cell size."""
    if kind in _STRESS_FIELDS:
        field = _STRESS_FIELDS[kind]()
    else:
        name, _, quantity = kind.rpartition("_")
        fields = request.getfixturevalue(f"{name}_fields")
        field = fields.phi if quantity == "phi" else fields.j
    write_field_csv(tmp_path / "new.csv", field)
    write_field_csv_by_cell(tmp_path / "old.csv", field)
    written = (tmp_path / "new.csv").read_bytes()
    assert written == (tmp_path / "old.csv").read_bytes()
    if kind in ("scalar", "vector"):
        for text in (b",-0.0", b",5e-324", b",1e+300", b",0.3333333333333333"):
            assert text in written
    if kind.startswith("zero_runs"):
        assert b",-0.0\n" in written and b",0.0\n" in written
    back = read_field_csv(tmp_path / "new.csv")
    assert type(back) is type(field)
    assert (back.cell_size, back.quantity) == (field.cell_size, field.quantity)
    for name in ("values",) if isinstance(field, ScalarField) else ("vx", "vy"):
        got, want = getattr(back, name), getattr(field, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
