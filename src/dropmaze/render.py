"""Deterministic raster and CSV output for fields and trajectories.

Images are 8-bit binary PGM/PPM with row 0 at the top; scalar data is
min-max normalized (a constant field renders mid-gray). Identical inputs
produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dynamics import Trajectory
from .maze import MazeSpec, cell_index
from .solver import Quantity, ScalarField, VectorField, VectorQuantity


def normalize_u8(values: np.ndarray) -> np.ndarray:
    """values scaled from their min..max to 0..255, rounded, one float
    grid made in all."""
    v = np.asarray(values, dtype=np.float64)
    lo, hi = float(v.min()), float(v.max())
    if hi <= lo:
        return np.full(v.shape, 128, dtype=np.uint8)
    scaled = np.subtract(v, lo)
    scaled /= hi - lo
    scaled *= 255.0
    np.rint(scaled, out=scaled)
    return np.clip(scaled, 0, 255, out=scaled).astype(np.uint8)


def write_pgm(path: str | Path, gray: np.ndarray) -> None:
    gray = np.asarray(gray, dtype=np.uint8)
    ny, nx = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{nx} {ny}\n255\n".encode())
        f.write(gray.tobytes())


def write_ppm(path: str | Path, rgb: np.ndarray) -> None:
    rgb = np.asarray(rgb, dtype=np.uint8)
    ny, nx, _ = rgb.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{nx} {ny}\n255\n".encode())
        f.write(rgb.tobytes())


def _draw_stroke(gray: np.ndarray, x0: float, y0: float, dx: float, dy: float, length: float) -> None:
    """Integer line segment centred on (x0, y0) in pixel coordinates."""
    n = max(int(round(length)), 1)
    for t in range(-n // 2, n // 2 + 1):
        px = int(round(x0 + t * dx))
        py = int(round(y0 + t * dy))
        if 0 <= py < gray.shape[0] and 0 <= px < gray.shape[1]:
            gray[py, px] = 255


# One direction stroke per this many cells along each axis: strokes of
# 0.8 times the spacing leave gaps between neighbours.
_STROKE_EVERY = 8


def render_field(
    field: ScalarField | VectorField,
    out_path: str | Path,
    style: str = "gray",
    maze: MazeSpec | None = None,
) -> None:
    """Write a field raster.

    Styles: "gray" (magnitude raster), "strokes" (magnitude raster plus
    sparse direction strokes, vector fields only), "overlay" (field over
    the maze walls; needs maze).
    """
    if isinstance(field, VectorField):
        mag = field.magnitude()
    else:
        mag = field.values
    if mag.size == 0:
        raise ValueError("cannot render an empty field")

    if style == "gray":
        write_pgm(out_path, normalize_u8(mag))
        return
    if style == "strokes":
        if not isinstance(field, VectorField):
            raise ValueError("stroke rendering needs a vector field")
        gray = normalize_u8(mag) // 2  # dim background so strokes stand out
        peak = float(mag.max())
        for iy in range(_STROKE_EVERY // 2, field.ny, _STROKE_EVERY):
            for ix in range(_STROKE_EVERY // 2, field.nx, _STROKE_EVERY):
                m = mag[iy, ix]
                if peak <= 0 or m <= 1e-3 * peak:
                    continue
                dx, dy = field.vx[iy, ix] / m, field.vy[iy, ix] / m
                _draw_stroke(gray, ix, iy, dx, dy, 0.8 * _STROKE_EVERY)
        write_pgm(out_path, gray)
        return
    if style == "overlay":
        if maze is None:
            raise ValueError("overlay rendering needs the maze")
        gray = normalize_u8(mag).astype(np.float64)
        gray *= 191 / 255
        gray += 64
        gray = gray.astype(np.uint8)
        gray[maze.wall_mask()] = 0
        write_pgm(out_path, gray)
        return
    raise ValueError(f"unknown render style {style!r}")


# About this many trajectory samples are drawn, at an even stride: with
# the automatic dt consecutive samples are at most half a cell apart, so
# drawing every one would paint a solid line.
_MAX_DOTS = 600


def render_trajectory_overlay(maze: MazeSpec, traj: Trajectory, out_path: str | Path) -> None:
    """Maze raster with the droplet centre positions as red dots."""
    base = np.where(maze.wall_mask(), 40, 220).astype(np.uint8)
    rgb = np.stack([base, base, base], axis=-1)
    stride = max(1, len(traj) // _MAX_DOTS)
    ix = cell_index(traj.xs[::stride], maze.cell_size)
    iy = cell_index(traj.ys[::stride], maze.cell_size)
    inside = (0 <= ix) & (ix < maze.nx) & (0 <= iy) & (iy < maze.ny)
    rgb[iy[inside], ix[inside]] = (220, 30, 30)
    write_ppm(out_path, rgb)


# ---------------------------------------------------------------------------
# Field CSV round-trip


def _blank_keys(columns: tuple[np.ndarray, ...]) -> np.ndarray:
    """Per cell, -1 when any of its values is nonzero, else the sign bits
    of its zeros (bit i for column i): cells with the same key >= 0 write
    the same text after their coordinates."""
    key = np.zeros(columns[0].shape, dtype=np.int8)
    nonzero = np.zeros(columns[0].shape, dtype=bool)
    for bit, values in enumerate(columns):
        key[np.signbit(values)] += 1 << bit
        nonzero |= values != 0
    key[nonzero] = -1
    return key


def write_field_csv(path: str | Path, field: ScalarField | VectorField) -> None:
    """Scalar: x_mm,y_mm,<quantity>. Vector: x_mm,y_mm,<quantity>,vx,vy
    (third column is the magnitude). Rows run left-to-right, top-to-bottom.

    Values are written as repr writes them, one grid row at a time, so only
    one row's Python floats and strings exist at once. Each row splits into
    runs of equal _blank_keys: a run of zeros (the walls) is one join of the
    x strings, and only the other runs format their values."""
    h = field.cell_size
    xs = [repr((ix + 0.5) * h) for ix in range(field.nx)]
    if isinstance(field, VectorField):
        header = f"x_mm,y_mm,{field.quantity.value},vx,vy\n"
        columns = (field.magnitude(), field.vx, field.vy)

        def lines(xs, y, mag, vx, vy):
            return [f"{x},{y},{m!r},{a!r},{b!r}\n" for x, m, a, b in zip(xs, mag, vx, vy)]
    else:
        header = f"x_mm,y_mm,{field.quantity.value}\n"
        columns = (field.values,)

        def lines(xs, y, values):
            return [f"{x},{y},{v!r}\n" for x, v in zip(xs, values)]

    key = _blank_keys(columns)
    zeros = [",".join("-0.0" if k >> i & 1 else "0.0" for i in range(len(columns)))
             for k in range(1 << len(columns))]
    run_starts = np.diff(key, axis=1, prepend=np.int8(-2))  # -2 is no key
    with open(path, "w") as f:
        f.write(header)
        for iy in range(field.ny):
            y = repr((iy + 0.5) * h)
            starts = np.flatnonzero(run_starts[iy]).tolist()
            row = []
            for a, b, k in zip(starts, starts[1:] + [field.nx], key[iy, starts].tolist()):
                if k < 0:
                    row += lines(xs[a:b], y, *(c[iy, a:b].tolist() for c in columns))
                else:
                    end = f",{y},{zeros[k]}\n"
                    row.append(end.join(xs[a:b]) + end)
            f.write("".join(row))


def read_field_csv(path: str | Path) -> ScalarField | VectorField:
    """Rebuild a field from its CSV export.

    The rows must come in the order write_field_csv writes them: the first
    run of equal y is the grid's width, and each row's x and y are its
    cell's centre, left to right and top to bottom."""
    header, *lines = Path(path).read_text().strip().splitlines() or [""]
    names = header.split(",")
    if names[:2] != ["x_mm", "y_mm"] or len(names) not in (3, 5):
        raise ValueError(f"unrecognized field CSV header: {header!r}")
    if not lines:
        raise ValueError("field CSV has no rows")
    rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    if rows.shape[1] != len(names):
        raise ValueError(f"field CSV rows do not hold {len(names)} values")
    h = 2.0 * rows.item(0, 0)  # the first centre is 0.5 * h, so this is h exactly
    nx = int(np.argmin(rows[:, 1] == rows[0, 1])) or len(rows)
    ny, rest = divmod(len(rows), nx)
    cell = np.stack(np.divmod(np.arange(len(rows)), nx)[::-1], axis=1)
    if rest or not 0 < h < np.inf or not np.array_equal(rows[:, :2], (cell + 0.5) * h):
        raise ValueError("field CSV is not a full grid in writer order")
    columns = rows.T.reshape(len(names), ny, nx)
    if len(names) == 5:
        return VectorField(columns[3], columns[4], h, VectorQuantity(names[2]))
    return ScalarField(columns[2], h, Quantity(names[2]))
