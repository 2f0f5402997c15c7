"""Discrete maze geometry: cell grid, electrode cells, physical parameters.

Cells are addressed as (ix, iy) with ix the column (x, growing right) and
iy the row (y, growing down); row 0 is the top of the maze file. Arrays
are stored numpy-style as [iy, ix]. Lengths are millimetres,
conductivities S/m, voltages volts.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Default physical parameters. The electrolyte value is the handbook
# conductivity of a 0.5 mol/L NaOH solution near room temperature. The
# coating default is 10^4 times the electrolyte: far enough into the
# perfect-conductor regime that coated cells are equipotential blobs, but
# mild enough that the conjugate-gradient solve still reaches 1e-9
# residuals (bulk gold, 4.1e7 S/m, hits the double-precision accuracy
# floor; set it explicitly if you want it and relax tol to 1e-8).
SIGMA_NAOH_05M = 10.0  # S/m
SIGMA_COATING_DEFAULT = 1.0e5  # S/m
DEFAULT_CELL_SIZE_MM = 0.5
DEFAULT_VOLTAGE = 5.0

GLYPHS = {".": 0, "#": 1, "+": 2, "S": 0, "T": 0}

# The physical constants, each as its maze-file header and scenario config
# key mapped to its MazeSpec field, in the order emit_maze writes them.
HEADER_FIELDS = {
    "cell_size_mm": "cell_size",
    "sigma_electrolyte": "sigma_electrolyte",
    "sigma_wall": "sigma_wall",
    "sigma_coating": "sigma_coating",
    "voltage": "applied_voltage",
}


class CellKind(enum.IntEnum):
    CHANNEL = 0
    WALL = 1
    COATED_WALL = 2


# GLYPHS as lookups: each byte's cell kind (-1 for a byte that is no
# glyph), and the glyph emit_maze writes for each kind, its first in GLYPHS.
_KIND_OF_BYTE = np.full(256, -1, dtype=np.int8)
_KIND_OF_BYTE[[ord(glyph) for glyph in GLYPHS]] = list(GLYPHS.values())
_GLYPH_OF_KIND = np.array(
    [ord(next(glyph for glyph in GLYPHS if GLYPHS[glyph] == kind)) for kind in CellKind],
    dtype=np.uint8,
)


class MazeError(ValueError):
    """A maze violates a structural invariant."""


class MazeFormatError(MazeError):
    """Maze text is malformed; carries 1-based line/column positions."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col


class GeometryError(MazeError):
    """Requested generator geometry does not fit the grid."""


@dataclass(frozen=True, eq=False)
class MazeSpec:
    """Immutable maze: cell kinds, the positive and negative electrode
    cells as (ix, iy) sets, and physical constants."""

    cells: np.ndarray  # (ny, nx) int8 of CellKind values
    positive: frozenset[tuple[int, int]]
    negative: frozenset[tuple[int, int]]
    cell_size: float = DEFAULT_CELL_SIZE_MM  # mm
    sigma_electrolyte: float = SIGMA_NAOH_05M
    sigma_wall: float = 0.0
    sigma_coating: float = SIGMA_COATING_DEFAULT
    applied_voltage: float = DEFAULT_VOLTAGE

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.int8)
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "positive", frozenset(self.positive))
        object.__setattr__(self, "negative", frozenset(self.negative))
        self._validate()

    def _validate(self) -> None:
        if self.cells.ndim != 2 or self.cells.size == 0:
            raise MazeError("cell grid must be a non-empty 2D array")
        if not np.isin(self.cells, [0, 1, 2]).all():
            raise MazeError("cell grid contains unknown cell kinds")
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise MazeError(f"{f.name} must be a finite number")
        if self.cell_size <= 0:
            raise MazeError("cell_size must be positive")
        if self.applied_voltage <= 0:
            raise MazeError("applied_voltage must be positive")
        if self.sigma_wall < 0:
            raise MazeError("sigma_wall must be >= 0")
        if not self.sigma_wall < self.sigma_electrolyte:
            raise MazeError("sigma_wall must be below sigma_electrolyte")
        if (self.cells == CellKind.COATED_WALL).any() and not (
            self.sigma_electrolyte < self.sigma_coating
        ):
            raise MazeError(
                "sigma_coating must exceed sigma_electrolyte when coated cells exist"
            )
        for name, cells in (("positive", self.positive), ("negative", self.negative)):
            if not cells:
                raise MazeError(f"no {name} electrode")
            for ix, iy in cells:
                if not (0 <= ix < self.nx and 0 <= iy < self.ny):
                    raise MazeError(f"{name} electrode cell {(ix, iy)} out of bounds")
                if self.cells[iy, ix] != CellKind.CHANNEL:
                    raise MazeError(f"{name} electrode cell {(ix, iy)} is not a channel cell")
        if shared := self.positive & self.negative:
            raise MazeError(f"electrode cell {min(shared)} belongs to two electrodes")

    @property
    def nx(self) -> int:
        return self.cells.shape[1]

    @property
    def ny(self) -> int:
        return self.cells.shape[0]

    def channel_mask(self) -> np.ndarray:
        return self.cells == CellKind.CHANNEL

    def wall_mask(self) -> np.ndarray:
        """Cells the droplet cannot enter (insulating and coated walls)."""
        return self.cells != CellKind.CHANNEL

    def cell_center_mm(self, ix: int, iy: int) -> tuple[float, float]:
        return ((ix + 0.5) * self.cell_size, (iy + 0.5) * self.cell_size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MazeSpec):
            return NotImplemented
        return np.array_equal(self.cells, other.cells) and all(
            getattr(self, f.name) == getattr(other, f.name) for f in dataclasses.fields(self)[1:]
        )


def cell_index(mm: np.ndarray, cell_size: float) -> np.ndarray:
    """The cell index of each coordinate in mm, as int64: numpy's floor
    division, which gives the cell `int(x // cell_size)` gives."""
    return np.floor_divide(mm, cell_size).astype(np.int64)


def parse_maze(text: str) -> MazeSpec:
    """Parse maze text: optional `key = value` header, blank line, glyph grid.

    Glyphs: `#` wall, `+` coated wall, `.` channel, `S` positive electrode,
    `T` negative electrode. The `S` cells form the positive set and the
    `T` cells the negative set. A header key left out takes MazeSpec's
    default. No line may hold a tab.
    """
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        if "\t" in raw:
            raise MazeFormatError("tabs are not allowed", lineno, raw.index("\t") + 1)

    # The header is the leading lines that hold "=".
    top = next((i for i, raw in enumerate(lines) if "=" not in raw), len(lines))
    params: dict[str, float] = {}
    for lineno, raw in enumerate(lines[:top], start=1):
        key, _, value = raw.partition("=")
        key = key.strip()
        if key not in HEADER_FIELDS:
            raise MazeFormatError(f"unknown header key {key!r}", lineno)
        if HEADER_FIELDS[key] in params:
            raise MazeFormatError(f"duplicate header key {key!r}", lineno)
        try:
            number = float(value.strip())
            if not math.isfinite(number):
                raise ValueError(value)
        except ValueError:
            raise MazeFormatError(f"bad numeric value for {key!r}", lineno) from None
        params[HEADER_FIELDS[key]] = number

    # The grid runs from the first to the last non-blank line after the
    # header and its blank separator lines.
    filled = [i for i in range(top, len(lines)) if lines[i].strip()]
    if not filled:
        raise MazeFormatError("no grid block found", len(lines) or 1)
    first = filled[0]
    for iy, i in enumerate(filled):
        if i != first + iy:
            raise MazeFormatError("blank line inside grid block", first + iy + 1)
    rows = lines[first : first + len(filled)]

    # The first bad row decides, whichever its fault: the rows above the
    # first row of another width are checked for glyphs, and then its width.
    width = len(rows[0])
    ragged = next((iy for iy, row in enumerate(rows) if len(row) != width), len(rows))
    # A non-ASCII character reads as "?", which is no glyph either.
    glyphs = np.frombuffer("".join(rows[:ragged]).encode("ascii", "replace"), dtype=np.uint8)
    glyphs = glyphs.reshape(ragged, width)
    cells = _KIND_OF_BYTE[glyphs]
    bad = np.flatnonzero(cells < 0)
    if len(bad):
        iy, ix = divmod(int(bad[0]), width)
        raise MazeFormatError(f"unknown glyph {rows[iy][ix]!r}", first + iy + 1, ix + 1)
    if ragged < len(rows):
        length = len(rows[ragged])
        raise MazeFormatError(
            f"grid line length {length} != {width}", first + ragged + 1, length + 1
        )
    pos_cells, neg_cells = (
        set(zip(ixs.tolist(), iys.tolist()))
        for iys, ixs in (np.nonzero(glyphs == ord(glyph)) for glyph in "ST")
    )
    return MazeSpec(cells, pos_cells, neg_cells, **params)


def emit_maze(spec: MazeSpec) -> str:
    """Serialize a maze to the canonical text form; parse(emit(s)) == s."""
    header = [f"{key} = {getattr(spec, name)!r}" for key, name in HEADER_FIELDS.items()]
    glyphs = _GLYPH_OF_KIND[spec.cells]
    for cells, glyph in ((spec.positive, "S"), (spec.negative, "T")):
        for ix, iy in cells:
            glyphs[iy, ix] = ord(glyph)
    rows = [row.tobytes().decode() for row in glyphs]
    return "\n".join(header) + "\n\n" + "\n".join(rows) + "\n"


@dataclass(frozen=True)
class ComponentReport:
    """The count of 4-connected channel components and start/target reachability."""

    n_components: int
    solvable: bool


def bfs(
    passable: np.ndarray,
    sources: Iterable[tuple[int, int]],
    max_depth: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """4-connected breadth-first search from sources through passable cells.

    Returns (dist, owner), both (ny, nx) int32 and -1 where unreached: the
    distance in cells from the nearest source, and the index in `sources`
    of the first-listed source at that distance. Sources are reached at
    distance 0 whether or not they are passable, and cells at max_depth
    are not expanded. Both are views into the interior of buffers padded
    by one cell, not copies.
    """
    ny, nx = passable.shape
    w = nx + 2  # one impassable cell all round, so the loop tests no bounds
    free = np.pad(np.asarray(passable, dtype=bool), 1).tobytes()
    # Flat C-int buffers: element reads are plain Python ints, and numpy
    # wraps the buffers as the result without a copy.
    dist = array("i", [-1]) * len(free)
    owner = array("i", [-1]) * len(free)
    queue: deque[int] = deque()
    for k, (ix, iy) in enumerate(sources):
        i = (iy + 1) * w + ix + 1
        if dist[i] < 0:  # a source listed twice keeps its first index
            dist[i] = 0
            owner[i] = k
            queue.append(i)
    # East, north, west, south. A cell's owner does not depend on this
    # order: each wavefront is queued in order of owner index.
    steps = (1, -w, -1, w)
    while queue:
        i = queue.popleft()
        d = dist[i] + 1
        if max_depth is not None and d > max_depth:
            continue
        for step in steps:
            j = i + step
            if free[j] and dist[j] < 0:
                dist[j] = d
                owner[j] = owner[i]
                queue.append(j)
    return tuple(np.frombuffer(b, np.intc).reshape(-1, w)[1:-1, 1:-1] for b in (dist, owner))


def label_components(mask: np.ndarray, diagonal: bool = False) -> tuple[np.ndarray, int]:
    """Connected components of a boolean mask, 4-connected (8-connected
    when diagonal), as (labels, count): labels is (ny, nx) int32, -1 off
    the mask, numbered in row-major order of each component's first cell.
    Two passes over row runs with union-find (Rosenfeld & Pfaltz, J. ACM
    13(4), 1966): the Python work scales with the runs, not the cells."""
    mask = np.asarray(mask, dtype=bool)
    nx = mask.shape[1]
    edges = np.diff(np.pad(mask, ((0, 0), (1, 1))).view(np.int8), axis=1)
    rows, starts = np.nonzero(edges == 1)
    ends = np.nonzero(edges == -1)[1]  # exclusive
    # Keyed a row every nx + 2, the runs above touching a run are one slice
    # (widened a column each way when diagonal).
    key = rows * (nx + 2)
    above = key - (nx + 2)
    first = np.searchsorted(key + ends, above + starts - diagonal, side="right")
    stop = np.searchsorted(key + starts, above + ends + diagonal)
    # A root links under a smaller one, so each component's root is its first run.
    parent = list(range(len(starts)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]  # path halving
        return a

    for k, lo, hi in zip(range(len(starts)), first.tolist(), stop.tolist()):
        for j in range(lo, hi):
            a, b = find(j), find(k)
            parent[max(a, b)] = min(a, b)
    root = np.array([find(k) for k in range(len(starts))], dtype=np.intp)
    is_root = root == np.arange(len(starts))
    labels = np.full(mask.shape, -1, dtype=np.int32)
    labels[mask] = np.repeat(np.cumsum(is_root)[root] - 1, ends - starts)
    return labels, int(is_root.sum())


def validate_and_components(spec: MazeSpec) -> ComponentReport:
    """Label 4-connected channel components; solvable iff some positive and
    negative electrode cells share a component."""
    labels, count = label_components(spec.channel_mask())
    pos_comps = {int(labels[iy, ix]) for ix, iy in spec.positive}
    neg_comps = {int(labels[iy, ix]) for ix, iy in spec.negative}
    return ComponentReport(count, bool(pos_comps & neg_comps))


def conductivity_grid(spec: MazeSpec) -> np.ndarray:
    """Per-cell conductivity in S/m, shaped like the cell grid."""
    table = np.array(
        [spec.sigma_electrolyte, spec.sigma_wall, spec.sigma_coating], dtype=np.float64
    )
    return table[spec.cells]


def convex_corner_cells(spec: MazeSpec) -> list[tuple[int, int]]:
    """Wall cells forming a sharp (convex) corner: a wall with channel
    neighbours in two perpendicular directions. Row-major order."""
    channel = spec.channel_mask()
    padded = np.pad(channel, 1)
    east_west = padded[1:-1, 2:] | padded[1:-1, :-2]
    north_south = padded[:-2, 1:-1] | padded[2:, 1:-1]
    iys, ixs = np.nonzero(~channel & east_west & north_south)
    return list(zip(ixs.tolist(), iys.tolist()))


def coat_sharp_corners(spec: MazeSpec) -> MazeSpec:
    """Return a copy with every convex wall corner turned into a coated
    (conductive) wall cell."""
    cells = np.array(spec.cells, dtype=np.int8)
    for ix, iy in convex_corner_cells(spec):
        cells[iy, ix] = CellKind.COATED_WALL
    return dataclasses.replace(spec, cells=cells)
