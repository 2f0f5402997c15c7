"""Discrete maze geometry: cell grid, electrodes, physical parameters.

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

HEADER_KEYS = (
    "cell_size_mm",
    "sigma_electrolyte",
    "sigma_wall",
    "sigma_coating",
    "voltage",
)


class CellKind(enum.IntEnum):
    CHANNEL = 0
    WALL = 1
    COATED_WALL = 2


class Polarity(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


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


@dataclass(frozen=True)
class Electrode:
    id: str
    polarity: Polarity
    cells: frozenset[tuple[int, int]]

    def __post_init__(self):
        if not self.cells:
            raise MazeError(f"electrode {self.id!r} has no cells")


@dataclass(frozen=True, eq=False)
class MazeSpec:
    """Immutable maze: cell kinds, electrodes and physical constants."""

    cells: np.ndarray  # (ny, nx) int8 of CellKind values
    electrodes: tuple[Electrode, ...]
    cell_size: float = DEFAULT_CELL_SIZE_MM  # mm
    sigma_electrolyte: float = SIGMA_NAOH_05M
    sigma_wall: float = 0.0
    sigma_coating: float = SIGMA_COATING_DEFAULT
    applied_voltage: float = DEFAULT_VOLTAGE

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.int8)
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "electrodes", tuple(self.electrodes))
        self._validate()

    def _validate(self) -> None:
        if self.cells.ndim != 2 or self.cells.size == 0:
            raise MazeError("cell grid must be a non-empty 2D array")
        if not np.isin(self.cells, [0, 1, 2]).all():
            raise MazeError("cell grid contains unknown cell kinds")
        if self.cell_size <= 0:
            raise MazeError("cell_size must be positive")
        if self.applied_voltage <= 0:
            raise MazeError("applied_voltage must be positive")
        if self.sigma_wall < 0:
            raise MazeError("sigma_wall must be >= 0")
        if not self.sigma_wall < self.sigma_electrolyte:
            raise MazeError("sigma_wall must be below sigma_electrolyte")
        if self.has_coated_cells and not (
            self.sigma_electrolyte < self.sigma_coating
        ):
            raise MazeError(
                "sigma_coating must exceed sigma_electrolyte when coated cells exist"
            )
        if not any(e.polarity is Polarity.POSITIVE for e in self.electrodes):
            raise MazeError("no positive electrode")
        if not any(e.polarity is Polarity.NEGATIVE for e in self.electrodes):
            raise MazeError("no negative electrode")
        seen: set[tuple[int, int]] = set()
        for e in self.electrodes:
            for ix, iy in e.cells:
                if not (0 <= ix < self.nx and 0 <= iy < self.ny):
                    raise MazeError(f"electrode {e.id!r} cell {(ix, iy)} out of bounds")
                if self.cells[iy, ix] != CellKind.CHANNEL:
                    raise MazeError(f"electrode {e.id!r} cell {(ix, iy)} is not a channel cell")
                if (ix, iy) in seen:
                    raise MazeError(f"electrode cell {(ix, iy)} belongs to two electrodes")
                seen.add((ix, iy))

    @property
    def nx(self) -> int:
        return self.cells.shape[1]

    @property
    def ny(self) -> int:
        return self.cells.shape[0]

    @property
    def has_coated_cells(self) -> bool:
        return bool((self.cells == CellKind.COATED_WALL).any())

    def channel_mask(self) -> np.ndarray:
        return self.cells == CellKind.CHANNEL

    def wall_mask(self) -> np.ndarray:
        """Cells the droplet cannot enter (insulating and coated walls)."""
        return self.cells != CellKind.CHANNEL

    def electrode_cells(self, polarity: Polarity) -> frozenset[tuple[int, int]]:
        out: set[tuple[int, int]] = set()
        for e in self.electrodes:
            if e.polarity is polarity:
                out |= e.cells
        return frozenset(out)

    def cell_center_mm(self, ix: int, iy: int) -> tuple[float, float]:
        return ((ix + 0.5) * self.cell_size, (iy + 0.5) * self.cell_size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MazeSpec):
            return NotImplemented
        return (
            np.array_equal(self.cells, other.cells)
            and set(self.electrodes) == set(other.electrodes)
            and self.cell_size == other.cell_size
            and self.sigma_electrolyte == other.sigma_electrolyte
            and self.sigma_wall == other.sigma_wall
            and self.sigma_coating == other.sigma_coating
            and self.applied_voltage == other.applied_voltage
        )

    def __hash__(self):
        return hash((self.cells.tobytes(), self.cells.shape))


def parse_maze(text: str) -> MazeSpec:
    """Parse maze text: optional `key = value` header, blank line, glyph grid.

    Glyphs: `#` wall, `+` coated wall, `.` channel, `S` positive electrode,
    `T` negative electrode. All `S` cells aggregate into electrode E1 and
    all `T` cells into E2.
    """
    lines = text.splitlines()
    params = {
        "cell_size_mm": DEFAULT_CELL_SIZE_MM,
        "sigma_electrolyte": SIGMA_NAOH_05M,
        "sigma_wall": 0.0,
        "sigma_coating": SIGMA_COATING_DEFAULT,
        "voltage": DEFAULT_VOLTAGE,
    }

    i = 0
    while i < len(lines):
        raw = lines[i]
        if "\t" in raw:
            raise MazeFormatError("tabs are not allowed", i + 1, raw.index("\t") + 1)
        stripped = raw.strip()
        if stripped and "=" in stripped:
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in HEADER_KEYS:
                raise MazeFormatError(f"unknown header key {key!r}", i + 1)
            try:
                params[key] = float(value.strip())
                if not math.isfinite(params[key]):
                    raise ValueError(value)
            except ValueError:
                raise MazeFormatError(f"bad numeric value for {key!r}", i + 1) from None
            i += 1
        else:
            break

    # Skip blank separator lines between header and grid.
    while i < len(lines) and not lines[i].strip():
        i += 1

    grid_lines: list[tuple[int, str]] = []
    for j in range(i, len(lines)):
        raw = lines[j]
        if "\t" in raw:
            raise MazeFormatError("tabs are not allowed", j + 1, raw.index("\t") + 1)
        if not raw.strip():
            if any(lines[k].strip() for k in range(j + 1, len(lines))):
                raise MazeFormatError("blank line inside grid block", j + 1)
            break
        grid_lines.append((j + 1, raw))

    if not grid_lines:
        raise MazeFormatError("no grid block found", len(lines) or 1)

    width = len(grid_lines[0][1])
    cells = np.zeros((len(grid_lines), width), dtype=np.int8)
    pos_cells: set[tuple[int, int]] = set()
    neg_cells: set[tuple[int, int]] = set()
    for iy, (lineno, row) in enumerate(grid_lines):
        if len(row) != width:
            raise MazeFormatError(
                f"grid line length {len(row)} != {width}", lineno, len(row) + 1
            )
        for ix, ch in enumerate(row):
            if ch not in GLYPHS:
                raise MazeFormatError(f"unknown glyph {ch!r}", lineno, ix + 1)
            cells[iy, ix] = GLYPHS[ch]
            if ch == "S":
                pos_cells.add((ix, iy))
            elif ch == "T":
                neg_cells.add((ix, iy))

    if not pos_cells:
        raise MazeError("no positive electrode ('S' glyph) in maze")
    if not neg_cells:
        raise MazeError("no negative electrode ('T' glyph) in maze")

    electrodes = (
        Electrode("E1", Polarity.POSITIVE, frozenset(pos_cells)),
        Electrode("E2", Polarity.NEGATIVE, frozenset(neg_cells)),
    )
    return MazeSpec(
        cells=cells,
        electrodes=electrodes,
        cell_size=params["cell_size_mm"],
        sigma_electrolyte=params["sigma_electrolyte"],
        sigma_wall=params["sigma_wall"],
        sigma_coating=params["sigma_coating"],
        applied_voltage=params["voltage"],
    )


def emit_maze(spec: MazeSpec) -> str:
    """Serialize a maze to the canonical text form; parse(emit(s)) == s."""
    header = [
        f"cell_size_mm = {spec.cell_size!r}",
        f"sigma_electrolyte = {spec.sigma_electrolyte!r}",
        f"sigma_wall = {spec.sigma_wall!r}",
        f"sigma_coating = {spec.sigma_coating!r}",
        f"voltage = {spec.applied_voltage!r}",
    ]
    pos = spec.electrode_cells(Polarity.POSITIVE)
    neg = spec.electrode_cells(Polarity.NEGATIVE)
    glyph_for = {0: ".", 1: "#", 2: "+"}
    rows = []
    for iy in range(spec.ny):
        row = []
        for ix in range(spec.nx):
            if (ix, iy) in pos:
                row.append("S")
            elif (ix, iy) in neg:
                row.append("T")
            else:
                row.append(glyph_for[int(spec.cells[iy, ix])])
        rows.append("".join(row))
    return "\n".join(header) + "\n\n" + "\n".join(rows) + "\n"


@dataclass(frozen=True)
class ComponentReport:
    """4-connected channel components and start/target reachability."""

    labels: np.ndarray  # (ny, nx) int32, -1 on walls
    n_components: int
    solvable: bool

    def component_of(self, ix: int, iy: int) -> int:
        return int(self.labels[iy, ix])


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
    are not expanded.
    """
    ny, nx = passable.shape
    free = np.asarray(passable, dtype=bool).tobytes()
    # Flat C-int buffers: element reads are plain Python ints, and numpy
    # wraps the buffers as the result without a copy.
    dist = array("i", [-1]) * (nx * ny)
    owner = array("i", [-1]) * (nx * ny)
    queue: deque[int] = deque()
    for k, (ix, iy) in enumerate(sources):
        i = iy * nx + ix
        dist[i] = 0
        owner[i] = k
        queue.append(i)
    _expand(free, nx, ny, dist, owner, queue, nx * ny if max_depth is None else max_depth)
    return _as_grid(dist, ny, nx), _as_grid(owner, ny, nx)


def _expand(
    free: bytes, nx: int, ny: int, dist: array, owner: array, queue: deque[int], limit: int
) -> None:
    """Run bfs's search from the queued cells until the queue is empty,
    filling dist and owner. Cells already reached (dist >= 0) are not
    entered again."""
    # East, north, west, south. A cell's owner does not depend on this
    # order: each wavefront is queued in order of owner index.
    steps = [(dx, dy, dy * nx + dx) for dx, dy in ((1, 0), (0, -1), (-1, 0), (0, 1))]
    while queue:
        i = queue.popleft()
        d = dist[i] + 1
        if d > limit:
            continue
        iy, ix = divmod(i, nx)
        for dx, dy, di in steps:
            j = i + di
            if 0 <= ix + dx < nx and 0 <= iy + dy < ny and free[j] and dist[j] < 0:
                dist[j] = d
                owner[j] = owner[i]
                queue.append(j)


def _as_grid(buffer: array, ny: int, nx: int) -> np.ndarray:
    return np.frombuffer(buffer, dtype=np.intc).reshape(ny, nx)


def validate_and_components(spec: MazeSpec) -> ComponentReport:
    """Label 4-connected channel components; solvable iff some positive and
    negative electrode cells share a component."""
    channel = spec.channel_mask()
    ny, nx = channel.shape
    free = channel.tobytes()
    # One search per component over shared buffers, so each cell is
    # visited once: a component's cells take its number as their owner.
    dist = array("i", [-1]) * (nx * ny)
    owner = array("i", [-1]) * (nx * ny)
    comp = 0
    # Components are numbered in row-major order of their first cell.
    for i in np.flatnonzero(channel).tolist():
        if dist[i] < 0:
            dist[i] = 0
            owner[i] = comp
            _expand(free, nx, ny, dist, owner, deque([i]), nx * ny)
            comp += 1
    labels = _as_grid(owner, ny, nx)

    pos_comps = {int(labels[iy, ix]) for ix, iy in spec.electrode_cells(Polarity.POSITIVE)}
    neg_comps = {int(labels[iy, ix]) for ix, iy in spec.electrode_cells(Polarity.NEGATIVE)}
    labels.setflags(write=False)
    return ComponentReport(labels, comp, bool(pos_comps & neg_comps))


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
