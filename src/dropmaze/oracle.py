"""Ground-truth routes: wavefront labels, extracted paths, streamlines,
and corridor-level comparison of routes through the maze.

Corridor comparison works on a segmentation of the channel area: the
channel mask is thinned to a one-cell skeleton, the skeleton is cut at
junctions (degree >= 3) and at sharp bends, and every channel cell is
assigned to its nearest skeleton piece. Two routes "agree" when they visit
the same corridor regions in the same order; cell overlap is measured on
the union of visited regions, which makes the metric robust to where in a
wide corridor a route happens to run.

The skeleton code reads one thing of a cell: which of its 8 neighbours
are set, as the bits of a byte (_neighbour_codes). Thinning, the
redundancy of a skeleton cell and its degree each look that byte up in
a 256-entry table.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

import numpy as np

from .currents import current_route
from .maze import MazeSpec, bfs, cell_index, label_components
from .solver import VectorField

if TYPE_CHECKING:
    from .dynamics import Trajectory


class UnreachableError(ValueError):
    """Requested source cell has no route to the destination."""


@dataclass(frozen=True, eq=False)
class LeeLabels:
    """Wavefront distances in cells from the negative electrode; -1
    unreachable."""

    labels: np.ndarray  # (ny, nx) int32
    cell_size: float  # mm

    def label(self, ix: int, iy: int) -> int:
        return int(self.labels[iy, ix])


@dataclass(frozen=True)
class Path:
    cells: tuple[tuple[int, int], ...]
    cell_size: float

    @property
    def length_cells(self) -> int:
        return len(self.cells) - 1

    @property
    def length_mm(self) -> float:
        return self.length_cells * self.cell_size

    def points_mm(self) -> np.ndarray:
        return np.array(
            [((ix + 0.5) * self.cell_size, (iy + 0.5) * self.cell_size) for ix, iy in self.cells]
        )


# Fixed tie-break order for descent: east, north, west, south.
_DESCENT_ORDER = ((1, 0), (0, -1), (-1, 0), (0, 1))


def lee_label(maze: MazeSpec) -> LeeLabels:
    """Breadth-first wavefront labels over 4-connected channel cells,
    counted from the negative electrode cells."""
    labels, _ = bfs(maze.channel_mask(), sorted(maze.negative))
    labels.setflags(write=False)
    return LeeLabels(labels, maze.cell_size)


def extract_path(labels: LeeLabels, source: tuple[int, int]) -> Path:
    """Descend the labels from source to a destination cell.

    Neighbour ties break in fixed east/north/west/south order, so the path
    is unique for given labels.
    """
    grid = labels.labels
    ny, nx = grid.shape
    ix, iy = source
    if not (0 <= ix < nx and 0 <= iy < ny) or grid[iy, ix] < 0:
        raise UnreachableError(f"source cell {source} is unreachable from the destination")
    cells = [(ix, iy)]
    while grid[iy, ix] > 0:
        want = grid[iy, ix] - 1
        for dx, dy in _DESCENT_ORDER:
            jx, jy = ix + dx, iy + dy
            if 0 <= jx < nx and 0 <= jy < ny and grid[jy, jx] == want:
                ix, iy = jx, jy
                break
        else:  # pragma: no cover - labels invariant guarantees a neighbour
            raise UnreachableError(f"no descending neighbour at {(ix, iy)}")
        cells.append((ix, iy))
    return Path(tuple(cells), labels.cell_size)


class StreamTermination(enum.Enum):
    REACHED = "reached"
    FIELD_VANISHED = "field_vanished"
    LEFT_DOMAIN = "left_domain"
    STALLED = "stalled"
    MAX_STEPS = "max_steps"


@dataclass(frozen=True, eq=False)
class Streamline:
    points: np.ndarray  # (n, 2) mm
    termination: StreamTermination

    def cells(self, cell_size: float) -> list[tuple[int, int]]:
        """The cells the points visit, consecutive repeats collapsed."""
        cells = cell_index(self.points, cell_size)
        new = np.ones(len(cells), dtype=bool)
        new[1:] = (cells[1:] != cells[:-1]).any(axis=1)
        ix, iy = cells[new].T.tolist()
        return list(zip(ix, iy))


# Field magnitudes at or below this share of the grid maximum count as no
# current: the solve stops at a relative residual of 1e-9 by default, so
# the field is not resolved below that (stagnation points, dead ends).
_MIN_SPEED_REL = 1e-9
# A streamline advances a quarter cell per step, so the fourth-order step
# samples every cell it crosses several times and follows corridor bends.
# Its budget is this many steps for each cell above the speed floor: a
# trace as long as all those cells laid end to end. A trace that reaches
# the target uses a small share of it (under a tenth on the example
# configs).
_STEPS_PER_CELL = 4
# A trace that enters no new cell in this many cells of travel has stopped
# exploring: it slides back and forth at a wall instead of running out its
# budget there. Traces on the example configs enter a new cell at least
# every 7 steps (under two cells of travel).
_STALL_CELLS = 16
_STALL_STEPS = _STALL_CELLS * _STEPS_PER_CELL


class _RowField(NamedTuple):
    """A vector field sampled through memoryviews of its rows.
    sample(x_mm, y_mm) gives the bilinear field's unit direction and
    magnitude there, (0, 0, s) at or below the speed floor. Also holds
    that floor and the step budget, which every streamline through the
    field shares."""

    sample: Callable[[float, float], tuple[float, float, float]]
    floor: float
    max_steps: int

    @classmethod
    def of(cls, j: VectorField) -> "_RowField":
        magnitude = j.magnitude()
        floor = _MIN_SPEED_REL * float(np.max(magnitude))
        max_steps = _STEPS_PER_CELL * int(np.count_nonzero(magnitude > floor))
        return cls(_unit_sampler(j, floor), floor, max_steps)


def _unit_sampler(
    j: VectorField, floor: float
) -> Callable[[float, float], tuple[float, float, float]]:
    """The sampler of _RowField. It reads each row of the field through a
    memoryview, whose element reads give Python floats: cheaper to read
    and to compute with than numpy scalars, rounding the same way, and
    made only for the values a sample reads, so no copy of the grid is
    ever held."""
    vx = [memoryview(row) for row in j.vx]
    vy = [memoryview(row) for row in j.vy]
    h = j.cell_size
    # The lower corner's index is clamped into the grid; on a grid one
    # cell wide both corners are its one column (row).
    i_max, di = (j.nx - 2, 1) if j.nx > 1 else (0, 0)
    k_max, dk = (j.ny - 2, 1) if j.ny > 1 else (0, 0)
    math_floor, hypot = math.floor, math.hypot

    def sample(x_mm: float, y_mm: float) -> tuple[float, float, float]:
        u = x_mm / h - 0.5
        v = y_mm / h - 0.5
        i0 = math_floor(u)
        if i0 < 0:
            i0 = 0
        elif i0 > i_max:
            i0 = i_max
        k0 = math_floor(v)
        if k0 < 0:
            k0 = 0
        elif k0 > k_max:
            k0 = k_max
        tu = u - i0
        if tu < 0.0:
            tu = 0.0
        elif tu > 1.0:
            tu = 1.0
        tv = v - k0
        if tv < 0.0:
            tv = 0.0
        elif tv > 1.0:
            tv = 1.0
        su = 1 - tu
        sv = 1 - tv
        i1 = i0 + di
        # Each term is (value * weight) * weight: a precomputed product of
        # the two weights would round differently.
        vx0, vx1, vy0, vy1 = vx[k0], vx[k0 + dk], vy[k0], vy[k0 + dk]
        ax = vx0[i0] * su * sv + vx0[i1] * tu * sv + vx1[i0] * su * tv + vx1[i1] * tu * tv
        ay = vy0[i0] * su * sv + vy0[i1] * tu * sv + vy1[i0] * su * tv + vy1[i1] * tu * tv
        s = hypot(ax, ay)
        if s <= floor:
            return 0.0, 0.0, s
        return ax / s, ay / s, s

    return sample


def streamline(
    j: VectorField,
    start_mm: tuple[float, float],
    target_cells: Iterable[tuple[int, int]] | None = None,
    channel_mask: np.ndarray | None = None,
    *,
    _rows: _RowField | None = None,
) -> Streamline:
    """Integrate along the normalized field from start_mm.

    Stops on reaching a target cell, on the local field magnitude falling
    to the speed floor, on leaving the grid, on entering no new cell for
    _STALL_STEPS steps, or when the step budget is spent (see
    _MIN_SPEED_REL and _STEPS_PER_CELL). _rows is j as a _RowField, for
    callers tracing many streamlines through one field.
    """
    grid = _rows if _rows is not None else _RowField.of(j)
    sample, floor = grid.sample, grid.floor
    h, nx, ny = j.cell_size, j.nx, j.ny
    step_mm = h / _STEPS_PER_CELL
    half_mm = 0.5 * step_mm
    targets = frozenset(target_cells) if target_cells is not None else frozenset()
    x, y = float(start_mm[0]), float(start_mm[1])
    if channel_mask is not None:
        cx, cy = int(x // h), int(y // h)
        if not (0 <= cx < nx and 0 <= cy < ny) or not channel_mask[cy, cx]:
            raise ValueError(f"streamline start {start_mm} lies inside a wall")
        open_cells = np.asarray(channel_mask, dtype=bool).tobytes()  # iy * nx + ix

    pts = [(x, y)]
    seen: set[tuple[int, int]] = set()
    fresh = 0  # step at which the trace last entered a new cell
    termination = StreamTermination.MAX_STEPS
    for n in range(grid.max_steps):
        cx, cy = int(x // h), int(y // h)
        if not (0 <= cx < nx and 0 <= cy < ny):
            termination = StreamTermination.LEFT_DOMAIN
            break
        cell = (cx, cy)
        if cell in targets:
            termination = StreamTermination.REACHED
            break
        if cell not in seen:
            seen.add(cell)
            fresh = n
        elif n - fresh >= _STALL_STEPS:
            termination = StreamTermination.STALLED
            break
        # Fourth-order step on the normalized field keeps the trace from
        # drifting into walls on curved corridors.
        d1x, d1y, speed = sample(x, y)
        if speed <= floor:
            termination = StreamTermination.FIELD_VANISHED
            break
        d2x, d2y, s2 = sample(x + half_mm * d1x, y + half_mm * d1y)
        d3x, d3y, s3 = sample(x + half_mm * d2x, y + half_mm * d2y)
        d4x, d4y, s4 = sample(x + step_mm * d3x, y + step_mm * d3y)
        if s2 > floor and s3 > floor and s4 > floor:
            dx = (d1x + 2 * d2x + 2 * d3x + d4x) / 6.0
            dy = (d1y + 2 * d2y + 2 * d3y + d4y) / 6.0
        else:
            dx, dy = d1x, d1y
        mag = math.hypot(dx, dy)
        if mag < 1e-12:
            termination = StreamTermination.FIELD_VANISHED
            break
        dx, dy = dx / mag, dy / mag
        # Interpolation near jagged walls can point slightly into them;
        # slide along the wall instead of marching in.
        blocked = False
        if channel_mask is not None:
            for _attempt in range(3):
                qx, qy = x + step_mm * dx, y + step_mm * dy
                qcx, qcy = int(qx // h), int(qy // h)
                if not (0 <= qcx < nx and 0 <= qcy < ny) or open_cells[qcy * nx + qcx]:
                    break
                nx_, ny_ = float(qcx - cx), float(qcy - cy)
                norm = math.hypot(nx_, ny_)
                if norm == 0:
                    blocked = True
                    break
                nx_, ny_ = nx_ / norm, ny_ / norm
                dot = dx * nx_ + dy * ny_
                dx, dy = dx - dot * nx_, dy - dot * ny_
                mag = math.hypot(dx, dy)
                if mag < 1e-12:
                    blocked = True
                    break
                dx, dy = dx / mag, dy / mag
                # Back off the wall a little so the trace does not stay
                # glued to it through the next junction.
                x -= 0.2 * h * nx_
                y -= 0.2 * h * ny_
            else:
                blocked = True
        if blocked:
            termination = StreamTermination.FIELD_VANISHED
            break
        x += step_mm * dx
        y += step_mm * dy
        pts.append((x, y))
    points = np.array(pts)
    points.setflags(write=False)
    return Streamline(points, termination)


# The cross-check traces every seed when none follows the route, so a
# large electrode's seed ring is thinned to at most this many seeds at an
# even stride. The rings of the example configs have 8 to 12 cells and
# keep every one.
_MAX_SEEDS = 24


def trace_route_streamline(
    j: VectorField,
    maze: MazeSpec,
    seg: CorridorSegmentation,
    tol: float = 1e-9,
) -> tuple[tuple[tuple[int, ...], Streamline], ...]:
    """The route of current_route, as (corridor sequence, streamline)
    pairs in sequence order: one pair per tied branch, one without a tie.

    Each branch's streamline cross-checks it: seeds on a ring of cells
    around the positive electrode are traced in decreasing field
    magnitude until every branch has a trace that reaches the negative
    electrode through its corridor sequence. A branch no seed's trace
    follows gets the trace of the strongest seed.
    """
    sequences = current_route(j, maze, seg, tol).sequences
    channel = maze.channel_mask()

    # Ring of seed cells two steps out from the positive electrode.
    dist, _ = bfs(channel, sorted(maze.positive), max_depth=2)
    ring = sorted((int(x), int(y)) for y, x in zip(*np.nonzero(dist == 2)))
    if not ring:
        ring = sorted((int(x), int(y)) for y, x in zip(*np.nonzero(dist == 1)))
    if not ring:
        raise ValueError("no channel cells around the positive electrode")
    stride = math.ceil(len(ring) / _MAX_SEEDS)

    h = maze.cell_size
    grid = _RowField.of(j)
    starts = [((ix + 0.5) * h, (iy + 0.5) * h) for ix, iy in ring[::stride]]
    weighted = [(grid.sample(*start)[2], start) for start in starts]
    # Stable sort: seeds of equal weight keep their ring order.
    seeds = [start for weight, start in sorted(weighted, key=lambda t: -t[0]) if weight > 0]
    if not seeds:
        raise ValueError("no usable streamline seeds around the positive electrode")

    found: dict[tuple[int, ...], Streamline] = {}
    strongest = None
    for start in seeds:
        trace = streamline(j, start, target_cells=maze.negative, channel_mask=channel, _rows=grid)
        if strongest is None:
            strongest = trace
        if trace.termination is StreamTermination.REACHED:
            seq = region_sequence(trace.cells(h), seg)
            if seq in sequences:
                found.setdefault(seq, trace)
                if len(found) == len(sequences):
                    break
    return tuple((seq, found.get(seq, strongest)) for seq in sequences)


# ---------------------------------------------------------------------------
# Corridor segmentation


# The 8 neighbours (dx, dy) counterclockwise from east (y grows down, so
# dy = -1 is north). Bit k of a cell's neighbour code is set when its
# neighbour _NBR8[k] is set: edge neighbours are the even bits, corners
# the odd ones.
_NBR8 = ((1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1))


def _neighbour_codes(mask: np.ndarray) -> np.ndarray:
    """Each cell's neighbour code (uint8); cells past the rim are clear."""
    ny, nx = mask.shape
    padded = np.zeros((ny + 2, nx + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = mask
    codes = np.zeros((ny, nx), dtype=np.uint8)
    for k, (dx, dy) in enumerate(_NBR8):
        codes |= padded[1 + dy : 1 + dy + ny, 1 + dx : 1 + dx + nx] << k
    return codes


def _code_tables() -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """The 256-entry tables of the skeleton, indexed by neighbour code:
    the two Zhang-Suen subpasses' deletions (Zhang & Suen, CACM 27(3),
    1984), the number of set neighbours, and redundancy: the set
    neighbours, two to six of them, form one 8-connected group. That is
    Hilditch's crossing number being 1 (Machine Intelligence 4, 1969), or
    all four edge neighbours being set."""
    ring = (np.arange(256) >> np.arange(8)[:, None]) & 1  # row k: bit k
    e, ne, n, nw, w, sw, s, se = ring
    count = ring.sum(axis=0)
    two_to_six = (count >= 2) & (count <= 6)
    # Clear-to-set steps once round the ring.
    transitions = ((ring == 0) & (np.roll(ring, -1, axis=0) == 1)).sum(axis=0)
    thinnable = two_to_six & (transitions == 1)
    subpasses = (
        thinnable & (n * e * s == 0) & (e * s * w == 0),
        thinnable & (n * e * w == 0) & (n * s * w == 0),
    )
    edges = ring[0::2]
    after = ring[1::2] | np.roll(edges, -1, axis=0)
    crossings = ((edges == 0) & (after == 1)).sum(axis=0)
    redundant = two_to_six & ((crossings == 1) | (e & n & w & s).astype(bool))
    return subpasses, count.astype(np.int8), redundant


_ZHANG_SUEN, _SET_COUNT, _REDUNDANT = _code_tables()


def thin_mask(mask: np.ndarray) -> np.ndarray:
    """Morphological thinning to a one-cell skeleton (two-subpass scheme,
    8-connectivity preserved)."""
    img = mask.astype(bool)
    changed = True
    while changed:
        changed = False
        for deletable in _ZHANG_SUEN:
            gone = img & deletable[_neighbour_codes(img)]
            if gone.any():
                img &= ~gone
                changed = True
    return _minimal_skeleton(img)


def _minimal_skeleton(skel: np.ndarray) -> np.ndarray:
    """Sequentially delete redundant cells (staircase doubles) that the
    parallel passes leave behind, keeping endpoints and connectivity.

    A cell is removable when its skeleton neighbours stay 8-connected
    through each other once it is gone (_REDUNDANT).
    """
    # One clear cell all round, so every neighbour has a flat index.
    skel = np.pad(skel, 1)
    offsets = np.array([dy * skel.shape[1] + dx for dx, dy in _NBR8])
    # Deleting a cell clears, in each neighbour's code, the opposite bit.
    keep = ~(1 << np.roll(np.arange(8, dtype=np.uint8), 4))
    redundant = _REDUNDANT.tolist()
    flat = skel.reshape(-1)
    changed = True
    while changed:
        changed = False
        codes = _neighbour_codes(skel).reshape(-1)
        # Row-major over the pass's starting skeleton: a pass deletes
        # only the cell it is visiting.
        for i in np.flatnonzero(flat).tolist():
            if redundant[codes[i]]:
                flat[i] = False
                codes[i + offsets] &= keep
                changed = True
    return skel[1:-1, 1:-1].copy()


def _skeleton_degree(skel: np.ndarray) -> np.ndarray:
    return _SET_COUNT[_neighbour_codes(skel)] * skel


def _skeleton_neighbours(skel: np.ndarray, ix: int, iy: int) -> list[tuple[int, int]]:
    """The set neighbours of (ix, iy), in _NBR8 order."""
    ny, nx = skel.shape
    return [
        (jx, jy)
        for jx, jy in ((ix + dx, iy + dy) for dx, dy in _NBR8)
        if 0 <= jx < nx and 0 <= jy < ny and skel[jy, jx]
    ]


def prune_spurs(skel: np.ndarray, max_len: int) -> np.ndarray:
    """Remove skeleton side-branches of at most max_len cells that dead-end
    off a junction; genuine dead-end corridors (longer, or with no junction
    behind them) survive."""
    skel = skel.copy()
    while True:
        deg = _skeleton_degree(skel)
        endpoints = sorted(
            (int(x), int(y)) for y, x in zip(*np.nonzero(skel & (deg == 1)))
        )
        removed = False
        for ex, ey in endpoints:
            if not skel[ey, ex]:
                continue
            chain = [(ex, ey)]
            prev = None
            cur = (ex, ey)
            hit_junction = False
            while len(chain) <= max_len:
                nbrs = [c for c in _skeleton_neighbours(skel, *cur) if c != prev]
                if len(nbrs) != 1:
                    hit_junction = len(nbrs) > 1
                    break
                nxt = nbrs[0]
                if deg[nxt[1], nxt[0]] >= 3:
                    hit_junction = True
                    break
                prev, cur = cur, nxt
                chain.append(cur)
            if hit_junction and len(chain) <= max_len:
                for ix, iy in chain:
                    skel[iy, ix] = False
                removed = True
        if not removed:
            return skel


@dataclass(frozen=True, eq=False)
class CorridorSegmentation:
    """Channel cells partitioned into corridor / junction regions."""

    region: np.ndarray  # (ny, nx) int32, -1 off-channel
    is_node: np.ndarray  # (n_regions,) bool: True for junction/endpoint blobs
    n_regions: int
    skeleton: np.ndarray  # bool (ny, nx)
    width_cells: float

    def cell_overlap(self, regions_a: Iterable[int], regions_b: Iterable[int]) -> float:
        """Jaccard overlap of the cells of two region sets. Regions are
        disjoint, so both counts are sums of region sizes."""
        a, b = set(regions_a), set(regions_b)
        sizes = np.bincount(self.region[self.region >= 0], minlength=self.n_regions)
        union = int(sizes[list(a | b)].sum())
        return int(sizes[list(a & b)].sum()) / union if union else 0.0


def _wall_distance(channel: np.ndarray) -> np.ndarray:
    """Taxicab distance (cells) from the nearest non-channel cell; cells
    beyond the grid rim do not count as walls. An all-channel grid has no
    wall to measure from and gets ones.

    Each round of 4-neighbour erosion peels one layer off the channel, so
    a cell's distance is the number of rounds it stays inside.
    """
    if channel.all():
        return np.ones(channel.shape, dtype=np.int32)
    dist = np.zeros(channel.shape, dtype=np.int32)
    inside = channel.astype(bool)
    while inside.any():
        dist += inside
        eroded = inside.copy()
        eroded[1:, :] &= inside[:-1, :]
        eroded[:-1, :] &= inside[1:, :]
        eroded[:, 1:] &= inside[:, :-1]
        eroded[:, :-1] &= inside[:, 1:]
        inside = eroded
    return dist


# A skeleton chain is cut where it turns by at least this much within a
# window: a maze corner turns 90 degrees, a staircase diagonal's wiggle
# averages out below it.
_MIN_TURN_DEG = 60.0


def _chain_turn_split(chain: list[tuple[int, int]], window: int) -> list[int]:
    """Indices where a chain bends sharply; staircase wiggle stays merged."""
    n = len(chain)
    if n < 2 * window + 3:
        return []
    turns = np.zeros(n)
    for i in range(window, n - window):
        ax = chain[i][0] - chain[i - window][0]
        ay = chain[i][1] - chain[i - window][1]
        bx = chain[i + window][0] - chain[i][0]
        by = chain[i + window][1] - chain[i][1]
        na, nb = math.hypot(ax, ay), math.hypot(bx, by)
        if na == 0 or nb == 0:
            continue
        cosang = max(-1.0, min(1.0, (ax * bx + ay * by) / (na * nb)))
        turns[i] = math.degrees(math.acos(cosang))
    cuts: list[int] = []
    i = window
    while i < n - window:
        if turns[i] >= _MIN_TURN_DEG:
            # take the local maximum of this bend
            k = i
            while k + 1 < n - window and turns[k + 1] >= turns[k]:
                k += 1
            cuts.append(k)
            i = k + max(window, 1)
        else:
            i += 1
    return cuts


def segment_corridors(maze: MazeSpec) -> CorridorSegmentation:
    """Partition channel cells into corridor regions and junction regions."""
    channel = maze.channel_mask()
    skel = thin_mask(channel)

    dist = _wall_distance(channel)
    on_skel = dist[skel]
    width = 2.0 * float(np.median(on_skel)) if on_skel.size else 1.0
    # Half a channel width: long enough to see a real corner, short enough
    # that the steady curvature of an annular corridor never accumulates
    # _MIN_TURN_DEG within it.
    window = max(2, int(round(width / 2)))

    # Thinning wide channels leaves short hair branches; drop anything
    # shorter than one channel width so only real topology remains.
    skel = prune_spurs(skel, max(3, int(round(width))))
    deg = _skeleton_degree(skel)
    node_mask = skel & (deg != 2)
    # Electrode areas terminate routes, so they split chains too; this
    # keeps a ring with an electrode on it from becoming one giant loop
    # region spanning both its live and its dead side.
    electrode = np.zeros_like(node_mask)
    for ix, iy in maze.positive | maze.negative:
        electrode[iy, ix] = True
    node_mask |= skel & electrode

    # Junction / endpoint blobs first (8-connected groups of node cells),
    # numbered in (ix, iy) order of their first cell: the transpose's
    # row-major order.
    blobs, next_id = label_components(node_mask.T, diagonal=True)
    region = np.ascontiguousarray(blobs.T)
    is_node = [True] * next_id
    node_cells = np.argwhere(node_mask.T).tolist()  # (ix, iy), sorted

    # Walk chains between node blobs (or around pure cycles).
    visited = node_mask.copy()

    chains: list[list[tuple[int, int]]] = []

    def walk(ix: int, iy: int) -> None:
        chain = [(ix, iy)]
        visited[iy, ix] = True
        while True:
            nxts = [c for c in _skeleton_neighbours(skel, *chain[-1]) if not visited[c[1], c[0]]]
            if not nxts:
                break
            visited[nxts[0][1], nxts[0][0]] = True
            chain.append(nxts[0])
        chains.append(chain)

    for ix0, iy0 in node_cells:
        for sx, sy in _skeleton_neighbours(skel, ix0, iy0):
            if not visited[sy, sx]:
                walk(sx, sy)
    # Leftover cycles with no junction at all.
    for ix0, iy0 in sorted((int(x), int(y)) for y, x in zip(*np.nonzero(skel & ~visited))):
        if not visited[iy0, ix0]:
            walk(ix0, iy0)

    for chain in chains:
        cuts = _chain_turn_split(chain, window)
        start = 0
        for cut in cuts + [len(chain)]:
            piece = chain[start:cut]
            start = cut
            if not piece:
                continue
            rid = next_id
            next_id += 1
            # Chains not much longer than a channel width are doorways
            # between junction areas: too short for a route to register in
            # reliably, so they stay transparent for every route alike.
            is_node.append(len(piece) < max(3, int(round(width)) + 3))
            for ix, iy in piece:
                region[iy, ix] = rid

    is_node_arr = np.array(is_node, dtype=bool)

    def _grow(node: bool, depth_limit: int | None) -> None:
        """Grow the node (or corridor) regions into unassigned channel
        cells, seeded from their cells in (region, iy, ix) order."""
        iy, ix = np.nonzero(region >= 0)
        rid = region[iy, ix]
        pick = is_node_arr[rid] == node
        ix, iy, rid = ix[pick], iy[pick], rid[pick]
        order = np.lexsort((ix, iy, rid))
        seeds = list(zip(ix[order].tolist(), iy[order].tolist()))
        dist, owner = bfs(channel & (region < 0), seeds, depth_limit)
        grown = dist > 0
        region[grown] = rid[order][owner[grown]]

    # Junction areas first, out to half a channel width: routes crossing a
    # junction stay "between corridors" there. Corridors then fill the rest.
    _grow(True, max(2, int(round(width / 2)) + 1))
    _grow(False, None)
    _grow(True, None)  # leftover pockets (dead ends off junctions)

    for arr in (region, is_node_arr, skel):
        arr.setflags(write=False)
    return CorridorSegmentation(
        region=region,
        is_node=is_node_arr,
        n_regions=next_id,
        skeleton=skel,
        width_cells=width,
    )


def region_sequence(
    cells: Iterable[tuple[int, int]], seg: CorridorSegmentation
) -> tuple[int, ...]:
    """Ordered corridor regions visited; junction blobs are transparent.

    Consecutive duplicate cells collapse first, so sampling density does
    not matter; a region then enters the sequence only after a debounce of
    consecutive distinct cells, which suppresses grazing touches along
    region boundaries. The debounce scales with the channel width (a real
    traversal of a corridor covers at least half a width of cells).
    """
    debounce = min(8, max(2, math.ceil(seg.width_cells / 2)))
    seq: list[int] = []
    cand = -1
    count = 0
    last_cell: tuple[int, int] | None = None
    for cell in cells:
        if cell == last_cell:
            continue
        last_cell = cell
        ix, iy = cell
        if not (0 <= ix < seg.region.shape[1] and 0 <= iy < seg.region.shape[0]):
            continue
        rid = int(seg.region[iy, ix])
        if rid < 0 or seg.is_node[rid]:
            continue
        if seq and rid == seq[-1]:
            cand = -1
            count = 0
            continue
        if rid == cand:
            count += 1
        else:
            cand = rid
            count = 1
        # The first region is the source room, which a route may clip only
        # briefly on its way out; accept it on slimmer evidence.
        need = min(debounce, 2) if not seq else debounce
        if count >= need:
            seq.append(rid)
            cand = -1
            count = 0
    return tuple(seq)


def _max_distance_to_path(points: np.ndarray, path: Path) -> float:
    """Max over points of the distance to the polyline through the path's
    cell centres.

    The path steps between 4-neighbour cells, so the polyline is a chain
    of axis-parallel straight runs; the cells inside a run are dropped. A
    point's nearest point on a run is the point clipped to the run's box.
    A run's far end is taken as its last one-cell step reaches it,
    b + (c - b), so every distance is the float a one-cell segment gives,
    except within rounding of the polyline, where this one is exact."""
    pts = path.points_mm()
    if len(pts) == 1:
        starts = stops = pts
    else:
        steps = np.diff(np.array(path.cells), axis=0)
        turns = 1 + np.flatnonzero((steps[1:] != steps[:-1]).any(axis=1))
        ends = np.concatenate(([0], turns, [len(pts) - 1]))
        starts = pts[ends[:-1]]
        before = pts[ends[1:] - 1]
        stops = before + (pts[ends[1:]] - before)
    xs, ys = points[:, 0], points[:, 1]
    best = np.full(len(points), np.inf)
    lo, hi = np.minimum(starts, stops).tolist(), np.maximum(starts, stops).tolist()
    for (x0, y0), (x1, y1) in zip(lo, hi):
        np.minimum(best, np.hypot(xs - np.clip(xs, x0, x1), ys - np.clip(ys, y0, y1)), out=best)
    return float(best.max())


def compare_trajectory(traj: "Trajectory", path: Path, seg: CorridorSegmentation) -> dict:
    """How closely a droplet run reproduces an oracle path: the
    `comparison` section of report.json."""
    points = traj.positions_mm()
    if len(points) == 0 or len(path.cells) == 0:
        raise ValueError("empty trajectory or path")
    deviation = _max_distance_to_path(points, path)
    ratio = traj.path_length_mm / path.length_mm if path.length_mm > 0 else math.inf

    ix, iy = cell_index(points, path.cell_size).T.tolist()
    t_seq = region_sequence(zip(ix, iy), seg)
    p_seq = region_sequence(path.cells, seg)
    return {
        "max_lateral_deviation_mm": deviation,
        "length_ratio": ratio,
        "corridor_sequence_equal": t_seq == p_seq,
        "cell_overlap": seg.cell_overlap(t_seq, p_seq),
        "trajectory_sequence": list(t_seq),
    }
