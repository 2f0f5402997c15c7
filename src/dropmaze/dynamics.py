"""Rigid-disk droplet driven by the disk-integrated current density J.

The droplet is overdamped: velocity is mobility times the driving force,
with the force components pointing into wall contacts projected out. A
static threshold pins the disk when the effective force is too weak;
while pinned it accumulates impulse and breaks free with a threshold-speed
kick once enough has built up, which reproduces dwell-then-dash behaviour
at corners. Below `stall_fraction` of the threshold nothing accumulates
and the disk stays put for good; that is the bifurcation lock. A pinned
step that lands on the settled position it started from reuses that
position's disk sum, contact normals and target test.

All positions are in mm, times in seconds, forces in the units produced by
disk_integrate (field value times square metres times force_gain).
"""

from __future__ import annotations

import dataclasses
import enum
import math
import random
from array import array
from dataclasses import dataclass

import numpy as np

from .maze import MazeSpec, bfs
from .oracle import CorridorSegmentation, Path as OraclePath
from .solver import MM_TO_M, FieldBundle, VectorField


class DynamicsError(RuntimeError):
    """Simulation cannot start (e.g. no channel wide enough for the disk)."""


class Termination(enum.Enum):
    REACHED_TARGET = "reached_target"
    LOCKED = "locked"
    MAX_STEPS = "max_steps"


@dataclass(frozen=True)
class DynamicsParams:
    """Tuning constants for the droplet agent.

    None of these are physically calibrated; the defaults are sized for the
    desk-scale demo mazes (tens of mm, ~10 S/m electrolyte, 5 V) so that a
    droplet runs corridors freely, dwells at corners, and stalls for good
    at a bifurcation whose branch pulls nearly cancel.
    """

    mobility: float = 6000.0  # (mm/s) per force unit
    static_threshold: float = 2.2e-3  # force units; 0 disables pinning
    dt: float = 0.0  # s; 0 = pick so one step moves at most half a cell
    max_steps: int = 60_000
    lock_window: int = 2500  # steps
    lock_epsilon_mm: float = 0.05
    force_gain: float = 1.0
    radius_mm: float = 0.0  # 0 = 0.375x the estimated channel width
    release_time: float = 0.25  # s of threshold-level impulse needed to unpin
    stall_fraction: float = 0.25  # below this fraction of threshold: no release
    noise_amplitude: float = 0.0  # optional zero-mean force perturbation
    noise_seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be a finite number")
        for name in ("mobility", "force_gain"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.lock_window < 1:
            raise ValueError("lock_window must be >= 1")
        for name in (
            "static_threshold", "dt", "max_steps", "lock_epsilon_mm", "radius_mm", "release_time",
            "noise_amplitude",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.stall_fraction <= 1.0:
            raise ValueError("stall_fraction must be in [0, 1]")


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    speeds: np.ndarray
    forces: np.ndarray  # effective (wall-projected) force magnitude per sample
    termination: Termination
    path_length_mm: float
    dt: float
    radius_mm: float
    start_cell: tuple[int, int]

    def positions_mm(self) -> np.ndarray:
        return np.column_stack([self.xs, self.ys])

    def __len__(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# Disk integration


class RowSums:
    """Per-row prefix sums of a vector field whose wall cells count as 0:
    x[iy, k] sums vx[iy, :k] and y[iy, k] sums vy[iy, :k], so a row's sum
    over the columns a..b is x[iy, b + 1] - x[iy, a]. These are Crow's
    summed-area tables (SIGGRAPH 1984), taken one row at a time.

    They hold two (ny, nx + 1) float grids and nothing else: each is
    built in place, J copied in after a zero column, its walls zeroed,
    then summed along the rows."""

    def __init__(self, field: VectorField, wall_mask: np.ndarray):
        self.x, self.y = (_row_prefix_sums(v, wall_mask) for v in (field.vx, field.vy))
        self.cell_size = field.cell_size


def _row_prefix_sums(v: np.ndarray, wall_mask: np.ndarray) -> np.ndarray:
    sums = np.empty((v.shape[0], v.shape[1] + 1))
    sums[:, 0] = 0.0
    sums[:, 1:] = v
    sums[:, 1:][wall_mask] = 0.0
    return np.cumsum(sums, axis=1, out=sums)


def disk_integrate(
    sums: RowSums, center_mm: tuple[float, float], radius_mm: float, gain: float = 1.0
) -> tuple[float, float]:
    """Sum of the field over cells whose centres fall inside the disk,
    weighted by cell area (m^2) and scaled by gain. Wall cells contribute
    nothing.

    A cell is inside when ((ix + 0.5) * h - x) ** 2 + ((iy + 0.5) * h - y)
    ** 2 <= radius ** 2 in floats, each square taken as a product. Those
    cells of a row form an interval, which adds one difference of the
    row's prefix sums; the rows are added from the lowest iy up."""
    h = sums.cell_size
    ny, nx = sums.x.shape[0], sums.x.shape[1] - 1
    x, y = center_mm
    if x + radius_mm < 0 or y + radius_mm < 0 or x - radius_mm > nx * h or y - radius_mm > ny * h:
        raise ValueError("disk lies entirely outside the grid")
    iy0 = max(int(math.floor((y - radius_mm) / h)) - 1, 0)
    iy1 = min(int(math.ceil((y + radius_mm) / h)) + 1, ny - 1)
    r2 = radius_mm**2
    xc = x / h - 0.5  # the centre in column units
    sx, sy = sums.x.item, sums.y.item
    fx = fy = 0.0
    for iy in range(iy0, iy1 + 1):
        d = (iy + 0.5) * h - y
        dy2 = d * d
        if dy2 > r2:
            continue
        # The chord's ends round to within a cell of the interval's; the
        # float test decides the cells there.
        w = math.sqrt(r2 - dy2) / h
        lo, hi = math.ceil(xc - w) - 1, math.floor(xc + w) + 1
        while lo <= hi and (t := (lo + 0.5) * h - x) * t + dy2 > r2:
            lo += 1
        while hi >= lo and (t := (hi + 0.5) * h - x) * t + dy2 > r2:
            hi -= 1
        lo, hi = max(lo, 0), min(hi, nx - 1)
        if lo <= hi:
            fx += sx(iy, hi + 1) - sx(iy, lo)
            fy += sy(iy, hi + 1) - sy(iy, lo)
    area = (h * MM_TO_M) ** 2
    return fx * area * gain, fy * area * gain


def disk_integrate_cells(
    sums: RowSums, cells: tuple[np.ndarray, np.ndarray], radius_mm: float, gain: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """disk_integrate at the centres of many cells at once; cells is
    (iys, ixs). Each disk keeps the same row intervals and adds their
    differences in the same row order, so each sum is the float
    disk_integrate gives at that centre."""
    iys, ixs = cells
    h = sums.cell_size
    ny, nx = sums.x.shape[0], sums.x.shape[1] - 1
    x, y = (ixs + 0.5) * h, (iys + 0.5) * h
    r2 = radius_mm**2
    xc = x / h - 0.5
    flat_x, flat_y = sums.x.ravel(), sums.y.ravel()
    fx, fy = np.zeros(len(ixs)), np.zeros(len(ixs))
    # No row further than radius from the centre row holds a disk cell.
    reach = int(math.ceil(radius_mm / h)) + 1
    for dy in range(-reach, reach + 1):
        iy = iys + dy
        d = (iy + 0.5) * h - y
        dy2 = d * d
        live = (dy2 <= r2) & (iy >= 0) & (iy < ny)
        if not live.any():
            continue
        w = np.sqrt(np.maximum(r2 - dy2, 0.0)) / h
        lo, hi = np.ceil(xc - w) - 1, np.floor(xc + w) + 1  # whole numbers
        while (m := (lo <= hi) & ((t := (lo + 0.5) * h - x) * t + dy2 > r2)).any():
            lo += m
        while (m := (hi >= lo) & ((t := (hi + 0.5) * h - x) * t + dy2 > r2)).any():
            hi -= m
        lo, hi = np.maximum(lo, 0), np.minimum(hi, nx - 1)
        # A row that holds no cell of a disk adds x[0, 0] - x[0, 0] = 0.0
        # to its sum, which leaves the sum as it is.
        live &= lo <= hi
        a = np.where(live, iy * (nx + 1) + lo, 0).astype(np.int64)
        b = np.where(live, iy * (nx + 1) + hi + 1, 0).astype(np.int64)
        fx += flat_x[b] - flat_x[a]
        fy += flat_y[b] - flat_y[a]
    area = (h * MM_TO_M) ** 2
    return fx * area * gain, fy * area * gain


# ---------------------------------------------------------------------------
# Wall geometry

# (ix, iy, dx, dy, d) per wall or electrode cell near a disk; see _Geometry.gaps.
Gaps = list[tuple[int, int, float, float, float]]


class _Geometry:
    """Per-maze cached wall data for contact queries."""

    def __init__(self, maze: MazeSpec):
        self.h = maze.cell_size
        self.nx = maze.nx
        self.ny = maze.ny
        self.contact_eps = 1e-3 * self.h
        self.wall = maze.wall_mask()
        self.negative = np.zeros_like(self.wall)
        for ix, iy in maze.negative:
            self.negative[iy, ix] = True
        # Bounding box of the negative electrode, mm: (x0, y0, x1, y1).
        ixs = [ix for ix, _ in maze.negative]
        iys = [iy for _, iy in maze.negative]
        self.negative_box = (
            min(ixs) * self.h, min(iys) * self.h, (max(ixs) + 1) * self.h, (max(iys) + 1) * self.h
        )
        self.positive_cells = sorted(maze.positive)
        # Cell boundaries, mm.
        self._edges = (np.arange(max(self.nx, self.ny) + 1) * self.h).tolist()

    def reach(self, radius: float) -> tuple[float, float]:
        """(limit, reach) of a wall query for a disk of this radius: gaps
        keeps the cells whose squared clamped distance is at most limit²,
        the contact distance radius + contact_eps slightly widened, and
        looks for them no further than reach, which is limit widened
        enough that no distance whose square rounds to limit² or below
        lies beyond it."""
        limit = (radius + self.contact_eps) * (1.0 + 1e-6)
        return limit, limit * (1.0 + 1e-9)

    def gaps(self, mask: np.ndarray, x: float, y: float, radius: float) -> Gaps:
        """(ix, iy, dx, dy, d) for each cell of mask that may lie within
        contact distance (radius + contact_eps) of (x, y), in row-major
        order. (dx, dy) is (x, y) minus the cell's closest point to it and
        d is math.hypot(dx, dy).

        Only the mask cells of the window that reaches no further than the
        contact limit from the centre (see reach) are screened, one by
        one, against that slightly widened limit. So the result is a
        superset of the cells within contact distance, and callers
        compare each d with their own limit.
        """
        h = self.h
        limit, reach = self.reach(radius)
        ix0 = max(math.floor((x - reach) / h), 0)
        ix1 = min(math.floor((x + reach) / h), self.nx - 1)
        iy0 = max(math.floor((y - reach) / h), 0)
        iy1 = min(math.floor((y + reach) / h), self.ny - 1)
        iys, ixs = mask[iy0 : iy1 + 1, ix0 : ix1 + 1].nonzero()
        if not len(iys):
            return []
        e = self._edges
        limit2 = limit * limit
        out = []
        row = -1
        for iy, ix in zip((iys + iy0).tolist(), (ixs + ix0).tolist()):
            if iy != row:
                row = iy
                gy = y - min(max(y, e[iy]), e[iy + 1])
                gy2 = gy * gy
            gx = x - min(max(x, e[ix]), e[ix + 1])
            if gy2 + gx * gx <= limit2:
                out.append((ix, iy, gx, gy, math.hypot(gx, gy)))
        return out


def _contact_normals(
    geom: _Geometry, x: float, y: float, radius: float, gaps: Gaps
) -> list[tuple[float, float]]:
    """Unit normals of the walls and grid rim the disk touches; gaps is
    geom.gaps(geom.wall, x, y, radius)."""
    eps = geom.contact_eps
    normals = [(dx / d, dy / d) for _, _, dx, dy, d in gaps if 1e-12 < d <= radius + eps]
    # Grid rim behaves like a wall.
    if x - radius <= eps:
        normals.append((1.0, 0.0))
    if geom.nx * geom.h - x - radius <= eps:
        normals.append((-1.0, 0.0))
    if y - radius <= eps:
        normals.append((0.0, 1.0))
    if geom.ny * geom.h - y - radius <= eps:
        normals.append((0.0, -1.0))
    return normals


def _project_out(fx: float, fy: float, normals: list[tuple[float, float]]) -> tuple[float, float]:
    """Remove force components pointing into any active contact."""
    for _ in range(3):
        moved = False
        for nx_, ny_ in normals:
            s = fx * nx_ + fy * ny_
            if s < -1e-300:
                fx -= s * nx_
                fy -= s * ny_
                moved = True
        if not moved:
            break
    return fx, fy


def _resolve_overlap(
    geom: _Geometry, x: float, y: float, radius: float
) -> tuple[float, float, Gaps, bool]:
    """Push the disk centre out of any wall overlap, at most 16 times;
    clamp to the grid.

    Also returns geom.gaps of the wall at the final position, so the
    contact normals there need no second query, and whether the push
    settled: True when it stopped at a position inside the grid clamp
    that needs no push, which it would return again, with the same gaps;
    False when the 16 pushes ran out or a push left the clamp."""
    h = geom.h
    x_max, y_max = geom.nx * h - radius, geom.ny * h - radius
    x = min(max(x, radius), x_max)
    y = min(max(y, radius), y_max)
    for _ in range(16):
        worst_pen = 0.0
        worst_n: tuple[float, float] | None = None
        gaps = geom.gaps(geom.wall, x, y, radius)
        for ix, iy, dx, dy, d in gaps:
            if d <= 1e-12:
                # Centre inside the wall cell: push away from its centre.
                cx, cy = x - (ix + 0.5) * h, y - (iy + 0.5) * h
                n = math.hypot(cx, cy)
                nx_, ny_ = (cx / n, cy / n) if n > 1e-12 else (1.0, 0.0)
                pen = radius
            else:
                pen = radius - d
                nx_, ny_ = dx / d, dy / d
            if pen > worst_pen:
                worst_pen = pen
                worst_n = (nx_, ny_)
        if worst_n is None or worst_pen <= 1e-9 * h:
            return x, y, gaps, radius <= x <= x_max and radius <= y <= y_max
        x += worst_n[0] * (worst_pen + 1e-9 * h)
        y += worst_n[1] * (worst_pen + 1e-9 * h)
    return x, y, geom.gaps(geom.wall, x, y, radius), False


def _disk_fits(geom: _Geometry, x: float, y: float, radius: float) -> bool:
    h = geom.h
    if x - radius < -1e-9 or y - radius < -1e-9:
        return False
    if x + radius > geom.nx * h + 1e-9 or y + radius > geom.ny * h + 1e-9:
        return False
    return not any(d < radius - 1e-9 for *_, d in geom.gaps(geom.wall, x, y, radius))


def _disk_overlaps_negative(geom: _Geometry, x: float, y: float, radius: float) -> bool:
    _, reach = geom.reach(radius)
    x0, y0, x1, y1 = geom.negative_box
    if x + reach < x0 or x - reach > x1 or y + reach < y0 or y - reach > y1:
        return False
    return any(d <= radius for *_, d in geom.gaps(geom.negative, x, y, radius))


# ---------------------------------------------------------------------------
# Running the droplet


def droplet_radius_mm(params: DynamicsParams, seg: CorridorSegmentation, cell_size: float) -> float:
    """The droplet radius: params.radius_mm, or when that is 0 a default
    scaled to the corridor width. seg is read only for the default."""
    if params.radius_mm > 0:
        return params.radius_mm
    # Large enough that corridors keep the disk near their centreline
    # (the droplet in a narrow channel is comparable to its width).
    return 0.375 * seg.width_cells * cell_size


def find_start(maze: MazeSpec, radius: float, labels: np.ndarray) -> tuple[int, int]:
    """Nearest channel cell to the positive electrode whose disk fits
    without covering the pinned electrode cells, among the cells the
    negative electrode's wavefront reaches (labels >= 0, of lee_label).

    Among equally near candidates the downstream one (smallest wavefront
    label) wins: the droplet detaches on the side the current pulls it;
    remaining ties go to the lowest row, then the lowest column."""
    geom = _Geometry(maze)
    pos = geom.positive_cells
    channel = maze.channel_mask()
    h = geom.h
    # The search widens, doubling its depth, until a ring it adds holds a
    # cell that fits; within the rings, the order is the one given above.
    searched, depth = 0, 1
    while True:
        dist, _ = bfs(channel, pos, max_depth=depth)
        iys, ixs = np.nonzero((dist > searched) & (labels >= 0))
        for k in np.lexsort((ixs, iys, labels[iys, ixs], dist[iys, ixs])).tolist():
            ix, iy = int(ixs[k]), int(iys[k])
            x, y = (ix + 0.5) * h, (iy + 0.5) * h
            if not _disk_fits(geom, x, y, radius):
                continue
            if any(math.hypot((jx + 0.5) * h - x, (jy + 0.5) * h - y) <= radius for jx, jy in pos):
                continue
            return ix, iy
        if not (dist == depth).any():  # the search reached every channel cell
            raise DynamicsError("no start position: channels are narrower than the droplet")
        searched, depth = depth, 2 * depth


def _auto_dt(sums: RowSums, params: DynamicsParams, radius: float, path: OraclePath) -> float:
    """dt such that the fastest force sample along the oracle route (the
    Lee path from the start) moves the disk at most half a cell per step."""
    ixs, iys = np.array(path.cells).T
    fx, fy = disk_integrate_cells(sums, (iys, ixs), radius, params.force_gain)
    fmax = max(0.0, *map(math.hypot, fx.tolist(), fy.tolist()))
    if fmax <= 0:
        return 1.0
    return sums.cell_size / (2.0 * params.mobility * fmax * 1.25)


def simulate(
    maze: MazeSpec,
    params: DynamicsParams,
    fields: FieldBundle,
    start_mm: tuple[float, float],
    radius: float,
    path: OraclePath,
) -> Trajectory:
    """Run a droplet of the given radius (mm) from start_mm until it
    reaches the negative electrode, locks, or exhausts max_steps.

    path is the Lee path from the cell holding start_mm; its first cell
    is the trajectory's start_cell, and with params.dt = 0 the time step
    is sized along it. scenario.resolve_start gives all three."""
    geom = _Geometry(maze)
    x0, y0 = float(start_mm[0]), float(start_mm[1])
    if not _disk_fits(geom, x0, y0, radius):
        raise DynamicsError(f"droplet of radius {radius} mm does not fit at {start_mm}")

    sums = RowSums(fields.j, geom.wall)
    dt = params.dt
    if dt <= 0:
        dt = _auto_dt(sums, params, radius, path)
    rng = random.Random(params.noise_seed) if params.noise_amplitude > 0 else None
    gain, noise, lock_window = params.force_gain, params.noise_amplitude, params.lock_window
    mobility, thr = params.mobility, params.static_threshold
    stall = params.stall_fraction * thr  # below this force no impulse builds up
    release = thr * params.release_time  # impulse that unpins the disk
    kick = mobility * thr  # speed of a released disk
    limit = geom.h / 2.0  # longest step, so the disk cannot tunnel through walls

    # Each position's disk sum and contact normals serve twice: projected
    # as they are for the recorded force, and with noise added for the
    # step taken from there.
    sx, sy = disk_integrate(sums, (x0, y0), radius, gain)
    normals = _contact_normals(geom, x0, y0, radius, geom.gaps(geom.wall, x0, y0, radius))
    # The samples, 8 bytes each: no Python float is kept per sample.
    times = array("d", [0.0])
    xs = array("d", [x0])
    ys = array("d", [y0])
    speeds = array("d", [0.0])
    forces = array("d", [math.hypot(*_project_out(sx, sy, normals))])
    x, y, t, impulse = x0, y0, 0.0, 0.0
    settled = False  # the start has not been through _resolve_overlap
    termination = Termination.MAX_STEPS
    path_length = 0.0
    steps = 0

    if _disk_overlaps_negative(geom, x0, y0, radius):
        termination = Termination.REACHED_TARGET
    else:
        while steps < params.max_steps:
            fx, fy = sx, sy
            if rng is not None:
                fx += rng.gauss(0.0, noise)
                fy += rng.gauss(0.0, noise)
            # Stick-slip: a force at the threshold moves the disk; a weaker
            # one above the stall level builds up impulse while it stays
            # pinned, until a threshold-speed kick releases it.
            fx, fy = _project_out(fx, fy, normals)
            fmag = math.hypot(fx, fy)
            if fmag >= thr:
                vx, vy = mobility * fx, mobility * fy
                impulse = 0.0
            elif thr > 0 and fmag >= stall and fmag > 0:
                impulse += fmag * dt
                if impulse >= release:
                    scale = kick / fmag
                    vx, vy = scale * fx, scale * fy
                    impulse = 0.0
                else:
                    vx = vy = 0.0
            else:
                vx = vy = 0.0
            speed = math.hypot(vx, vy)
            if speed * dt > limit:
                f = limit / (speed * dt)
                vx *= f
                vy *= f
            qx, qy = x + vx * dt, y + vy * dt
            steps += 1
            t += dt
            times.append(t)
            if settled and qx == x and qy == y:
                # Pinned where the last push settled: pushing, summing and
                # testing this position again would give what it gave.
                xs.append(x)
                ys.append(y)
                speeds.append(0.0)
                forces.append(forces[-1])
            else:
                px, py = x, y
                x, y, gaps, settled = _resolve_overlap(geom, qx, qy, radius)
                path_length += math.hypot(x - px, y - py)
                sx, sy = disk_integrate(sums, (x, y), radius, gain)
                normals = _contact_normals(geom, x, y, radius, gaps)
                xs.append(x)
                ys.append(y)
                speeds.append(math.hypot((x - px) / dt, (y - py) / dt))
                forces.append(math.hypot(*_project_out(sx, sy, normals)))
                if _disk_overlaps_negative(geom, x, y, radius):
                    termination = Termination.REACHED_TARGET
                    break
            # Locked: no further than lock_epsilon_mm from where the disk
            # was lock_window steps ago.
            if steps >= lock_window and (
                math.hypot(x - xs[-1 - lock_window], y - ys[-1 - lock_window])
                < params.lock_epsilon_mm
            ):
                termination = Termination.LOCKED
                break

    return Trajectory(
        times=np.array(times),
        xs=np.array(xs),
        ys=np.array(ys),
        speeds=np.array(speeds),
        forces=np.array(forces),
        termination=termination,
        path_length_mm=path_length,
        dt=dt,
        radius_mm=radius,
        start_cell=path.cells[0],
    )


# A sample dwells when the droplet moves slower than this share of its
# peak speed. A pinned droplet does not move at all, and on `ring_m1`,
# `ring_m2` and `bifurcation_lock` every moving sample is faster than
# 0.15 of the peak.
_DWELL_FRACTION = 0.01


def dwell_segments(traj: Trajectory) -> list[tuple[int, int]]:
    """The maximal runs of samples slower than _DWELL_FRACTION of the peak
    speed (the pinning dwells), as inclusive sample index ranges. A run
    that never moves is one dwell."""
    speeds = traj.speeds
    peak = speeds.max()
    slow = speeds < _DWELL_FRACTION * peak if peak > 0 else np.ones(len(speeds), dtype=bool)
    # The padded mask rises where a run starts and falls one past its end.
    padded = np.concatenate(([False], slow, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    return [(i0, i1 - 1) for i0, i1 in zip(edges[::2], edges[1::2])]
