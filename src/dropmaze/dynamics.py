"""Rigid-disk droplet driven by the disk-integrated field.

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

import enum
import functools
import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .maze import MazeSpec, Polarity, bfs
from .oracle import CorridorSegmentation, LeeLabels, Path as OraclePath
from .solver import MM_TO_M, FieldBundle, VectorField


class DynamicsError(RuntimeError):
    """Simulation cannot start (e.g. no channel wide enough for the disk)."""


class ForceSource(enum.Enum):
    DISK_MEAN_J = "disk_mean_j"
    DISK_MEAN_GRAD_SPEED_J = "disk_mean_grad_speed_j"


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
    force_source: ForceSource = ForceSource.DISK_MEAN_J
    force_gain: float = 1.0
    radius_mm: float = 0.0  # 0 = 0.375x the estimated channel width
    release_time: float = 0.25  # s of threshold-level impulse needed to unpin
    stall_fraction: float = 0.25  # below this fraction of threshold: no release
    noise_amplitude: float = 0.0  # optional zero-mean force perturbation
    noise_seed: int = 0

    def __post_init__(self):
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
    final_effective_force: float

    def positions_mm(self) -> np.ndarray:
        return np.column_stack([self.xs, self.ys])

    def samples(self) -> Iterator[tuple[float, tuple[float, float], float, float]]:
        for t, x, y, s, f in zip(self.times, self.xs, self.ys, self.speeds, self.forces):
            yield (float(t), (float(x), float(y)), float(s), float(f))

    def __len__(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# Disk integration


@functools.lru_cache(maxsize=8)
def _cell_centres(n: int, h: float) -> np.ndarray:
    """(i + 0.5) * h for i in range(n): the same floats an np.arange
    window of cell indices gives, element for element."""
    centres = (np.arange(n) + 0.5) * h
    centres.setflags(write=False)
    return centres


def disk_integrate(
    field: VectorField,
    center_mm: tuple[float, float],
    radius_mm: float,
    wall_mask: np.ndarray | None = None,
    gain: float = 1.0,
) -> np.ndarray:
    """Sum of the field over cells whose centres fall inside the disk,
    weighted by cell area (m^2) and scaled by gain. Wall cells contribute
    nothing."""
    h = field.cell_size
    x, y = center_mm
    if x + radius_mm < 0 or y + radius_mm < 0 or x - radius_mm > field.nx * h or y - radius_mm > field.ny * h:
        raise ValueError("disk lies entirely outside the grid")
    ix0 = max(int(math.floor((x - radius_mm) / h)) - 1, 0)
    ix1 = min(int(math.ceil((x + radius_mm) / h)) + 1, field.nx - 1)
    iy0 = max(int(math.floor((y - radius_mm) / h)) - 1, 0)
    iy1 = min(int(math.ceil((y + radius_mm) / h)) + 1, field.ny - 1)
    if ix1 < ix0 or iy1 < iy0:
        raise ValueError("disk lies entirely outside the grid")
    rows, cols = slice(iy0, iy1 + 1), slice(ix0, ix1 + 1)
    centres = _cell_centres(max(field.nx, field.ny), h)
    cx = centres[cols]
    cy = centres[rows]
    inside = (cx[None, :] - x) ** 2 + (cy[:, None] - y) ** 2 <= radius_mm**2
    if wall_mask is not None:
        inside &= ~wall_mask[rows, cols]
    area = (h * MM_TO_M) ** 2
    fx = float(field.vx[rows, cols][inside].sum()) * area * gain
    fy = float(field.vy[rows, cols][inside].sum()) * area * gain
    return np.array([fx, fy])


def disk_force_screen(
    field: VectorField,
    cells: tuple[np.ndarray, np.ndarray],
    radius_mm: float,
    wall_mask: np.ndarray,
    gain: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """hypot of disk_integrate at many cell centres at once, with a bound
    on how far each value may lie from the one disk_integrate gives.

    cells is (iys, ixs). Each disk keeps exactly the cells disk_integrate
    keeps (the same float membership test), but its sum runs in another
    order. Summing n terms in any order errs by at most (n - 1) u times
    the sum of their magnitudes (u the unit roundoff). The bound covers
    that error in both sums plus the roundings of the scaling and of
    hypot, with more than a factor of two to spare."""
    iys, ixs = cells
    h = field.cell_size
    x = (ixs + 0.5) * h
    y = (iys + 0.5) * h
    r2 = radius_mm**2
    sx = np.zeros(len(ixs))
    sy = np.zeros(len(ixs))
    size = np.zeros(len(ixs))  # sum of |vx| + |vy| over each disk
    n = 0  # stencil offsets visited: at most n terms per sum
    # Only a cell whose centre lies within radius + h of the disk centre
    # can pass the membership test.
    reach = int(math.ceil(radius_mm / h)) + 1
    for dy in range(-reach, reach + 1):
        ty = iys + dy
        cy = (ty + 0.5) * h
        for dx in range(-reach, reach + 1):
            if (dx * dx + dy * dy) * h * h > (radius_mm + h) ** 2:
                continue
            n += 1
            tx = ixs + dx
            cx = (tx + 0.5) * h
            inside = (cx - x) ** 2 + (cy - y) ** 2 <= r2
            inside &= (tx >= 0) & (tx < field.nx) & (ty >= 0) & (ty < field.ny)
            k = np.flatnonzero(inside)
            k = k[~wall_mask[ty[k], tx[k]]]
            vx = field.vx[ty[k], tx[k]]
            vy = field.vy[ty[k], tx[k]]
            sx[k] += vx
            sy[k] += vy
            size[k] += np.abs(vx) + np.abs(vy)
    area = (h * MM_TO_M) ** 2
    magnitude = np.hypot(sx * area * gain, sy * area * gain)
    eps = np.finfo(np.float64).eps  # 2 u
    bound = 4.0 * eps * ((n + 2) * size * area * abs(gain) + magnitude)
    return magnitude, bound


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
        negative_cells = maze.electrode_cells(Polarity.NEGATIVE)
        for ix, iy in negative_cells:
            self.negative[iy, ix] = True
        # Bounding box of the negative electrode, mm: (x0, y0, x1, y1).
        ixs = [ix for ix, _ in negative_cells]
        iys = [iy for _, iy in negative_cells]
        self.negative_box = (
            min(ixs) * self.h, min(iys) * self.h, (max(ixs) + 1) * self.h, (max(iys) + 1) * self.h
        )
        self.positive_cells = sorted(maze.electrode_cells(Polarity.POSITIVE))
        self._edges = np.arange(max(self.nx, self.ny) + 1) * self.h  # cell boundaries, mm

    def gaps(self, mask: np.ndarray, x: float, y: float, radius: float) -> Gaps:
        """(ix, iy, dx, dy, d) for each cell of mask that may lie within
        contact distance (radius + contact_eps) of (x, y), in row-major
        order. (dx, dy) is (x, y) minus the cell's closest point to it and
        d is math.hypot(dx, dy).

        The screen compares the clamped distances of the window radius + h
        around the centre, which holds every cell within contact distance,
        against a slightly widened limit. So the result is a superset of
        the cells within contact distance, and callers compare each d with
        their own limit.
        """
        h = self.h
        reach = radius + h
        ix0 = max(int(math.floor((x - reach) / h)), 0)
        ix1 = min(int(math.ceil((x + reach) / h)), self.nx - 1)
        iy0 = max(int(math.floor((y - reach) / h)), 0)
        iy1 = min(int(math.ceil((y + reach) / h)), self.ny - 1)
        window = mask[iy0 : iy1 + 1, ix0 : ix1 + 1]
        if not window.any():
            return []
        e = self._edges
        dx = x - np.minimum(np.maximum(x, e[ix0 : ix1 + 1]), e[ix0 + 1 : ix1 + 2])
        dy = y - np.minimum(np.maximum(y, e[iy0 : iy1 + 1]), e[iy0 + 1 : iy1 + 2])
        limit = (radius + self.contact_eps) * (1.0 + 1e-6)
        near = (dy[:, None] ** 2 + dx[None, :] ** 2 <= limit * limit) & window
        iys, ixs = np.nonzero(near)
        return [
            (ix, iy, gx, gy, math.hypot(gx, gy))
            for ix, iy, gx, gy in zip(
                (ixs + ix0).tolist(), (iys + iy0).tolist(), dx[ixs].tolist(), dy[iys].tolist()
            )
        ]


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
    # gaps searches no further than radius + h from the centre.
    reach = radius + geom.h
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


def find_start(maze: MazeSpec, radius: float, labels: LeeLabels) -> tuple[int, int]:
    """Nearest channel cell to the positive electrode whose disk fits
    without covering the pinned electrode cells.

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
        iys, ixs = np.nonzero(dist > searched)
        lab = np.maximum(labels.labels[iys, ixs], 0)
        for k in np.lexsort((ixs, iys, lab, dist[iys, ixs])).tolist():
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


def _auto_dt(
    field: VectorField, geom: _Geometry, params: DynamicsParams, radius: float, path: OraclePath
) -> float:
    """dt such that the fastest force sample along the oracle route (the
    Lee path from the start) moves the disk at most half a cell per step."""
    h = geom.h
    fmax = 0.0
    for ix, iy in path.cells:
        x, y = (ix + 0.5) * h, (iy + 0.5) * h
        f = disk_integrate(field, (x, y), radius, wall_mask=geom.wall, gain=params.force_gain)
        fmax = max(fmax, math.hypot(f[0], f[1]))
    if fmax <= 0:
        return 1.0
    return h / (2.0 * params.mobility * fmax * 1.25)


def select_force_field(bundle: FieldBundle, source: ForceSource) -> VectorField:
    if source is ForceSource.DISK_MEAN_J:
        return bundle.j
    return bundle.grad_j


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
    field = select_force_field(fields, params.force_source)
    geom = _Geometry(maze)
    x0, y0 = float(start_mm[0]), float(start_mm[1])
    if not _disk_fits(geom, x0, y0, radius):
        raise DynamicsError(f"droplet of radius {radius} mm does not fit at {start_mm}")

    dt = params.dt
    if dt <= 0:
        dt = _auto_dt(field, geom, params, radius, path)
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
    sx, sy = disk_integrate(field, (x0, y0), radius, wall_mask=geom.wall, gain=gain).tolist()
    normals = _contact_normals(geom, x0, y0, radius, geom.gaps(geom.wall, x0, y0, radius))
    times = [0.0]
    xs = [x0]
    ys = [y0]
    speeds = [0.0]
    forces = [math.hypot(*_project_out(sx, sy, normals))]
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
                sx, sy = disk_integrate(
                    field, (x, y), radius, wall_mask=geom.wall, gain=gain
                ).tolist()
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
        final_effective_force=forces[-1],
    )


@dataclass(frozen=True, eq=False)
class VelocityProfile:
    times: np.ndarray
    speeds: np.ndarray
    peak_speed: float
    dwell_segments: tuple[tuple[int, int], ...]  # inclusive sample index ranges


# A sample dwells when the droplet moves slower than this share of its
# peak speed. A pinned droplet does not move at all, and on `ring_m1`,
# `ring_m2` and `bifurcation_lock` every moving sample is faster than
# 0.15 of the peak.
_DWELL_FRACTION = 0.01


def velocity_profile(traj: Trajectory) -> VelocityProfile:
    """Per-sample speed plus maximal runs slower than _DWELL_FRACTION of
    the peak (the pinning dwells)."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    speeds = traj.speeds
    peak = float(speeds.max())
    slow = speeds < _DWELL_FRACTION * peak if peak > 0 else np.ones_like(speeds, dtype=bool)
    segments: list[tuple[int, int]] = []
    i = 0
    n = len(speeds)
    while i < n:
        if slow[i]:
            j = i
            while j + 1 < n and slow[j + 1]:
                j += 1
            segments.append((i, j))
            i = j + 1
        else:
            i += 1
    return VelocityProfile(
        times=traj.times, speeds=speeds, peak_speed=peak, dwell_segments=tuple(segments)
    )
