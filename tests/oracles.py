"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, obvious way and shares no
code with the package internals: dense Gaussian elimination for the
potential, the solver's multigrid hierarchy built cell by cell and its
preconditioned CG with every intermediate a new array, exhaustive BFS
for shortest distances, a two-resistor Kirchhoff split for branch
currents, cell-by-cell scans for the droplet's wall queries and start
cell, the droplet's disk sum over np.arange windows, every field and
trajectory CSV value formatted one by one, a droplet run that recomputes
every step (with the disk sum it is given), element-wise
numpy sampling for streamlines, a row-major deque flood fill for channel
components, per-region cell scans for the corridor overlap, the
distance to a polyline segment by segment, the Joule ridge's corridor
regions by a per-region percentile, the corridor skeleton's thinning,
degrees and spur pruning from shifted grid copies and neighbour loops,
and a maze text's grid read glyph by glyph. One reference leans on the
package on purpose: the streamline fan that voted the route before the
corridor currents decided it traces with the package's streamline, so
that its votes are the traces the package makes.
"""

from __future__ import annotations

import math
import random
from collections import deque

import numpy as np


def dense_solve_potential(sigma, dirichlet):
    """Assemble the 5-point harmonic-mean system densely and solve it with
    numpy's LU solver. Returns phi on the full grid (0 where excluded)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    ny, nx = sigma.shape

    def g(a, b):
        sa, sb = sigma[a[1], a[0]], sigma[b[1], b[0]]
        if sa <= 0 or sb <= 0:
            return 0.0
        return 2.0 * sa * sb / (sa + sb)

    def neighbors(ix, iy):
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            jx, jy = ix + dx, iy + dy
            if 0 <= jx < nx and 0 <= jy < ny:
                yield jx, jy

    dir_map = dict(dirichlet)
    # Only cells conductively reachable from a pinned cell have a defined
    # potential; floating pockets stay at 0 like the package solver reports.
    reachable = set(dir_map)
    frontier = list(dir_map)
    while frontier:
        cur = frontier.pop()
        for nb in neighbors(*cur):
            if nb not in reachable and g(cur, nb) > 0:
                reachable.add(nb)
                frontier.append(nb)
    unknowns = []
    for iy in range(ny):
        for ix in range(nx):
            if sigma[iy, ix] <= 0 or (ix, iy) in dir_map:
                continue
            if (ix, iy) in reachable:
                unknowns.append((ix, iy))
    index = {c: i for i, c in enumerate(unknowns)}

    n = len(unknowns)
    phi = np.zeros((ny, nx))
    for (ix, iy), v in dir_map.items():
        phi[iy, ix] = v
    if n:
        a_mat = np.zeros((n, n))
        rhs = np.zeros(n)
        for (ix, iy), i in index.items():
            for jx, jy in neighbors(ix, iy):
                w = g((ix, iy), (jx, jy))
                if w == 0:
                    continue
                a_mat[i, i] += w
                if (jx, jy) in index:
                    a_mat[i, index[(jx, jy)]] -= w
                elif (jx, jy) in dir_map:
                    rhs[i] += w * dir_map[(jx, jy)]
        sol = np.linalg.solve(a_mat, rhs)
        for (ix, iy), i in index.items():
            phi[iy, ix] = sol[i]
    return phi


def bfs_distances(channel, sources):
    """Exhaustive 4-connected BFS distances over a boolean channel mask."""
    channel = np.asarray(channel, dtype=bool)
    ny, nx = channel.shape
    dist = np.full((ny, nx), -1, dtype=np.int64)
    queue = deque()
    for ix, iy in sorted(sources):
        dist[iy, ix] = 0
        queue.append((ix, iy))
    while queue:
        ix, iy = queue.popleft()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            jx, jy = ix + dx, iy + dy
            if 0 <= jx < nx and 0 <= jy < ny and channel[jy, jx] and dist[jy, jx] < 0:
                dist[jy, jx] = dist[iy, ix] + 1
                queue.append((jx, jy))
    return dist


def deque_bfs(passable, sources, max_depth=None):
    """(dist, owner) of a bounds-checked deque BFS over (ix, iy) pairs: a
    source is queued once, at its first index, and wavefronts expand in
    queue order, so a cell's owner is the first-listed nearest source."""
    passable = np.asarray(passable, dtype=bool)
    ny, nx = passable.shape
    dist = np.full((ny, nx), -1, dtype=np.int32)
    owner = np.full((ny, nx), -1, dtype=np.int32)
    queue = deque()
    for k, (ix, iy) in enumerate(sources):
        if dist[iy, ix] < 0:
            dist[iy, ix], owner[iy, ix] = 0, k
            queue.append((ix, iy))
    while queue:
        ix, iy = queue.popleft()
        d = dist[iy, ix] + 1
        if max_depth is not None and d > max_depth:
            continue
        for jx, jy in ((ix + 1, iy), (ix, iy - 1), (ix - 1, iy), (ix, iy + 1)):
            if 0 <= jx < nx and 0 <= jy < ny and passable[jy, jx] and dist[jy, jx] < 0:
                dist[jy, jx], owner[jy, jx] = d, owner[iy, ix]
                queue.append((jx, jy))
    return dist, owner


def flood_fill_components(channel, diagonal=False):
    """Component count by plain flood fill; diagonal neighbours connect
    too when diagonal is true (8-connectivity)."""
    channel = np.asarray(channel, dtype=bool)
    ny, nx = channel.shape
    seen = np.zeros_like(channel)
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    if diagonal:
        steps += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    count = 0
    for iy in range(ny):
        for ix in range(nx):
            if not channel[iy, ix] or seen[iy, ix]:
                continue
            count += 1
            stack = [(ix, iy)]
            seen[iy, ix] = True
            while stack:
                cx, cy = stack.pop()
                for dx, dy in steps:
                    jx, jy = cx + dx, cy + dy
                    if 0 <= jx < nx and 0 <= jy < ny and channel[jy, jx] and not seen[jy, jx]:
                        seen[jy, jx] = True
                        stack.append((jx, jy))
    return count


def deque_components(channel):
    """Component labels and count by the row-major deque flood fill that
    `maze.validate_and_components` ran before it used `maze.bfs`."""
    channel = np.asarray(channel, dtype=bool)
    labels = np.full(channel.shape, -1, dtype=np.int32)
    comp = 0
    ny, nx = channel.shape
    for iy0 in range(ny):
        for ix0 in range(nx):
            if not channel[iy0, ix0] or labels[iy0, ix0] >= 0:
                continue
            queue = deque([(ix0, iy0)])
            labels[iy0, ix0] = comp
            while queue:
                ix, iy = queue.popleft()
                for dx, dy in ((1, 0), (0, -1), (-1, 0), (0, 1)):
                    jx, jy = ix + dx, iy + dy
                    if 0 <= jx < nx and 0 <= jy < ny and channel[jy, jx] and labels[jy, jx] < 0:
                        labels[jy, jx] = comp
                        queue.append((jx, jy))
            comp += 1
    return labels, comp


def region_overlap_by_scan(seq_a, seq_b, region):
    """Jaccard overlap of the cells of two region sequences, as sets of
    cells from one full-grid scan per region."""

    def cells(seq):
        out = set()
        for rid in set(seq):
            ys, xs = np.nonzero(region == rid)
            out.update(zip(xs.tolist(), ys.tolist()))
        return out

    a, b = cells(seq_a), cells(seq_b)
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def two_branch_current_ratio(len_a_mm, len_b_mm):
    """Kirchhoff split between two parallel branches of equal cross-section:
    currents divide inversely with branch length."""
    r_a, r_b = len_a_mm, len_b_mm
    i_a = r_b / (r_a + r_b)
    i_b = r_a / (r_a + r_b)
    return i_a / i_b


def bfs_wall_distance(channel):
    """4-connected BFS distance (cells) from the nearest non-channel cell;
    the grid rim is not a wall, and an all-channel grid gets ones."""
    channel = np.asarray(channel, dtype=bool)
    ny, nx = channel.shape
    dist = np.full((ny, nx), -1, dtype=np.int32)
    queue = deque()
    for iy in range(ny):
        for ix in range(nx):
            if not channel[iy, ix]:
                dist[iy, ix] = 0
                queue.append((ix, iy))
    if not queue:
        return np.ones_like(dist)
    while queue:
        ix, iy = queue.popleft()
        for dx, dy in ((1, 0), (0, -1), (-1, 0), (0, 1)):
            jx, jy = ix + dx, iy + dy
            if 0 <= jx < nx and 0 <= jy < ny and dist[jy, jx] < 0:
                dist[jy, jx] = dist[iy, ix] + 1
                queue.append((jx, jy))
    return dist


# Droplet wall queries, scanning every cell of the window around the disk
# one by one. `wall` is a boolean (ny, nx) mask, `h` the cell size in mm.


def scan_wall_cells(wall, h, x, y, reach):
    """Wall cells of the square window reach mm around (x, y), row by row."""
    ny, nx = wall.shape
    ix0 = max(int(math.floor((x - reach) / h)), 0)
    ix1 = min(int(math.ceil((x + reach) / h)), nx - 1)
    iy0 = max(int(math.floor((y - reach) / h)), 0)
    iy1 = min(int(math.ceil((y + reach) / h)), ny - 1)
    for iy in range(iy0, iy1 + 1):
        for ix in range(ix0, ix1 + 1):
            if wall[iy, ix]:
                yield ix, iy


def closest_point_on_cell(h, ix, iy, x, y):
    return min(max(x, ix * h), (ix + 1) * h), min(max(y, iy * h), (iy + 1) * h)


def scan_gaps(mask, h, x, y, radius):
    """Every cell of mask whose squared clamped distance from (x, y) is at
    most the widened contact limit squared, scanned over the whole mask
    in row-major order, as (ix, iy, dx, dy, d) with (dx, dy) the gap from
    the cell's closest point and d its length."""
    limit = (radius + 1e-3 * h) * (1.0 + 1e-6)
    out = []
    for iy in range(mask.shape[0]):
        dy = y - min(max(y, iy * h), (iy + 1) * h)
        if dy * dy > limit * limit:
            continue  # adding dx * dx >= 0 cannot bring a rounded sum back
        for ix, set_ in enumerate(mask[iy].tolist()):
            if set_:
                px, py = closest_point_on_cell(h, ix, iy, x, y)
                dx, dy = x - px, y - py
                if dy * dy + dx * dx <= limit * limit:
                    out.append((ix, iy, dx, dy, math.hypot(dx, dy)))
    return out


def scan_contact_normals(wall, h, x, y, radius):
    ny, nx = wall.shape
    eps = 1e-3 * h
    normals = []
    for ix, iy in scan_wall_cells(wall, h, x, y, radius + h):
        px, py = closest_point_on_cell(h, ix, iy, x, y)
        d = math.hypot(x - px, y - py)
        if 1e-12 < d <= radius + eps:
            normals.append(((x - px) / d, (y - py) / d))
    if x - radius <= eps:
        normals.append((1.0, 0.0))
    if nx * h - x - radius <= eps:
        normals.append((-1.0, 0.0))
    if y - radius <= eps:
        normals.append((0.0, 1.0))
    if ny * h - y - radius <= eps:
        normals.append((0.0, -1.0))
    return normals


def scan_resolve_overlap(wall, h, x, y, radius):
    """The pushed-out centre, and whether the 16 pushes ran out."""
    ny, nx = wall.shape
    x = min(max(x, radius), nx * h - radius)
    y = min(max(y, radius), ny * h - radius)
    for _ in range(16):
        worst_pen = 0.0
        worst_n = None
        for ix, iy in scan_wall_cells(wall, h, x, y, radius + h):
            px, py = closest_point_on_cell(h, ix, iy, x, y)
            d = math.hypot(x - px, y - py)
            if d <= 1e-12:
                dx, dy = x - (ix + 0.5) * h, y - (iy + 0.5) * h
                n = math.hypot(dx, dy)
                nx_, ny_ = (dx / n, dy / n) if n > 1e-12 else (1.0, 0.0)
                pen = radius
            else:
                pen = radius - d
                nx_, ny_ = (x - px) / d, (y - py) / d
            if pen > worst_pen:
                worst_pen = pen
                worst_n = (nx_, ny_)
        if worst_n is None or worst_pen <= 1e-9 * h:
            return x, y, False
        x += worst_n[0] * (worst_pen + 1e-9 * h)
        y += worst_n[1] * (worst_pen + 1e-9 * h)
    return x, y, True


def scan_disk_fits(wall, h, x, y, radius):
    ny, nx = wall.shape
    if x - radius < -1e-9 or y - radius < -1e-9:
        return False
    if x + radius > nx * h + 1e-9 or y + radius > ny * h + 1e-9:
        return False
    for ix, iy in scan_wall_cells(wall, h, x, y, radius + h):
        px, py = closest_point_on_cell(h, ix, iy, x, y)
        if math.hypot(x - px, y - py) < radius - 1e-9:
            return False
    return True


def bfs_order_find_start(channel, wall, h, positive_cells, radius, labels):
    """The droplet's default start cell, scanning channel cells in
    breadth-first order out from the positive electrode: among the nearest
    cells whose disk fits without covering an electrode cell, the smallest
    (label, iy, ix), skipping cells the labels never reached (-1). None
    when no cell qualifies."""
    channel = np.asarray(channel, dtype=bool)
    ny, nx = channel.shape
    pos = set(positive_cells)
    dist = np.full((ny, nx), -1, dtype=np.int64)
    queue = deque()
    for ix, iy in sorted(pos):
        dist[iy, ix] = 0
        queue.append((ix, iy))
    order = []
    while queue:
        ix, iy = queue.popleft()
        order.append((ix, iy))
        for dx, dy in ((1, 0), (0, -1), (-1, 0), (0, 1)):
            jx, jy = ix + dx, iy + dy
            if 0 <= jx < nx and 0 <= jy < ny and channel[jy, jx] and dist[jy, jx] < 0:
                dist[jy, jx] = dist[iy, ix] + 1
                queue.append((jx, jy))
    best = None
    for ix, iy in order:
        if best is not None and dist[iy, ix] > best[0]:
            break
        if (ix, iy) in pos or labels[iy, ix] < 0:
            continue
        x, y = (ix + 0.5) * h, (iy + 0.5) * h
        if not scan_disk_fits(wall, h, x, y, radius):
            continue
        if any(math.hypot((jx + 0.5) * h - x, (jy + 0.5) * h - y) <= radius for jx, jy in pos):
            continue
        key = (int(dist[iy, ix]), int(labels[iy, ix]), iy, ix)
        if best is None or key < best:
            best = key
    return None if best is None else (best[3], best[2])


def arange_disk_integrate(field, center_mm, radius_mm, wall_mask=None, gain=1.0):
    """`dynamics.disk_integrate` as it was before it summed rows from
    prefix sums: every cell of an np.arange window is tested, and the
    cells inside are summed in one numpy sum. It keeps the same cells; its
    floats differ from the prefix-sum kernel's only in rounding."""
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
    ixs = np.arange(ix0, ix1 + 1)
    iys = np.arange(iy0, iy1 + 1)
    cx = (ixs + 0.5) * h
    cy = (iys + 0.5) * h
    inside = (cx[None, :] - x) ** 2 + (cy[:, None] - y) ** 2 <= radius_mm**2
    if wall_mask is not None:
        inside &= ~wall_mask[iy0 : iy1 + 1, ix0 : ix1 + 1]
    area = (h * 1e-3) ** 2
    fx = float(field.vx[iy0 : iy1 + 1, ix0 : ix1 + 1][inside].sum()) * area * gain
    fy = float(field.vy[iy0 : iy1 + 1, ix0 : ix1 + 1][inside].sum()) * area * gain
    return np.array([fx, fy])


def scan_disk_overlaps_cells(h, x, y, radius, cells):
    """Whether the disk reaches any of the listed cells (all of them scanned)."""
    for ix, iy in cells:
        px, py = closest_point_on_cell(h, ix, iy, x, y)
        if math.hypot(x - px, y - py) <= radius:
            return True
    return False


def stepwise_simulate(wall, negative_cells, h, force, params, start, radius, dt):
    """dynamics.simulate at an explicit dt, without reuse: every step
    pushes, sums and tests its end position afresh, with the cell scans
    above. force(x, y) is the disk sum at a centre, gain included, as a
    pair of floats. Returns the trajectory's times, xs, ys, speeds and
    forces as lists, the termination's value, the path length and the
    number of steps whose overlap push ran out of pushes."""
    noise, thr = params.noise_amplitude, params.static_threshold
    rng = random.Random(params.noise_seed) if noise > 0 else None

    def project(fx, fy, normals):
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

    x, y = start
    fx, fy = force(x, y)
    normals = scan_contact_normals(wall, h, x, y, radius)
    times, xs, ys, speeds = [0.0], [x], [y], [0.0]
    forces = [math.hypot(*project(fx, fy, normals))]
    t = impulse = path_length = 0.0
    capped = 0
    if scan_disk_overlaps_cells(h, x, y, radius, negative_cells):
        return times, xs, ys, speeds, forces, "reached_target", path_length, capped
    for steps in range(1, params.max_steps + 1):
        if rng is not None:
            fx += rng.gauss(0.0, noise)
            fy += rng.gauss(0.0, noise)
        fx, fy = project(fx, fy, normals)
        fmag = math.hypot(fx, fy)
        vx = vy = 0.0
        if fmag >= thr:
            vx, vy = params.mobility * fx, params.mobility * fy
            impulse = 0.0
        elif thr > 0 and fmag >= params.stall_fraction * thr and fmag > 0:
            impulse += fmag * dt
            if impulse >= thr * params.release_time:
                vx, vy = params.mobility * thr / fmag * fx, params.mobility * thr / fmag * fy
                impulse = 0.0
        speed = math.hypot(vx, vy)
        if speed * dt > h / 2.0:
            vx *= h / 2.0 / (speed * dt)
            vy *= h / 2.0 / (speed * dt)
        px, py = x, y
        x, y, ran_out = scan_resolve_overlap(wall, h, x + vx * dt, y + vy * dt, radius)
        capped += ran_out
        t += dt
        path_length += math.hypot(x - px, y - py)
        fx, fy = force(x, y)
        normals = scan_contact_normals(wall, h, x, y, radius)
        times.append(t)
        xs.append(x)
        ys.append(y)
        speeds.append(math.hypot((x - px) / dt, (y - py) / dt))
        forces.append(math.hypot(*project(fx, fy, normals)))
        if scan_disk_overlaps_cells(h, x, y, radius, negative_cells):
            return times, xs, ys, speeds, forces, "reached_target", path_length, capped
        back = steps - params.lock_window
        if back >= 0 and math.hypot(x - xs[back], y - ys[back]) < params.lock_epsilon_mm:
            return times, xs, ys, speeds, forces, "locked", path_length, capped
    return times, xs, ys, speeds, forces, "max_steps", path_length, capped


def array_bilinear(j, x_mm, y_mm):
    """Bilinear sample of a VectorField read element by element from its
    numpy arrays."""
    h = j.cell_size
    u = x_mm / h - 0.5
    v = y_mm / h - 0.5
    i0 = min(max(int(math.floor(u)), 0), j.nx - 2) if j.nx > 1 else 0
    k0 = min(max(int(math.floor(v)), 0), j.ny - 2) if j.ny > 1 else 0
    tu = min(max(u - i0, 0.0), 1.0)
    tv = min(max(v - k0, 0.0), 1.0)
    i1 = min(i0 + 1, j.nx - 1)
    k1 = min(k0 + 1, j.ny - 1)

    def sample(comp):
        return float(
            comp[k0, i0] * (1 - tu) * (1 - tv)
            + comp[k0, i1] * tu * (1 - tv)
            + comp[k1, i0] * (1 - tu) * tv
            + comp[k1, i1] * tu * tv
        )

    return sample(j.vx), sample(j.vy)


def array_streamline(j, start_mm, target_cells, channel_mask):
    """oracle.streamline's trace, sampling with array_bilinear: its points
    as an (n, 2) array and its termination's value. The budget is 4 steps
    per cell above 1e-9 of the peak |j|, and a trace that enters no new
    cell for 64 steps (16 cells of travel) has stalled."""
    h = j.cell_size
    magnitude = np.hypot(j.vx, j.vy)
    floor = 1e-9 * float(magnitude.max())
    step_mm = h / 4

    def direction(px, py):
        vx, vy = array_bilinear(j, px, py)
        s = math.hypot(vx, vy)
        return (0.0, 0.0, s) if s <= floor else (vx / s, vy / s, s)

    x, y = start_mm
    pts = [(x, y)]
    seen = set()
    fresh = 0  # step of the last new cell
    for n in range(4 * int(np.count_nonzero(magnitude > floor))):
        cx, cy = int(x // h), int(y // h)
        if not (0 <= cx < j.nx and 0 <= cy < j.ny):
            return np.array(pts), "left_domain"
        if (cx, cy) in target_cells:
            return np.array(pts), "reached"
        if (cx, cy) not in seen:
            seen.add((cx, cy))
            fresh = n
        elif n - fresh >= 64:
            return np.array(pts), "stalled"
        d1x, d1y, speed = direction(x, y)
        if speed <= floor:
            return np.array(pts), "field_vanished"
        d2x, d2y, s2 = direction(x + 0.5 * step_mm * d1x, y + 0.5 * step_mm * d1y)
        d3x, d3y, s3 = direction(x + 0.5 * step_mm * d2x, y + 0.5 * step_mm * d2y)
        d4x, d4y, s4 = direction(x + step_mm * d3x, y + step_mm * d3y)
        if min(s2, s3, s4) > floor:
            dx = (d1x + 2 * d2x + 2 * d3x + d4x) / 6.0
            dy = (d1y + 2 * d2y + 2 * d3y + d4y) / 6.0
        else:
            dx, dy = d1x, d1y
        mag = math.hypot(dx, dy)
        if mag < 1e-12:
            return np.array(pts), "field_vanished"
        dx, dy = dx / mag, dy / mag
        # Slide along a wall the step would enter, backing off it.
        for _attempt in range(3):
            qcx = int((x + step_mm * dx) // h)
            qcy = int((y + step_mm * dy) // h)
            if not (0 <= qcx < j.nx and 0 <= qcy < j.ny) or channel_mask[qcy, qcx]:
                break
            nx_, ny_ = float(qcx - cx), float(qcy - cy)
            norm = math.hypot(nx_, ny_)
            if norm == 0:
                return np.array(pts), "field_vanished"
            nx_, ny_ = nx_ / norm, ny_ / norm
            dot = dx * nx_ + dy * ny_
            dx, dy = dx - dot * nx_, dy - dot * ny_
            mag = math.hypot(dx, dy)
            if mag < 1e-12:
                return np.array(pts), "field_vanished"
            dx, dy = dx / mag, dy / mag
            x -= 0.2 * h * nx_
            y -= 0.2 * h * ny_
        else:
            return np.array(pts), "field_vanished"
        x += step_mm * dx
        y += step_mm * dy
        pts.append((x, y))
    return np.array(pts), "max_steps"


def _pcg_system(sigma, dirichlet):
    """Face conductances, diagonal, unknown mask, right-hand side and the
    pinned values of solve_potential's reduced system, on the whole grid."""
    sigma = np.asarray(sigma, dtype=np.float64)
    dir_mask = np.zeros(sigma.shape, dtype=bool)
    dir_val = np.zeros(sigma.shape)
    for (ix, iy), v in dirichlet.items():
        dir_mask[iy, ix] = True
        dir_val[iy, ix] = v

    a, c = sigma[:, :-1], sigma[:, 1:]
    gx = np.zeros_like(a)
    m = (a > 0) & (c > 0)
    gx[m] = 2.0 * a[m] * c[m] / (a[m] + c[m])
    a, c = sigma[:-1, :], sigma[1:, :]
    gy = np.zeros_like(a)
    m = (a > 0) & (c > 0)
    gy[m] = 2.0 * a[m] * c[m] / (a[m] + c[m])

    def neighbor_sum(f):
        out = np.zeros_like(f)
        out[:, :-1] += gx * f[:, 1:]
        out[:, 1:] += gx * f[:, :-1]
        out[:-1, :] += gy * f[1:, :]
        out[1:, :] += gy * f[:-1, :]
        return out

    diag = neighbor_sum(np.ones_like(sigma))
    unknown = (sigma > 0) & ~dir_mask & (diag > 0)
    b = neighbor_sum(np.where(dir_mask, dir_val, 0.0))
    b[~unknown] = 0.0
    return gx, gy, neighbor_sum, diag, unknown, b, dir_mask, dir_val


def _pcg(matvec, dot, b, precondition, tol, max_iter):
    """Preconditioned CG with solve_potential's restart branch and
    residual rule: (x, iterations, final_residual, restarts)."""
    x = np.zeros_like(b)
    bnorm = np.sqrt(dot(b, b))
    iterations = 0
    restarts = 0
    final_residual = 0.0
    if bnorm != 0.0:
        r = b.copy()
        z = precondition(r)
        p = z.copy()
        rz = dot(r, z)
        while iterations < max_iter:
            ap = matvec(p)
            pap = dot(p, ap)
            if pap <= 0.0:
                if restarts >= 8:
                    break
                restarts += 1
                r = b - matvec(x)
                z = precondition(r)
                p = z.copy()
                rz = dot(r, z)
                if rz <= 0.0:
                    break
                continue
            alpha = rz / pap
            x += alpha * p
            r -= alpha * ap
            iterations += 1
            if np.sqrt(dot(r, r)) / bnorm <= tol:
                break
            z = precondition(r)
            rz_new = dot(r, z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        true_r = b - matvec(x)
        final_residual = float(np.sqrt(dot(true_r, true_r)) / bnorm)
    return x, iterations, final_residual, restarts


def allocating_pcg(sigma, dirichlet, tol=1e-9, max_iter=None):
    """The Jacobi-PCG of solve_potential as first written, on whole-grid
    vectors with np.dot products, allocating a new array for every
    intermediate: (phi, iterations, final_residual, restarts)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if max_iter is None:
        max_iter = 50 * max(sigma.shape)
    _, _, neighbor_sum, diag, unknown, b, dir_mask, dir_val = _pcg_system(sigma, dirichlet)

    def matvec(u):
        out = diag * u - neighbor_sum(u)
        out[~unknown] = 0.0
        return out

    def dot(u, v):
        return float(np.dot(u.ravel(), v.ravel()))

    inv_diag = np.where(unknown, 1.0 / np.where(diag > 0, diag, 1.0), 0.0)
    x, iterations, final_residual, restarts = _pcg(
        matvec, dot, b, lambda r: inv_diag * r, tol, max_iter
    )
    phi = np.where(dir_mask, dir_val, np.where(unknown, x, 0.0))
    return phi, iterations, final_residual, restarts


def compact_pcg(sigma, dirichlet, tol=1e-9, max_iter=None):
    """The same Jacobi-PCG on vectors of the unknown cells only (row-major),
    with np.sum(a * c) products. Each unknown sums its east, west, south
    and north terms in that order; a neighbour that is not an unknown, or
    lies past the rim, reads 0.0. Allocates a new array for every
    intermediate: (phi, iterations, final_residual, restarts)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    ny, nx = sigma.shape
    if max_iter is None:
        max_iter = 50 * max(nx, ny)
    gx, gy, _, diag, unknown, b, dir_mask, dir_val = _pcg_system(sigma, dirichlet)
    cells = [(int(iy), int(ix)) for iy, ix in np.argwhere(unknown)]
    index = {cell: k for k, cell in enumerate(cells)}
    n = len(cells)
    g = np.zeros((4, n))
    neighbor = np.full((4, n), n)
    for k, (iy, ix) in enumerate(cells):
        for side, (dy, dx) in enumerate(((0, 1), (0, -1), (1, 0), (-1, 0))):
            jy, jx = iy + dy, ix + dx
            if 0 <= jy < ny and 0 <= jx < nx:
                g[side, k] = gx[iy, min(ix, jx)] if dy == 0 else gy[min(iy, jy), ix]
                neighbor[side, k] = index.get((jy, jx), n)
    d = diag[unknown]

    def matvec(u):
        padded = np.append(u, 0.0)
        t = [g[side] * padded[neighbor[side]] for side in range(4)]
        return d * u - (t[0] + t[1] + t[2] + t[3])

    def dot(u, v):
        return float(np.sum(u * v))

    inv_d = 1.0 / d
    x, iterations, final_residual, restarts = _pcg(
        matvec, dot, b[unknown], lambda r: inv_d * r, tol, max_iter
    )
    phi = np.where(dir_mask, dir_val, 0.0)
    phi[unknown] = x
    return phi, iterations, final_residual, restarts


# East, west, south, north as (dx, dy): the side order of every level.
_MG_SIDES = ((1, 0), (-1, 0), (0, 1), (0, -1))


def mg_levels(sigma, dirichlet, coarsest=64):
    """The levels of solve_potential's multigrid preconditioner, built
    cell by cell with dicts and lists. Each level is a dict: `cells` (its
    grid's (iy, ix), row-major), `g` and `nb` (per side, the coupling to
    each cell's unknown neighbour and that neighbour's index, n where
    there is none), `diag`, and `agg` (each cell's block on the next
    level) on every level but the last. The unknowns are the conductive,
    unpinned cells that a conductive route links to a pinned cell; the
    first level also carries `b` and the `unknown` mask."""
    sigma = np.asarray(sigma, dtype=np.float64)
    ny, nx = sigma.shape
    gx, gy, _, _, unknown, _, dir_mask, dir_val = _pcg_system(sigma, dirichlet)
    unknown = unknown & (bfs_distances(sigma > 0, list(dirichlet)) >= 0)
    cells = [(iy, ix) for iy in range(ny) for ix in range(nx) if unknown[iy, ix]]
    index = {cell: k for k, cell in enumerate(cells)}
    n = len(cells)
    g = [[0.0] * n for _ in range(4)]
    nb = [[n] * n for _ in range(4)]
    anchor = [0.0] * n
    b = [0.0] * n
    for k, (iy, ix) in enumerate(cells):
        for side, (dx, dy) in enumerate(_MG_SIDES):
            jy, jx = iy + dy, ix + dx
            if not (0 <= jy < ny and 0 <= jx < nx):
                continue
            face = float(gx[iy, min(ix, jx)] if dy == 0 else gy[min(iy, jy), ix])
            if (jy, jx) in index:
                g[side][k] = face
                nb[side][k] = index[(jy, jx)]
            elif dir_mask[jy, jx]:
                anchor[k] += face
                b[k] += face * float(dir_val[jy, jx])
    levels = [{"b": np.array(b), "unknown": unknown}]
    while True:
        level = levels[-1]
        level.update(cells=cells, g=g, nb=nb)
        level["diag"] = [anchor[k] + g[0][k] + g[1][k] + g[2][k] + g[3][k] for k in range(n)]
        if n <= coarsest:
            return levels
        blocks = sorted({(iy // 2, ix // 2) for iy, ix in cells})
        block_index = {block: a for a, block in enumerate(blocks)}
        agg = [block_index[(iy // 2, ix // 2)] for iy, ix in cells]
        nc = len(blocks)
        gc = [[0.0] * nc for _ in range(4)]
        nbc = [[nc] * nc for _ in range(4)]
        for side in range(4):
            for k in range(n):
                j = nb[side][k]
                if j < n and agg[j] != agg[k]:
                    gc[side][agg[k]] += g[side][k]
                    nbc[side][agg[k]] = agg[j]
        anchor_c = [0.0] * nc
        for k in range(n):
            anchor_c[agg[k]] += anchor[k]
        level["agg"] = agg
        levels.append({})
        cells, g, nb, anchor, n = blocks, gc, nbc, anchor_c, nc


def _gauss_jordan_inverse(level):
    """The inverse of a level's operator, eliminating row by row in order
    without pivoting, on lists of floats."""
    m = len(level["cells"])
    rows = [[0.0] * (2 * m) for _ in range(m)]
    for k in range(m):
        rows[k][k] = level["diag"][k]
        rows[k][m + k] = 1.0
        for side in range(4):
            if level["nb"][side][k] < m:
                rows[k][level["nb"][side][k]] = -level["g"][side][k]
    for k in range(m):
        pivot = rows[k][k]
        if not pivot > 0.0:  # round-off broke positive definiteness
            return np.array([[1.0 / d if i == k else 0.0 for i in range(m)]
                             for k, d in enumerate(level["diag"])])
        rows[k] = [v / pivot for v in rows[k]]
        for i in range(m):
            if i != k:
                c = rows[i][k]
                rows[i] = [v - c * w for v, w in zip(rows[i], rows[k])]
    return np.array([row[m:] for row in rows])


def mg_pcg(sigma, dirichlet, tol=1e-9, max_iter=None, coarsest=64, scale=1.8):
    """solve_potential's CG, preconditioned by one multigrid V-cycle over
    mg_levels, with every intermediate a new array. The cycle, from zero:
    a Gauss-Seidel sweep over the red cells ((iy + ix) even), then the
    black ones; the red cells' neighbour sums summed into their blocks
    (the residual left by that sweep); the next level's cycle, times
    scale, added to each cell of its block; a sweep over black, then red.
    The last level applies its Gauss-Jordan inverse, one np.sum per row.
    A cell's neighbour sum adds its east, west, south and north terms in
    that order. Returns (phi, iterations, final_residual, restarts)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if max_iter is None:
        max_iter = 50 * max(sigma.shape)
    levels = mg_levels(sigma, dirichlet, coarsest)
    inverse = _gauss_jordan_inverse(levels[-1])
    for level in levels:
        level["g"] = np.array(level["g"]).reshape(4, -1)
        level["nb"] = np.array(level["nb"], dtype=np.int64).reshape(4, -1)
        level["diag"] = np.array(level["diag"])
        parity = [(iy + ix) % 2 for iy, ix in level["cells"]]
        level["red"] = np.array([k for k, c in enumerate(parity) if c == 0], dtype=np.int64)
        level["black"] = np.array([k for k, c in enumerate(parity) if c == 1], dtype=np.int64)
    levels[-1]["inverse"] = inverse

    def neighbour_sum(level, u, cells):
        padded = np.append(u, 0.0)
        t = [level["g"][side][cells] * padded[level["nb"][side][cells]] for side in range(4)]
        return t[0] + t[1] + t[2] + t[3]

    def relax(level, z, r, cells):
        z = z.copy()
        z[cells] = (r[cells] + neighbour_sum(level, z, cells)) * (1.0 / level["diag"][cells])
        return z

    def cycle(depth, r):
        level = levels[depth]
        if "inverse" in level:
            return np.array([np.sum(row * r) for row in level["inverse"]])
        red, black = level["red"], level["black"]
        z = np.zeros(len(r))
        z[red] = r[red] * (1.0 / level["diag"][red])
        z = relax(level, z, r, black)
        residual = neighbour_sum(level, z, red)
        restricted = [0.0] * len(levels[depth + 1]["cells"])
        for i, k in enumerate(red.tolist()):
            restricted[level["agg"][k]] += residual[i]
        z = z + scale * cycle(depth + 1, np.array(restricted))[level["agg"]]
        return relax(level, relax(level, z, r, black), r, red)

    top = levels[0]

    def matvec(u):
        return top["diag"] * u - neighbour_sum(top, u, np.arange(len(u)))

    def dot(u, v):
        return float(np.sum(u * v))

    x, iterations, final_residual, restarts = _pcg(
        matvec, dot, top["b"], lambda r: cycle(0, r), tol, max_iter
    )
    _, _, _, _, _, _, dir_mask, dir_val = _pcg_system(sigma, dirichlet)
    phi = np.where(dir_mask, dir_val, 0.0)
    phi[top["unknown"]] = x
    return phi, iterations, final_residual, restarts


def write_field_csv_by_cell(path, field):
    """The field CSV writer as first written: every line built cell by cell
    from numpy scalars, joined in memory, written at once."""
    h = field.cell_size
    lines = []
    if hasattr(field, "vx"):
        lines.append(f"x_mm,y_mm,{field.quantity.value},vx,vy")
        mag = field.magnitude()
        for iy in range(field.ny):
            y = (iy + 0.5) * h
            for ix in range(field.nx):
                lines.append(
                    f"{(ix + 0.5) * h!r},{y!r},{float(mag[iy, ix])!r},"
                    f"{float(field.vx[iy, ix])!r},{float(field.vy[iy, ix])!r}"
                )
    else:
        lines.append(f"x_mm,y_mm,{field.quantity.value}")
        for iy in range(field.ny):
            y = (iy + 0.5) * h
            for ix in range(field.nx):
                lines.append(f"{(ix + 0.5) * h!r},{y!r},{float(field.values[iy, ix])!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_trajectory_csv_by_row(path, traj):
    """The trajectory CSV writer before repeated samples reused their text:
    every value of every row formatted with repr."""
    lines = ["t_s,x_mm,y_mm,speed_mm_s,force_mag"]
    columns = (traj.times, traj.xs, traj.ys, traj.speeds, traj.forces)
    for t, x, y, s, fm in zip(*(c.tolist() for c in columns)):
        lines.append(f"{t!r},{x!r},{y!r},{s!r},{fm!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def convex_corner_cells_by_loop(channel):
    """Wall cells with channel neighbours in two perpendicular directions,
    found by visiting every cell in row-major order."""
    channel = np.asarray(channel, dtype=bool)
    ny, nx = channel.shape
    out = []
    for iy in range(ny):
        for ix in range(nx):
            if channel[iy, ix]:
                continue
            east = ix + 1 < nx and channel[iy, ix + 1]
            west = ix - 1 >= 0 and channel[iy, ix - 1]
            north = iy - 1 >= 0 and channel[iy - 1, ix]
            south = iy + 1 < ny and channel[iy + 1, ix]
            if (east or west) and (north or south):
                out.append((ix, iy))
    return out


def brute_force_corner_force(maze, sums, width_mm, gain, disk_integrate):
    """Largest disk force magnitude over every channel cell within width_mm
    of a convex corner, each probe integrated on its own with the given
    disk_integrate over the row sums sums (disk radius width_mm / 4).
    Returns the maximum and the probe cells as (ix, iy) in row-major
    order."""
    h = maze.cell_size
    corners = [
        ((cx + 0.5) * h, (cy + 0.5) * h)
        for cx, cy in convex_corner_cells_by_loop(maze.channel_mask())
    ]
    best = 0.0
    probes = []
    for iy, ix in zip(*np.nonzero(maze.channel_mask())):
        x, y = (ix + 0.5) * h, (iy + 0.5) * h
        if not any(math.hypot(x - cx, y - cy) <= width_mm for cx, cy in corners):
            continue
        probes.append((int(ix), int(iy)))
        best = max(best, math.hypot(*disk_integrate(sums, (x, y), width_mm / 4.0, gain)))
    return best, probes


def max_distance_to_unit_segments(points, poly):
    """Max over points of the distance to the nearest polyline segment,
    every segment between consecutive vertices taken on its own."""
    if len(poly) == 1:
        return float(np.max(np.hypot(points[:, 0] - poly[0, 0], points[:, 1] - poly[0, 1])))
    best = np.full(len(points), np.inf)
    for a, b in zip(poly[:-1], poly[1:]):
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0:
            d = np.hypot(points[:, 0] - a[0], points[:, 1] - a[1])
        else:
            t = np.clip(((points - a) @ ab) / denom, 0.0, 1.0)
            proj = a + t[:, None] * ab
            d = np.hypot(points[:, 0] - proj[:, 0], points[:, 1] - proj[:, 1])
        best = np.minimum(best, d)
    return float(best.max())


# A region carries current when it scores at least this share of the
# brightest region's score. On the example ring mazes the regions on the
# route score at least 0.83 of the brightest, those off it at most 0.11.
_HOT_FRACTION = 0.25


def hot_region_route(
    power: ScalarField, seg: CorridorSegmentation, labels: np.ndarray
) -> tuple[int, ...]:
    """Corridor regions bright enough to be current carriers, ordered from
    the source side to the destination.

    A region scores its 90th-percentile power density, so a wide chamber
    with one strong filament through it still registers while corridors
    off the conducting route (near-zero everywhere) do not.
    """
    scores: dict[int, float] = {}
    lab_means: dict[int, float] = {}
    for rid in range(seg.n_regions):
        if seg.is_node[rid]:
            continue
        mask = seg.region == rid
        if not mask.any():
            continue
        scores[rid] = float(np.percentile(power.values[mask], 90))
        lab = labels[mask]
        lab = lab[lab >= 0]
        lab_means[rid] = float(lab.mean()) if lab.size else -1.0
    if not scores:
        return ()
    peak = max(scores.values())
    hot = [rid for rid, m in scores.items() if m >= _HOT_FRACTION * peak]
    hot.sort(key=lambda rid: (-lab_means[rid], rid))
    return tuple(hot)


def scan_dwell_segments(speeds, fraction):
    """Maximal runs of samples slower than fraction of the peak speed,
    every sample when the peak is 0, found by walking the samples."""
    peak = max(speeds)
    segments, start = [], None
    for i, speed in enumerate(speeds):
        slow = speed < fraction * peak if peak > 0 else True
        if slow and start is None:
            start = i
        elif not slow and start is not None:
            segments.append((start, i - 1))
            start = None
    if start is not None:
        segments.append((start, len(speeds) - 1))
    return segments


# The corridor skeleton as written before it read neighbour codes: eight
# shifted copies of the grid per subpass, a frontier flood per cell for
# redundancy, and bounds-checked neighbour loops.

_NBR8 = ((1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1))


def _shift(a, dy, dx):
    out = np.zeros_like(a)
    ys = slice(max(dy, 0), a.shape[0] + min(dy, 0))
    xs = slice(max(dx, 0), a.shape[1] + min(dx, 0))
    yd = slice(max(-dy, 0), a.shape[0] + min(-dy, 0))
    xd = slice(max(-dx, 0), a.shape[1] + min(-dx, 0))
    out[ys, xs] = a[yd, xd]
    return out


def shifted_thin_mask(mask):
    """Zhang-Suen thinning from shifted copies, then the sequential
    redundancy pass."""
    img = mask.astype(np.uint8)
    while True:
        changed = False
        for pass_id in (0, 1):
            # Neighbours clockwise from north.
            p2 = _shift(img, 1, 0)
            p3 = _shift(img, 1, -1)
            p4 = _shift(img, 0, -1)
            p5 = _shift(img, -1, -1)
            p6 = _shift(img, -1, 0)
            p7 = _shift(img, -1, 1)
            p8 = _shift(img, 0, 1)
            p9 = _shift(img, 1, 1)
            ring = [p2, p3, p4, p5, p6, p7, p8, p9, p2]
            transitions = np.zeros_like(img, dtype=np.int32)
            for a, b in zip(ring[:-1], ring[1:]):
                transitions += ((a == 0) & (b == 1)).astype(np.int32)
            bsum = p2 + p3 + p4 + p5 + p6 + p7 + p8 + p9
            cond = (img == 1) & (bsum >= 2) & (bsum <= 6) & (transitions == 1)
            if pass_id == 0:
                cond &= (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
            else:
                cond &= (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
            if cond.any():
                img[cond] = 0
                changed = True
        if not changed:
            break
    return flood_minimal_skeleton(img.astype(bool))


def neighbours_stay_connected(nbrs):
    """Whether the (dx, dy) offsets, 2 to 6 of them, form one group of
    8-adjacent cells, found by a frontier flood."""
    if not 2 <= len(nbrs) <= 6:
        return False
    frontier = [nbrs[0]]
    rest = set(nbrs[1:])
    while frontier:
        ax, ay = frontier.pop()
        found = {(bx, by) for bx, by in rest if abs(ax - bx) <= 1 and abs(ay - by) <= 1}
        rest -= found
        frontier.extend(found)
    return not rest


def flood_minimal_skeleton(skel):
    """Delete, row-major and one pass after another, every cell whose set
    neighbours stay connected without it."""
    skel = skel.copy()
    ny, nx = skel.shape
    changed = True
    while changed:
        changed = False
        for iy, ix in np.argwhere(skel).tolist():
            nbrs = [
                (dx, dy)
                for dx, dy in _NBR8
                if 0 <= ix + dx < nx and 0 <= iy + dy < ny and skel[iy + dy, ix + dx]
            ]
            if neighbours_stay_connected(nbrs):
                skel[iy, ix] = False
                changed = True
    return skel


def shifted_skeleton_degree(skel):
    deg = np.zeros(skel.shape, dtype=np.int8)
    for dx, dy in _NBR8:
        deg += (_shift(skel, dy, dx) & skel).astype(np.int8)
    return deg


def loop_prune_spurs(skel, max_len):
    """Spur pruning with its own bounds-checked neighbour loop."""
    skel = skel.copy()
    ny, nx = skel.shape
    while True:
        deg = shifted_skeleton_degree(skel)
        endpoints = sorted((int(x), int(y)) for y, x in zip(*np.nonzero(skel & (deg == 1))))
        removed = False
        for ex, ey in endpoints:
            if not skel[ey, ex]:
                continue
            chain = [(ex, ey)]
            prev = None
            cur = (ex, ey)
            hit_junction = False
            while len(chain) <= max_len:
                nbrs = [
                    (cur[0] + dx, cur[1] + dy)
                    for dx, dy in _NBR8
                    if 0 <= cur[0] + dx < nx
                    and 0 <= cur[1] + dy < ny
                    and skel[cur[1] + dy, cur[0] + dx]
                    and (cur[0] + dx, cur[1] + dy) != prev
                ]
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


def scan_glyph_grid(rows):
    """A maze text's grid rows read glyph by glyph, top to bottom: (cells,
    S cells, T cells), cells a list of rows of cell kinds, or the first
    fault as (message, row index, 1-based column)."""
    kinds = {".": 0, "#": 1, "+": 2, "S": 0, "T": 0}
    width = len(rows[0])
    cells, pos, neg = [], set(), set()
    for iy, row in enumerate(rows):
        if len(row) != width:
            return f"grid line length {len(row)} != {width}", iy, len(row) + 1
        cells.append([])
        for ix, ch in enumerate(row):
            if ch not in kinds:
                return f"unknown glyph {ch!r}", iy, ix + 1
            cells[-1].append(kinds[ch])
            if ch == "S":
                pos.add((ix, iy))
            elif ch == "T":
                neg.add((ix, iy))
    return cells, pos, neg


def vote_fan_route(j, maze, seg, tol=1e-9):
    """The route as a fan of streamlines votes it, the reference for the
    route from corridor currents: (corridor sequence, streamline) per
    branch, in sequence order.

    Seeds on the ring of channel cells two steps from the positive
    electrode (one step if there are none), thinned at an even stride to
    at most 24, each trace through the package's streamline, weighted by
    the field magnitude at its seed. Traces that reach the target vote (all
    of them if none does), region by region: the branch with the most
    weight wins, and branches within relative 1e3 * tol of it tie and are
    each followed on. A branch ends where its finished traces outweigh
    every continuation, with its heaviest trace of exactly that length."""
    from dropmaze import oracle

    channel = maze.channel_mask()
    dist = bfs_distances(channel, sorted(maze.positive))
    ring = sorted((int(x), int(y)) for y, x in zip(*np.nonzero(dist == 2)))
    if not ring:
        ring = sorted((int(x), int(y)) for y, x in zip(*np.nonzero(dist == 1)))
    seeds = ring[:: math.ceil(len(ring) / 24)]
    h = maze.cell_size
    weigh = oracle._unit_sampler(j, 0.0)
    traces = []
    for ix, iy in seeds:
        start = ((ix + 0.5) * h, (iy + 0.5) * h)
        weight = weigh(*start)[2]
        if weight <= 0:
            continue
        tr = oracle.streamline(j, start, target_cells=maze.negative, channel_mask=channel)
        traces.append((oracle.region_sequence(tr.cells(h), seg), weight, tr))
    reached = [t for t in traces if t[2].termination.value == "reached"]
    chosen = []
    branches = [(reached or traces, 0)]
    while branches:
        alive, position = branches.pop()
        votes = {}
        for s, w, _ in alive:
            if len(s) > position:
                votes[s[position]] = votes.get(s[position], 0.0) + w
        done_w = sum(w for s, w, _ in alive if len(s) <= position)
        if not votes or done_w >= max(votes.values()):
            exact = [t for t in alive if len(t[0]) == position]
            seq, _, stream = max(exact or alive, key=lambda t: t[1])
            chosen.append((seq, stream))
            continue
        top = max(votes.values())
        for pick in sorted(votes, key=lambda rid: (-votes[rid], rid)):
            if top - votes[pick] <= 1e3 * tol * top:
                kept = [t for t in alive if len(t[0]) > position and t[0][position] == pick]
                branches.append((kept, position + 1))
    return tuple(sorted(chosen, key=lambda pair: pair[0]))


def region_net_currents_by_scan(fx, fy, region, n_regions):
    """The (n, n) net currents between adjacent regions, summed face by
    face from the face-current grids fx and fy (solver.face_currents'):
    [a, b] is the current from a to b over the vertical faces, in row-major
    order, plus that over the horizontal faces, less [b, a]. That order is
    the package's bincount's, so the sums are its floats bit for bit."""
    across = []
    for flux, dy, dx in ((fx, 0, 1), (fy, 1, 0)):
        sums = [[0.0] * n_regions for _ in range(n_regions)]
        for iy in range(flux.shape[0]):
            for ix in range(flux.shape[1]):
                a, b = int(region[iy, ix]), int(region[iy + dy, ix + dx])
                if a >= 0 and b >= 0 and a != b:
                    sums[a][b] += float(flux[iy, ix])
        across.append(np.array(sums))
    net = across[0] + across[1]
    return net - net.T


def region_currents_by_scan(net):
    """Each region's current: half the absolute net current it exchanges
    with each neighbouring region, summed neighbour by neighbour."""
    return [sum(0.5 * abs(f) for f in row) for row in net.tolist()]


def enumerated_route(net, maze, seg, tol=1e-9):
    """The route by listing every simple downstream path over the (n, n)
    net currents between the regions: (sequences, split_margin) as
    currents.route_of_net_currents gives them on an acyclic region graph.
    The sorted corridor currents of each path are its key, the keys are
    filtered position by position against the best within the tie slack,
    and every sequence left over is compared with every branch."""
    from dropmaze.currents import _TIE_SLACK

    region = seg.region
    current = 0.5 * np.abs(net).sum(axis=1)
    sources = sorted({int(region[iy, ix]) for ix, iy in maze.positive} - {-1})
    sinks = {int(region[iy, ix]) for ix, iy in maze.negative} - {-1}
    downstream = [np.flatnonzero(row > 0).tolist() for row in net]

    paths = []
    stack = [(source,) for source in sources]
    while stack:
        path = stack.pop()
        if path[-1] in sinks:
            paths.append(path)
            continue
        stack += [path + (b,) for b in downstream[path[-1]] if b not in path]
    if not paths:
        raise ValueError("no downstream path joins the electrodes")

    currents = current.tolist()
    seqs = [tuple(r for r in path if not seg.is_node[r]) for path in paths]
    keys = [sorted(currents[r] for r in seq) for seq in seqs]
    slack = _TIE_SLACK * tol * float(current.max())
    best = list(range(len(paths)))
    for k in range(max(map(len, keys))):
        longer = [i for i in best if len(keys[i]) > k]
        if not longer:
            break
        top = max(keys[i][k] for i in longer)
        best = [i for i in longer if keys[i][k] >= top - slack]
    sequences = tuple(sorted({seqs[i] for i in best}))

    margins = []
    for alternative in set(seqs).difference(sequences):
        for seq in sequences:
            parted = next(((r, q) for r, q in zip(seq, alternative) if r != q), None)
            if parted is not None:
                mine, theirs = currents[parted[0]], currents[parted[1]]
                margins.append(abs(mine - theirs) / max(mine, theirs))
    return sequences, (min(margins) if margins else None)
