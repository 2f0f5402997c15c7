"""Steady conduction solver on the cell grid.

Discretization is finite-volume on the uniform square grid: the flux
between two adjacent cells is g * (phi_a - phi_b) with g the harmonic mean
of the two cell conductivities, so sigma = 0 cells are perfectly
insulating and material jumps are handled like series resistors. Electrode
cells are Dirichlet-pinned; the reduced symmetric system is solved with
conjugate gradients over the unknown cells only (conductive cells linked
to a pinned cell), preconditioned by one V-cycle of unsmoothed 2x2
aggregation multigrid (D. Braess, Computing 55, 1995; Y. Notay, ETNA 37,
2010). The iteration count holds for one maze at finer cells (ring_m2: 26,
27, 25 at 140², 280², 560²) but grows with the maze (26, 58, 107, 165 for
2, 4, 6, 8 one-gap rings; ROADMAP item 2). Everything runs in a fixed
evaluation order with numpy's own sums and no BLAS call, so repeated
solves are bit-identical whatever the BLAS thread count.

Currents are reported per unit depth of the 2D sheet (A per metre of
depth); current density is in A/m^2 with the cell size converted from mm.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .maze import MazeSpec, conductivity_grid, label_components

MM_TO_M = 1e-3


class FieldSolveError(RuntimeError):
    """Solve cannot produce a usable potential (e.g. electrodes disconnected)."""


class Quantity(enum.Enum):
    POTENTIAL = "potential_V"
    JOULE_POWER = "joule_W_per_m3"
    DIVERGENCE = "div_J_A_per_m3"


class VectorQuantity(enum.Enum):
    CURRENT_DENSITY = "current_density_A_per_m2"


@dataclass(frozen=True, eq=False)
class ScalarField:
    values: np.ndarray  # (ny, nx)
    cell_size: float  # mm
    quantity: Quantity

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if not np.isfinite(values).all():
            raise ValueError("scalar field contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def ny(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class VectorField:
    vx: np.ndarray  # (ny, nx)
    vy: np.ndarray  # (ny, nx)
    cell_size: float  # mm
    quantity: VectorQuantity

    def __post_init__(self):
        for name in ("vx", "vy"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(arr).all():
                raise ValueError(f"vector field component {name} has non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.vx.shape != self.vy.shape:
            raise ValueError("vx and vy shapes differ")

    @property
    def nx(self) -> int:
        return self.vx.shape[1]

    @property
    def ny(self) -> int:
        return self.vx.shape[0]

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.vx, self.vy)


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    unknowns: int  # cells the solve iterates over: not pinned, not floating
    final_residual: float  # relative L2 residual of the reduced system
    current_in: float  # A per unit depth, injected at the high side
    current_out: float  # A per unit depth, collected at the low side
    converged: bool
    tol: float

    def current_imbalance(self) -> float:
        scale = max(abs(self.current_in), 1e-300)
        return abs(self.current_in - self.current_out) / scale


def series_conductance(a, b):
    """Harmonic mean of conductivities a, b > 0: two half cells in series."""
    return 2.0 * a * b / (a + b)


def face_conductances(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic-mean conductances on vertical (gx) and horizontal (gy) faces."""
    faces = []
    for a, b in ((sigma[:, :-1], sigma[:, 1:]), (sigma[:-1, :], sigma[1:, :])):
        g = np.zeros_like(a)
        m = (a > 0) & (b > 0)
        g[m] = series_conductance(a[m], b[m])
        faces.append(g)
    return faces[0], faces[1]


def face_currents(phi: ScalarField, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The conservative inter-cell currents (A per unit depth): fx[iy, k]
    flows from column k to k + 1, fy[j, ix] from row j to j + 1."""
    v, (gx, gy) = phi.values, face_conductances(sigma)
    return (v[:, :-1] - v[:, 1:]) * gx, (v[:-1] - v[1:]) * gy


def _neighbor_sum(gx: np.ndarray, gy: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Sum of conductance-weighted neighbour values, zero-flux past the rim."""
    out = np.zeros_like(f)
    out[:, :-1] += gx * f[:, 1:]
    out[:, 1:] += gx * f[:, :-1]
    out[:-1, :] += gy * f[1:, :]
    out[1:, :] += gy * f[:-1, :]
    return out


# Coarsening stops at a level of at most this many unknowns; that level
# is solved with its dense inverse.
_COARSEST_UNKNOWNS = 64
# Braess's scale on the coarse correction: a piecewise-constant
# prolongation undershoots smooth error, so each correction is stretched.
_COARSE_SCALE = 1.8


class _Level:
    """One level of the multigrid hierarchy: the 5-point operator
    diag * u - sum_s g[s] * u[nb[s]] on its n unknowns, which are in
    row-major order of the level's grid; the sides s are east, west,
    south and north. A vector the operator reads carries a trailing 0.0
    slot at index n, where nb points when a side has no unknown
    neighbour (g is 0.0 there). Faces to pinned cells (anchor) count in
    diag only.

    The level keeps g and nb split by colour only. agg maps its unknowns
    to the next level's (_coarsen); a level without one is the coarsest,
    and keeps its dense inverse."""

    def __init__(
        self,
        iy: np.ndarray,
        ix: np.ndarray,
        g: np.ndarray,
        nb: np.ndarray,
        anchor: np.ndarray,
        terms: np.ndarray,
        agg: np.ndarray | None,
    ):
        self.n = len(iy)
        self.diag = diag = anchor + g[0] + g[1] + g[2] + g[3]
        # Red-black colour sets: a red cell's neighbours are all black.
        # Each holds (cells, their nb, their g, 1 / their diag, a view of
        # the flat buffer terms for their four neighbour terms). Every
        # level's colours share one buffer, as no two fill it at once; a
        # colour it cannot hold gets a larger one, which the next level
        # shares.
        red = (iy + ix) % 2 == 0
        colours = (np.flatnonzero(red), np.flatnonzero(~red))
        size = 4 * max(len(idx) for idx in colours)
        self.terms = terms if terms.size >= size else np.empty(size)
        self.colours = [
            (idx, nb[:, idx], g[:, idx], 1.0 / diag[idx],
             self.terms[: 4 * len(idx)].reshape(4, len(idx)))
            for idx in colours
        ]
        self.inverse = self.coarse = None
        if agg is None:
            self.inverse = _dense_inverse(diag, g, nb)
        else:
            self.agg, self.agg_red = agg, agg[colours[0]]

    @staticmethod
    def _neighbour_sum(colour, u: np.ndarray) -> np.ndarray:
        """sum_s g[s] * u[nb[s]] on one colour's cells, sides in order."""
        _, nb, g, _, terms = colour
        np.take(u, nb, out=terms, mode="clip")  # every index is valid; "clip" is unbuffered
        terms *= g
        return terms.sum(axis=0)

    def apply(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = A u, where u has the trailing 0.0 slot and out does not."""
        np.multiply(self.diag, u[:-1], out=out)
        for colour in self.colours:
            out[colour[0]] -= self._neighbour_sum(colour, u)
        return out

    def cycle(self, r: np.ndarray) -> np.ndarray:
        """z = M r, with the trailing 0.0 slot, for M one V-cycle from
        zero: a Gauss-Seidel sweep red then black, the scaled coarse
        correction, and a sweep black then red, so M is symmetric."""
        z = np.zeros(self.n + 1)
        if self.inverse is not None:
            z[:-1] = np.sum(self.inverse * r, axis=1)
            return z
        red, black = self.colours
        r_red, r_black = r[red[0]], r[black[0]]
        z[red[0]] = r_red * red[3]
        z[black[0]] = (r_black + self._neighbour_sum(black, z)) * black[3]
        # The black cells' residual is now zero, and on red cells their
        # own terms cancel r, which leaves the neighbour sums.
        restricted = np.bincount(
            self.agg_red, self._neighbour_sum(red, z), minlength=self.coarse.n
        )
        z[:-1] += _COARSE_SCALE * self.coarse.cycle(restricted)[self.agg]
        z[black[0]] = (r_black + self._neighbour_sum(black, z)) * black[3]
        z[red[0]] = (r_red + self._neighbour_sum(red, z)) * red[3]
        return z


def _coarsen(
    iy: np.ndarray, ix: np.ndarray, g: np.ndarray, nb: np.ndarray, anchor: np.ndarray
) -> tuple[np.ndarray, ...]:
    """A level's agg, and the next level's iy, ix, g, nb and anchor.

    Each 2x2 block of the grid is one unknown of the next level: the
    faces between two blocks add up to their coupling, and a block's
    diag is the sum of the faces that leave it, to other blocks and to
    pinned cells. (Summing the diagonals and subtracting twice the
    inner faces would cancel under large conductivity contrasts.)"""
    ncx = int(ix.max()) // 2 + 1
    key = (iy // 2) * ncx + ix // 2
    slot = np.zeros((int(iy.max()) // 2 + 1) * ncx, dtype=np.int64)
    slot[key] = 1
    blocks = np.flatnonzero(slot)
    nc = len(blocks)
    slot[blocks] = np.arange(nc)
    agg = slot[key]
    agg_slot = np.append(agg, -1)
    gc = np.zeros((4, nc))
    nbc = np.full((4, nc), nc)
    for s in range(4):
        other = agg_slot[nb[s]]
        cross = (other >= 0) & (other != agg)
        gc[s] = np.bincount(agg[cross], g[s][cross], minlength=nc)
        nbc[s][agg[cross]] = other[cross]
    cy, cx = np.divmod(blocks, ncx)
    return agg, cy, cx, gc, nbc, np.bincount(agg, anchor, minlength=nc)


def _dense_inverse(diag: np.ndarray, g: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """Inverse of a level's operator by Gauss-Jordan elimination in a
    fixed order, without pivoting (the operator is symmetric positive
    definite), in elementwise numpy: no BLAS call rounds by thread count.
    Should round-off under extreme conductivity contrast leave a pivot
    that is not positive, the diagonal's inverse stands in."""
    m = len(diag)
    rows = np.arange(m)
    aug = np.zeros((m, 2 * m))
    aug[rows, rows] = diag
    aug[rows, m + rows] = 1.0
    for s in range(4):
        linked = nb[s] < m
        aug[rows[linked], nb[s][linked]] = -g[s][linked]
    for k in range(m):
        if not aug[k, k] > 0.0:
            return np.diag(1.0 / diag)
        aug[k] /= aug[k, k]
        col = aug[:, k].copy()
        col[k] = 0.0
        aug -= col[:, None] * aug[k]
    return aug[:, m:].copy()


def _faces(gx: np.ndarray, gy: np.ndarray, cells: np.ndarray):
    """For the east, west, south and north side of the flat cells in
    turn: which of them have a neighbour there inside the grid, the
    conductances of those faces, and those neighbours' flat indices."""
    ny, nx = gy.shape[0] + 1, gx.shape[1] + 1
    iy, ix = np.divmod(cells, nx)
    for inside, faces, fy, fx, shift in (
        (ix < nx - 1, gx, iy, ix, 1),
        (ix > 0, gx, iy, ix - 1, -1),
        (iy < ny - 1, gy, iy, ix, nx),
        (iy > 0, gy, iy - 1, ix, -nx),
    ):
        yield inside, faces[fy[inside], fx[inside]], cells[inside] + shift


def _finest_level(
    gx: np.ndarray,
    gy: np.ndarray,
    unknown: np.ndarray,
    pins: np.ndarray,
    values: np.ndarray,
) -> tuple[_Level, np.ndarray, np.ndarray]:
    """The grid level over the unknown cells, with its coarser levels
    linked below it, those cells' flat indices, and the right-hand side
    b: the current the pinned neighbours drive into each unknown. pins
    are the pinned cells' flat indices in ascending order, values their
    potentials.

    The levels are built finest first. Each level's next level is
    coarsened from it before its colour copies are made, and its whole g
    and nb go once both are, so that only the colour copies of the finer
    levels stay."""
    cells = np.flatnonzero(unknown)
    n = len(cells)
    slot = np.full(unknown.size, n, dtype=np.int32)
    slot[cells] = np.arange(n)
    g = np.zeros((4, n))
    nb = np.full((4, n), n)
    anchor = np.zeros(n)
    b = np.zeros(n)
    for s, (inside, face, other) in enumerate(_faces(gx, gy, cells)):
        neighbour = slot[other]
        g[s][inside] = np.where(neighbour < n, face, 0.0)
        nb[s][inside] = neighbour
        # The neighbours that are pinned, and their pins' places in pins.
        k = np.searchsorted(pins, other)
        pinned = pins.take(k, mode="clip") == other
        at_pin = np.where(pinned, face, 0.0)
        anchor[inside] += at_pin
        at_pin *= np.where(pinned, values.take(k, mode="clip"), 0.0)
        b[inside] += at_pin
    del slot
    iy, ix = np.divmod(cells, unknown.shape[1])
    levels: list[_Level] = []
    while True:
        agg = parts = None
        if len(iy) > _COARSEST_UNKNOWNS:
            agg, *parts = _coarsen(iy, ix, g, nb, anchor)
        terms = levels[-1].terms if levels else np.empty(0)
        levels.append(_Level(iy, ix, g, nb, anchor, terms, agg))
        if parts is None:
            break
        iy, ix, g, nb, anchor = parts
    for fine, coarse in zip(levels, levels[1:]):
        fine.coarse = coarse
    return levels[0], cells, b


def solve_potential(
    sigma: np.ndarray,
    dirichlet: Mapping[tuple[int, int], float],
    cell_size_mm: float,
    tol: float = 1e-9,
    max_iter: int | None = None,
) -> tuple[ScalarField, SolveReport]:
    """Solve div(sigma grad phi) = 0 with pinned cells.

    `dirichlet` maps (ix, iy) cells to potentials; every pinned cell must be
    conductive. Cells with sigma = 0, and conductive cells that no
    conductive route links to a pinned cell, are excluded from the unknown
    set and report phi = 0.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if (sigma < 0).any():
        raise ValueError("sigma must be non-negative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    ny, nx = sigma.shape
    if max_iter is None:
        max_iter = 50 * max(nx, ny)

    for ix, iy in dirichlet:
        if not (0 <= ix < nx and 0 <= iy < ny):
            raise ValueError(f"dirichlet cell {(ix, iy)} out of bounds")
        if sigma[iy, ix] <= 0:
            raise ValueError(f"dirichlet cell {(ix, iy)} is not conductive")
    if not dirichlet:
        raise ValueError("at least one dirichlet cell is required")
    # The pinned cells' flat indices, ascending, and their potentials.
    pinned = sorted((iy * nx + ix, v) for (ix, iy), v in dirichlet.items())
    pins = np.array([cell for cell, _ in pinned], dtype=np.int64)
    values = np.array([v for _, v in pinned], dtype=np.float64)
    dir_mask = np.zeros(sigma.shape, dtype=bool)
    dir_mask.ravel()[pins] = True

    # Floating pockets, conductive cells that no conductive route links to
    # a pinned cell, would make a singular row: they stay at phi = 0.
    labels, _ = label_components(sigma > 0)
    unknown = np.isin(labels, labels[dir_mask])
    del labels  # not held through the set-up and the iteration
    gx, gy = face_conductances(sigma)
    linked = np.zeros(sigma.shape, dtype=bool)  # cells with a conductive face
    for side, g in ((np.s_[:, :-1], gx), (np.s_[:, 1:], gx), (np.s_[:-1], gy), (np.s_[1:], gy)):
        linked[side] |= g > 0
    unknown &= linked & ~dir_mask
    del linked, dir_mask  # not held through the set-up and the iteration

    level, cells, b = _finest_level(gx, gy, unknown, pins, values)
    n = len(cells)
    # The iteration runs on buffers of the unknowns. x_slot and p_slot
    # carry the operator's trailing zero slot; x and p are their views
    # without it, as z is of the cycle's result. Inner products are numpy's pairwise sums,
    # not np.dot, whose OpenBLAS reduction rounds by thread count.
    prod = np.empty(n)

    def dot(a: np.ndarray, c: np.ndarray) -> float:
        return float(np.multiply(a, c, out=prod).sum())

    x_slot = np.zeros(n + 1)
    x = x_slot[:-1]
    bnorm = np.sqrt(dot(b, b))
    iterations = 0
    if bnorm == 0.0:
        converged = True
        final_residual = 0.0
    else:
        ap = np.empty(n)
        r = b.copy()
        z = level.cycle(r)[:-1]
        p_slot = np.zeros(n + 1)
        p = p_slot[:-1]
        np.copyto(p, z)
        step = np.empty(n)
        rz = dot(r, z)
        converged = False
        restarts = 0
        while iterations < max_iter:
            level.apply(p_slot, ap)  # ap = A p
            pap = dot(p, ap)
            if pap <= 0.0:
                # Round-off breakdown under extreme conductivity contrast:
                # restart from the current iterate with a fresh residual.
                if restarts >= 8:
                    break
                restarts += 1
                np.subtract(b, level.apply(x_slot, ap), out=r)  # r = b - A x
                z = level.cycle(r)[:-1]
                np.copyto(p, z)
                rz = dot(r, z)
                if rz <= 0.0:
                    break
                continue
            alpha = rz / pap
            x += np.multiply(alpha, p, out=step)  # x += alpha * p
            r -= np.multiply(alpha, ap, out=step)  # r -= alpha * ap
            iterations += 1
            if np.sqrt(dot(r, r)) / bnorm <= tol:
                converged = True
                break
            z = level.cycle(r)[:-1]
            rz_new = dot(r, z)
            p *= rz_new / rz  # p = z + (rz_new / rz) * p
            p += z
            rz = rz_new
        true_r = np.subtract(b, level.apply(x_slot, ap), out=ap)  # b - A x
        final_residual = float(np.sqrt(dot(true_r, true_r)) / bnorm)
        converged = converged and final_residual <= tol

    phi = np.zeros(sigma.shape)
    at = phi.ravel()
    at[pins] = values
    at[cells] = x
    # Current leaving each pinned cell, in row-major order.
    injections = np.zeros(len(pins))
    for inside, face, other in _faces(gx, gy, pins):
        injections[inside] += face * (at[pins[inside]] - at[other])
    current_in = float(injections[injections > 0].sum())
    current_out = float(-injections[injections < 0].sum())

    if converged:
        levels = sorted(set(dirichlet.values()))
        spread = levels[-1] - levels[0]
        g_max = max(gx.max() if gx.size else 0.0, gy.max() if gy.size else 0.0)
        if spread > 0 and g_max > 0 and current_in <= 1e-10 * g_max * spread:
            raise FieldSolveError(
                "no current flows between dirichlet levels; electrodes are disconnected"
            )

    field = ScalarField(phi, cell_size_mm, Quantity.POTENTIAL)
    report = SolveReport(
        iterations=iterations,
        unknowns=n,
        final_residual=float(final_residual),
        current_in=current_in,
        current_out=current_out,
        converged=bool(converged),
        tol=tol,
    )
    return field, report


def maze_dirichlet(spec: MazeSpec) -> dict[tuple[int, int], float]:
    """Electrode pinning for a maze: positive at applied_voltage, negative at 0."""
    pinned = dict.fromkeys(spec.positive, spec.applied_voltage)
    return pinned | dict.fromkeys(spec.negative, 0.0)


def _masked_current(
    v: np.ndarray, sigma: np.ndarray, valid: np.ndarray, h_m: float, axis: int
) -> np.ndarray:
    """-sigma * dv/d(axis), axis 1 along rows (x) and 0 down columns
    (y): central differences where both neighbours along the axis are
    valid, one-sided at a valid/invalid interface, zero with no valid
    neighbour or off the mask. The differences are taken at the flat
    indices of each case, so the result is the one full float grid made."""
    head, tail = [slice(None)] * 2, [slice(None)] * 2
    head[axis], tail[axis] = slice(None, -1), slice(1, None)
    head, tail = tuple(head), tuple(tail)
    has_prev = np.zeros_like(valid)
    has_prev[tail] = valid[head]
    has_next = np.zeros_like(valid)
    has_next[head] = valid[tail]
    step = v.shape[1] if axis == 0 else 1
    at, out = v.ravel(), np.zeros_like(v)
    for case, ahead, behind, span in (
        (valid & has_prev & has_next, step, -step, 2.0 * h_m),
        (valid & has_next & ~has_prev, step, 0, h_m),
        (valid & has_prev & ~has_next, 0, -step, h_m),
    ):
        k = np.flatnonzero(case)
        out.ravel()[k] = (at[k + ahead] - at[k + behind]) / span
    out *= sigma
    return np.negative(out, out=out)


def current_density(phi: ScalarField, sigma: np.ndarray) -> VectorField:
    """J = -sigma grad(phi) at cell centres, zero inside non-conductive
    cells; face_currents gives the conservative currents between cells."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != phi.values.shape:
        raise ValueError("sigma and potential dimensions differ")
    h_m = phi.cell_size * MM_TO_M
    valid = sigma > 0
    v = phi.values
    jx = _masked_current(v, sigma, valid, h_m, axis=1)
    jy = _masked_current(v, sigma, valid, h_m, axis=0)
    return VectorField(jx, jy, phi.cell_size, VectorQuantity.CURRENT_DENSITY)


def conservation(
    phi: ScalarField,
    sigma: np.ndarray,
    positive_cells: frozenset[tuple[int, int]] | set[tuple[int, int]],
    negative_cells: frozenset[tuple[int, int]] | set[tuple[int, int]],
) -> tuple[ScalarField, float, float]:
    """Discrete divergence of the face currents plus electrode totals.

    On a converged solve the divergence vanishes on every non-electrode
    cell and current_in balances current_out.
    """
    fx, fy = face_currents(phi, sigma)
    net = np.zeros((phi.ny, phi.nx))
    net[:, :-1] += fx
    net[:, 1:] -= fx
    net[:-1, :] += fy
    net[1:, :] -= fy

    h_m = phi.cell_size * MM_TO_M
    div = ScalarField(net / (h_m * h_m), phi.cell_size, Quantity.DIVERGENCE)
    current_in = float(sum(net[iy, ix] for ix, iy in sorted(positive_cells)))
    current_out = float(-sum(net[iy, ix] for ix, iy in sorted(negative_cells)))
    return div, current_in, current_out


def joule_heating(j: VectorField, sigma: np.ndarray) -> ScalarField:
    """Dissipated power density |J|^2 / sigma, zero in non-conductive cells."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != j.vx.shape:
        raise ValueError("sigma and field dimensions differ")
    p = np.zeros_like(sigma)
    m = sigma > 0
    p[m] = (j.vx[m] ** 2 + j.vy[m] ** 2) / sigma[m]
    return ScalarField(p, j.cell_size, Quantity.JOULE_POWER)


@dataclass(frozen=True, eq=False)
class FieldBundle:
    """One converged solve of a maze: phi, the solve report and J, three
    float grids in all. Face currents and Joule power (joule_heating, for
    joule.pgm) are derived where they are read."""

    phi: ScalarField
    report: SolveReport
    j: VectorField


def compute_fields(
    spec: MazeSpec, tol: float = 1e-9, max_iter: int | None = None
) -> FieldBundle:
    """Solve the maze and derive J (FieldBundle)."""
    sigma = conductivity_grid(spec)
    phi, report = solve_potential(sigma, maze_dirichlet(spec), spec.cell_size, tol, max_iter)
    return FieldBundle(phi=phi, report=report, j=current_density(phi, sigma))
