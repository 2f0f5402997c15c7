"""Steady conduction solver on the cell grid.

Discretization is finite-volume on the uniform square grid: the flux
between two adjacent cells is g * (phi_a - phi_b) with g the harmonic mean
of the two cell conductivities, so sigma = 0 cells are perfectly
insulating and material jumps are handled like series resistors. Electrode
cells are Dirichlet-pinned; the reduced symmetric system is solved with
Jacobi-preconditioned conjugate gradients over the unknown cells only, in
a fixed evaluation order and with numpy's own sums, so repeated solves are
bit-identical whatever the BLAS thread count.

Currents are reported per unit depth of the 2D sheet (A per metre of
depth); current density is in A/m^2 with the cell size converted from mm.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .maze import MazeSpec, Polarity, conductivity_grid

MM_TO_M = 1e-3


class FieldSolveError(RuntimeError):
    """Solve cannot produce a usable potential (e.g. electrodes disconnected)."""


class Quantity(enum.Enum):
    POTENTIAL = "potential_V"
    JOULE_POWER = "joule_W_per_m3"
    SPEED_OF_J = "current_density_A_per_m2"
    DIVERGENCE = "div_J_A_per_m3"


class VectorQuantity(enum.Enum):
    CURRENT_DENSITY = "current_density_A_per_m2"
    GRAD_SPEED_OF_J = "grad_J_A_per_m3"


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
    # Conservative inter-cell currents (A per unit depth) attached by
    # current_density; face_flux_x[iy, k] flows from column k to k+1,
    # face_flux_y[j, ix] from row j to j+1. None for synthetic fields.
    face_flux_x: np.ndarray | None = None
    face_flux_y: np.ndarray | None = None

    def __post_init__(self):
        for name in ("vx", "vy"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(arr).all():
                raise ValueError(f"vector field component {name} has non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.vx.shape != self.vy.shape:
            raise ValueError("vx and vy shapes differ")
        for flux in (self.face_flux_x, self.face_flux_y):
            if flux is not None:
                flux.setflags(write=False)

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
    final_residual: float  # relative L2 residual of the reduced system
    current_in: float  # A per unit depth, injected at the high side
    current_out: float  # A per unit depth, collected at the low side
    converged: bool
    tol: float

    def current_imbalance(self) -> float:
        scale = max(abs(self.current_in), 1e-300)
        return abs(self.current_in - self.current_out) / scale


def face_conductances(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic-mean conductances on vertical (gx) and horizontal (gy) faces."""
    a, b = sigma[:, :-1], sigma[:, 1:]
    gx = np.zeros_like(a)
    m = (a > 0) & (b > 0)
    gx[m] = 2.0 * a[m] * b[m] / (a[m] + b[m])
    a, b = sigma[:-1, :], sigma[1:, :]
    gy = np.zeros_like(a)
    m = (a > 0) & (b > 0)
    gy[m] = 2.0 * a[m] * b[m] / (a[m] + b[m])
    return gx, gy


def _neighbor_sum(gx: np.ndarray, gy: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Sum of conductance-weighted neighbour values, zero-flux past the rim."""
    out = np.zeros_like(f)
    out[:, :-1] += gx * f[:, 1:]
    out[:, 1:] += gx * f[:, :-1]
    out[:-1, :] += gy * f[1:, :]
    out[1:, :] += gy * f[:-1, :]
    return out


class _CompactOperator:
    """The reduced operator diag * u - _neighbor_sum(u) on the unknown
    cells only. A vector holds one entry per unknown cell, in row-major
    order, plus a trailing 0.0 that every wall, pinned or off-grid
    neighbour reads; the pinned neighbours' share is in b instead."""

    def __init__(self, gx: np.ndarray, gy: np.ndarray, diag: np.ndarray, unknown: np.ndarray):
        ny, nx = unknown.shape
        self.cells = np.flatnonzero(unknown)
        n = len(self.cells)
        slot = np.full(ny * nx, n)
        slot[self.cells] = np.arange(n)
        iy, ix = np.divmod(self.cells, nx)
        # (neighbour inside the grid, face conductances, face row, face
        # column, flat offset of the neighbour) for east, west, south, north
        sides = (
            (ix < nx - 1, gx, iy, ix, 1),
            (ix > 0, gx, iy, ix - 1, -1),
            (iy < ny - 1, gy, iy, ix, nx),
            (iy > 0, gy, iy - 1, ix, -nx),
        )
        self.terms = []
        for inside, faces, fy, fx, shift in sides:
            g = np.zeros(n)
            g[inside] = faces[fy[inside], fx[inside]]
            neighbor = np.full(n, n)
            neighbor[inside] = slot[self.cells[inside] + shift]
            self.terms.append((g, neighbor))
        self.diag = diag.ravel()[self.cells]
        self._sum, self._term = np.empty(n), np.empty(n)

    def apply(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = A u, where u has the trailing 0.0 slot and out does not."""
        acc, term = self._sum, self._term
        (g, neighbor), *rest = self.terms
        np.multiply(g, np.take(u, neighbor, out=acc), out=acc)
        for g, neighbor in rest:
            acc += np.multiply(g, np.take(u, neighbor, out=term), out=term)
        np.multiply(self.diag, u[:-1], out=out)
        out -= acc
        return out


def solve_potential(
    sigma: np.ndarray,
    dirichlet: Mapping[tuple[int, int], float],
    cell_size_mm: float,
    tol: float = 1e-9,
    max_iter: int | None = None,
) -> tuple[ScalarField, SolveReport]:
    """Solve div(sigma grad phi) = 0 with pinned cells.

    `dirichlet` maps (ix, iy) cells to potentials; every pinned cell must be
    conductive. Cells with sigma = 0 (and conductive cells fully enclosed by
    them) are excluded from the unknown set and report phi = 0.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if (sigma < 0).any():
        raise ValueError("sigma must be non-negative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    ny, nx = sigma.shape
    if max_iter is None:
        max_iter = 50 * max(nx, ny)

    dir_mask = np.zeros(sigma.shape, dtype=bool)
    dir_val = np.zeros(sigma.shape)
    for (ix, iy), v in dirichlet.items():
        if not (0 <= ix < nx and 0 <= iy < ny):
            raise ValueError(f"dirichlet cell {(ix, iy)} out of bounds")
        if sigma[iy, ix] <= 0:
            raise ValueError(f"dirichlet cell {(ix, iy)} is not conductive")
        dir_mask[iy, ix] = True
        dir_val[iy, ix] = v
    if not dir_mask.any():
        raise ValueError("at least one dirichlet cell is required")

    gx, gy = face_conductances(sigma)
    diag = _neighbor_sum(gx, gy, np.ones_like(sigma))
    unknown = (sigma > 0) & ~dir_mask & (diag > 0)

    operator = _CompactOperator(gx, gy, diag, unknown)
    cells = operator.cells
    n = len(cells)
    b = _neighbor_sum(gx, gy, np.where(dir_mask, dir_val, 0.0)).ravel()[cells]
    # The iteration runs on preallocated buffers of the unknowns. x_slot
    # and p_slot carry the operator's trailing zero slot; x and p are
    # their views without it. Inner products are numpy's pairwise sums,
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
        inv_diag = 1.0 / operator.diag
        ap = np.empty(n)
        r = b.copy()
        z = inv_diag * r
        p_slot = np.zeros(n + 1)
        p = p_slot[:-1]
        np.copyto(p, z)
        step = np.empty(n)
        rz = dot(r, z)
        converged = False
        restarts = 0
        while iterations < max_iter:
            operator.apply(p_slot, ap)  # ap = A p
            pap = dot(p, ap)
            if pap <= 0.0:
                # Round-off breakdown under extreme conductivity contrast:
                # restart from the current iterate with a fresh residual.
                if restarts >= 8:
                    break
                restarts += 1
                np.subtract(b, operator.apply(x_slot, ap), out=r)  # r = b - A x
                np.multiply(inv_diag, r, out=z)  # z = inv_diag * r
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
            np.multiply(inv_diag, r, out=z)  # z = inv_diag * r
            rz_new = dot(r, z)
            p *= rz_new / rz  # p = z + (rz_new / rz) * p
            p += z
            rz = rz_new
        true_r = np.subtract(b, operator.apply(x_slot, ap), out=ap)  # b - A x
        final_residual = float(np.sqrt(dot(true_r, true_r)) / bnorm)
        converged = converged and final_residual <= tol

    phi = np.where(dir_mask, dir_val, 0.0)
    phi.ravel()[cells] = x
    net_out = diag * phi - _neighbor_sum(gx, gy, phi)
    injections = net_out[dir_mask]
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
        final_residual=float(final_residual),
        current_in=current_in,
        current_out=current_out,
        converged=bool(converged),
        tol=tol,
    )
    return field, report


def maze_dirichlet(spec: MazeSpec) -> dict[tuple[int, int], float]:
    """Electrode pinning for a maze: positive at applied_voltage, negative at 0."""
    out: dict[tuple[int, int], float] = {}
    for cell in spec.electrode_cells(Polarity.POSITIVE):
        out[cell] = spec.applied_voltage
    for cell in spec.electrode_cells(Polarity.NEGATIVE):
        out[cell] = 0.0
    return out


def _masked_ddx(v: np.ndarray, valid: np.ndarray, h_m: float) -> np.ndarray:
    """d/dx along rows: central differences where both neighbours are
    valid, one-sided at a valid/invalid interface, zero with no valid
    neighbour or off the mask."""
    has_l = np.zeros_like(valid)
    has_l[:, 1:] = valid[:, :-1]
    has_r = np.zeros_like(valid)
    has_r[:, :-1] = valid[:, 1:]
    vl = np.zeros_like(v)
    vl[:, 1:] = v[:, :-1]
    vr = np.zeros_like(v)
    vr[:, :-1] = v[:, 1:]
    ddx = np.where(
        has_l & has_r,
        (vr - vl) / (2.0 * h_m),
        np.where(has_r, (vr - v) / h_m, np.where(has_l, (v - vl) / h_m, 0.0)),
    )
    return np.where(valid, ddx, 0.0)


def _masked_gradient(
    values: np.ndarray, valid: np.ndarray, h_m: float
) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy) by _masked_ddx; d/dy is d/dx of the transposed grid."""
    ddy = _masked_ddx(values.T, valid.T, h_m).T
    return _masked_ddx(values, valid, h_m), np.ascontiguousarray(ddy)


def current_density(phi: ScalarField, sigma: np.ndarray) -> VectorField:
    """J = -sigma grad(phi); zero inside non-conductive cells.

    Also attaches the conservative face currents used by conservation().
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != phi.values.shape:
        raise ValueError("sigma and potential dimensions differ")
    h_m = phi.cell_size * MM_TO_M
    valid = sigma > 0
    ddx, ddy = _masked_gradient(phi.values, valid, h_m)
    jx = -sigma * ddx
    jy = -sigma * ddy

    gx, gy = face_conductances(sigma)
    fx = gx * (phi.values[:, :-1] - phi.values[:, 1:])
    fy = gy * (phi.values[:-1, :] - phi.values[1:, :])
    return VectorField(
        jx, jy, phi.cell_size, VectorQuantity.CURRENT_DENSITY, face_flux_x=fx, face_flux_y=fy
    )


def conservation(
    j: VectorField,
    positive_cells: frozenset[tuple[int, int]] | set[tuple[int, int]],
    negative_cells: frozenset[tuple[int, int]] | set[tuple[int, int]],
) -> tuple[ScalarField, float, float]:
    """Discrete divergence of the face currents plus electrode totals.

    On a converged solve the divergence vanishes on every non-electrode
    cell and current_in balances current_out.
    """
    if j.face_flux_x is None or j.face_flux_y is None:
        raise ValueError("vector field carries no face currents; solve first")
    fx, fy = j.face_flux_x, j.face_flux_y
    net = np.zeros((j.ny, j.nx))
    net[:, :-1] += fx
    net[:, 1:] -= fx
    net[:-1, :] += fy
    net[1:, :] -= fy

    h_m = j.cell_size * MM_TO_M
    div = ScalarField(net / (h_m * h_m), j.cell_size, Quantity.DIVERGENCE)
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


def grad_speed_of_j(
    j: VectorField, sigma: np.ndarray, valid_mask: np.ndarray | None = None
) -> VectorField:
    """Gradient of |J|, zero inside non-conductive cells.

    Pass valid_mask (e.g. the channel mask) on heterogeneous media:
    differencing |J| across a conductivity jump manufactures huge fake
    gradients, and the droplet only ever samples the electrolyte anyway.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != j.vx.shape:
        raise ValueError("sigma and field dimensions differ")
    h_m = j.cell_size * MM_TO_M
    valid = (sigma > 0) if valid_mask is None else np.asarray(valid_mask, dtype=bool)
    speed = j.magnitude()
    ddx, ddy = _masked_gradient(speed, valid, h_m)
    return VectorField(ddx, ddy, j.cell_size, VectorQuantity.GRAD_SPEED_OF_J)


@dataclass(frozen=True, eq=False)
class FieldBundle:
    """Everything derived from one converged solve of a maze."""

    phi: ScalarField
    report: SolveReport
    j: VectorField
    grad_j: VectorField
    joule: ScalarField
    sigma: np.ndarray

    def __post_init__(self):
        self.sigma.setflags(write=False)


def compute_fields(
    spec: MazeSpec, tol: float = 1e-9, max_iter: int | None = None
) -> FieldBundle:
    sigma = conductivity_grid(spec)
    phi, report = solve_potential(sigma, maze_dirichlet(spec), spec.cell_size, tol, max_iter)
    j = current_density(phi, sigma)
    return FieldBundle(
        phi=phi,
        report=report,
        j=j,
        grad_j=grad_speed_of_j(j, sigma, valid_mask=spec.channel_mask()),
        joule=joule_heating(j, sigma),
        sigma=sigma,
    )
