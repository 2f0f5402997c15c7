"""Built-in maze generators: concentric ring mazes and two-branch loops."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .maze import DEFAULT_CELL_SIZE_MM, CellKind, GeometryError, MazeSpec


def _angle_offset_deg(ang, theta):
    """Absolute angular distance in degrees, wrapped to [0, 180]."""
    return np.abs((np.asarray(ang) - theta + 180.0) % 360.0 - 180.0)


def generate_ring_maze(
    rings: int,
    gaps_per_ring: list[int] | int = 1,
    diameter_mm: float = 70.0,
    channel_width_mm: float = 4.0,
    seed: int = 0,
    *,
    cell_size_mm: float = DEFAULT_CELL_SIZE_MM,
    wall_mm: float | None = None,
    exit_angle_deg: float | None = None,
) -> MazeSpec:
    """Concentric annular channels around a central chamber.

    Each wall ring is pierced by one or more radial gaps at seeded angles;
    consecutive gap angles (and the exit electrode, unless exit_angle_deg
    pins it) are kept 45..100 degrees apart so the shortest route is
    unambiguous and carries a dominant share of the current. The positive
    electrode sits in the central chamber, the negative electrode spans
    the outermost channel. The maze has MazeSpec's default conductivities
    and voltage. Solvability is the caller's check (validate_and_components).
    """
    if rings < 1:
        raise GeometryError("rings must be >= 1")
    if isinstance(gaps_per_ring, int):
        gaps = [gaps_per_ring] * rings
    else:
        gaps = list(gaps_per_ring)
    if len(gaps) != rings:
        raise GeometryError(f"gaps_per_ring must have {rings} entries, got {len(gaps)}")
    if any(g < 1 for g in gaps):
        raise GeometryError("every ring needs at least one gap")

    h = cell_size_mm
    w = channel_width_mm
    if w < 3 * h:
        raise GeometryError("channel_width_mm must span at least 3 cells")
    if wall_mm is not None and wall_mm <= 0:
        raise GeometryError("wall_mm must be positive")
    t = wall_mm if wall_mm is not None else max(2 * h, w / 2)
    r_chamber = 1.25 * w

    # Outermost channel plus a closing wall must fit inside the diameter.
    r_needed = r_chamber + rings * (t + w) + t
    if 2 * r_needed > diameter_mm:
        raise GeometryError(
            f"{rings} rings of {w} mm channels need diameter {2 * r_needed:.1f} mm,"
            f" only {diameter_mm} mm available"
        )

    n = int(math.ceil(diameter_mm / h))
    c_mm = n * h / 2.0
    ix = (np.arange(n) + 0.5) * h
    xg, yg = np.meshgrid(ix, ix)
    r = np.hypot(xg - c_mm, yg - c_mm)
    # Math convention, y up: 0 deg points right, +90 up, 180 left.
    ang = np.degrees(np.arctan2(c_mm - yg, xg - c_mm))

    channel = r < r_chamber
    inner = [r_chamber + k * (t + w) + t for k in range(rings)]
    for a_k in inner:
        channel |= (r >= a_k) & (r < a_k + w)

    rng = random.Random(seed)
    theta_prev: float | None = None
    for k, a_k in enumerate(inner):
        if theta_prev is None:
            theta = rng.uniform(0.0, 360.0)
        else:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            theta = theta_prev + sign * rng.uniform(45.0, 100.0)
        theta_prev = theta
        angles = [theta + j * (360.0 / gaps[k]) for j in range(gaps[k])]
        r_lo, r_hi = a_k - t - h, a_k + h
        band = (r >= r_lo) & (r < r_hi)
        half_arc = max(w / 2, 1.5 * h)
        for th in angles:
            arc = np.radians(_angle_offset_deg(ang, th)) * np.maximum(r, h)
            channel |= band & (arc <= half_arc)

    cells = np.where(channel, CellKind.CHANNEL, CellKind.WALL).astype(np.int8)

    pos = {(int(j), int(i)) for i, j in zip(*np.nonzero(channel & (r <= 1.5 * h)))}

    if exit_angle_deg is None:
        sign = 1.0 if rng.random() < 0.5 else -1.0
        exit_angle_deg = theta_prev + sign * rng.uniform(45.0, 100.0)

    a_out = inner[-1]
    out_band = (r >= a_out) & (r < a_out + w)
    arc = np.radians(_angle_offset_deg(ang, exit_angle_deg)) * np.maximum(r, h)
    neg_mask = out_band & (arc <= 1.0 * h) & channel
    neg = {(int(j), int(i)) for i, j in zip(*np.nonzero(neg_mask))}
    if not neg:
        raise GeometryError("failed to place exit electrode in the outer channel")

    return MazeSpec(cells, pos, neg, cell_size=h)


@dataclass(frozen=True)
class BifurcationLayout:
    """Cell-space geometry of a two-branch loop maze."""

    width_cells: int  # channel width w
    riser_col: int  # left column of the splitting vertical corridor
    downcomer_col: int  # left column of the rejoining vertical corridor
    inlet_row: int  # top row of the inlet/outlet corridor span
    top_row: int  # top row of the upper branch corridor
    bottom_row: int  # top row of the lower branch corridor
    up_cells: int  # centerline rise of the upper branch
    down_cells: int  # centerline drop of the lower branch
    run_cells: int  # shared horizontal centerline run of both branches
    nx: int
    ny: int

    @property
    def branch_a_cells(self) -> int:
        return 2 * self.up_cells + self.run_cells

    @property
    def branch_b_cells(self) -> int:
        return 2 * self.down_cells + self.run_cells


def bifurcation_layout(
    len_a_mm: float,
    len_b_mm: float,
    channel_width_mm: float,
    cell_size_mm: float = DEFAULT_CELL_SIZE_MM,
) -> BifurcationLayout:
    """Compute the discrete layout for generate_bifurcation_maze."""
    h = cell_size_mm
    w = round(channel_width_mm / h)
    if w < 1:
        raise GeometryError(
            f"channel_width_mm = {channel_width_mm} rounds to less than one {h} mm cell"
        )
    if len_a_mm <= 2 * channel_width_mm or len_b_mm <= 2 * channel_width_mm:
        raise GeometryError("branch lengths must exceed twice the channel width")
    la = round(len_a_mm / h)
    lb = round(len_b_mm / h)
    wall_min = max(1, w // 2)
    m_hi = min(la, lb) - 2 * (w + wall_min)
    m_lo = 2 * w
    if m_hi < m_lo:
        raise GeometryError(
            f"branches of {len_a_mm}/{len_b_mm} mm cannot fit a {channel_width_mm} mm"
            f" channel at {h} mm cells"
        )
    m = min(max(m_lo, min(la, lb) // 2), m_hi)
    # Each branch rises (drops) half of what it has beyond the shared run.
    # An odd remainder rounds the shorter branch's rise down and the longer
    # one's up, so unequal branches stay unequal in cells.
    if la == lb:
        u = v = round((la - m) / 2)
    elif la < lb:
        u, v = (la - m) // 2, (lb - m + 1) // 2
    else:
        u, v = (la - m + 1) // 2, (lb - m) // 2

    border = 2
    stem = 3 * w
    r0 = border + max(u, v)
    xa = border + stem
    xd = xa + m
    nx = xd + w + stem + border
    ny = 2 * r0 + w
    return BifurcationLayout(
        width_cells=w,
        riser_col=xa,
        downcomer_col=xd,
        inlet_row=r0,
        top_row=r0 - u,
        bottom_row=r0 + v,
        up_cells=u,
        down_cells=v,
        run_cells=m,
        nx=nx,
        ny=ny,
    )


def generate_bifurcation_maze(
    len_a_mm: float,
    len_b_mm: float,
    channel_width_mm: float,
    *,
    cell_size_mm: float = DEFAULT_CELL_SIZE_MM,
) -> MazeSpec:
    """Inlet corridor splitting into two branches that rejoin before the exit.

    Branch centerline lengths match len_a_mm (upper) and len_b_mm (lower)
    to within one cell, and lengths that differ in cells give branches
    that differ the same way. Equal lengths give a grid that is invariant
    under reflection across the inlet axis. The maze has MazeSpec's
    default conductivities and voltage. Solvability is the caller's check
    (validate_and_components).
    """
    lay = bifurcation_layout(len_a_mm, len_b_mm, channel_width_mm, cell_size_mm)
    w = lay.width_cells
    cells = np.full((lay.ny, lay.nx), CellKind.WALL, dtype=np.int8)

    def carve(rows: tuple[int, int], cols: tuple[int, int]) -> None:
        cells[rows[0] : rows[1], cols[0] : cols[1]] = CellKind.CHANNEL

    r0 = lay.inlet_row
    carve((r0, r0 + w), (2, lay.riser_col + w))  # inlet
    carve((lay.top_row, r0 + w), (lay.riser_col, lay.riser_col + w))  # riser up
    carve((r0, lay.bottom_row + w), (lay.riser_col, lay.riser_col + w))  # riser down
    carve((lay.top_row, lay.top_row + w), (lay.riser_col, lay.downcomer_col + w))
    carve((lay.bottom_row, lay.bottom_row + w), (lay.riser_col, lay.downcomer_col + w))
    carve((lay.top_row, r0 + w), (lay.downcomer_col, lay.downcomer_col + w))
    carve((r0, lay.bottom_row + w), (lay.downcomer_col, lay.downcomer_col + w))
    carve((r0, r0 + w), (lay.downcomer_col, lay.nx - 2))  # outlet

    pos = {(2, iy) for iy in range(r0, r0 + w)}
    neg = {(lay.nx - 3, iy) for iy in range(r0, r0 + w)}
    return MazeSpec(cells, pos, neg, cell_size=cell_size_mm)
