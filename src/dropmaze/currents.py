"""The route the current takes: Kirchhoff's current law at the level of
the corridor regions.

The solve's face currents, summed over the faces between two adjacent
regions of a corridor segmentation, give the net current between them.
The route is the chain of corridors from the positive electrode to the
negative one that carries the most current (current_route).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .maze import MazeSpec
from .solver import VectorField

if TYPE_CHECKING:
    from .oracle import CorridorSegmentation


# A solve stopped at relative residual tol leaves errors of a few tol in
# its currents, and the multigrid cycle is not mirror-symmetric, so a
# symmetric maze's branches differ by that much: their corridors' currents
# by up to 6e-9 of the largest region current at tol 1e-9 on the
# benchmark's symmetric bifurcations (seeds 0-11, 0.5 and 0.25 mm cells).
# Currents within this many tol of that largest current are equal.
_TIE_SLACK = 1e3


class CurrentRoute(NamedTuple):
    """The route the current takes through the corridor regions.

    sequences holds each branch's corridor sequence, in sequence order;
    more than one is a tie. region_current is each region's current (A per
    unit depth), half the absolute net current it exchanges with its
    neighbours. split_margin is the closest call on the way: over every
    downstream path off the route, the relative gap between the currents
    of the first corridors where its sequence and a branch's part, at its
    smallest; None when no path leaves the route."""

    sequences: tuple[tuple[int, ...], ...]
    region_current: np.ndarray
    split_margin: float | None


def current_route(
    j: VectorField, maze: MazeSpec, seg: CorridorSegmentation, tol: float = 1e-9
) -> CurrentRoute:
    """The chain of corridors that carries the most current from the
    positive electrode to the negative one (Kirchhoff's current law at the
    level of corridor regions).

    The net current between two adjacent regions is the sum of the solve's
    face currents over the faces between them. A downstream path runs
    from a region holding a positive electrode cell to one holding a
    negative cell, each step along a positive net current, visiting no
    region twice; its corridor sequence drops the junction regions, as
    region_sequence does. The route is the path whose corridor currents,
    sorted ascending, are lexicographically largest: a widest
    (maximum-bottleneck) path (Pollack, "The maximum capacity through a
    network", Operations Research 8(5), 1960) whose ties are broken by the
    next-narrowest corridor, and so on. Currents within _TIE_SLACK * tol
    of the largest region current are equal (tol being the solve's own
    tolerance), so a mirror-symmetric maze returns both branches, in
    sequence order.
    """
    if j.face_flux_x is None or j.face_flux_y is None:
        raise ValueError("vector field carries no face currents; solve first")
    region, n = seg.region, seg.n_regions
    across = np.zeros(n * n)  # [a * n + b]: current from a to b over their faces
    for a, b, flux in (
        (region[:, :-1], region[:, 1:], j.face_flux_x),
        (region[:-1, :], region[1:, :], j.face_flux_y),
    ):
        cross = (a != b) & (a >= 0) & (b >= 0)
        across += np.bincount(a[cross] * n + b[cross], weights=flux[cross], minlength=n * n)
    net = across.reshape(n, n)
    net = net - net.T
    current = 0.5 * np.abs(net).sum(axis=1)
    current.setflags(write=False)
    sources = sorted({int(region[iy, ix]) for ix, iy in maze.positive} - {-1})
    sinks = {int(region[iy, ix]) for ix, iy in maze.negative} - {-1}
    downstream = [np.flatnonzero(row > 0).tolist() for row in net]

    paths: list[tuple[int, ...]] = []
    stack = [(source,) for source in sources]
    while stack:
        path = stack.pop()
        if path[-1] in sinks:
            paths.append(path)
            continue
        stack += [path + (b,) for b in downstream[path[-1]] if b not in path]
    if not paths:
        raise ValueError("no downstream path joins the electrodes")

    corridor = [not node for node in seg.is_node.tolist()]
    currents = current.tolist()
    seqs = [tuple(r for r in path if corridor[r]) for path in paths]
    keys = [sorted(currents[r] for r in seq) for seq in seqs]
    # The lexicographic maximum, with currents within slack of the best
    # counted as equal: filter the candidates position by position.
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
            # None where one sequence extends the other.
            parted = next(((r, q) for r, q in zip(seq, alternative) if r != q), None)
            if parted is not None:
                mine, theirs = currents[parted[0]], currents[parted[1]]
                margins.append(abs(mine - theirs) / max(mine, theirs))
    return CurrentRoute(sequences, current, min(margins) if margins else None)
