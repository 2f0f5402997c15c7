"""The route the current takes: Kirchhoff's current law at the level of
the corridor regions of a segmentation (region_net_currents, current_route).
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .solver import series_conductance

if TYPE_CHECKING:
    from .maze import MazeSpec
    from .oracle import CorridorSegmentation
    from .solver import ScalarField


# A solve stopped at relative residual tol leaves errors of a few tol in
# its currents, and the multigrid cycle is not mirror-symmetric, so a
# symmetric maze's branches differ by that much: their corridors' currents
# by up to 6e-9 of the largest region current at tol 1e-9 on the
# benchmark's symmetric bifurcations (seeds 0-11, 0.5 and 0.25 mm cells).
# Currents on a level spanning this many tol of that largest current are equal.
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


def region_net_currents(phi: ScalarField, maze: MazeSpec, seg: CorridorSegmentation) -> np.ndarray:
    """The (n, n) net currents (A per unit depth), [a, b] from region a to
    b over their faces. Regions hold channel cells only, so such a face
    carries series_conductance(sigma_electrolyte, sigma_electrolyte) times
    phi's drop across it: no conductance or face-current grid is made."""
    g = series_conductance(maze.sigma_electrolyte, maze.sigma_electrolyte)
    region, n, v = seg.region, seg.n_regions, phi.values
    across = np.zeros(n * n)  # [a * n + b]: current from a to b over their faces
    for a, b, va, vb in ((region[:, :-1], region[:, 1:], v[:, :-1], v[:, 1:]),
                         (region[:-1, :], region[1:, :], v[:-1, :], v[1:, :])):
        cross = (a != b) & (a >= 0) & (b >= 0)
        flux = (va[cross] - vb[cross]) * g
        across += np.bincount(a[cross] * n + b[cross], weights=flux, minlength=n * n)
    net = across.reshape(n, n)
    return net - net.T


def current_route(
    phi: ScalarField, maze: MazeSpec, seg: CorridorSegmentation, tol: float = 1e-9
) -> CurrentRoute:
    """The route by the solve's potential phi: route_of_net_currents of
    its region_net_currents."""
    return route_of_net_currents(region_net_currents(phi, maze, seg), maze, seg, tol)


def route_of_net_currents(
    net: np.ndarray, maze: MazeSpec, seg: CorridorSegmentation, tol: float = 1e-9
) -> CurrentRoute:
    """The chain of corridors that carries the most current from the
    positive electrode to the negative one (Kirchhoff's current law at the
    level of corridor regions), given the (n, n) net currents between the
    regions (region_net_currents).

    A downstream path runs from a region holding a positive electrode cell
    to one holding a negative cell, each step along a positive net current;
    its corridor sequence drops the junction regions, as region_sequence
    does. Each cycle of steps that a topological sort finds loses its
    weakest step. The route is a widest (maximum-bottleneck) path
    (Pollack, "The maximum capacity through a network", Operations
    Research 8(5), 1960) whose ties are broken by the next-narrowest
    corridor, and so on. The corridor currents fall into
    levels, each rising _TIE_SLACK * tol of the largest region current above
    its lowest (tol being the solve's own tolerance); the fewest corridors
    on the lowest level win, then on the next (Burkard & Rendl, Operations
    Research Letters 10(5), 1991), and a path with another's corridors and
    more loses to it. One pass in topological order finds the route; a
    mirror-symmetric maze returns both branches, in sequence order.
    """
    region, n = seg.region, seg.n_regions
    current = 0.5 * np.abs(net).sum(axis=1)
    current.setflags(write=False)
    sinks = {int(region[iy, ix]) for ix, iy in maze.negative} - {-1}
    # A path ends at its first sink. Region n is the start: it steps to the sources.
    steps = [[] if a in sinks else np.flatnonzero(row > 0).tolist() for a, row in enumerate(net)]
    steps.append(list({int(region[iy, ix]) for ix, iy in maze.positive} - {-1}))
    while True:
        try:
            order = list(TopologicalSorter(dict(enumerate(steps))).static_order())
            break
        except CycleError as cycle:  # each region in it a step target of the next
            b, a = min(zip(cycle.args[1], cycle.args[1][1:]), key=lambda s: net[s[1], s[0]])
            steps[a].remove(b)
    corridor, currents = [not node for node in seg.is_node.tolist()], current.tolist()
    slack, top, first, level = _TIE_SLACK * tol * float(current.max()), 0, -np.inf, [0] * (n + 1)
    for c, r in sorted((c, r) for r, c in enumerate(currents) if corridor[r]):
        top, first = (top + 1, c) if c > first + slack else (top, first)
        level[r] = top  # the corridor's level, 1 the lowest; 0 for the other regions
    # A corridor outweighs any count of corridors on the levels above its own.
    weight, never = [(n + 1) ** (top - k) if k else 0 for k in level], (n + 1) ** top
    # cost: the least weight on from a region to a sink, its own included;
    # detour: a path on from it weighs more; on: the corridors one step on.
    cost, detour, on = [never] * (n + 1), [False] * (n + 1), [()] * (n + 1)
    for r in order:  # each region after the regions it steps to
        rest = min((cost[b] for b in steps[r]), default=0 if r in sinks else never)
        cost[r] = weight[r] + rest
        detour[r] = any(cost[b] < never and (cost[b] > rest or detour[b]) for b in steps[r])
        on[r] = {c for b in steps[r] for c in ((b,) if corridor[b] else on[b]) if cost[c] < never}
    if cost[n] >= never:
        raise ValueError("no downstream path joins the electrodes")
    # Walk the tied branches. A corridor one step on that no branch takes
    # next, or from which a path weighs more, starts a path off the route.
    margins, walk = [], [((), n)]
    for seq, a in walk:  # the walk grows as it is read
        rest = cost[a] - weight[a]
        for b in (b for b in on[a] if cost[b] == rest):
            walk.append((seq + (b,), b))
            margins += [abs(currents[b] - currents[c]) / max(currents[b], currents[c])
                        for c in on[a] if c != b and (cost[c] > rest or detour[c])]
    sequences = tuple(sorted(seq for seq, a in walk if cost[a] == weight[a]))
    return CurrentRoute(sequences, current, min(margins, default=None))
