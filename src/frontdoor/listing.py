"""Polynomial-delay enumeration of all front-door adjustment sets.

The enumerator walks a binary include/exclude search tree over one
:class:`~frontdoor.search.FrontDoorEngine`.  A tree node ``(i, r)`` stands
for every admissible set ``z`` with ``i ⊆ z ⊆ r``; the node is pruned
when ``feasible(i, r)`` finds none, the same check ``find`` runs at the
root.  Sibling subtrees partition their parent's sets (one forces the
pivot in, the other bans it), so each set is emitted exactly once and
the work between two emissions stays within one root-to-leaf round
trip: at most ``2n + 1`` feasibility checks.

The pivot is the lowest-index undecided variable and the include branch
is explored first, which yields supersets before their subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graph import ADMG, VarSet
from .search import AdjustmentQuery, EMPTY, FrontDoorEngine
# bench/tracing.py wraps these two names in this module's namespace
from .separation import causal_path_graph, is_separated  # noqa: F401


@dataclass
class ListStats:
    """Progress counters an enumeration run updates in place."""

    find_calls: int = 0
    emitted: int = 0


def list_adjustment_sets(
    g: ADMG,
    x: Iterable[int],
    y: Iterable[int],
    i: Iterable[int] = EMPTY,
    r: Iterable[int] | None = None,
    *,
    limit: int | None = None,
    stats: ListStats | None = None,
) -> Iterator[VarSet]:
    """Yield every front-door adjustment set ``z`` with ``i ⊆ z ⊆ r``
    relative to ``(x, y)``, each exactly once; yield nothing when none
    exists.

    The stream is lazy and deterministic: consuming ``j`` items performs
    only the work needed for them and always produces the same prefix.
    ``limit`` truncates the stream after that many sets.  A ``stats``
    object, when given, is updated as the stream is consumed.
    """
    query = AdjustmentQuery(g, x, y, i, r)
    if stats is None:
        stats = ListStats()

    # The engine's set-up, and the walkers' graphs for every seed the tree
    # can revisit across pools, are built now, before the first emission,
    # to keep the delay flat.
    engine = FrontDoorEngine(query)
    for v in engine.pool:
        engine.blocking.prepare(frozenset((v,)))

    def walk() -> Iterator[VarSet]:
        if limit is not None and limit <= 0:
            return
        emitted = 0
        stack = [(query.i, query.r)]
        while stack:
            inc, rest = stack.pop()
            stats.find_calls += 1
            if engine.feasible(inc, rest) is None:
                continue
            if inc == rest:
                stats.emitted += 1
                emitted += 1
                yield inc
                if limit is not None and emitted >= limit:
                    return
            else:
                v = min(rest - inc)
                stack.append((inc, rest - {v}))
                stack.append((inc | {v}, rest))

    return walk()
