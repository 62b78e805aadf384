"""Polynomial-delay enumeration of all front-door adjustment sets.

The enumerator walks a binary include/exclude search tree over one
:class:`~frontdoor.search.FrontDoorEngine`.  A tree node ``(i, r)`` stands
for every admissible set ``z`` with ``i ⊆ z ⊆ r``; the node is pruned
when ``feasible(i, r)`` finds none, the same check ``find`` runs at the
root.  Sibling subtrees partition their parent's sets (one forces the
pivot in, the other bans it), so each set is emitted exactly once.

A node's pivot is the lowest-index undecided member of the largest set
``m`` that ``feasible`` returns, and both children are narrowed to
``m``: no admissible set in the interval holds a variable outside it.
Including a pivot keeps ``m``, so the include branches, walked first,
reach the leaf ``m`` with no further check: a node emits ``m`` at once
(supersets come before their subsets) and stacks the exclude branches on
the way, except those dropping a sole interceptor of a causal path,
which hold no admissible set.  So every check that succeeds emits a set,
the checks between two emissions stay within one root-to-leaf round
trip (at most ``2n + 1``), and a check runs at most ``|pool| + 1``
linear-time d-connection searches and four interception walks.  The
walk stores its stack and no answers, so memory does not grow with the
output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from .graph import ADMG, VarSet
from .search import AdjustmentQuery, EMPTY, FrontDoorEngine
# nothing here calls these two names; only bench/tracing.py uses them, to
# wrap them in this module's namespace
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

    engine = FrontDoorEngine(query)

    def walk() -> Iterator[VarSet]:
        # exclude branches still to walk, as (include set of the node that
        # stacked it, that node's largest set, banned pivot).  A deque: a
        # list emptied once resizes through the system allocator ever
        # after, and the small blocks that frees pile up until some large
        # allocation consolidates them all at once, a stall of 0.1-0.2 ms
        stack: deque[tuple[VarSet, VarSet, int]] = deque()
        inc, rest = query.i, query.r
        while True:
            stats.find_calls += 1
            largest = engine.feasible(inc, rest)
            if largest is not None:
                stats.emitted += 1
                yield largest
                pivots = largest - inc
                if pivots:
                    pivots -= engine.sole_interceptors(largest)
                stack.extend((inc, largest, v) for v in sorted(pivots))
            if not stack:
                return
            base, largest, v = stack.pop()
            inc = base | {p for p in largest if p < v}
            rest = largest - {v}

    return walk() if limit is None else islice(walk(), max(limit, 0))
