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
trip (at most ``2n + 1``).  The root check runs one linear-time
d-connection search and at most two forward walks from ``x``.  An
exclude branch's check resumes the check of the node that stacked it:
it copies that check's search state and walks, frees the pivot and
grows them by what that opens, so no check costs more than a fresh
O(n + m) one and the delay stays O(n(n + m)).  A node with exclude
branches adds one walk back from ``y``.  The walk stores its stack and
no answers: one check per tree level, O(n + m) each and shared by that
node's stacked siblings, so memory is O(depth (n + m)) and does not
grow with the output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from .errors import PreconditionError
from .graph import ADMG, VarSet
from .search import AdjustmentQuery, Check, EMPTY, FrontDoorEngine
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
    ``limit`` truncates the stream after that many sets; a negative one
    raises :class:`PreconditionError` at once.  A ``stats`` object, when
    given, is updated as the stream is consumed.
    """
    query = AdjustmentQuery(g, x, y, i, r)
    if limit is not None and limit < 0:
        raise PreconditionError(f"limit must be None or at least 0, not {limit}")
    if stats is None:
        stats = ListStats()

    engine = FrontDoorEngine(query)

    def walk() -> Iterator[VarSet]:
        # exclude branches still to walk, as (include set of the node that
        # stacked it, that node's check, banned pivot).  A deque: a list
        # emptied once resizes through the system allocator ever after,
        # and the small blocks that frees pile up until some large
        # allocation consolidates them all at once, a stall of 0.1-0.2 ms
        stack: deque[tuple[VarSet, Check, int]] = deque()
        inc, rest, parent = query.i, query.r, None
        while True:
            stats.find_calls += 1
            found = engine.largest(inc, rest, parent)
            if found is not None:
                stats.emitted += 1
                yield found.z
                stack.extend((inc, found, v) for v in sorted(engine.pivots(found, parent, inc)))
            if not stack:
                return
            base, parent, v = stack.pop()
            inc = base | {p for p in parent.z if p < v}
            rest = parent.z - {v}

    return walk() if limit is None else islice(walk(), limit)
