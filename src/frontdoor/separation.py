"""d-separation testing and causal path graphs.

One Bayes-ball search (Shachter, "Bayes-Ball: The Rational Pastime", UAI
1998) decides every d-separation question here, in linear time over
states ``(node, direction of entry)`` instead of enumerating paths: a
junction at a node is a collider exactly when both touching edge ends
carry arrowheads, and the search crosses it only when the d-separation
rules leave it open.  Edges out of a fixed set stay cut, with no graph
copied; edges out of a pool start cut, and the search drops each member
it reaches (the front-door criterion's stage 2).  ``is_separated`` and
``connecting_path`` run it with an empty pool up to the first node of the
target set and report whether and by which path it got there;
``reachable`` runs it to the end and returns every node it reaches,
answering a d-separation question for each node at once;
``blocking_survivors`` returns the pool members it never reaches.

``causal_path_graph`` builds the graph of the proper causal paths from
``x`` to ``y`` in one pass.  The front-door engine does not use it: it
tests interception by walking the query graph itself.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .errors import OverlappingSetsError, PreconditionError
from .graph import ADMG, EMPTY, VarSet

_TAIL, _HEAD, _FREE = 0, 1, 2


def _search(g: ADMG, a: VarSet, c: VarSet, pool: VarSet = EMPTY, b: VarSet = EMPTY, state=None,
            fixed: VarSet = EMPTY):
    """Breadth-first search for open paths from ``a`` given ``c`` in
    ``g.remove_outgoing(fixed)``, without the copy, with the outgoing edges
    of ``pool`` cut, dropping each pool member it reaches.

    Returns ``(pred, hit, kept)``: ``pred`` maps each reached state, in the
    order reached, to the state and edge symbol (``->``, ``<-``, ``<->``)
    it was reached by (None for the start states in ``a``), ``hit`` is the
    first state reached in ``b``, where the search stops, or None once it
    has run to the end, and ``kept`` is ``fixed`` and the pool members it
    never reached.

    A member is dropped when one of its states is first dequeued.  A drop
    only adds edges (the member's outgoing ones) and only grows the
    ancestors of ``c``, so what has been reached stays reached; the drop
    expands only the exits it opens:

    - the member leaves through its tail to each child;
    - a child's state already seen with its parent exits open now also
      leaves to the member;
    - when a child is an ancestor of ``c``, the member and its uncut
      ancestors become ones too, and every head-entered state of those
      that was expanded with its collider exit shut now leaves through it.

    Each state is expanded once, plus once more through its collider exit,
    so the search is linear in the size of ``g``; no graph is copied.

    ``state``, when given, is ``(pred, anc, shut, cut)``, the containers
    the search works in, kept by the caller.  Empty, they start a fresh
    search; a copy of a finished run's resumes it: each member of its
    ``cut`` outside ``pool`` and ``fixed`` is queued as ``(v, _FREE)``,
    which runs only the drop step, and the queue runs to the end.  Freeing,
    like a drop, only adds edges and grows the ancestors of ``c``, so the
    result is a fresh search's with ``pool`` and only the states it opens
    are expanded.
    """
    pred, anc, shut, cut = ({}, set(), set(), set()) if state is None else state
    # anc: ancestors of c once the outgoing edges of cut are gone;
    # shut: nodes whose head-entered state left no collider exit
    queue: deque[tuple[int, int]] = deque()
    hit = None

    def push(state, frm, kind):
        nonlocal hit
        if state not in pred:
            pred[state] = (frm, kind)
            queue.append(state)
            if state[0] in b and hit is None:
                hit = state

    def leave_by_head(frm):
        for p in g.parents_of(frm[0]):
            if p not in cut:
                push((p, _TAIL), frm, "<-")
        for s in g.spouses_of(frm[0]):
            push((s, _HEAD), frm, "<->")

    def add_ancestors(vs):
        todo = [v for v in vs if v not in anc]
        anc.update(todo)
        while todo:
            v = todo.pop()
            if v in shut:
                leave_by_head((v, _HEAD))
            for p in g.parents_of(v):
                if p not in cut and p not in anc:
                    anc.add(p)
                    todo.append(p)

    if pred:
        queue.extend((v, _FREE) for v in sorted(cut - pool - fixed))
    else:
        cut.update(pool, fixed)
        add_ancestors(c)
        for s in sorted(a):
            pred[(s, _TAIL)] = None
            queue.append((s, _TAIL))
    while queue and hit is None:
        frm = queue.popleft()
        v, mark = frm
        children = g.children_of(v)
        if v in cut:
            if v in fixed:
                children = EMPTY
            else:
                cut.discard(v)
                if not anc.isdisjoint(children):
                    add_ancestors((v,))
                # the first seen child state whose parent exits are open leaves to v
                for w in children:
                    if (w, _TAIL) in pred and w not in c:
                        push((v, _TAIL), (w, _TAIL), "<-")
                        break
                    if (w, _HEAD) in pred and w in anc:
                        push((v, _TAIL), (w, _HEAD), "<-")
                        break
                if mark == _FREE:  # freed by a resume, not reached
                    continue
        # Leaving through a tail (v -> w) never makes v a collider;
        # leaving through a head (v <- w, v <-> w) does iff we entered
        # through a head.  c blocks every exit but a collider's, and an
        # open collider must be an ancestor of c.
        if v in c:
            if mark == _HEAD:
                leave_by_head(frm)
            continue
        for w in children:
            push((w, _HEAD), frm, "->")
        if mark == _TAIL or v in anc:
            leave_by_head(frm)
        else:
            shut.add(v)
    return pred, hit, frozenset(cut)


def _separation_query(g: ADMG, a, b, c) -> tuple[VarSet, VarSet, VarSet]:
    a = g.check_vars(a)
    b = g.check_vars(b)
    # Conditioning sets may mention nodes outside this graph (a caller can
    # hold one VarSet across derived graphs); absent nodes block nothing.
    c = frozenset(c) & g.nodes
    if not a or not b:
        raise PreconditionError("both endpoint sets must be nonempty")
    if a & b or a & c or b & c:
        raise OverlappingSetsError("endpoint and conditioning sets must be disjoint")
    return a, b, c


def is_separated(g: ADMG, a: Iterable[int], b: Iterable[int], c: Iterable[int]) -> bool:
    """True iff ``c`` d-separates ``a`` from ``b`` in ``g``."""
    a, b, c = _separation_query(g, a, b, c)
    return _search(g, a, c, b=b)[1] is None


def connecting_path(g: ADMG, a, b, c):
    """One open path from ``a`` to ``b`` given ``c`` as ``(nodes, kinds)``,
    where ``kinds[i]`` is the edge symbol between ``nodes[i]`` and
    ``nodes[i+1]``, or None when the sets are separated."""
    a, b, c = _separation_query(g, a, b, c)
    pred, hit, _ = _search(g, a, c, b=b)
    return None if hit is None else _path_to(pred, hit)


def _path_to(pred, state):
    """The path by which ``_search``'s ``pred`` first reached ``state``."""
    nodes, kinds = [state[0]], []
    while pred[state] is not None:
        state, kind = pred[state]
        nodes.append(state[0])
        kinds.append(kind)
    return nodes[::-1], kinds[::-1]


def reachable(g: ADMG, a: Iterable[int], c: Iterable[int]) -> VarSet:
    """Every node outside ``c`` joined to ``a`` by a path open given ``c``
    in ``g``, ``a`` itself included (Shachter's Bayes-ball reachable set).

    A node ``w`` outside ``a`` and ``c`` is in the result exactly when
    ``is_separated(g, a, {w}, c)`` is false; one search answers every
    ``w`` at once.
    """
    a = g.check_vars(a)
    c = frozenset(c) & g.nodes
    if a & c:
        raise OverlappingSetsError("endpoint and conditioning sets must be disjoint")
    pred = _search(g, a, c)[0]
    return frozenset(v for v, _ in pred) - c


def blocking_survivors(g: ADMG, x: VarSet, y: VarSet, pool: VarSet, state=None) -> VarSet:
    """The largest subset ``z`` of ``pool`` that no path open given ``x``
    joins to ``y`` once the outgoing edges of ``z`` are cut.

    This is the greatest fixed point of dropping the members that
    ``reachable`` from ``y`` given ``x`` finds in the graph cut at the
    remaining pool: the members that one search from ``y`` given ``x``,
    dropping each member it reaches, never reaches.  ``state`` is handed
    to that search, to keep or to resume (see ``_search``).
    """
    return _search(g, y, x, pool, state=state)[2]


def format_path(g: ADMG, path) -> str:
    nodes, kinds = path
    out = [g.names[nodes[0]]]
    for kind, v in zip(kinds, nodes[1:]):
        out.append(kind)
        out.append(g.names[v])
    return " ".join(out)


def proper_causal_path_nodes(g: ADMG, x: Iterable[int], y: Iterable[int]) -> VarSet:
    """Variables lying on proper causal paths from ``x`` to ``y``:
    descendants of ``x``, intersected with ancestors of ``y`` once edges
    out of ``x`` are gone (a walk up from ``y`` that skips ``x``)."""
    x = g.check_vars(x)
    y = g.check_vars(y)
    if x & y:
        raise OverlappingSetsError("x and y must be disjoint")
    anc, todo = set(y), list(y)
    while todo:
        new = g.parents_of(todo.pop()) - x - anc
        anc |= new
        todo += new
    return (g.descendants(x) - x) & anc


def causal_path_graph(g: ADMG, x: Iterable[int], y: Iterable[int]) -> ADMG:
    """Graph containing all and only the proper causal paths from ``x`` to
    ``y``: the directed edges of ``g`` among ``x``, ``y`` and the path
    variables, except those into ``x`` and out of ``y``, and no bidirected
    edge."""
    x = g.check_vars(x)
    y = g.check_vars(y)
    keep = x | y | proper_causal_path_nodes(g, x, y)
    heads = keep - x  # nodes that keep their incoming edges
    tails = keep - y  # nodes that keep their outgoing edges
    n = len(g.names)
    parents = tuple(g.parents_of(v) & tails if v in heads else EMPTY for v in range(n))
    children = tuple(g.children_of(v) & heads if v in tails else EMPTY for v in range(n))
    return ADMG._from_rows(g.names, keep, parents, children, (EMPTY,) * n)
