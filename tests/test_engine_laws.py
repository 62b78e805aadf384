"""Laws of ``find`` and ``list`` over drawn small ADMGs.

``find_adjustment_set`` is None exactly when ``list_adjustment_sets``
yields nothing, and otherwise its set is the union of the listed sets
(every admissible set lies inside the largest one, which is listed
first); every listed set passes ``check_criterion``, once; and a node
with no edges, added outside ``r``, changes neither answer.  The graphs
put node indices in an order unrelated to the directed edges, so the
listing's resumed checks meet shapes that the seeded tests do not: over
the 200 drawn queries, a few dozen resumed checks drop more than their
pivot and walk, and some of those walks find a missed causal path.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from frontdoor import (  # noqa: E402
    build_graph,
    check_criterion,
    find_adjustment_set,
    list_adjustment_sets,
)

# fixed example sequences, so a run of the suite is reproducible
_LAWS = dict(deadline=None, derandomize=True, max_examples=200)


@st.composite
def _queries(draw):
    """``(names, directed, bidirected, x, y, i, r)`` over 5-11 nodes: the
    sparse directed edges follow a drawn topological order, ``x`` and
    ``y`` are disjoint and nonempty, and ``i ⊆ r`` avoids both."""
    n = draw(st.integers(5, 11))
    names = [f"V{k}" for k in range(n)]
    order = draw(st.permutations(range(n)))
    forward = [(names[order[a]], names[order[b]]) for a in range(n) for b in range(a + 1, n)]
    directed = draw(st.lists(st.sampled_from(forward), min_size=n - 1, max_size=n + 2, unique=True))
    pairs = [(names[a], names[b]) for a in range(n) for b in range(a + 1, n)]
    bidirected = draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True))
    # x early and y late in the topological order, so most queries have
    # causal paths to intercept
    x = draw(st.sets(st.sampled_from(order[:n // 2]), min_size=1, max_size=2))
    y = draw(st.sets(st.sampled_from(order[-2:]), min_size=1))
    rest = [v for v in range(n) if v not in x | y]
    r = set(rest) - draw(st.sets(st.sampled_from(rest), max_size=1)) if rest else set()
    i = draw(st.sets(st.sampled_from(sorted(r)), max_size=1)) if r else set()
    return names, directed, bidirected, x, y, i, r


def _answers(names, directed, bidirected, x, y, i, r):
    g = build_graph(names, directed, bidirected)
    return find_adjustment_set(g, x, y, i, r), list(list_adjustment_sets(g, x, y, i, r))


@settings(**_LAWS)
@given(_queries())
def test_find_is_the_union_of_the_listed_sets(query):
    names, directed, bidirected, x, y, i, r = query
    found, listed = _answers(*query)
    if found is None:
        assert listed == []
    else:
        assert listed[0] == found
        assert frozenset().union(*listed) == found
    # each listed set is admissible, once, within [i, r]
    g = build_graph(names, directed, bidirected)
    assert len(set(listed)) == len(listed)
    assert all(i <= z <= r and check_criterion(g, x, y, z).satisfied for z in listed)


@settings(**_LAWS)
@given(_queries())
def test_an_isolated_node_changes_nothing(query):
    names, directed, bidirected, x, y, i, r = query
    assert _answers(names + ["W"], directed, bidirected, x, y, i, r) == _answers(*query)
