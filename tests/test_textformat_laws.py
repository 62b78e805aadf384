"""Laws of the text format over generated graphs and texts.

``parse_graph_text(render_graph_text(g)) == g`` for every graph
``build_graph`` makes, and any text over a small alphabet of names,
arrows, ``node``, ``#``, whitespace and a byte-order mark either parses
or raises a :class:`GraphError`.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from frontdoor import GraphError, build_graph  # noqa: E402
from frontdoor.textformat import parse_graph_text, render_graph_text  # noqa: E402

# fixed example sequences, so a run of the suite is reproducible
_LAWS = dict(deadline=None, derandomize=True)

# names the text form must carry, the keyword ``node`` among them
_NAME_POOL = ["A", "b", "_", "node", "X1", "y_2", "Zz", "_q9", "M", "N"]


@st.composite
def _graphs(draw):
    """``build_graph`` graphs over up to 8 names: directed edges run
    forward in the drawn name order, so they are acyclic, and the node
    list declares a prefix of the names in reverse, leaving the others
    to be declared implicitly by the edges that mention them."""
    names = draw(st.lists(st.sampled_from(_NAME_POOL), min_size=1, max_size=8, unique=True))
    pairs = [(u, v) for k, u in enumerate(names) for v in names[k + 1:]]
    edges = st.lists(st.sampled_from(pairs), max_size=12) if pairs else st.just([])
    declared = names[::-1][:draw(st.integers(0, len(names)))]
    return build_graph(declared, draw(edges), draw(edges))


@settings(max_examples=250, **_LAWS)
@given(_graphs())
def test_render_parse_round_trip_law(g):
    assert parse_graph_text(render_graph_text(g)) == g


_TOKENS = ["A", "b", "_c1", "B2", "9x", "node", "->", "<->", "-", ">", "<", "#",
           " ", "\t", "\n", "\r\n", "\ufeff"]


@settings(max_examples=400, **_LAWS)
@given(st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join))
def test_parse_raises_only_graph_errors(text):
    try:
        g = parse_graph_text(text)
    except GraphError:
        return
    assert parse_graph_text(render_graph_text(g)) == g
