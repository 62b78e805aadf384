"""Laws of the text format and the command line over generated graphs,
texts and flags.

``parse_graph_text(render_graph_text(g)) == g`` for every graph
``build_graph`` makes; any text over a small alphabet of names, arrows,
``node``, ``#``, whitespace and a byte-order mark either parses or
raises a :class:`GraphError`; a parsed graph's child rows mirror its
parent rows; and ``frontdoor`` run on such a text with any subcommand
and flags exits 0, 1 or 2 without a traceback.
"""

import contextlib
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from frontdoor import GraphError, build_graph, cli  # noqa: E402
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
_TEXTS = st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join)


@settings(max_examples=400, **_LAWS)
@given(_TEXTS)
def test_parse_raises_only_graph_errors(text):
    try:
        g = parse_graph_text(text)
    except GraphError:
        return
    assert parse_graph_text(render_graph_text(g)) == g


@settings(max_examples=250, **_LAWS)
@given(st.one_of(_TEXTS, _graphs().map(render_graph_text)))
def test_parsed_child_rows_mirror_parent_rows(text):
    try:
        g = parse_graph_text(text)
    except GraphError:
        return
    for u in g.nodes:
        for v in g.nodes:
            assert (v in g.children_of(u)) == (u in g.parents_of(v))


_FLAG_VALUES = {
    "--limit": st.sampled_from(["0", "1", "2", "-1", "x"]),
    "--format": st.sampled_from(["text", "json", "csv"]),
}
# each subcommand's own flags after -x and -y, its required ones first
_SUBCOMMANDS = {
    "find": ([], ["-i", "-r", "--format"]),
    "list": ([], ["-i", "-r", "--limit", "--format"]),
    "check": (["-z"], []),
    "estimand": (["-z"], ["--format"]),
}
_USUALLY = st.sampled_from([True] * 4 + [False])
_MOSTLY = st.sampled_from([True] * 9 + [False])
# name lists that are empty, name no node of any drawn graph, or are malformed
_ODD_LISTS = st.sampled_from(["", "", "B", "9x", "A,,b", ","])


@st.composite
def _cli_calls(draw):
    """A drawn text, and the arguments of one call on it: a subcommand,
    its required flags (each left out now and then), a few of its
    optional ones and now and then a flag it does not take.  Distinct
    flags mostly get disjoint lists of the text's names."""
    if draw(_USUALLY):
        g = draw(_graphs())
        text, words = render_graph_text(g), list(g.names)
    else:
        text, words = draw(_TEXTS), ["A", "b", "_c1", "B2"]
    order = draw(st.permutations(words))
    rest = order[2:]
    lists = {"-x": order[:1], "-y": order[1:2]}
    for flag in ("-i", "-r", "-z"):
        lists[flag] = draw(st.lists(st.sampled_from(rest), max_size=3, unique=True)) if rest else []

    def value(flag):
        if flag in _FLAG_VALUES:
            return draw(_FLAG_VALUES[flag])
        return ",".join(lists[flag]) if draw(_USUALLY) else draw(_ODD_LISTS)

    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    required, optional = _SUBCOMMANDS[command]
    flags = [flag for flag in ("-x", "-y", *required) if draw(_MOSTLY)]
    flags += draw(st.lists(st.sampled_from(optional), max_size=3, unique=True)) if optional else []
    if not draw(_MOSTLY):
        flags.append(draw(st.sampled_from(["-i", "-r", "-z", *_FLAG_VALUES])))
    return text, [command, *(arg for flag in flags for arg in (flag, value(flag)))]


@settings(max_examples=150, **_LAWS)
@given(_cli_calls())
def test_cli_exits_0_1_or_2(call):
    text, argv = call
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.cg")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([argv[0], "-g", path, *argv[1:]])
    assert code in (0, 1, 2), (argv, out.getvalue(), err.getvalue())
