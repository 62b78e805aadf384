import pytest

import frontdoor
from frontdoor import (
    ADMG,
    CyclicGraphError,
    DuplicateNodeError,
    SelfLoopError,
    UnknownNodeError,
    build_graph,
)

from conftest import ix


def test_build_canonical(canon):
    assert canon.names == ("X", "Z", "Y")
    assert canon.nodes == frozenset({0, 1, 2})
    assert canon.directed_edges == {(0, 1), (1, 2)}
    assert canon.bidirected_edges == {(0, 2)}


def test_build_single_node():
    g = build_graph(["A"])
    assert g.names == ("A",)
    assert not g.directed_edges and not g.bidirected_edges


def test_build_rejects_two_cycle():
    with pytest.raises(CyclicGraphError):
        build_graph(["X", "Y"], [("X", "Y"), ("Y", "X")])


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph(["X"], [("X", "X")])
    with pytest.raises(SelfLoopError):
        build_graph(["X"], bidirected=[("X", "X")])


def test_build_rejects_duplicates_and_bad_names():
    with pytest.raises(DuplicateNodeError):
        build_graph(["A", "A"])
    with pytest.raises(ValueError):
        build_graph(["1abc"])


def test_implicit_declaration_order():
    g = build_graph(["X"], [("X", "Z"), ("Z", "Y")], [("X", "Y")])
    assert g.names == ("X", "Z", "Y")
    with pytest.raises(UnknownNodeError):
        build_graph(["X"], [("X", "Z")], declare_implicitly=False)


def test_kinship_closures(canon):
    assert canon.ancestors(ix(canon, "Y")) == ix(canon, "X,Z,Y")
    assert canon.descendants(ix(canon, "Z")) == ix(canon, "Z,Y")
    assert canon.ancestors(frozenset()) == frozenset()


@pytest.mark.parametrize("edge", [(True, 1), (False, 1), (0, True)])
def test_constructor_rejects_bool_index(edge):
    # bool is a subclass of int: True must not stand for node 1
    with pytest.raises(UnknownNodeError):
        ADMG(["A", "B"], [edge])
    with pytest.raises(UnknownNodeError):
        ADMG(["A", "B"], bidirected=[edge])


def test_closure_rejects_foreign_index(canon):
    with pytest.raises(UnknownNodeError):
        canon.ancestors({7})


def test_remove_outgoing(canon):
    g = canon.remove_outgoing(ix(canon, "X"))
    assert g.directed_edges == {(1, 2)}
    assert g.bidirected_edges == {(0, 2)}
    assert canon.remove_outgoing(frozenset()) == canon
    bare = canon.remove_outgoing(ix(canon, "X,Z,Y"))
    assert bare.directed_edges == frozenset()
    assert bare.bidirected_edges == {(0, 2)}


def test_transforms_idempotent(canon, intro):
    for g in (canon, intro):
        for s in (ix(g, "X"), ix(g, "X,Y")):
            assert g.remove_outgoing(s).remove_outgoing(s) == g.remove_outgoing(s)


def test_name_round_trips(intro):
    assert intro.index_of("C") == 3
    assert intro.names_of(ix(intro, "D,A")) == ["A", "D"]
    with pytest.raises(UnknownNodeError):
        intro.index_of("missing")


def test_unknown_indices_of_mixed_types(canon):
    # strays that do not sort together still raise UnknownNodeError; the
    # message for integer strays is unchanged
    with pytest.raises(UnknownNodeError, match=r"indices \[7, 'Y'\] are not nodes"):
        frontdoor.find_adjustment_set(canon, {0}, {"Y", 7})
    with pytest.raises(UnknownNodeError, match=r"indices \[3, None\] are not nodes"):
        canon.check_vars([None, 3, 1])
    with pytest.raises(UnknownNodeError, match=r"^indices \[5, 9, 10\] are not nodes of this graph$"):
        canon.check_vars([10, 5, 9, 0])


def test_export_list():
    exported = frontdoor.__all__
    assert len(set(exported)) == len(exported)
    assert all(hasattr(frontdoor, name) for name in exported)
    removed = {"MoralGraph", "RemovedNodeError", "UnexpandedBidirectedError",
               "observed_neighbors", "GraphTooLargeError", "RangeTooLargeError",
               "AlreadyExpandedError"}
    assert not removed & set(exported)
