import random

import pytest

from frontdoor import build_graph

from conftest import chain_family, ix
from oracle import (
    GraphTooLargeError,
    RangeTooLargeError,
    SeparationTable,
    d_separated_oracle,
    directed_paths,
    enumerate_all_oracle,
    front_door_oracle,
    random_admg,
    simple_paths,
)


def test_dsep_oracle_canonical(canon):
    assert not d_separated_oracle(canon, ix(canon, "X"), ix(canon, "Y"), ix(canon, "Z"))


def test_dsep_oracle_collider():
    g = build_graph(["A", "C", "B"], [("A", "C"), ("B", "C")])
    assert d_separated_oracle(g, ix(g, "A"), ix(g, "B"), frozenset())
    assert not d_separated_oracle(g, ix(g, "A"), ix(g, "B"), ix(g, "C"))


def test_dsep_oracle_intro_witness(intro):
    # in the outgoing-stripped graph the walk B <- A -> D -> Y stays open
    g = intro.remove_outgoing(ix(intro, "B"))
    assert not d_separated_oracle(g, ix(intro, "B"), ix(intro, "Y"), ix(intro, "X"))


def test_fd_oracle_values(canon, intro):
    assert front_door_oracle(canon, ix(canon, "X"), ix(canon, "Y"), ix(canon, "Z"))
    x, y = ix(intro, "X"), ix(intro, "Y")
    assert front_door_oracle(intro, x, y, ix(intro, "A,C"))
    assert not front_door_oracle(intro, x, y, ix(intro, "B,C"))  # X -> A -> Y missed


def test_enumerate_intro_family(intro):
    fam = enumerate_all_oracle(intro, ix(intro, "X"), ix(intro, "Y"),
                               frozenset(), ix(intro, "A,B,C,D"))
    assert fam == [ix(intro, "A"), ix(intro, "A,B"), ix(intro, "A,B,C"), ix(intro, "A,C")]


def test_enumerate_two_chain_count():
    g = chain_family(2)
    fam = enumerate_all_oracle(g, ix(g, "X"), ix(g, "Y"), frozenset(),
                               g.observed_nodes - ix(g, "X,Y"))
    assert len(fam) == 9


def test_enumerate_respects_unsatisfiable_include(intro):
    fam = enumerate_all_oracle(intro, ix(intro, "X"), ix(intro, "Y"),
                               ix(intro, "D"), ix(intro, "A,B,C,D"))
    assert fam == []


def test_size_guards():
    big = build_graph([f"N{i}" for i in range(13)])
    with pytest.raises(GraphTooLargeError):
        d_separated_oracle(big, {0}, {1}, frozenset())
    wide = build_graph([f"N{i}" for i in range(23)], [("N0", "N22")])
    with pytest.raises(RangeTooLargeError):
        enumerate_all_oracle(wide, {0}, {22}, frozenset(), frozenset(range(1, 22)))


def test_simple_paths_marks(canon):
    paths = list(simple_paths(canon, ix(canon, "X"), ix(canon, "Y")))
    rendered = {tuple(kinds) for _, kinds in paths}
    assert rendered == {("->", "->"), ("<->",)}


def test_directed_paths(intro):
    paths = {tuple(p) for p in directed_paths(intro, ix(intro, "X"), ix(intro, "Y"))}
    by_names = {tuple(intro.names[v] for v in p) for p in paths}
    assert by_names == {
        ("X", "A", "Y"), ("X", "A", "C", "Y"), ("X", "A", "D", "Y")}


def test_separation_table_agrees_with_function():
    rng = random.Random(606)
    for _ in range(40):
        g = random_admg(rng, rng.randint(3, 5), rng.choice((0.2, 0.4)))
        table = SeparationTable(g)
        nodes = sorted(g.nodes)
        for _ in range(30):
            a = frozenset(v for v in nodes if rng.random() < 0.3)
            b = frozenset(v for v in nodes if rng.random() < 0.3) - a
            c = frozenset(v for v in nodes if rng.random() < 0.3) - a - b
            if not a or not b:
                continue
            assert table.is_separated(a, b, c) == d_separated_oracle(g, a, b, c)


def test_random_admg_is_seeded():
    a = random_admg(random.Random(5), 6, 0.4)
    b = random_admg(random.Random(5), 6, 0.4)
    assert a == b
