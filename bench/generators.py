"""Seeded input generators.

Every generator draws from the ``random.Random`` it is handed and returns
raw graphs: node names plus directed and bidirected edge lists over node
positions.  The same description feeds ``frontdoor.build_graph`` (the
program under test) and :class:`nxcheck.Dag` (the independent checks), and
renders to the ``.cg`` text format without going through ``frontdoor``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from nxcheck import Dag


@dataclass(frozen=True)
class RawGraph:
    names: tuple[str, ...]
    directed: tuple[tuple[int, int], ...]
    bidirected: tuple[tuple[int, int], ...] = ()

    @property
    def n(self) -> int:
        return len(self.names)

    def build(self, fd):
        """The graph as the program sees it, built through its public API."""
        nm = self.names
        return fd.build_graph(
            nm,
            [(nm[u], nm[v]) for u, v in self.directed],
            [(nm[u], nm[v]) for u, v in self.bidirected],
        )

    def dag(self) -> Dag:
        return Dag(self.n, self.directed, self.bidirected)

    def render(self) -> str:
        """``.cg`` text: node declarations in index order, then edges."""
        nm = self.names
        lines = [f"node {name}" for name in nm]
        lines += [f"{nm[u]} -> {nm[v]}" for u, v in self.directed]
        lines += [f"{nm[u]} <-> {nm[v]}" for u, v in self.bidirected]
        return "\n".join(lines) + "\n"


def scaling_graph(rng: random.Random, n: int, density: float = 2.6, bfrac: int = 8) -> RawGraph:
    """The acceptance suite's scaling family: a spine ``V0 -> V1 -> ...``,
    random forward edges up to ``density * n`` directed edges, and
    ``n // bfrac`` random bidirected pairs."""
    directed = {(i, i + 1) for i in range(n - 1)}
    while len(directed) < int(density * n):
        i, j = sorted(rng.sample(range(n), 2))
        directed.add((i, j))
    bidirected = set()
    while len(bidirected) < n // bfrac:
        i, j = sorted(rng.sample(range(n), 2))
        bidirected.add((i, j))
    return RawGraph(tuple(f"V{i}" for i in range(n)), tuple(sorted(directed)),
                    tuple(sorted(bidirected)))


def sparse_graph(rng: random.Random, n: int, density: float, bfrac: int) -> tuple[RawGraph, list[int]]:
    """A random ADMG whose topological order is a random permutation of
    the declaration order; returns the graph and that order."""
    order = list(range(n))
    rng.shuffle(order)
    pos = {v: k for k, v in enumerate(order)}
    directed = set()
    while len(directed) < int(density * n):
        u, v = rng.sample(range(n), 2)
        if pos[u] > pos[v]:
            u, v = v, u
        directed.add((u, v))
    bidirected = set()
    while len(bidirected) < n // bfrac:
        u, v = sorted(rng.sample(range(n), 2))
        bidirected.add((u, v))
    return (RawGraph(tuple(f"V{i}" for i in range(n)), tuple(sorted(directed)),
                     tuple(sorted(bidirected))), order)


def chain_graph(rng: random.Random, k: int) -> RawGraph:
    """``k`` mediated chains ``X -> Ai -> Bi -> Y`` plus ``X <-> Y``, which
    has exactly ``3**k`` admissible sets.  The seed shuffles the order in
    which the chains are declared and, per chain, whether ``Ai`` or ``Bi``
    comes first; that fixes the enumerator's pivot order."""
    chains = list(range(1, k + 1))
    rng.shuffle(chains)
    middle = []
    for c in chains:
        pair = [f"A{c}", f"B{c}"]
        if rng.random() < 0.5:
            pair.reverse()
        middle += pair
    names = ("X", *middle, "Y")
    pos = {name: i for i, name in enumerate(names)}
    directed = []
    for c in range(1, k + 1):
        directed += [(pos["X"], pos[f"A{c}"]), (pos[f"A{c}"], pos[f"B{c}"]),
                     (pos[f"B{c}"], pos["Y"])]
    return RawGraph(names, tuple(sorted(directed)), ((pos["X"], pos["Y"]),))


def parse_cg(text: str) -> RawGraph:
    """Read the ``.cg`` text format (``node A``, ``A -> B``, ``A <-> B``,
    ``#`` comments); nodes are numbered by first mention."""
    names: list[str] = []
    index: dict[str, int] = {}

    def node(name: str) -> int:
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return index[name]

    directed, bidirected = set(), set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("node "):
            node(line[5:].strip())
        elif "<->" in line:
            a, b = (s.strip() for s in line.split("<->"))
            u, v = node(a), node(b)
            bidirected.add((min(u, v), max(u, v)))
        else:
            a, b = (s.strip() for s in line.split("->"))
            directed.add((node(a), node(b)))
    return RawGraph(tuple(names), tuple(sorted(directed)), tuple(sorted(bidirected)))
