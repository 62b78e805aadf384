"""Regenerate the golden corpus.

Writes 200 seeded random diagrams (NNN.cg, in the CLI text format) and a
companion NNN.expected per graph holding one designated constrained query
and its brute-force family.  Run from the repository root:

    python tests/corpus/make_corpus.py

The files are committed; tests compare them against regeneration to keep
CI deterministic.
"""

import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from frontdoor.textformat import render_graph_text  # noqa: E402
from oracle import enumerate_all_oracle, random_admg  # noqa: E402

COUNT = 200
SEED_BASE = 20000

HERE = pathlib.Path(__file__).resolve().parent


def build(gid: int):
    rng = random.Random(SEED_BASE + gid)
    g = random_admg(rng, rng.randint(3, 6), rng.choice((0.2, 0.4)))
    nodes = sorted(g.nodes)
    x = rng.choice(nodes)
    y = rng.choice([v for v in nodes if v != x])
    rest = [v for v in nodes if v not in (x, y)]
    r = frozenset(v for v in rest if rng.random() < 0.8)
    i = frozenset(v for v in r if rng.random() < 0.25)
    return g, frozenset((x,)), frozenset((y,)), i, r


def expected_text(g, x, y, i, r) -> str:
    def fmt(vs):
        return ",".join(g.names_of(vs))

    lines = [f"query x={fmt(x)} y={fmt(y)} i={fmt(i)} r={fmt(r)}"]
    for z in enumerate_all_oracle(g, x, y, i, r):
        lines.append(fmt(z) if z else "-")
    return "\n".join(lines) + "\n"


def main():
    for gid in range(COUNT):
        g, x, y, i, r = build(gid)
        (HERE / f"{gid:03d}.cg").write_text(render_graph_text(g))
        (HERE / f"{gid:03d}.expected").write_text(expected_text(g, x, y, i, r))
    print(f"wrote {COUNT} graphs to {HERE}")


if __name__ == "__main__":
    main()
