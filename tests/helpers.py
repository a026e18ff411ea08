"""Shared graph builders and paths for the test suite."""

import random
from pathlib import Path

from ribbonlab import Edge, EdgeEnd, RibbonGraph, Vertex, parse_graph

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"

TEXTS = {
    "loop": "vertex u: a.1 a.2\nedge a: +\n",
    "twisted_loop": "vertex u: a.1 a.2\nedge a: -\n",
    "path2": "vertex u: a.1\nvertex v: a.2\nedge a: +\n",
    "torus": "vertex u: a.1 b.1 a.2 b.2\nedge a: +\nedge b: +\n",
    "bouquet": "vertex u: a.1 a.2 b.1 b.2\nedge a: +\nedge b: +\n",
    "digon": "vertex u: a.1 b.1\nvertex v: a.2 b.2\nedge a: +\nedge b: +\n",
    "triangle": (
        "vertex u: a.1 c.2\nvertex v: b.1 a.2\nvertex w: c.1 b.2\n"
        "edge a: +\nedge b: +\nedge c: +\n"
    ),
    "isolated": "vertex u:\n",
}


def graph(name: str):
    return parse_graph(TEXTS[name])


def random_graph(edges: int, seed: int) -> RibbonGraph:
    """A seeded connected ribbon graph of any size, with mean degree 4.

    A random spanning tree joins the ``edges // 2`` vertices and the other
    edges join random vertex pairs (loops and parallel edges allowed).
    Rotations are shuffled and each edge is twisted with probability 1/2.
    """
    rng = random.Random(f"random_graph:{edges}:{seed}")
    n = max(1, edges // 2)
    pairs = [(i, rng.randrange(i)) for i in range(1, n)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(edges - len(pairs))]
    rotations: list[list[EdgeEnd]] = [[] for _ in range(n)]
    for k, (u, w) in enumerate(pairs):
        rotations[u].append(EdgeEnd(f"e{k}", 1))
        rotations[w].append(EdgeEnd(f"e{k}", 2))
    for rot in rotations:
        rng.shuffle(rot)
    return RibbonGraph(
        tuple(Vertex(f"v{i}", tuple(rot)) for i, rot in enumerate(rotations)),
        tuple(Edge(f"e{k}", rng.choice((1, -1))) for k in range(edges)),
    )
