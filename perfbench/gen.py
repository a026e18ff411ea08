"""Seeded generator of large signed rotation systems in the graph text format.

The workbench's own ``sample_graphs`` refuses more than six edges (it shares
the enumerator's hard cap), so the pipelines workload builds its inputs here.
Everything is drawn from ``random.Random`` seeded with a string, which is
stable across interpreter runs and hash seeds, so one seed always gives
byte-identical files.
"""

from __future__ import annotations

import random


def connected_graph(rng: random.Random, edges: int) -> tuple[list[list[str]], list[int]]:
    """A connected graph with ``edges`` edges and mean degree 4.

    A random spanning tree joins the ``edges // 2`` vertices; the other
    edges join uniformly random vertex pairs (loops and parallel edges
    allowed).  Returns ``(rotations, signs)``.
    """
    nverts = max(1, edges // 2)
    order = list(range(nverts))
    rng.shuffle(order)
    ends = [(order[i], order[rng.randrange(i)]) for i in range(1, nverts)]
    while len(ends) < edges:
        ends.append((rng.randrange(nverts), rng.randrange(nverts)))
    return _embed(rng, nverts, ends)


def eulerian_graph(rng: random.Random, edges: int) -> tuple[list[list[str]], list[int]]:
    """A connected graph with ``edges`` edges, every degree even, mean degree 4.

    The edges are the steps of one closed walk that visits every vertex at
    least once, so the graph is connected and each visit adds 2 to a degree.
    """
    nverts = max(1, edges // 2)
    walk = list(range(nverts)) + [rng.randrange(nverts) for _ in range(edges - nverts)]
    rng.shuffle(walk)
    ends = [(walk[i], walk[(i + 1) % edges]) for i in range(edges)]
    return _embed(rng, nverts, ends)


def _embed(rng: random.Random, nverts: int, ends: list[tuple[int, int]]) -> tuple[list[list[str]], list[int]]:
    rotations: list[list[str]] = [[] for _ in range(nverts)]
    for i, (u, w) in enumerate(ends):
        rotations[u].append(f"e{i}.1")
        rotations[w].append(f"e{i}.2")
    for rot in rotations:
        rng.shuffle(rot)
    signs = [rng.choice((1, -1)) for _ in ends]
    return rotations, signs


def to_text(rotations: list[list[str]], signs: list[int]) -> str:
    lines = [f"vertex v{i}: {' '.join(rot)}".rstrip() for i, rot in enumerate(rotations)]
    lines += [f"edge e{i}: {'+' if s > 0 else '-'}" for i, s in enumerate(signs)]
    return "\n".join(lines) + "\n"


def ladder(seed: int, rung: int, sizes: tuple[int, ...]) -> list[tuple[int, str, str]]:
    """One rung of the pipelines ladder: ``(edges, graph_text, eulerian_twin_text)`` per size."""
    out = []
    for edges in sizes:
        rng = random.Random(f"ribbonlab-bench:{seed}:{rung}:{edges}")
        graph = to_text(*connected_graph(rng, edges))
        twin = to_text(*eulerian_graph(rng, edges))
        out.append((edges, graph, twin))
    return out
