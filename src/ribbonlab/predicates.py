"""Degree and colourability predicates of embedded graphs.

Eulerian and bipartite are properties of the underlying multigraph;
even-face and checkerboard colourability depend on the embedding through
the boundary components.  A face colouring is a red/blue assignment to the
boundary components such that the two sides of every edge lie on
differently coloured components.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (
    BoundaryDecomposition,
    EdgeEnd,
    HalfEdgeSegment,
    L,
    R,
    RibbonGraph,
    require_valid,
    trace_boundary,
)

RED = "red"
BLUE = "blue"


@dataclass(frozen=True)
class FaceColouring:
    """A proper 2-colouring of the boundary components of a graph."""

    decomposition: BoundaryDecomposition
    colours: tuple[str, ...]

    def colour_of_component(self, index: int) -> str:
        return self.colours[index]


def is_eulerian(g: RibbonGraph) -> bool:
    """True when every vertex has even degree (isolated vertices count as 0)."""
    require_valid(g)
    return all(v.degree % 2 == 0 for v in g.vertices)


def is_bipartite(g: RibbonGraph) -> bool:
    """Bipartiteness of the underlying multigraph; any loop is an odd cycle."""
    require_valid(g)
    at: dict[str, list[str]] = {}
    for v in g.vertices:
        for d in v.rotation:
            at.setdefault(d.edge, []).append(v.name)
    adj: dict[str, list[str]] = {v.name: [] for v in g.vertices}
    for e in g.edges:
        u, w = at[e.name]
        if u == w:
            return False
        adj[u].append(w)
        adj[w].append(u)
    colour: dict[str, int] = {}
    for v in g.vertices:
        if v.name in colour:
            continue
        colour[v.name] = 0
        stack = [v.name]
        while stack:
            cur = stack.pop()
            for other in adj[cur]:
                if other not in colour:
                    colour[other] = colour[cur] ^ 1
                    stack.append(other)
                elif colour[other] == colour[cur]:
                    return False
    return True


def face_degrees(g: RibbonGraph) -> Counter:
    """Multiset of face degrees: edge sides traversed per boundary component."""
    return Counter(trace_boundary(g).face_degrees())


def is_even_face(g: RibbonGraph) -> bool:
    return all(d % 2 == 0 for d in trace_boundary(g).face_degrees())


def face_adjacency(g: RibbonGraph, decomp: BoundaryDecomposition | None = None) -> list[tuple[str, int, int]]:
    """One link per edge, joining the components its two ribbon sides lie on."""
    decomp = decomp if decomp is not None else trace_boundary(g)
    comp_of = decomp.component_of()
    out = []
    for e in g.edges:
        end = EdgeEnd(e.name, 1)
        out.append((e.name, comp_of[HalfEdgeSegment(end, L)], comp_of[HalfEdgeSegment(end, R)]))
    return out


def checkerboard_colouring(g: RibbonGraph) -> FaceColouring | None:
    """A proper red/blue face colouring, or None when the face-adjacency
    structure has an odd cycle (in particular when any edge has both sides
    on one component).

    Deterministic: the lowest-indexed component of each face-adjacency
    component is coloured red.
    """
    decomp = trace_boundary(g)
    links = face_adjacency(g, decomp)
    n = decomp.count
    adj: list[list[int]] = [[] for _ in range(n)]
    for _, c1, c2 in links:
        if c1 == c2:
            return None
        adj[c1].append(c2)
        adj[c2].append(c1)
    colours: list[str | None] = [None] * n
    for start in range(n):
        if colours[start] is not None:
            continue
        colours[start] = RED
        stack = [start]
        while stack:
            cur = stack.pop()
            want = BLUE if colours[cur] == RED else RED
            for other in adj[cur]:
                if colours[other] is None:
                    colours[other] = want
                    stack.append(other)
                elif colours[other] != want:
                    return None
    assert all(c is not None for c in colours)
    return FaceColouring(decomp, tuple(colours))  # type: ignore[arg-type]


def is_checkerboard_colourable(g: RibbonGraph) -> bool:
    return checkerboard_colouring(g) is not None
