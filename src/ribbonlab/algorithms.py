"""Constructive checkerboard-colourability algorithms.

Two pipelines, both returning certificates that carry the witness data:

* :func:`checkerboard_twisted_dual` works for every ribbon graph: twist a
  set ``A`` of edges to reach an orientable graph, direct its medial along
  straight-ahead walks, take ``D`` = the d-edges of the induced crossing
  classification, and dualise along ``D``.  The result is always
  checkerboard colourable.

* :func:`checkerboard_partial_petrial` works for every Eulerian graph:
  colour the corners of every vertex alternately red/blue, twist the edges
  across which the corner colours fail to propagate, and the boundary
  components of the twisted graph become monochromatic with opposite
  colours across every edge.

:func:`has_alternating_boundary_orientation` is the boundary criterion
equivalent to checkerboard colourability of the partial dual, decided by
2-colouring a constraint graph in linear time.  It never builds the dual,
but it shares the parity solver with the dual's colouring, so the tests
check both against brute-force references that share no code with them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    EdgeEnd,
    HalfEdgeSegment,
    L,
    R,
    RibbonGraph,
    RibbonGraphError,
    _edge_endpoints,
    _orbits,
    _parity_colouring,
    cross_edge,
    oriented_form,
    require_valid,
    trace_boundary,
)
from .medial import (
    InternalInvariantError,
    build_medial,
    classify_cd,
    d_edges,
    straight_ahead_direction,
)
from .operators import _check_edges, partial_dual, partial_petrial
from .predicates import (
    BLUE,
    RED,
    FaceColouring,
    checkerboard_colouring,
    is_eulerian,
)


class NotEulerianError(RibbonGraphError):
    """An Eulerian graph (all degrees even) was required."""


# ---------------------------------------------------------------------------
# Orienting twist set + the twisted-dual pipeline
# ---------------------------------------------------------------------------

def orienting_petrial_set(g: RibbonGraph) -> tuple[str, ...]:
    """An edge set whose half-twists make the graph orientable.

    Breadth-first spanning-tree vertex bits force tree edges to be
    compatible; the set is the edges they leave incompatible, which are
    non-tree edges and every twisted loop.  An orientable graph yields the
    empty set.  Not minimised beyond that: any orientable partial Petrial
    will do.
    """
    require_valid(g)
    links = [(u, w, e.sign < 0) for e, (u, w) in zip(g.edges, _edge_endpoints(g))]
    return tuple(g.edges[i].name for i in _parity_colouring(len(g.vertices), links)[1])


@dataclass(frozen=True)
class TwistedDualCertificate:
    """Witness for a checkerboard colourable twisted dual.

    ``result`` equals ``partial_dual(partial_petrial(g, petrial_set), dual_set)``
    and ``colouring`` is a valid checkerboard colouring of it.
    """

    petrial_set: tuple[str, ...]
    dual_set: tuple[str, ...]
    result: RibbonGraph
    colouring: FaceColouring

    def twist_word(self) -> dict[str, str]:
        """The per-edge word carrying the input to ``result``, in edge-name order."""
        a, d = set(self.petrial_set), set(self.dual_set)
        out = {}
        for name in sorted(a | d):
            if name in a and name in d:
                out[name] = "dt"
            elif name in a:
                out[name] = "t"
            else:
                out[name] = "d"
        return out


def checkerboard_twisted_dual(g: RibbonGraph, *, seed: int = 0) -> TwistedDualCertificate:
    """Produce a checkerboard colourable twisted dual of any ribbon graph.

    Twist the orienting set, direct the medial along straight-ahead walks,
    dualise along the d-edges.  A missing final colouring would be an
    implementation bug, never a valid outcome, and raises
    :class:`InternalInvariantError`.
    """
    petrial_set = orienting_petrial_set(g)
    oriented = partial_petrial(g, petrial_set)
    m = build_medial(oriented)
    direction = straight_ahead_direction(m, seed=seed)
    cls = classify_cd(m, direction)
    dual_set = d_edges(cls)
    result = partial_dual(oriented, dual_set)
    colouring = checkerboard_colouring(result)
    if colouring is None:
        raise InternalInvariantError(
            "twisted-dual pipeline produced a non-colourable graph"
        )
    return TwistedDualCertificate(petrial_set, dual_set, result, colouring)


# ---------------------------------------------------------------------------
# Vertex corner colouring + the partial-Petrial pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexColouring:
    """Alternating red/blue corner colours at every (even-degree) vertex.

    Corner ``i`` of a vertex is the vertex line segment between rotation
    positions ``i`` and ``i+1``; each half-edge segment inherits the colour
    of the corner it touches.
    """

    corners: tuple[tuple[str, tuple[str, ...]], ...]
    half_edge: dict[HalfEdgeSegment, str]

    def colour(self, segment: HalfEdgeSegment) -> str:
        return self.half_edge[segment]


def vertex_checkerboard_colouring(g: RibbonGraph, *, first_colour: str = RED) -> VertexColouring:
    """Colour every vertex's corners alternately, starting ``first_colour``
    at rotation index 0.  Odd-degree vertices make alternation impossible
    and raise :class:`NotEulerianError`."""
    require_valid(g)
    if first_colour not in (RED, BLUE):
        raise ValueError(f"unknown colour {first_colour!r}")
    second = BLUE if first_colour == RED else RED
    corners: list[tuple[str, tuple[str, ...]]] = []
    half: dict[HalfEdgeSegment, str] = {}
    for v in g.vertices:
        m = v.degree
        if m % 2:
            raise NotEulerianError(f"vertex {v.name} has odd degree {m}")
        cols = tuple(first_colour if i % 2 == 0 else second for i in range(m))
        corners.append((v.name, cols))
        for i, d in enumerate(v.rotation):
            half[HalfEdgeSegment(d, R)] = cols[i]
            half[HalfEdgeSegment(d, L)] = cols[i - 1]
    return VertexColouring(tuple(corners), half)


def inconsistent_edges(g: RibbonGraph, vc: VertexColouring) -> tuple[str, ...]:
    """Edges across which the corner colouring fails to propagate.

    An edge is consistent when the two half-edge segments on each of its
    ribbon sides carry equal colours (the sides then automatically carry
    opposite colours, because the two segments at any edge-end always
    differ).  Half-twisting an edge swaps which far-end segments its sides
    meet, so a twist toggles membership here.
    """
    signs = g.signs()
    out = []
    for e in g.edges:
        seg = HalfEdgeSegment(EdgeEnd(e.name, 1), L)
        if vc.colour(seg) != vc.colour(cross_edge(g, seg, signs)):
            out.append(e.name)
    return tuple(sorted(out))


@dataclass(frozen=True)
class PartialPetrialCertificate:
    twisted: tuple[str, ...]
    result: RibbonGraph
    colouring: FaceColouring


def checkerboard_partial_petrial(
    g: RibbonGraph, *, first_colour: str = RED
) -> PartialPetrialCertificate:
    """Produce a checkerboard colourable partial Petrial of an Eulerian graph.

    Twisting exactly the inconsistent edges makes every edge consistent, so
    every boundary component of the result is monochromatic under the
    inherited segment colours and the two sides of each edge lie on
    differently coloured components.  Raises :class:`NotEulerianError` on
    odd degrees and :class:`InternalInvariantError` if the final colouring
    does not exist.
    """
    if not is_eulerian(g):
        raise NotEulerianError("graph has a vertex of odd degree")
    vc = vertex_checkerboard_colouring(g, first_colour=first_colour)
    twisted = inconsistent_edges(g, vc)
    result = partial_petrial(g, twisted)
    for comp in trace_boundary(result).components:
        colours = {vc.colour(seg) for seg in comp.segments}
        if len(colours) > 1:
            raise InternalInvariantError(
                "boundary component of the twisted graph is not monochromatic"
            )
    colouring = checkerboard_colouring(result)
    if colouring is None:
        raise InternalInvariantError(
            "partial-Petrial pipeline produced a non-colourable graph"
        )
    return PartialPetrialCertificate(twisted, result, colouring)


# ---------------------------------------------------------------------------
# The boundary-orientation criterion
# ---------------------------------------------------------------------------

def has_alternating_boundary_orientation(g: RibbonGraph, edges) -> bool:
    """Boundary-orientation criterion for ``delete(g, edges)``.

    Decides whether some +/- assignment to the boundary components of the
    deleted graph gives each kept edge one positive and one negative ribbon
    side and each removed edge one positive and one negative attachment
    arc.  (A component's sign applies to all segments on it, the graph
    being orientable.)  The components are the orbits of the oriented
    host's flags under corner and, per end, ``side`` if kept or ``end`` if
    removed, so a removed end lies on its attachment arc's component.
    Every constraint says "these two components differ", so this is
    2-colourability of the constraint graph, decided by the parity solver
    that also colours faces.  It holds exactly when
    ``partial_dual(g, edges)`` is checkerboard colourable; as the two share
    that solver, the tests check each against a brute-force reference.

    Raises :class:`NotOrientableError` for non-orientable input and
    :class:`UnknownEdgeError` for an unknown edge name.
    """
    oriented, _ = oriented_form(g)  # raises NotOrientableError when impossible
    removed = set(_check_edges(oriented, edges))
    ends, mate, corner, side, _ = oriented._flags
    cut = [d.edge in removed for d in ends]
    across = [f ^ 1 if cut[f >> 1] else s for f, s in enumerate(side)]
    orbits = _orbits(corner, across, range(len(across)))
    comp = [0] * len(across)
    for k, orbit in enumerate(orbits):
        for f in orbit:
            comp[f] = comp[across[f]] = k
    # One link per edge, at its end 1: a kept edge's two ribbon sides, a
    # removed edge's two attachment arcs.
    links = [
        (comp[2 * i], comp[2 * mate[i] if cut[i] else 2 * i + 1], 1)
        for i, d in enumerate(ends)
        if d.end == 1
    ]
    return not _parity_colouring(len(orbits), links)[1]
