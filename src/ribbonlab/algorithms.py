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

from typing import NamedTuple

from .core import (
    RibbonGraph,
    RibbonGraphError,
    _edge_mask,
    _flip_vertices,
    _orbit_ids,
    _orbits,
    _orientation_parity,
    _parity_colouring,
    oriented_form,
)
from .medial import InternalInvariantError, _straight_ahead, d_edges
from .operators import partial_dual, partial_petrial, twist_compose
from .predicates import (
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
    return tuple(g.edge_names[i] for i in _orientation_parity(g)[1])


class TwistedDualCertificate(NamedTuple):
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
        return {
            name: twist_compose("d" if name in d else "1", "t" if name in a else "1")
            for name in sorted(a | d)
        }


def checkerboard_twisted_dual(g: RibbonGraph, *, seed: int = 0) -> TwistedDualCertificate:
    """Produce a checkerboard colourable twisted dual of any ribbon graph.

    Twist the orienting set, direct the medial along straight-ahead walks,
    dualise along the d-edges.  The walks and the c/d rule run on the flags
    of the oriented host, the medial graph's ports, without building it.  A
    missing final colouring would be an implementation bug, never a valid
    outcome, and raises :class:`InternalInvariantError`.
    """
    bit, bad = _orientation_parity(g)
    petrial_set = tuple(g.edge_names[i] for i in bad)
    oriented = partial_petrial(g, petrial_set)
    # Twisting the links the bits violate makes the bits satisfy every link,
    # so flipping by them orients the twisted graph.
    host = _flip_vertices(oriented, {name for name, b in zip(g.vertex_names, bit) if b})
    dual_set = d_edges(_straight_ahead(host, seed)[1])
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

def _corner_bits(g: RibbonGraph) -> bytes:
    """Per flag, 0 for the first corner colour and 1 for the second, on a
    valid graph of even degrees.

    Corner ``k`` of a vertex gets bit ``k % 2``; flag ``2i + 1`` (the ``R``
    side of edge-end ``i``) touches corner ``i`` and flag ``2i`` the one
    before it.  Every vertex starts at an even position, so the bits repeat
    1, 0, 0, 1 over each two edge-ends.
    """
    return b"\x01\x00\x00\x01" * (len(g._flags.ends) // 2)


def _inconsistent(g: RibbonGraph, col) -> tuple[str, ...]:
    """The edges, by name, whose ribbon side at end 1's ``L`` flag joins
    two flags of different colours ``col``: the edges across which the
    corner colouring fails to propagate.  The two flags of an edge-end
    always differ, so that side decides for both; half-twisting an edge
    swaps which far-end flags its sides meet and toggles its membership."""
    ends, _, side, _, _ = g._flags
    names = g.edge_names
    return tuple(sorted(names[x >> 1] for i, x in enumerate(ends) if not x & 1 and col[2 * i] != col[side[2 * i]]))


class PartialPetrialCertificate(NamedTuple):
    twisted: tuple[str, ...]
    result: RibbonGraph
    colouring: FaceColouring


def checkerboard_partial_petrial(g: RibbonGraph) -> PartialPetrialCertificate:
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
    # Swapping the two colours changes no output.
    col = _corner_bits(g)
    twisted = _inconsistent(g, col)
    result = partial_petrial(g, twisted)
    # A partial Petrial keeps the rotations, so ``col`` colours its flags.
    side = result._flags.side
    for orbit in result._faces:
        if len({col[h] for f in orbit for h in (f, side[f])}) > 1:
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
    removed = _edge_mask(oriented, edges)
    ends, corner, side, _, _ = oriented._flags
    cut = [removed[x >> 1] for x in ends]
    across = [f ^ 1 if cut[f >> 1] else s for f, s in enumerate(side)]
    orbits = _orbits(corner, across, range(len(across)))
    comp = _orbit_ids(orbits, across)
    # One link per edge, at its end 1: a kept edge's two ribbon sides, a removed
    # edge's two attachment arcs (its partner's holds the flag across the ribbon).
    links = [
        (comp[2 * i], comp[side[2 * i] if cut[i] else 2 * i + 1], 1)
        for i, x in enumerate(ends)
        if not x & 1
    ]
    return not _parity_colouring(len(orbits), links)[1]
