"""Degree and colourability predicates of embedded graphs.

Eulerian and bipartite are properties of the underlying multigraph;
even-face and checkerboard colourability depend on the embedding through
the faces, read as the memoised flag orbits.  A face colouring is a
red/blue assignment to the faces such that the two sides of every edge
lie on differently coloured faces.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .core import (
    RibbonGraph,
    _orbit_ids,
    _parity_colouring,
)

RED = "red"
BLUE = "blue"


class FaceColouring(NamedTuple):
    """A proper 2-colouring of the faces of ``graph``, in boundary order."""

    graph: RibbonGraph
    colours: tuple[str, ...]


def is_eulerian(g: RibbonGraph) -> bool:
    """True when every vertex has even degree (isolated vertices count as 0)."""
    # Every degree is even exactly when every vertex bound is.
    return not any(b & 1 for b in g._flags.bounds)


def is_bipartite(g: RibbonGraph) -> bool:
    """Bipartiteness of the underlying multigraph; any loop is an odd cycle."""
    links = [(u, w, 1) for u, w, _ in g._edge_links]
    return not _parity_colouring(len(g.vertex_names), links)[1]


def face_degrees(g: RibbonGraph) -> Counter:
    """Multiset of face degrees: edge sides traversed per boundary component."""
    return Counter(map(len, g._faces))


def is_even_face(g: RibbonGraph) -> bool:
    return all(len(face) % 2 == 0 for face in g._faces)


def checkerboard_colouring(g: RibbonGraph) -> FaceColouring | None:
    """A proper red/blue face colouring, or None when the face-adjacency
    structure has an odd cycle (in particular when any edge has both sides
    on one component).

    Deterministic: the lowest-indexed component of each face-adjacency
    component is coloured red.
    """
    fl = g._flags
    face = _orbit_ids(g._faces, fl.side)
    # One link per edge, joining the faces its two ribbon sides (the flags
    # at its end 1) lie on.  The link order cannot change the colours: they
    # are forced from each piece's lowest face, or there are none.
    links = [(face[2 * i], face[2 * i + 1], 1) for i, x in enumerate(fl.ends) if not x & 1]
    bit, bad = _parity_colouring(len(g._faces), links)
    if bad:
        return None
    return FaceColouring(g, tuple(BLUE if b else RED for b in bit))


def is_checkerboard_colourable(g: RibbonGraph) -> bool:
    return checkerboard_colouring(g) is not None
