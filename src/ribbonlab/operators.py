"""The twisted-duality operator algebra.

Per-edge operations: deletion, contraction, half-twisting (partial Petrial)
and partial duality, plus arbitrary per-edge words in the six-element group
generated by the dual ``d`` and the twist ``t`` subject to
``dd = tt = (dt)^3 = 1``.  The full geometric dual and Petrial are the
all-edge specialisations.

Partial duality is one orbit walk over the flags of the graph (see
:mod:`ribbonlab.core`): the vertices of G^A are the boundary components of
the spanning subgraph (V, A), so the walk rounds vertex corners and crosses
ribbons on A's ends, and steps across the other ends.  This is the arrow
presentation's crosswise splice of every chosen edge, read in flag terms.
Its vertices are named ``v0``, ``v1``, ... in the order the walk meets
them.  Contraction is defined from it, G/C = G^C - C, which handles loops
and twisted loops with no special cases; contraction and minors run the
same walk and drop the deleted and contracted edges' ends while they build
the result's rotations, so no intermediate graph is built.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Mapping

from .core import (
    Edge,
    EdgeEnd,
    RibbonGraph,
    UnknownEdgeError,
    Vertex,
    _orbits,
    require_valid,
)

# ---------------------------------------------------------------------------
# The per-edge group
# ---------------------------------------------------------------------------

#: The six per-edge twist words; ``dt`` means "twist first, then dualise".
TWIST_ELEMENTS = ("1", "d", "t", "dt", "td", "dtd")

_PERM = {
    "1": (0, 1, 2),
    "d": (1, 0, 2),
    "t": (0, 2, 1),
    "dt": (1, 2, 0),
    "td": (2, 0, 1),
    "dtd": (2, 1, 0),
}
_NAME = {perm: name for name, perm in _PERM.items()}

TwistWord = Mapping[str, str]


def twist_compose(after: str, before: str) -> str:
    """The word acting as ``before`` followed by ``after``."""
    pa, pb = _PERM[after], _PERM[before]
    return _NAME[tuple(pa[pb[i]] for i in range(3))]


def _check_edges(g: RibbonGraph, edges: Iterable[str]) -> tuple[str, ...]:
    known = g._edge_name_set
    out = tuple(sorted(set(edges)))
    for name in out:
        if name not in known:
            raise UnknownEdgeError(name)
    return out


# ---------------------------------------------------------------------------
# Deletion and half-twisting
# ---------------------------------------------------------------------------

def delete(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    """Remove the edges; vertices stay (possibly becoming isolated)."""
    require_valid(g)
    return _without(g, set(_check_edges(g, edges)))


def _without(g: RibbonGraph, gone: set[str]) -> RibbonGraph:
    vertices = tuple(
        Vertex(v.name, tuple(d for d in v.rotation if d.edge not in gone))
        for v in g.vertices
    )
    return RibbonGraph(vertices, tuple(e for e in g.edges if e.name not in gone))


def partial_petrial(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    """Add a half-twist to each listed edge (toggle its sign); an involution."""
    require_valid(g)
    chosen = set(_check_edges(g, edges))
    return RibbonGraph(
        g.vertices,
        tuple(Edge(e.name, -e.sign if e.name in chosen else e.sign) for e in g.edges),
    )


def petrial(g: RibbonGraph) -> RibbonGraph:
    return partial_petrial(g, g.edge_names)


# ---------------------------------------------------------------------------
# Partial duality
# ---------------------------------------------------------------------------

def partial_dual(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    """Dualise along the listed edges only.

    The arrow presentation of ``g`` (see :func:`to_arrow_presentation`) has
    one arrow at each edge-end, its endpoints the end's two flags.  Every
    listed edge is spliced in one pass: the endpoints of its two arrows are
    re-paired crosswise, head to tail, joining each flag to the one across
    the ribbon, and the circles are traced once as orbits of the flags.  A
    splice touches only its own edge's arrows, never the plain arcs between
    arrows, so splicing all edges at once gives the same ribbon graph as
    splicing them one at a time.

    Edge labels survive; vertex labels of the result are freshly generated
    (``v0``, ``v1``, ... in the order the single trace meets them) since the
    new vertices mix vertex and face identities of the input.
    ``partial_dual(g, [])`` is ``g`` itself, and dualising the same set
    twice gives a graph isomorphic to ``g``.
    """
    require_valid(g)
    chosen = set(_check_edges(g, edges))
    if not chosen:
        return g
    return _dual_without(g, chosen, set())


def _dual_without(g: RibbonGraph, chosen: set[str], gone: set[str]) -> RibbonGraph:
    """``delete(partial_dual(g, chosen), gone)`` for a valid ``g``, in one pass.

    The splice and trace are :func:`partial_dual`'s; the ends and edges in
    ``gone`` are left out while the result is built.  Deletion keeps vertex
    order and names, so vertices that lose every end stay as isolated
    vertices, exactly as the two-step chain leaves them.
    """
    if not chosen:
        return _without(g, gone)
    ends, mate, corner, side, forward = g._flags
    n = len(ends)
    spliced = [d.edge in chosen for d in ends]

    # A spliced arrow is crossed to the partner end, an unspliced one from
    # L flag to R flag.  Each end is started at its arrow's tail, then its
    # head; the walk meets an arrow forward iff it enters an unspliced one
    # at its tail or a spliced one at its head.  Slot s of the result
    # carries edge ``label[s]`` (an edge's lower end) in direction fwd[s].
    across = [side[f] if spliced[f >> 1] else f ^ 1 for f in range(2 * n)]
    starts = [f ^ 1 ^ forward[f >> 1] for f in range(2 * n)]
    orbits = _orbits(corner, across, starts)
    slots = [f for orbit in orbits for f in orbit]
    low = [i if i < m else m for i, m in enumerate(mate)]
    label = [low[f >> 1] for f in slots]
    fwd = [(f & 1 ^ 1 ^ forward[f >> 1]) == spliced[f >> 1] for f in slots]

    # As from_arrow_presentation reads it back: matching directions mean an
    # untwisted edge, and end 1 is the first slot of the edge if that arrow
    # is forward, else the second.
    result: list[EdgeEnd] = [ends[0]] * n
    new_sign: dict[str, int] = {}
    first_slot = [-1] * n
    for s, lab in enumerate(label):
        f = first_slot[lab]
        if f < 0:
            first_slot[lab] = s
            continue
        one, two = (f, s) if fwd[f] else (s, f)
        d1, d2 = ends[lab], ends[mate[lab]]
        if d1.end == 2:
            d1, d2 = d2, d1
        result[one], result[two] = d1, d2
        new_sign[d1.edge] = 1 if fwd[f] == fwd[s] else -1

    bounds = list(accumulate(map(len, orbits), initial=0))
    traced = len(orbits)
    isolated = sum(1 for v in g.vertices if not v.rotation)
    vertices = [
        Vertex(f"v{k}", tuple(d for d in result[bounds[k]:bounds[k + 1]] if d.edge not in gone))
        for k in range(traced)
    ]
    vertices.extend(Vertex(f"v{k}") for k in range(traced, traced + isolated))
    out = RibbonGraph(
        tuple(vertices),
        tuple(
            e if e.sign == new_sign[e.name] else Edge(e.name, new_sign[e.name])
            for e in g.edges
            if e.name not in gone
        ),
    )
    require_valid(out)
    return out


def geometric_dual(g: RibbonGraph) -> RibbonGraph:
    return partial_dual(g, g.edge_names)


# ---------------------------------------------------------------------------
# Contraction, minors, twist words
# ---------------------------------------------------------------------------

def contract(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    """Contract edges as G/C = G^C - C; twisted loops need no special case.

    One pass of the partial-dual splice that leaves the contracted edges
    out of the result it builds.
    """
    chosen = set(_check_edges(g, edges))
    require_valid(g)
    return _dual_without(g, chosen, chosen)


def minor(g: RibbonGraph, deleted: Iterable[str], contracted: Iterable[str]) -> RibbonGraph:
    """Delete one edge set and contract a disjoint one; order is immaterial.

    The same single pass as :func:`contract`, dropping both sets.
    """
    dset = set(deleted)
    cset = set(contracted)
    overlap = dset & cset
    if overlap:
        raise ValueError(f"cannot both delete and contract: {sorted(overlap)}")
    chosen = set(_check_edges(g, cset))
    require_valid(g)
    return _dual_without(g, chosen, set(_check_edges(g, dset)) | chosen)


def apply_twist_word(g: RibbonGraph, word: TwistWord) -> RibbonGraph:
    """Apply a per-edge word; missing edges mean the identity.

    Edges are grouped by element and each group's word runs right to left
    (``dt`` twists first, then dualises).  Actions on distinct edges
    commute, so the grouping order does not matter.
    """
    _check_edges(g, word.keys())
    for name, elem in word.items():
        if elem not in TWIST_ELEMENTS:
            raise ValueError(f"unknown twist word {elem!r} for edge {name!r}")
    out = g
    for elem in TWIST_ELEMENTS:
        group = sorted(name for name, w in word.items() if w == elem)
        if not group or elem == "1":
            continue
        for op in reversed(elem):
            if op == "t":
                out = partial_petrial(out, group)
            else:
                out = partial_dual(out, group)
    return out
