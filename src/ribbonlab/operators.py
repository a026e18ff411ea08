"""The twisted-duality operator algebra.

Per-edge operations: deletion, contraction, half-twisting (partial Petrial)
and partial duality, plus arbitrary per-edge words in the six-element group
generated by the dual ``d`` and the twist ``t`` subject to
``dd = tt = (dt)^3 = 1``.  Since ``dtd = tdt``, each element is
``t^c d^b t^a``, so a word is one partial Petrial, one partial dual and one
partial Petrial.  The full geometric dual and Petrial are the all-edge
specialisations.

Partial duality is one orbit walk over the flags of the graph (see
:mod:`ribbonlab.core`): the vertices of G^A are the boundary components of
the spanning subgraph (V, A), so the walk rounds vertex corners and crosses
ribbons on A's ends, and steps across the other ends.  This is the arrow
presentation's crosswise splice of every chosen edge, read in flag terms.
Its vertices are named ``v0``, ``v1``, ... in the order the walk meets
them.  Contraction is G/C = G^C - C, with no special case for loops or
twisted loops; contraction and minors run the same walk and skip the
deleted and contracted edges' ends, so no intermediate graph is built.
Every result is born with its flags, which hold every sign: the walk
emits them, deletion filters the input's, and a half-twist swaps sides on
the chosen ends.  Edges are chosen as masks over their ranks.  A result's
edge names are the input's, filtered by deletion and contraction, which
renumber the kept darts to the kept ranks.  Every graph is valid from its
construction, so no operator checks its input, and a result is stored
without a check; its ``Vertex`` and ``Edge`` tuples are built only if read.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Mapping

from .core import (
    RibbonGraph,
    _edge_mask,
    _flag_layout,
    _from_flags,
    _twist_flags,
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
#: Each element as ``t^c d^b t^a``, the bits (a, b, c) read right to left.
_NORMAL_FORM = {"1": (0, 0, 0), "d": (0, 1, 0), "t": (1, 0, 0), "dt": (1, 1, 0), "td": (0, 1, 1), "dtd": (1, 1, 1)}
_PRODUCT = {
    (x, y): _NAME[tuple(px[py[i]] for i in range(3))] for x, px in _PERM.items() for y, py in _PERM.items()
}

TwistWord = Mapping[str, str]


def twist_compose(after: str, before: str) -> str:
    """The word acting as ``before`` followed by ``after``."""
    return _PRODUCT[after, before]


# ---------------------------------------------------------------------------
# Deletion and half-twisting
# ---------------------------------------------------------------------------

def delete(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    """Remove the edges; vertices stay (possibly becoming isolated)."""
    return _without(g, _edge_mask(g, edges))


def _without(g: RibbonGraph, gone: list[int]) -> RibbonGraph:
    # The result's flags are the input's on the kept ends, renumbered: a
    # kept end's new position is the count of kept ends before it.
    ends, mate, _, side, _, bounds = g._flags
    keep = [not gone[x >> 1] for x in ends]
    at = list(accumulate(keep, initial=0))
    kept = [p for p, k in enumerate(keep) if k]
    before, edge_names = _kept(g, gone)
    fl = _flag_layout(
        [ends[p] - 2 * before[ends[p] >> 1] for p in kept],
        [at[mate[p]] for p in kept],
        [not side[2 * p] & 1 for p in kept],
        [at[b] for b in bounds],
    )
    return _from_flags(fl, g.vertex_names, edge_names)


def _kept(g: RibbonGraph, gone: list[int]) -> tuple[list[int], tuple[str, ...]]:
    """Per edge, how many edges in ``gone`` rank before it (its darts drop by twice that); the kept names."""
    if not any(gone):
        return gone, g.edge_names  # all zeros
    before, kept, k = [], [], 0
    for name, d in zip(g.edge_names, gone):
        before.append(k)
        k += d
        if not d:
            kept.append(name)
    return before, tuple(kept)


def partial_petrial(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    """Add a half-twist to each listed edge (toggle its sign); an involution.
    ``partial_petrial(g, [])`` is ``g`` itself."""
    chosen = _edge_mask(g, edges)
    if not any(chosen):
        return g
    return _from_flags(_twist_flags(g._flags, chosen), g.vertex_names, g.edge_names)


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
    chosen = _edge_mask(g, edges)
    if not any(chosen):
        return g
    return _dual_without(g, chosen, [0] * len(chosen))


def _dual_without(g: RibbonGraph, chosen: list[int], gone: list[int]) -> RibbonGraph:
    """``delete(partial_dual(g, chosen), gone)`` for a valid ``g``, in one
    pass, the two edge sets given as masks over edge ranks.

    The splice and trace are :func:`partial_dual`'s; the ends and edges in
    ``gone`` are left out while the result is built.  Deletion keeps vertex
    order and names, so vertices that lose every end stay as isolated
    vertices, exactly as the two-step chain leaves them.
    """
    if not any(chosen):
        return _without(g, gone)
    ends, _, corner, side, forward, old_bounds = g._flags
    n = len(ends)

    # A spliced arrow is crossed to the partner end, an unspliced one from
    # L flag to R flag.  Each end is started at its arrow's tail, then its
    # head; the walk meets an arrow forward iff it enters an unspliced one
    # at its tail or a spliced one at its head.  Each flag crossed from is
    # the result's next slot unless its end is ``gone``; a slot gets its
    # dart, partner slot and twist as from_arrow_presentation reads arrows
    # back: matching directions mean untwisted, and end 1 (the even dart)
    # is the edge's first slot if that arrow is forward, else its second.
    new_ends = [0] * n
    new_mate = [0] * n
    twisted = [False] * n
    bounds = [0]
    first: dict[int, tuple[int, bool]] = {}
    before, edge_names = _kept(g, gone)
    seen = bytearray(2 * n)
    s = 0
    for f0 in range(2 * n):
        f0 ^= 1 ^ forward[f0 >> 1]
        if seen[f0]:
            continue
        f = f0
        while True:
            p = f >> 1
            x = ends[p]
            j = x >> 1
            spliced = chosen[j]
            h = side[f] if spliced else f ^ 1
            seen[f] = seen[h] = 1
            if not gone[j]:
                fwd = (f & 1 ^ 1 ^ forward[p]) == spliced
                if j in first:
                    t, t_fwd = first[j]
                    x -= 2 * before[j]
                    new_ends[t], new_ends[s] = (x, x ^ 1) if (not x & 1) == t_fwd else (x ^ 1, x)
                    new_mate[t], new_mate[s] = s, t
                    twisted[t] = twisted[s] = t_fwd != fwd
                else:
                    first[j] = s, fwd
                s += 1
            f = corner[h]
            if f == f0:
                break
        bounds.append(s)
    del new_ends[s:], new_mate[s:], twisted[s:]
    bounds.extend(s for a, b in zip(old_bounds, old_bounds[1:]) if a == b)

    names = tuple([f"v{k}" for k in range(len(bounds) - 1)])
    return _from_flags(_flag_layout(new_ends, new_mate, twisted, bounds), names, edge_names)


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
    chosen = _edge_mask(g, edges)
    return _dual_without(g, chosen, chosen)


def minor(g: RibbonGraph, deleted: Iterable[str], contracted: Iterable[str]) -> RibbonGraph:
    """Delete one edge set and contract a disjoint one; order is immaterial.

    The same single pass as :func:`contract`, dropping both sets.
    """
    dset, cset = dict.fromkeys(deleted), dict.fromkeys(contracted)  # in the order given
    overlap = dset.keys() & cset
    if overlap:
        raise ValueError(f"cannot both delete and contract: {sorted(overlap)}")
    chosen = _edge_mask(g, cset)
    return _dual_without(g, chosen, _edge_mask(g, dset | cset))


def apply_twist_word(g: RibbonGraph, word: TwistWord) -> RibbonGraph:
    """Apply a per-edge word; missing edges mean the identity.

    A word acts right to left (``dt`` twists first, then dualises).  Each
    element is ``t^c d^b t^a`` (``dtd = tdt``), so the word is a partial
    Petrial on the edges with ``a`` set, a partial dual on those with ``b``
    set and a partial Petrial on those with ``c`` set: one dual walk at most.
    """
    _edge_mask(g, word.keys())
    for name, elem in word.items():
        if elem not in TWIST_ELEMENTS:
            raise ValueError(f"unknown twist word {elem!r} for edge {name!r}")
    first, dual, last = ([name for name, elem in word.items() if _NORMAL_FORM[elem][i]] for i in range(3))
    return partial_petrial(partial_dual(partial_petrial(g, first), dual), last)
