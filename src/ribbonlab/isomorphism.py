"""Isomorphism of ribbon graphs and canonical forms for deduplication.

Two ribbon graphs are isomorphic when some bijection of vertices and edges,
combined with any set of vertex flips, carries rotations to rotations (up to
cyclic shift) and signs to signs.  The canonical form relabels darts along a
deterministic traversal and minimises the serialization over every choice of
start dart and start orientation, so equality of canonical keys decides
isomorphism.  Everything here also runs on a bare dart-level encoding so the
enumerator can deduplicate without building graph objects.
"""

from __future__ import annotations

from .core import (
    Edge,
    EdgeEnd,
    RibbonGraph,
    Vertex,
    _orbits,
    graph_to_text,
    require_valid,
)

DartGraph = tuple[tuple[int, ...], tuple[int, ...], int]
"""(sigma, signs, isolated): sigma maps each dart to the next one around its
vertex, darts 2i and 2i+1 form edge i with sign signs[i], plus a count of
isolated vertices."""


def to_dart_graph(g: RibbonGraph) -> DartGraph:
    """The dart-level encoding of a valid graph, read off its flags."""
    require_valid(g)
    index = {e.name: 2 * i - 1 for i, e in enumerate(g.edges)}
    ends, _, corner, _, _, bounds = g._flags
    dart = [index[d.edge] + d.end for d in ends]
    sigma = [0] * len(dart)
    for p, x in enumerate(dart):
        # The next end round the vertex is at the corner of p's R flag.
        sigma[x] = dart[corner[2 * p + 1] >> 1]
    return tuple(sigma), tuple(e.sign for e in g.edges), sum(a == b for a, b in zip(bounds, bounds[1:]))


def from_dart_graph(dg: DartGraph) -> RibbonGraph:
    """Materialise a dart-level encoding with generated names v0.., e0.. ."""
    sigma, signs, isolated = dg
    # The vertices are the cycles of sigma, each read from its least dart.
    ident = list(range(len(sigma)))
    rotations = [
        tuple(EdgeEnd(f"e{x // 2}", x % 2 + 1) for x in cycle) for cycle in _orbits(sigma, ident, ident)
    ]
    rotations += [()] * isolated
    vertices = tuple(Vertex(f"v{i}", rot) for i, rot in enumerate(rotations))
    return RibbonGraph(vertices, tuple(Edge(f"e{i}", sign) for i, sign in enumerate(signs)))


def _components(sigma: tuple[int, ...]) -> list[list[int]]:
    n = len(sigma)
    seen = [False] * n
    out: list[list[int]] = []
    for d0 in range(n):
        if seen[d0]:
            continue
        comp = []
        stack = [d0]
        seen[d0] = True
        while stack:
            d = stack.pop()
            comp.append(d)
            for nb in (sigma[d], d ^ 1):
                if not seen[nb]:
                    seen[nb] = True
                    stack.append(nb)
        out.append(sorted(comp))
    return out


def _component_key(
    sigma: tuple[int, ...],
    inverse: list[int],
    signs: tuple[int, ...],
    vertex_of: list[int],
    comp: list[int],
) -> tuple:
    """The least serialization of one component over every start dart and
    start orientation.

    A serialization is a breadth-first walk from the start dart that visits
    each dart's successor around its vertex (``sigma``, or its inverse if
    the vertex is read reversed) and then its partner.  A vertex's reading
    direction is fixed when its first dart is reached across an edge, so
    that the edge reads untwisted; every other edge records its sign
    relative to the directions of both ends.  Reversing vertices therefore
    never changes the set of serializations, and 4E candidates suffice.
    """
    best: tuple | None = None
    for start in comp:
        for o0 in (1, -1):
            ori = {vertex_of[start]: o0}
            ids = {start: 0}
            order = [start]
            S = []
            # While S matches the best candidate's so far, a larger entry
            # loses at once (keys compare S first).
            tied = best is not None
            for i, d in enumerate(order):
                o = ori[vertex_of[d]]
                nxt = sigma[d] if o > 0 else inverse[d]
                if nxt not in ids:
                    ids[nxt] = len(order)
                    order.append(nxt)
                x = ids[nxt]
                if tied:
                    y = best[0][i]
                    if x > y:
                        break
                    tied = x == y
                S.append(x)
                p = d ^ 1
                if p not in ids:
                    ids[p] = len(order)
                    order.append(p)
                    v = vertex_of[p]
                    if v not in ori:
                        ori[v] = o * signs[d >> 1]
            else:
                key = (
                    tuple(S),
                    tuple([ids[d ^ 1] for d in order]),
                    tuple([signs[d >> 1] * ori[vertex_of[d]] * ori[vertex_of[d ^ 1]] for d in order]),
                )
                if best is None or key < best:
                    best = key
    assert best is not None
    return best


def canonical_key_darts(dg: DartGraph) -> tuple:
    sigma, signs, isolated = dg
    n = len(sigma)
    inverse = [0] * n
    vertex_of = [0] * n
    ident = list(range(n))
    for cycle in _orbits(sigma, ident, ident):
        head = cycle[0]
        for d in cycle:
            inverse[sigma[d]] = d
            vertex_of[d] = head
    keys = sorted(_component_key(sigma, inverse, signs, vertex_of, comp) for comp in _components(sigma))
    return (tuple(keys), isolated)


def canonical_key(g: RibbonGraph) -> tuple:
    """A hashable complete isomorphism invariant of a valid graph."""
    return canonical_key_darts(to_dart_graph(g))


def canonical_graph(g: RibbonGraph) -> RibbonGraph:
    """A canonical representative of g's isomorphism class, with names v0.., e0.. ."""
    keys, isolated = canonical_key(g)
    # Stitch the component serializations into one dart graph: serialized
    # dart d of a component becomes global dart at[d], numbered so that
    # partners pair as (2i, 2i+1).
    sigma = [0] * sum(len(S) for S, _, _ in keys)
    signs: list[int] = []
    for S, T, G in keys:
        at: dict[int, int] = {}
        for d in range(len(S)):
            if d not in at:
                at[d] = 2 * len(signs)
                at[T[d]] = 2 * len(signs) + 1
                signs.append(G[d])
        for d in range(len(S)):
            sigma[at[d]] = at[S[d]]
    return from_dart_graph((tuple(sigma), tuple(signs), isolated))


def canonical_text(g: RibbonGraph) -> str:
    """The canonical representative's serialization; equal for isomorphic graphs."""
    return graph_to_text(canonical_graph(g))


def are_isomorphic(g: RibbonGraph, h: RibbonGraph, *, match_edge_labels: bool = False) -> bool:
    """Decide ribbon-graph isomorphism of two valid graphs.

    With ``match_edge_labels`` the bijection on edges is forced to be the
    identity on names (vertices stay free), which is the right notion for
    identities that preserve edge labels by construction.
    """
    require_valid(g)
    require_valid(h)
    if len(g.edges) != len(h.edges) or len(g.vertex_names) != len(h.vertex_names):
        return False
    if not match_edge_labels:
        return canonical_key(g) == canonical_key(h)
    # Edges are stored sorted by name.
    return g.edge_names == h.edge_names and _labelled_search(g, h)


def _labelled_search(g: RibbonGraph, h: RibbonGraph) -> bool:
    """Find vertex images and flips carrying g to h with every edge name kept.

    Edge-ends are placed by position in the two flag structures.  Once one
    end of a component is placed (on one of its edge's two ends in h, its
    vertex flipped or not), the rest of the component is forced: a placed
    vertex's rotation maps by a shift, reversed if the vertex is flipped;
    each end's partner maps to the image's partner; and the sign rule fixes
    the flip at the partner's vertex, so a loop must keep its sign.  So
    each component needs at most four linear tries.  The caller has checked
    that the counts and edge names agree.
    """
    ends, mate, corner, side, _, _ = g._flags
    h_ends, h_mate, h_corner, h_side, _, _ = h._flags
    at = {d.edge: j for j, d in enumerate(h_ends)}

    def place(p0: int, q0: int, flip0: bool) -> dict[int, tuple[int, bool]] | None:
        """Image and flip of each end of p0's component if the forced map holds."""
        image: dict[int, tuple[int, bool]] = {}
        todo = [(p0, q0, flip0)]
        while todo:
            p, q, flipped = todo.pop()
            if p in image:
                if image[p] != (q, flipped):
                    return None
                continue
            # Round p's vertex (next end: corner of the R flag) and q's,
            # backwards if flipped, queueing each end's partner with the
            # flip the sign rule gives.
            p_start, q_start = p, q
            turn = 0 if flipped else 1
            while True:
                if ends[p].edge != h_ends[q].edge:
                    return None
                image[p] = q, flipped
                # The edge's sign differs in g and h iff its side flags differ in parity.
                toggled = (side[2 * p] ^ h_side[2 * q]) & 1
                todo.append((mate[p], h_mate[q], flipped != toggled))
                p = corner[2 * p + 1] >> 1
                q = h_corner[2 * q + turn] >> 1
                if p == p_start or q == q_start:
                    break
            if p != p_start or q != q_start:
                return None
        return image

    done: set[int] = set()
    for p in range(len(ends)):
        if p not in done:
            q = at[ends[p].edge]
            image = (
                place(p, q, False) or place(p, q, True)
                or place(p, h_mate[q], False) or place(p, h_mate[q], True)
            )
            if not image:
                return False
            done.update(image)
    return True
