"""Isomorphism of ribbon graphs and canonical forms for deduplication.

Two ribbon graphs are isomorphic when some bijection of vertices and edges,
combined with any set of vertex flips, carries rotations to rotations (up to
cyclic shift) and signs to signs.  The canonical form relabels darts along a
deterministic traversal and minimises the serialization over every choice of
start dart and start orientation, so equality of canonical keys decides
isomorphism.  The key walks arrays read once off a graph's flags, whose
edge-end positions are the darts, and a sign per dart, reading no edge
names; so the enumerator reads the arrays of one graph per vertex structure
and keys each sign vector from them and its own sign list.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    RibbonGraph,
    _flag_layout,
    _Flags,
    _from_flags,
    _positions,
    _root,
    graph_to_text,
)


def _permutation_graph(sigma: Sequence[int], signs: Sequence[int], isolated: int) -> RibbonGraph:
    """The graph whose darts ``2i, 2i+1`` form edge ``e<i>`` with sign
    ``signs[i]`` and whose vertices are the cycles of ``sigma`` (each dart
    to the next one round its vertex), named ``v0..`` in order of their
    least dart and read from it, then ``isolated`` vertices without ends.
    In the flags edge ``e<i>`` is its name's rank.  Laid out as flags and
    valid by construction, so it is never validated."""
    at = [-1] * len(sigma)  # each dart's position in vertex order
    darts: list[int] = []
    bounds = [0]
    for d in range(len(sigma)):
        while at[d] < 0:
            at[d] = len(darts)
            darts.append(d)
            d = sigma[d]
        if len(darts) > bounds[-1]:
            bounds.append(len(darts))
    bounds += [len(darts)] * isolated
    order = sorted(range(len(signs)), key=str)  # edge numbers by name: e0, e1, e10, e11, e2, ...
    rank = _positions(order)
    ends = [2 * rank[x >> 1] | x & 1 for x in darts]
    fl = _flag_layout(ends, [at[x ^ 1] for x in darts], [signs[x >> 1] < 0 for x in darts], bounds)
    edge_names = tuple([f"e{i}" for i in order])
    return _from_flags(fl, tuple(f"v{k}" for k in range(len(bounds) - 1)), edge_names)


def _component_key(
    walk: tuple,
    sign: list[int],
    first: int,
    ids: list[int],
    ori: list[int],
    parent: list[int],
    done: bytearray,
    ties: list[tuple[list[int], list[int]]],
    memo: dict,
    below: int,
) -> tuple[tuple, list[int]]:
    """The least serialization of the component of dart ``first`` over
    every start dart and start orientation, and the component's darts;
    ``walk`` holds the arrays of :func:`_walk_arrays`.

    A serialization is a breadth-first walk from the start dart that visits
    each dart's successor around its vertex (``nxt``, or ``prv`` if the
    vertex is read reversed) and then the other end of its edge
    (``partner``).  A vertex's reading direction is fixed when its first
    dart is reached across an edge, so that the edge reads untwisted;
    every other edge records its sign relative to the directions of both
    ends.  Reversing vertices
    therefore never changes the set of serializations, and 4E candidates
    suffice.

    Two candidates whose walks read the same key define an automorphism,
    which carries every candidate to one with the same key.  From the first
    such tie on, candidates ``2d`` (forward from dart d) and ``2d + 1``
    (reversed) are merged by each automorphism found in a union-find
    (``parent``, empty until then), and a candidate is skipped when its
    class already holds a walked one (``done``).  The union-find is shared
    by the components of one graph, whose candidates are disjoint; ``ids``
    (all -1) and ``ori`` (all 0) are scratch, restored before returning.
    Each tie appends its two walks ``(a, b)``, an automorphism, to ``ties``.

    ``memo`` maps a first walk (forward from ``first``) to the least key and
    the ties, as positions in that walk, of the component it reads: equal
    first walks read isomorphic rooted components, so a hit skips every
    other candidate and carries its ties over through the current walk.  A
    component with fewer than ``below`` edges is stored.
    """
    nxt, prv, partner, vertex_of, _ = walk
    best: tuple | None = None
    walked = None
    comp = [first]
    found = len(ties)
    for j, start in enumerate(comp):
        for o0 in (1, -1):
            c = 2 * start + (o0 < 0)
            if parent:
                r = _root(parent, c)
                if done[r]:
                    continue
                done[r] = 1
            ori[vertex_of[start]] = o0
            ids[start] = 0
            order = [start]
            S = []
            # While S matches the best candidate's so far, a larger entry
            # loses at once (keys compare S first).
            tied = best is not None
            for i, d in enumerate(order):
                o = ori[vertex_of[d]]
                step = nxt[d] if o > 0 else prv[d]
                x = ids[step]
                if x < 0:
                    x = ids[step] = len(order)
                    order.append(step)
                if tied:
                    y = best[0][i]
                    if x > y:
                        break
                    tied = x == y
                S.append(x)
                p = partner[d]
                if ids[p] < 0:
                    ids[p] = len(order)
                    order.append(p)
                    v = vertex_of[p]
                    if not ori[v]:
                        ori[v] = o * sign[d]
            else:
                key = (
                    tuple(S),
                    tuple([ids[partner[d]] for d in order]),
                    tuple([sign[d] * ori[vertex_of[d]] * ori[vertex_of[partner[d]]] for d in order]),
                )
                if best is None:
                    # The first walk never breaks off, so it meets every
                    # dart of the component: they are the other starts.
                    comp += order[1:]
                    best, best_order, best_o0 = key, order, o0
                elif key < best:
                    best, best_order, best_o0 = key, order, o0
                elif key == best:
                    if not parent:
                        parent += range(2 * len(partner))
                        done += bytes(2 * len(partner))
                        for s in comp[:j]:
                            done[2 * s] = done[2 * s + 1] = 1
                        done[2 * start] = done[c] = 1
                    _merge(parent, done, best_order, order, best_o0 * o0, key, sign)
                    ties.append((best_order, order))
            for d in order:
                ids[d] = -1
                ori[vertex_of[d]] = 0
            if walked is None:
                walked = best
                if walked in memo:
                    best, images = memo[walked]
                    ties += [([comp[i] for i in a], [comp[i] for i in b]) for a, b in images]
                    return best, comp
    assert best is not None
    if len(comp) < 2 * below:
        at = {d: i for i, d in enumerate(comp)}
        memo[walked] = best, [([at[d] for d in a], [at[d] for d in b]) for a, b in ties[found:]]
    return best, comp


def _merge(
    parent: list[int], done: bytearray, a: list[int], b: list[int], e0: int, key: tuple, sign: list[int]
) -> None:
    """Merge the candidates of two walks ``a`` and ``b`` that read the same
    key: ``a[i] -> b[i]`` is an automorphism that reverses the vertex of
    ``a[i]`` when ``eps[i]`` is -1, so it carries candidate ``(a[i], o)``
    to ``(b[i], o * eps[i])``.  Equal keys give eps[0] = ``e0``, eps the
    same at a dart and its successor, and eps times both signs at a dart
    and its partner."""
    S, T, _ = key
    eps = [0] * len(a)
    eps[0] = e0
    for i, e in enumerate(eps):
        x, y = a[i], b[i]
        eps[S[i]] = e
        eps[T[i]] = e * sign[x] * sign[y]
        # Candidates 2x, 2x + 1 go to 2y, 2y + 1, swapped when e is -1.
        for u, w in ((2 * x, 2 * y + (e < 0)), (2 * x + 1, 2 * y + (e > 0))):
            u, w = _root(parent, u), _root(parent, w)
            if u != w:
                parent[w] = u
                done[u] |= done[w]


def _walk_arrays(fl: _Flags) -> tuple[list[int], list[int], list[int], list[int], int]:
    """The arrays a key walks, read off a valid graph's flags, whose darts
    are the edge-end positions: the next dart round a vertex (at the corner
    of its R flag), the previous one (at the corner of its L flag), the
    partner (the end of the flag across the ribbon), each dart's vertex,
    and the number of isolated vertices (the empty vertex bounds)."""
    _, corner, side, _, bounds = fl
    return (
        [f >> 1 for f in corner[1::2]],
        [f >> 1 for f in corner[::2]],
        [f >> 1 for f in side[::2]],
        [k for k, (a, b) in enumerate(zip(bounds, bounds[1:])) for _ in range(a, b)],
        sum(a == b for a, b in zip(bounds, bounds[1:])),
    )


def canonical_key_darts(fl: _Flags) -> tuple:
    """The canonical key read off a valid graph's flags (see
    :func:`_walk_arrays`); an edge is untwisted when its L flag crosses to
    an R flag."""
    return _key_and_automorphisms(_walk_arrays(fl), [1 if f & 1 else -1 for f in fl.side[::2]], {}, 0)[0]


def _key_and_automorphisms(walk: tuple, sign: list[int], memo: dict, below: int) -> tuple[tuple, list]:
    """The canonical key of the graph with walk arrays ``walk`` and the sign
    ``sign[d]`` at each dart, and each automorphism it found as two walks
    ``(a, b)`` of one component, which maps ``a[i]`` to ``b[i]`` (darts it
    leaves out are fixed); ``memo`` and ``below`` are :func:`_component_key`'s."""
    partner = walk[2]
    ids = [-1] * len(partner)
    ori = [0] * (len(partner) + walk[4])  # at least one per vertex
    parent: list[int] = []
    done = bytearray()
    ties: list[tuple[list[int], list[int]]] = []
    keys = []
    seen = bytearray(len(partner))
    for p in range(len(partner)):
        if not seen[p]:
            key, comp = _component_key(walk, sign, p, ids, ori, parent, done, ties, memo, below)
            keys.append(key)
            for q in comp:
                seen[q] = 1
    return (tuple(sorted(keys)), walk[4]), ties


def canonical_key(g: RibbonGraph) -> tuple:
    """A hashable complete isomorphism invariant of a valid graph."""
    return canonical_key_darts(g._flags)


def canonical_graph(g: RibbonGraph) -> RibbonGraph:
    """A canonical representative of g's isomorphism class, with names v0.., e0.. ."""
    return _graph_of_key(canonical_key(g))


def _graph_of_key(key: tuple) -> RibbonGraph:
    """The canonical representative of the class whose canonical key is ``key``."""
    keys, isolated = key
    # Stitch the component serializations into one permutation: serialized
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
    return _permutation_graph(tuple(sigma), tuple(signs), isolated)


def canonical_text(g: RibbonGraph) -> str:
    """The canonical representative's serialization; equal for isomorphic graphs."""
    return graph_to_text(canonical_graph(g))


def are_isomorphic(g: RibbonGraph, h: RibbonGraph, *, match_edge_labels: bool = False) -> bool:
    """Decide ribbon-graph isomorphism of two valid graphs.

    With ``match_edge_labels`` the bijection on edges is forced to be the
    identity on names (vertices stay free), which is the right notion for
    identities that preserve edge labels by construction.
    """
    if len(g.edge_names) != len(h.edge_names) or len(g.vertex_names) != len(h.vertex_names):
        return False
    # Edges are stored sorted by name, and darts name no edge: the names are compared first.
    if match_edge_labels and g.edge_names != h.edge_names:
        return False
    # Equal darts and corners fix every rotation up to edge names, equal sides every twist,
    # and the vertex counts the isolated vertices: the map of each dart to itself is an isomorphism.
    if g._flags[:3] == h._flags[:3]:
        return True
    if not match_edge_labels:
        return canonical_key(g) == canonical_key(h)
    return _labelled_search(g, h)


def _labelled_search(g: RibbonGraph, h: RibbonGraph) -> bool:
    """Find vertex images and flips carrying g to h with every edge name kept.

    Edge-ends are placed by position in the two flag structures.  Once one
    end of a component is placed (on one of its edge's two ends in h, its
    vertex flipped or not), the rest of the component is forced: a placed
    vertex's rotation maps by a shift, reversed if the vertex is flipped;
    each end's partner maps to the image's partner; and the sign rule fixes
    the flip at the partner's vertex, so a loop must keep its sign.  So
    each component needs at most four linear tries.  The caller has checked
    that the counts and edge names agree, so equal edge ranks are one edge.
    """
    ends, corner, side, _, _ = g._flags
    h_ends, h_corner, h_side, _, _ = h._flags
    at = _positions(h_ends)

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
                if ends[p] >> 1 != h_ends[q] >> 1:
                    return None
                image[p] = q, flipped
                # The edge's sign differs in g and h iff its side flags differ in parity.
                toggled = (side[2 * p] ^ h_side[2 * q]) & 1
                todo.append((side[2 * p] >> 1, h_side[2 * q] >> 1, flipped != toggled))
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
            q = at[ends[p]]
            r = h_side[2 * q] >> 1  # the partner of q
            image = place(p, q, False) or place(p, q, True) or place(p, r, False) or place(p, r, True)
            if not image:
                return False
            done.update(image)
    return True
