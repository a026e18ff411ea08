"""Shared graph builders, reference implementations and paths for the test suite."""

import itertools
import math
import pickle
import random
from pathlib import Path

from hypothesis import strategies as st

from ribbonlab import (
    BoundaryComponent,
    BoundaryDecomposition,
    Edge,
    EdgeEnd,
    HalfEdgeSegment,
    MalformedPresentationError,
    TWIST_ELEMENTS,
    RibbonGraph,
    Vertex,
    apply_twist_word,
    are_isomorphic,
    canonical_graph,
    canonical_key,
    connected_components,
    contract,
    delete,
    flip_vertex,
    from_arrow_presentation,
    minor,
    oriented_form,
    parse_graph,
    partial_dual,
    partial_petrial,
    to_arrow_presentation,
)
from ribbonlab.core import (
    L,
    R,
    Arrow,
    ArrowPresentation,
    Circle,
    _Flags,
    _from_flags,
    _twist_flags,
)
from ribbonlab.isomorphism import _permutation_graph
from ribbonlab.medial import AllCrossingDirection, MedialGraph
from ribbonlab.workbench import _disjoint_pairs, _edge_subsets

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

#: Graphs and copies with other edge names, as text: a loop ``a`` and a
#: loop ``b``, and a loop with a twisted pendant edge renamed a -> b,
#: b -> c (each pair shares every dart), then with its two names swapped.
RENAMED_PAIRS = [
    ("vertex u: a.1 a.2\nedge a: +\n", "vertex u: b.1 b.2\nedge b: +\n"),
    (
        "vertex u: a.1 a.2 b.1\nvertex v: b.2\nedge a: +\nedge b: -\n",
        "vertex u: b.1 b.2 c.1\nvertex v: c.2\nedge b: +\nedge c: -\n",
    ),
    (
        "vertex u: a.1 a.2 b.1\nvertex v: b.2\nedge a: +\nedge b: -\n",
        "vertex u: b.1 b.2 a.1\nvertex v: a.2\nedge b: +\nedge a: -\n",
    ),
]


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


def assert_born_with_flags(graphs):
    """The trust gate for graphs the library builds as flags without the
    constructor's check (operator results, enumerated, sampled, parsed and
    canonical graphs): the flags hold integer darts, not ``EdgeEnd``s, with
    each partner across the ribbon, and a copy rebuilt from each graph's
    vertices and edges must pass that check, carry the same flags, and
    compare, hash and unpickle as the graph does.  Equality reads the
    vertex names, edge names and flags, of which the ``vertices`` and
    ``edges`` views are functions, so equal graphs have equal views and
    they are not compared again.  The graphs are pickled first, while they
    may still hold no Vertex tuples, and in one list, which costs a third
    of pickling each alone."""
    copies = pickle.loads(pickle.dumps(graphs))
    for out, copy in zip(graphs, copies):
        assert "_flags" in vars(out)
        assert all(type(x) is int for x in out._flags.ends)
        assert_partners_across_the_ribbon(out._flags)
        ref = RibbonGraph(out.vertices, out.edges)
        assert out._flags == ref._flags
        assert out == ref and hash(out) == hash(ref)
        assert copy == ref


def assert_partners_across_the_ribbon(fl: _Flags) -> None:
    """Each end's partner is stored once, as the end across the ribbon:
    both flags of the end at position p cross to flags of one other end q,
    whose L flag crosses back to p, and q holds the other end of p's edge."""
    ends, _, side, _, _ = fl
    assert len(side) == 2 * len(ends)
    for p, x in enumerate(ends):
        q = side[2 * p] >> 1
        assert side[2 * p + 1] >> 1 == q and q != p and side[2 * q] >> 1 == p and ends[q] == x ^ 1


@st.composite
def rotation_systems(draw, max_edges: int = 8, max_isolated: int = 2) -> RibbonGraph:
    """Hypothesis strategy: a valid signed rotation system.

    The edge-ends are drawn in one order and cut into vertices, so loops,
    twisted loops, parallel edges and disconnected pieces all occur, plus
    some isolated vertices.  Shrinking removes edges and vertices and moves
    towards one vertex, the ends in order and every sign +1.
    """
    k = draw(st.integers(0, max_edges))
    ends = draw(st.permutations([EdgeEnd(f"e{i}", j) for i in range(k) for j in (1, 2)]))
    cuts = draw(st.lists(st.booleans(), min_size=2 * k, max_size=2 * k))
    rotations: list[list[EdgeEnd]] = []
    for d, cut in zip(ends, cuts):
        if cut or not rotations:
            rotations.append([])
        rotations[-1].append(d)
    rotations += [[]] * draw(st.integers(0 if rotations else 1, max_isolated))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
    return RibbonGraph(
        tuple(Vertex(f"v{i}", tuple(rot)) for i, rot in enumerate(rotations)),
        tuple(Edge(f"e{i}", sign) for i, sign in enumerate(signs)),
    )


def arrow_splice_partial_dual(g: RibbonGraph, edges) -> RibbonGraph:
    """Reference partial dual: the one-pass crosswise splice run on the
    arrow presentation itself, read back by ``from_arrow_presentation``."""
    chosen = set(edges)
    if not chosen:
        return g
    # Arrow i has tail point 2i and head point 2i + 1.  ``plain`` joins the
    # circle-sense exit of each arrow to the entry of the next on its circle;
    # ``across`` leads from the point where an arrow is entered to the point
    # where it is left.
    pres = to_arrow_presentation(g)
    labels = [a.label for c in pres.circles for a in c.arrows]
    plain = [0] * (2 * len(labels))
    base = 0
    for c in pres.circles:
        arrows = c.arrows
        m = len(arrows)
        for i, a in enumerate(arrows):
            j = (i + 1) % m
            exit_pt = 2 * (base + i) + (1 if a.forward else 0)
            entry_pt = 2 * (base + j) + (0 if arrows[j].forward else 1)
            plain[exit_pt] = entry_pt
            plain[entry_pt] = exit_pt
        base += m

    across = [p ^ 1 for p in range(len(plain))]
    at: dict[str, list[int]] = {name: [] for name in chosen}
    for i, label in enumerate(labels):
        if label in at:
            at[label].append(i)
    for label, idx in at.items():
        if len(idx) != 2:
            raise MalformedPresentationError(
                f"label {label!r} appears on {len(idx)} arrows, expected exactly 2"
            )
        b1, b2 = idx
        across[2 * b1 + 1], across[2 * b2] = 2 * b2, 2 * b1 + 1
        across[2 * b2 + 1], across[2 * b1] = 2 * b1, 2 * b2 + 1

    # Entering an unspliced arrow at its tail, or a spliced one at its head,
    # traverses it forward.
    traced: list[tuple[Arrow, ...]] = []
    visited = bytearray(len(plain))
    for p0 in range(len(plain)):
        if visited[p0]:
            continue
        arrows_out: list[Arrow] = []
        cur = p0
        while True:
            label = labels[cur >> 1]
            arrows_out.append(Arrow(label, (cur & 1) == (label in chosen)))
            other = across[cur]
            visited[cur] = visited[other] = 1
            cur = plain[other]
            if cur == p0:
                break
        traced.append(tuple(arrows_out))
    traced.extend(() for c in pres.circles if not c.arrows)
    return from_arrow_presentation(
        ArrowPresentation(tuple(Circle(f"v{i}", arrows) for i, arrows in enumerate(traced)))
    )


def segment_trace_boundary(g: RibbonGraph) -> BoundaryDecomposition:
    """Reference for ``trace_boundary``: walk named half-edge segments,
    crossing a ribbon (the side letter swaps iff the edge is untwisted)
    and then rounding a vertex line segment (``R`` to the next end's ``L``,
    ``L`` to the previous end's ``R``), from every segment in vertex order."""
    signs = g.signs()
    nxt: dict[EdgeEnd, EdgeEnd] = {}
    prv: dict[EdgeEnd, EdgeEnd] = {}
    for v in g.vertices:
        rot = v.rotation
        for i, d in enumerate(rot):
            nxt[d] = rot[(i + 1) % len(rot)]
            prv[d] = rot[i - 1]

    def estep(seg: HalfEdgeSegment) -> HalfEdgeSegment:
        side = seg.side
        if signs[seg.end.edge] > 0:
            side = R if side == L else L
        return HalfEdgeSegment(EdgeEnd(seg.end.edge, 3 - seg.end.end), side)

    def vstep(seg: HalfEdgeSegment) -> HalfEdgeSegment:
        if seg.side == R:
            return HalfEdgeSegment(nxt[seg.end], L)
        return HalfEdgeSegment(prv[seg.end], R)

    seen: set[HalfEdgeSegment] = set()
    components: list[BoundaryComponent] = []
    for start in (HalfEdgeSegment(d, side) for v in g.vertices for d in v.rotation for side in (L, R)):
        if start in seen:
            continue
        seq: list[HalfEdgeSegment] = []
        cur = start
        while True:
            seq.append(cur)
            seen.add(cur)
            cur = estep(cur)
            seq.append(cur)
            seen.add(cur)
            cur = vstep(cur)
            if cur == start:
                break
        components.append(BoundaryComponent(tuple(seq)))
    for v in g.vertices:
        if not v.rotation:
            components.append(BoundaryComponent((), isolated_vertex=v.name))
    return BoundaryDecomposition(tuple(components))


def component_index(decomp: BoundaryDecomposition) -> dict[HalfEdgeSegment, int]:
    """The index of the boundary component each half-edge segment lies on."""
    return {seg: i for i, comp in enumerate(decomp.components) for seg in comp.segments}


def corner_edge_straight_ahead(m: MedialGraph, seed: int = 0) -> AllCrossingDirection:
    """Reference for ``straight_ahead_direction``: walk ``CornerEdge``
    objects, leaving each crossing by the port opposite the one entered
    (other end, same side letter), from every undirected corner edge in
    index order."""
    edge_at = {p: c for c in m.corner_edges for p in c.ports}

    def other(c, port):
        a, b = c.ports
        assert port in c.ports
        return b if port == a else a

    directions: dict[int, tuple[HalfEdgeSegment, HalfEdgeSegment]] = {}
    walks: list[tuple[int, ...]] = []
    for c0 in m.corner_edges:
        if c0.index in directions:
            continue
        walk: list[int] = []
        cur, head = c0, c0.ports[1] if seed == 0 else c0.ports[0]
        while True:
            tail = other(cur, head)
            if cur.index in directions:
                assert directions[cur.index] == (tail, head), f"corner edge {cur.index} both ways"
                break
            directions[cur.index] = (tail, head)
            walk.append(cur.index)
            out_port = HalfEdgeSegment(EdgeEnd(head.end.edge, 3 - head.end.end), head.side)
            cur = edge_at[out_port]
            head = other(cur, out_port)
        walks.append(tuple(walk))
    return AllCrossingDirection(tuple(directions[i] for i in range(len(m.corner_edges))), tuple(walks))


def chain_contract(g: RibbonGraph, edges) -> RibbonGraph:
    """Reference contraction, G/C = G^C - C, as two operator calls: dualise
    the edges, then delete them from the dual."""
    chosen = tuple(sorted(set(edges)))
    return delete(partial_dual(g, chosen), chosen)


def chain_minor(g: RibbonGraph, deleted, contracted) -> RibbonGraph:
    """Reference minor: the contraction chain, then a second deletion."""
    return delete(chain_contract(g, contracted), deleted)


def letter_chain(g: RibbonGraph, word) -> RibbonGraph:
    """Reference twist word, applied letter by letter with no operator from
    the package: ``d`` is ``arrow_splice_partial_dual`` and ``t`` rebuilds the
    graph with the edge's sign negated.  Each edge's word runs right to
    left; the k-th letters of all edges are applied together, which is the
    same as one edge at a time because letters on distinct edges commute."""
    for k in range(3):
        letters = {name: w[-1 - k] for name, w in word.items() if k < len(w)}
        g = arrow_splice_partial_dual(g, [name for name, x in letters.items() if x == "d"])
        twisted = {name for name, x in letters.items() if x == "t"}
        g = RibbonGraph(g.vertices, tuple(Edge(e.name, -e.sign) if e.name in twisted else e for e in g.edges))
    return g


def brute_force_alternating_boundary_orientation(g: RibbonGraph, edges) -> bool:
    """Reference for ``has_alternating_boundary_orientation``: try every
    +/- assignment to the boundary components of ``delete(g, edges)``."""
    removed = tuple(sorted(set(edges)))
    oriented, _ = oriented_form(g)
    remaining = delete(oriented, removed)
    decomp = segment_trace_boundary(remaining)
    comp_of = component_index(decomp)

    constraints: list[tuple[int, int]] = []
    removed_set = set(removed)
    for e in remaining.edges:
        a = HalfEdgeSegment(EdgeEnd(e.name, 1), L)
        b = HalfEdgeSegment(EdgeEnd(e.name, 1), R)
        constraints.append((comp_of[a], comp_of[b]))

    isolated_comp = {
        comp.isolated_vertex: i
        for i, comp in enumerate(decomp.components)
        if comp.isolated_vertex is not None
    }
    arc_comp: dict[EdgeEnd, int] = {}
    for v in oriented.vertices:
        rot = v.rotation
        kept = [i for i, d in enumerate(rot) if d.edge not in removed_set]
        for i, d in enumerate(rot):
            if d.edge not in removed_set:
                continue
            if not kept:
                arc_comp[d] = isolated_comp[v.name]
            else:
                j = max((p for p in kept if p < i), default=max(kept))
                arc_comp[d] = comp_of[HalfEdgeSegment(rot[j], R)]
    for name in removed:
        constraints.append((arc_comp[EdgeEnd(name, 1)], arc_comp[EdgeEnd(name, 2)]))

    for assignment in itertools.product((1, -1), repeat=decomp.count):
        if all(assignment[a] != assignment[b] for a, b in constraints):
            return True
    return False


def brute_force_parity(n: int, links):
    """Reference for the parity solver: the first of the 2^n bit vectors, in
    ``itertools.product`` order, with ``bits[u] ^ bits[w] == p`` for every
    link ``(u, w, p)``, or None when none satisfies them all."""
    for bits in itertools.product((0, 1), repeat=n):
        if all(bits[u] ^ bits[w] == p for u, w, p in links):
            return bits
    return None


def backtracking_labelled_search(g: RibbonGraph, h: RibbonGraph) -> bool:
    """Reference for ``isomorphism._labelled_search``: try every vertex
    image, flip and rotation shift, then check edge names and signs."""
    gsigns = g.signs()
    hsigns = h.signs()
    gv = sorted(g.vertices, key=lambda v: -len(v.rotation))
    hv = list(h.vertices)

    def extend(i: int, used: set[int], flip: dict[str, bool], dart_map: dict[EdgeEnd, EdgeEnd]) -> bool:
        if i == len(gv):
            for name in g.edge_names:
                d1, d2 = EdgeEnd(name, 1), EdgeEnd(name, 2)
                if dart_map[d1].edge != name or dart_map[d2].edge != name:
                    return False
                if dart_map[d1] == dart_map[d2]:
                    return False
                u1 = g.vertex_of(d1)
                u2 = g.vertex_of(d2)
                toggled = (flip[u1] != flip[u2]) if u1 != u2 else False
                want = -gsigns[name] if toggled else gsigns[name]
                if hsigns[name] != want:
                    return False
            return True
        v = gv[i]
        for wi, w in enumerate(hv):
            if wi in used or len(w.rotation) != len(v.rotation):
                continue
            m = len(v.rotation)
            if m == 0:
                if extend(i + 1, used | {wi}, {**flip, v.name: False}, dart_map):
                    return True
                continue
            for flipped in (False, True):
                rot = tuple(reversed(v.rotation)) if flipped else v.rotation
                for shift in range(m):
                    trial = dict(dart_map)
                    ok = True
                    for j in range(m):
                        src, dst = rot[j], w.rotation[(j + shift) % m]
                        if src.edge != dst.edge:
                            ok = False
                            break
                        if src in trial and trial[src] != dst:
                            ok = False
                            break
                        trial[src] = dst
                    if ok and extend(i + 1, used | {wi}, {**flip, v.name: flipped}, trial):
                        return True
        return False

    return extend(0, set(), {}, {})


def dart_graph(g: RibbonGraph) -> tuple:
    """``(sigma, signs, isolated)`` of a valid graph, read from its vertices
    and edges alone: darts ``2i`` and ``2i + 1`` are ends 1 and 2 of the
    i-th stored edge, whose sign is ``signs[i]``, ``sigma`` maps each dart to
    the next one round its vertex, and ``isolated`` counts the vertices
    without ends."""
    index = {e.name: 2 * i - 1 for i, e in enumerate(g.edges)}
    sigma = [0] * (2 * len(g.edges))
    for v in g.vertices:
        darts = [index[d.edge] + d.end for d in v.rotation]
        for a, b in zip(darts, darts[1:] + darts[:1]):
            sigma[a] = b
    return tuple(sigma), tuple(e.sign for e in g.edges), sum(not v.rotation for v in g.vertices)


def flip_mask_canonical_key_darts(dg) -> tuple:
    """Reference canonical key on a dart graph ``(sigma, signs, isolated)``:
    each component's least serialization over every start dart and every
    assignment of flips to its vertices (2^V masks)."""
    sigma, signs, isolated = dg
    n = len(sigma)
    seen = [False] * n
    keys = []
    for d0 in range(n):
        if seen[d0]:
            continue
        comp, stack = [], [d0]
        seen[d0] = True
        while stack:
            d = stack.pop()
            comp.append(d)
            for nb in (sigma[d], d ^ 1):
                if not seen[nb]:
                    seen[nb] = True
                    stack.append(nb)
        keys.append(_flip_mask_component_key(sigma, signs, sorted(comp)))
    return (tuple(sorted(keys)), isolated)


def _flip_mask_component_key(sigma, signs, comp) -> tuple:
    cycles: list[list[int]] = []
    placed: set[int] = set()
    for d0 in comp:
        if d0 in placed:
            continue
        cyc = []
        d = d0
        while d not in placed:
            placed.add(d)
            cyc.append(d)
            d = sigma[d]
        cycles.append(cyc)
    vertex_of = {d: ci for ci, cyc in enumerate(cycles) for d in cyc}
    edges = sorted({d >> 1 for d in comp})

    best = None
    for mask in range(1 << len(cycles)):
        smap: dict[int, int] = {}
        for ci, cyc in enumerate(cycles):
            step = -1 if mask >> ci & 1 else 1
            for j, d in enumerate(cyc):
                smap[d] = cyc[(j + step) % len(cyc)]
        gmap: dict[int, int] = {}
        for e in edges:
            f1 = mask >> vertex_of[2 * e] & 1
            f2 = mask >> vertex_of[2 * e + 1] & 1
            gmap[e] = -signs[e] if f1 != f2 else signs[e]
        for start in comp:
            key = _flip_mask_serialize(smap, gmap, start)
            if best is None or key < best:
                best = key
    return best


def _flip_mask_serialize(sigma_map, signs_map, start) -> tuple:
    ids = {start: 0}
    order = [start]
    i = 0
    while i < len(order):
        d = order[i]
        i += 1
        for nb in (sigma_map[d], d ^ 1):
            if nb not in ids:
                ids[nb] = len(ids)
                order.append(nb)
    return (
        tuple(ids[sigma_map[d]] for d in order),
        tuple(ids[d ^ 1] for d in order),
        tuple(signs_map[d >> 1] for d in order),
    )


def same_partition(items, key_a, key_b) -> bool:
    """Whether two key functions split ``items`` into the same classes."""
    pairs = {(key_a(x), key_b(x)) for x in items}
    return len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})


def _double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def _involutions_commuting(cycle_lengths: dict[int, int]) -> int:
    """Fixed-point-free involutions commuting with a permutation of the
    given cycle type ({length: multiplicity}).  Such an involution maps
    each l-cycle onto an l-cycle: two cycles can be swapped in l ways, and
    an even cycle can also be turned half-way onto itself."""
    out = 1
    for l, m in cycle_lengths.items():
        if l % 2:
            out *= 0 if m % 2 else _double_factorial(m - 1) * l ** (m // 2)
        else:
            out *= sum(
                math.comb(m, 2 * j) * _double_factorial(2 * j - 1) * l**j
                for j in range(m // 2 + 1)
            )
    return out


def burnside_class_count(k: int) -> int:
    """Isomorphism classes of ribbon graphs with k ≥ 1 edges and no
    isolated vertex, counted by Burnside's lemma with no graph built.

    A ribbon graph is a fixed-point-free involution (the vertex corners)
    on the 4k flags, four per edge; the group W = (Z2×Z2)≀S_k permutes the
    edges and acts on each edge's flags by swapping its ends and its sides,
    and the classes are the orbits of W acting by conjugation.  For an
    element (π, a), each c-cycle of π whose product of a's is trivial
    (4^(c-1) choices) gives four flag c-cycles, and each with a nontrivial
    product (3·4^(c-1) choices) gives two flag 2c-cycles.
    """
    total = 0
    for perm in itertools.permutations(range(k)):
        cycles = []
        seen = [False] * k
        for i in range(k):
            c = 0
            while not seen[i]:
                seen[i] = True
                i = perm[i]
                c += 1
            if c:
                cycles.append(c)
        for twisted in itertools.product((False, True), repeat=len(cycles)):
            weight = 1
            lengths: dict[int, int] = {}
            for c, t in zip(cycles, twisted):
                weight *= (3 if t else 1) * 4 ** (c - 1)
                l, m = (2 * c, 2) if t else (c, 4)
                lengths[l] = lengths.get(l, 0) + m
            total += weight * _involutions_commuting(lengths)
    order = 4**k * math.factorial(k)
    assert total % order == 0
    return total // order


# The canonical key before automorphism pruning, kept as the reference: it
# walks all 4E (start dart, orientation) candidates of each component, so
# it is quadratic when they tie.

def _quadratic_component_key(
    nxt: list[int],
    prv: list[int],
    mate: list[int],
    sign: list[int],
    vertex_of: list[int],
    first: int,
) -> tuple[tuple, list[int]]:
    """The least serialization of the component of dart ``first`` over
    every start dart and start orientation, and the component's darts.

    A serialization is a breadth-first walk from the start dart that visits
    each dart's successor around its vertex (``nxt``, or ``prv`` if the
    vertex is read reversed) and then its partner (``mate``).  A vertex's
    reading direction is fixed when its first dart is reached across an
    edge, so that the edge reads untwisted; every other edge records its
    sign relative to the directions of both ends.  Reversing vertices
    therefore never changes the set of serializations, and 4E candidates
    suffice.
    """
    best: tuple | None = None
    comp = [first]
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
                step = nxt[d] if o > 0 else prv[d]
                if step not in ids:
                    ids[step] = len(order)
                    order.append(step)
                x = ids[step]
                if tied:
                    y = best[0][i]
                    if x > y:
                        break
                    tied = x == y
                S.append(x)
                p = mate[d]
                if p not in ids:
                    ids[p] = len(order)
                    order.append(p)
                    v = vertex_of[p]
                    if v not in ori:
                        ori[v] = o * sign[d]
            else:
                key = (
                    tuple(S),
                    tuple([ids[mate[d]] for d in order]),
                    tuple([sign[d] * ori[vertex_of[d]] * ori[vertex_of[mate[d]]] for d in order]),
                )
                if best is None:
                    # The first walk never breaks off, so it meets every
                    # dart of the component: they are the other starts.
                    comp += order[1:]
                    best = key
                elif key < best:
                    best = key
    assert best is not None
    return best, comp


def quadratic_canonical_key_darts(fl: _Flags) -> tuple:
    """The canonical key read off a valid graph's flags, whose darts are
    the edge-end positions: the next dart round a vertex is at the corner
    of its R flag and the previous one at the corner of its L flag, an
    edge is untwisted when its L flag crosses to an R flag, and the empty
    vertex bounds are the isolated vertices."""
    _, corner, side, _, bounds = fl
    nxt = [f >> 1 for f in corner[1::2]]
    prv = [f >> 1 for f in corner[::2]]
    mate = [f >> 1 for f in side[::2]]
    sign = [1 if f & 1 else -1 for f in side[::2]]
    vertex_of = [k for k, (a, b) in enumerate(zip(bounds, bounds[1:])) for _ in range(a, b)]
    keys = []
    seen = bytearray(len(mate))
    for p in range(len(mate)):
        if not seen[p]:
            key, comp = _quadratic_component_key(nxt, prv, mate, sign, vertex_of, p)
            keys.append(key)
            for q in comp:
                seen[q] = 1
    return (tuple(sorted(keys)), sum(a == b for a, b in zip(bounds, bounds[1:])))


def _relabellings(k: int) -> list[tuple[bytes, bytes]]:
    """Every dart relabelling g preserving the pairing 2i <-> 2i+1, as the
    byte table of g (padded for ``bytes.translate``) and the bytes of g⁻¹."""
    n = 2 * k
    out = []
    for perm in itertools.permutations(range(k)):
        for mask in range(1 << k):
            g = [0] * n
            for i in range(k):
                swap = mask >> i & 1
                g[2 * i] = 2 * perm[i] + swap
                g[2 * i + 1] = 2 * perm[i] + 1 - swap
            inverse = [0] * n
            for d, x in enumerate(g):
                inverse[x] = d
            out.append((bytes(g).ljust(256, b"\0"), bytes(inverse)))
    return out


def minimal_sigma_reps(k: int) -> list[tuple[int, ...]]:
    """Permutations that are minimal in their relabelling orbit, in lex
    order: a reference for the enumerator's representatives that shares no
    code with its walk over cycle types and pairings.

    Conjugating the rotation permutation by a pairing-preserving dart
    relabelling gives the same ribbon graph with renamed edges and ends.
    The walk is over permutations in lex order: the first one not marked is
    the least of its orbit, so it is kept and the rest of its orbit is
    marked (each mark is dropped when the walk reaches it).  A least member
    σ has σ(0) ≤ 2: relabel any dart d as 0, and σ(d) becomes 0 if it is d,
    1 if it is d's partner, and 2 otherwise.  So the walk stops before
    σ(0) = 3, and only orbit members below that are marked.
    """
    n = 2 * k
    group = _relabellings(k)
    stop = bytes([3])
    marked: set[bytes] = set()
    out = []
    for sigma in itertools.islice(itertools.permutations(range(n)), 3 * math.factorial(n - 1)):
        b = bytes(sigma)
        if b in marked:
            marked.remove(b)
            continue
        out.append(sigma)
        table = b.ljust(256, b"\0")
        for g, inverse in group:
            # g∘σ∘g⁻¹ as bytes: d -> g[σ[g⁻¹[d]]]
            h = inverse.translate(table).translate(g)
            if b < h < stop:
                marked.add(h)
    return out


def brute_force_automorphism_count(g: RibbonGraph) -> int:
    """|Aut(g)|, with no canonical-key code: the permutations of the flags
    (read from the vertices and edges) that commute with ``corner``,
    ``side`` and ``f -> f ^ 1``, including those that reverse vertices.

    On a connected component such a map is fixed by the image of one flag,
    so each candidate image is grown into a map and kept if it is a
    well-defined bijection.  The count is the product of each component's,
    times m! for every m pairwise isomorphic components or isolated
    vertices.
    """
    fl = RibbonGraph(g.vertices, g.edges)._flags
    involutions = (fl.corner, fl.side, [f ^ 1 for f in range(len(fl.side))])

    def grow(f0: int, h0: int) -> dict[int, int] | None:
        image, used, todo = {f0: h0}, {h0}, [f0]
        while todo:
            f = todo.pop()
            for inv in involutions:
                a, b = inv[f], inv[image[f]]
                if a in image:
                    if image[a] != b:
                        return None
                elif b in used:
                    return None
                else:
                    image[a] = b
                    used.add(b)
                    todo.append(a)
        return image

    pieces: list[list] = []  # per class of components: the first one's flags, how many
    met: set[int] = set()
    for f in range(len(fl.side)):
        if f in met:
            continue
        flags = sorted(grow(f, f))
        met.update(flags)
        for piece in pieces:
            if len(piece[0]) == len(flags) and any(grow(piece[0][0], h) for h in flags):
                piece[1] += 1
                break
        else:
            pieces.append([flags, 1])
    isolated = sum(a == b for a, b in zip(fl.bounds, fl.bounds[1:]))
    total = math.factorial(isolated)
    for flags, m in pieces:
        total *= sum(grow(flags[0], h) is not None for h in flags) ** m * math.factorial(m)
    return total


def unpruned_enumeration(max_edges: int, *, max_vertices=None, connected=False, extra_isolated=0):
    """Reference for the deduplicating enumerator: the relabelling-orbit
    minima σ of :func:`minimal_sigma_reps`, every sign vector of each keyed
    by the quadratic reference key, none left out by its symmetries."""
    seen = set()
    for k in range(max_edges + 1):
        sigmas = minimal_sigma_reps(k) if k else [()]
        twists = [{f"e{i}" for i in range(k) if signs[i] < 0} for signs in itertools.product((1, -1), repeat=k)]
        for sigma in sigmas:
            plus = _permutation_graph(sigma, (1,) * k, extra_isolated + (k == 0))
            if max_vertices is not None and len(plus.vertex_names) > max_vertices:
                continue
            if connected and len(connected_components(plus)) != 1:
                continue
            for chosen in twists:
                fl = _twist_flags(plus._flags, [name in chosen for name in plus.edge_names])
                key = quadratic_canonical_key_darts(fl)
                if key in seen:
                    continue
                seen.add(key)
                yield _from_flags(fl, plus.vertex_names, plus.edge_names)


# ---------------------------------------------------------------------------
# Property suites as they were before they shared operands across instances
# ---------------------------------------------------------------------------
# Each rebuilds every operand inside its innermost loop; the suites in
# ribbonlab.workbench must yield the same (params, ok, detail) sequence.

def reference_canonical_stability(g: RibbonGraph):
    canon = canonical_graph(g)
    yield {}, canonical_key(canon) == canonical_key(g), "canonical graph must stay in the class"
    yield {}, canonical_graph(canon) == canon, "canonicalisation must be idempotent"
    for v in g.vertex_names:
        yield {"flip": v}, canonical_key(flip_vertex(g, v)) == canonical_key(g), (
            "canonical key must be flip-invariant"
        )


def reference_pdual_disjoint_union(g: RibbonGraph):
    for b, c in _disjoint_pairs(g):
        lhs = partial_dual(g, b + c)
        rhs = partial_dual(partial_dual(g, b), c)
        yield {"A": list(b), "B": list(c)}, are_isomorphic(lhs, rhs, match_edge_labels=True), (
            "dualising a union must match dualising in stages"
        )


def reference_delta_tau_commute(g: RibbonGraph):
    for e1, e2 in itertools.permutations(g.edge_names, 2):
        lhs = partial_petrial(partial_dual(g, [e1]), [e2])
        rhs = partial_dual(partial_petrial(g, [e2]), [e1])
        yield {"dual": e1, "twist": e2}, are_isomorphic(lhs, rhs, match_edge_labels=True), (
            "duals and twists on distinct edges must commute"
        )


def reference_twist_word_grouping(g: RibbonGraph):
    names = g.edge_names[:2]
    for combo in itertools.product(TWIST_ELEMENTS, repeat=len(names)):
        word = dict(zip(names, combo))
        grouped = apply_twist_word(g, word)
        sequential = g
        for name in reversed(names):
            for op in reversed(word[name]):
                if op == "t":
                    sequential = partial_petrial(sequential, [name])
                elif op == "d":
                    sequential = partial_dual(sequential, [name])
        yield {"word": dict(word)}, are_isomorphic(grouped, sequential, match_edge_labels=True), (
            "grouped and sequential word application must agree"
        )


def reference_minor_commute(g: RibbonGraph):
    for b, c in _disjoint_pairs(g):
        lhs = delete(contract(g, c), b)
        rhs = contract(delete(g, b), c)
        yield {"delete": list(b), "contract": list(c)}, are_isomorphic(
            lhs, rhs, match_edge_labels=True
        ), "deletion and contraction of disjoint sets must commute"


def reference_pdual_minor_exchange(g: RibbonGraph):
    minors = [(b, c, set(b) | set(c), minor(g, b, c)) for b, c in _disjoint_pairs(g)]
    for a in _edge_subsets(g):
        aset = set(a)
        dual = partial_dual(g, a)
        for b, c, bc, m in minors:
            lhs = partial_dual(m, [x for x in a if x not in bc])
            bp = tuple(sorted((set(b) - aset) | (set(c) & aset)))
            cp = tuple(sorted((set(c) - aset) | (set(b) & aset)))
            rhs = minor(dual, bp, cp)
            yield {"A": list(a), "B": list(b), "C": list(c)}, are_isomorphic(
                lhs, rhs, match_edge_labels=True
            ), "partial duality must exchange deleted and contracted sets"


REFERENCE_SUITES = {
    "canonical-stability": reference_canonical_stability,
    "pdual-disjoint-union": reference_pdual_disjoint_union,
    "delta-tau-commute": reference_delta_tau_commute,
    "twist-word-grouping": reference_twist_word_grouping,
    "minor-commute": reference_minor_commute,
    "pdual-minor-exchange": reference_pdual_minor_exchange,
}
