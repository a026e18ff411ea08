"""Small-graph enumeration and the exhaustive property harness.

The enumerator generates every signed rotation system with up to a capped
number of edges: darts ``2i, 2i+1`` always form edge ``i``, every
permutation of the darts is a vertex structure (cycles are rotations), and
signs range over all vectors.  Up to relabelling that covers every ribbon
graph, so with deduplication by canonical form each isomorphism class is
produced exactly once, and without it every raw system appears.

Deduplication is a funnel.  Per cycle type, the pairings of the darts
into edges are merged into one orbit per relabelling class
(:func:`_sigma_reps`).  Each class's all-plus graph is keyed once: a key
already seen adds nothing, since an isomorphism carries the twists of one
graph onto twists of the other; otherwise it is the zero vector's key,
and a further sign vector is keyed only if least in its orbit under the
key's automorphisms and the flips of degree-≤2 vertices
(:func:`_least_sign_vectors`).  Each key is made from the all-plus
graph's walk arrays and the vector's signs, and each component's key is
looked up by its first walk in a memo held for the enumeration.  A key not
seen before is a new class, built only then and yielded as its first
member in the order of cycle types, pairings and sign vectors (in
``itertools.product`` order), which no stage leaves out.

Properties are registered by name; a run walks a universe in deterministic
order, counts instances (graphs, or graph/subset combinations) and collects
counterexamples as serialized witnesses.  Reports serialize to JSON with a
stable key order so runs can be diffed.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import random
import time
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import (
    Edge,
    RibbonGraph,
    RibbonGraphError,
    Vertex,
    _from_flags,
    _root,
    _twist_flags,
    connected_components,
    euler_characteristic_by_component,
    flip_vertex,
    from_arrow_presentation,
    graph_to_text,
    is_orientable,
    parse_graph,
    to_arrow_presentation,
    trace_boundary,
)
from .isomorphism import (
    _graph_of_key,
    _key_and_automorphisms,
    _permutation_graph,
    _walk_arrays,
    are_isomorphic,
    canonical_key,
    canonical_text,
)
from .algorithms import (
    checkerboard_partial_petrial,
    checkerboard_twisted_dual,
    has_alternating_boundary_orientation,
    orienting_petrial_set,
)
from .medial import (
    build_medial,
    classify_cd,
    d_edges,
    is_all_crossing,
    smooth,
    straight_ahead_direction,
)
from .operators import (
    TWIST_ELEMENTS,
    apply_twist_word,
    contract,
    delete,
    geometric_dual,
    minor,
    partial_dual,
    partial_petrial,
    petrial,
)
from .predicates import (
    is_bipartite,
    is_checkerboard_colourable,
    is_eulerian,
    is_even_face,
)

HARD_EDGE_CAP = 6
SUBSET_EXHAUSTIVE_CAP = 3
SUBSET_SAMPLES = 8


class EnumerationLimitError(RibbonGraphError):
    pass


class UnknownPropertyError(RibbonGraphError):
    pass


class WorkerCountError(RibbonGraphError):
    pass


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

class GraphUniverse:
    """Exhaustive iterator over small ribbon graphs.

    Every isomorphism class within the bounds appears at least once; with
    ``dedup`` exactly once.  Iteration order is deterministic.  Equality is
    identity: a universe describes an iteration, not a value.
    """

    __slots__ = ("max_edges", "max_vertices", "connected", "dedup", "extra_isolated")

    def __init__(
        self,
        max_edges: int,
        max_vertices: int | None = None,
        connected: bool = False,
        dedup: bool = True,
        extra_isolated: int = 0,
    ):
        if max_edges > HARD_EDGE_CAP:
            raise EnumerationLimitError(f"max_edges {max_edges} above the hard cap {HARD_EDGE_CAP}")
        if max_edges < 0:
            raise EnumerationLimitError("max_edges must be nonnegative")
        if max_vertices is not None and max_vertices < 0:
            raise EnumerationLimitError("max_vertices must be nonnegative")
        if connected and extra_isolated:
            raise ValueError("a graph with extra isolated vertices is never connected")
        self.max_edges, self.max_vertices, self.connected = max_edges, max_vertices, connected
        self.dedup, self.extra_isolated = dedup, extra_isolated

    def __repr__(self) -> str:
        return "GraphUniverse(" + ", ".join(f"{k}={v!r}" for k, v in self.params().items()) + ")"

    def params(self) -> dict:
        return {
            "max_edges": self.max_edges,
            "max_vertices": self.max_vertices,
            "connected": self.connected,
            "dedup": self.dedup,
            "extra_isolated": self.extra_isolated,
        }

    def __iter__(self) -> Iterator[RibbonGraph]:
        seen: set = set()
        memo: dict = {}
        for k in range(self.max_edges + 1):
            isolated = self.extra_isolated + (k == 0)
            max_vertices = 2 * k + isolated if self.max_vertices is None else self.max_vertices
            reps = _sigma_reps(k, max_vertices - isolated) if self.dedup else itertools.permutations(range(2 * k))
            # Bit k - 1 - i of a sign vector (in product order) is set iff
            # edge e<i> is twisted; here each edge's bit by its name's rank.
            rank_bits = [1 << (k - 1 - i) for i in sorted(range(k), key=str)]
            for sigma in reps:
                plus = _permutation_graph(sigma, (1,) * k, isolated)
                if len(plus.vertex_names) > max_vertices or self.connected and len(connected_components(plus)) != 1:
                    continue
                fl, names = plus._flags, (plus.vertex_names, plus.edge_names)
                vectors = range(1 << k)
                if self.dedup:
                    # Keys read the all-plus walk arrays; the all-plus key is also the zero vector's.
                    walk, bits = _walk_arrays(fl), [rank_bits[x >> 1] for x in fl.ends]
                    key, ties = _key_and_automorphisms(walk, [1] * len(bits), memo, self.max_edges)
                    if key in seen:
                        continue
                    seen.add(key)
                    automorphisms = ({fl.ends[p] >> 1: fl.ends[q] >> 1 for p, q in zip(a, b)} for a, b in ties)
                    vectors = _least_sign_vectors(sigma, automorphisms, rank_bits)
                for v in vectors:
                    if self.dedup and v:
                        key = _key_and_automorphisms(walk, [-1 if v & b else 1 for b in bits], memo, self.max_edges)[0]
                        if key in seen:
                            continue
                        seen.add(key)
                    yield _from_flags(_twist_flags(fl, [v & b for b in rank_bits]), *names) if v else plus


def enumerate_graphs(
    max_edges: int,
    *,
    max_vertices: int | None = None,
    connected: bool = False,
    dedup: bool = True,
    extra_isolated: int = 0,
) -> GraphUniverse:
    return GraphUniverse(max_edges, max_vertices, connected, dedup, extra_isolated)


def sample_graphs(
    edges: int, count: int, *, seed: int = 0, eulerian: bool = False
) -> list[RibbonGraph]:
    """Deterministic random signed rotation systems at an exact edge count.

    Complements exhaustive enumeration where the class counts explode, so
    it is not held to the enumeration cap: sampling is linear in ``edges``.
    With ``eulerian`` only graphs with all-even degrees are kept (rejection
    sampling).  At 0 edges every sample is the one-vertex graph, the only
    member of the enumerated 0-edge universe.
    """
    if edges < 0:
        raise EnumerationLimitError("edges must be nonnegative")
    rng = random.Random(f"sample:{edges}:{seed}")
    out: list[RibbonGraph] = []
    isolated = 0 if edges else 1
    while len(out) < count:
        sigma = list(range(2 * edges))
        rng.shuffle(sigma)
        # Evenness does not depend on the signs, which are drawn only after.
        if eulerian and not is_eulerian(_permutation_graph(sigma, (1,) * edges, isolated)):
            continue
        signs = tuple(rng.choice((1, -1)) for _ in range(edges))
        out.append(_permutation_graph(sigma, signs, isolated))
    return out


def _sigma_reps(k: int, max_parts: int) -> Iterator[list[int]]:
    """One rotation permutation per relabelling class of k-edge rotation
    systems with at most ``max_parts`` vertices.

    Each cycle type, largest parts first, fixes σ as consecutive cycles.
    Its centralizer, generated by turning one cycle and by swapping two
    adjacent cycles of equal length, merges the (2k - 1)!! pairings of the
    darts into one orbit per class in a union-find.  Each orbit's least
    pairing is relabelled so that its pairs, by least dart, become
    ``(2i, 2i + 1)``.
    """
    n = 2 * k
    pairings = [p.ljust(256, b"\0") for p in _pairings(list(range(n)), bytearray(n))]
    index = {p[:n]: i for i, p in enumerate(pairings)}
    for parts in _partitions(n, n):
        if len(parts) > max_parts:
            continue
        sigma, generators, a = list(range(1, n + 1)), [], 0
        for j, size in enumerate(parts):
            sigma[a + size - 1] = a
            if size > 1:
                generators.append([*range(a), *sigma[a:a + size], *range(a + size, n)])
            if j and parts[j - 1] == size:
                generators.append([*range(a - size), *range(a, a + size), *range(a - size, a), *range(a + size, n)])
            a += size
        # Roots stay least in their class.
        parent = list(range(len(pairings)))
        for perm in generators:
            g, inverse = bytes(perm).ljust(256, b"\0"), bytes(sorted(range(n), key=perm.__getitem__))
            for i, p in enumerate(pairings):
                # g∘p∘g⁻¹ as bytes: d -> g[p[g⁻¹[d]]]
                x, y = _root(parent, i), _root(parent, index[inverse.translate(p).translate(g)])
                parent[max(x, y)] = min(x, y)
        for i, p in enumerate(pairings):
            if parent[i] == i:
                old = [x for d in range(n) if p[d] > d for x in (d, p[d])]
                new = sorted(range(n), key=old.__getitem__)
                yield [new[sigma[d]] for d in old]


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts of at most ``largest``, parts and
    partitions in decreasing order."""
    if not n:
        yield ()
    for first in range(min(n, largest), 0, -1):
        yield from ((first, *rest) for rest in _partitions(n - first, first))


def _pairings(free: list[int], p: bytearray) -> Iterator[bytes]:
    """Every completion of ``p``, an involution as bytes, by pairing the
    darts ``free``, in lex order."""
    if not free:
        yield bytes(p)
    for j in range(1, len(free)):
        p[free[0]], p[free[j]] = free[j], free[0]
        yield from _pairings(free[1:j] + free[j + 1:], p)


def _least_sign_vectors(
    sigma: Sequence[int], automorphisms: Iterable[dict[int, int]], edge_bits: list[int]
) -> list[int]:
    """The sign vectors of σ least in their orbit under the symmetries of
    its all-plus graph, in increasing order; bit k - 1 - i of a vector is
    set iff edge ``e<i>`` is twisted, so numeric order is product order,
    and ``edge_bits`` gives each edge's bit by its name's rank.

    Flipping a vertex of degree at most 2 keeps σ and toggles the edges
    with one end there: these toggles span a space W, kept as a reduced
    echelon basis, and the least member of a coset of W is its one member
    with no pivot bit set.  An automorphism the key found, as the image of
    each edge it moves (edges given by their names' ranks, as in the flags
    of σ's graph), carries each vector onto the one with its edges moved.
    So the least member of an orbit has no pivot bit set and is at most
    the reduced image of itself under each automorphism.  The first
    member of a class in enumeration order is least in its orbit, so no
    vector left out is the first of its class.
    """
    k = len(sigma) // 2
    bit = [1 << (k - 1 - (d >> 1)) for d in range(2 * k)]
    basis: list[tuple[int, int]] = []  # (pivot bit, vector)

    def reduce(v: int) -> int:
        for p, w in basis:
            if v & p:
                v ^= w
        return v

    for d in range(2 * k):
        if sigma[d] < d or sigma[sigma[d]] != d:
            continue
        # A degree-1 vertex toggles its edge; a loop's two ends cancel.
        m = reduce(bit[d] if sigma[d] == d else bit[d] ^ bit[sigma[d]])
        if m:
            p = 1 << (m.bit_length() - 1)
            basis = [(q, w ^ m if w & p else w) for q, w in basis]
            basis.append((p, m))
    pivots = sum(p for p, _ in basis)
    # Each automorphism that moves an edge, as the bit each edge's bit moves to.
    fixed = tuple(edge_bits)
    moves = {tuple(edge_bits[m.get(j, j)] for j in range(k)) for m in automorphisms} - {fixed}
    return [
        v for v in range(1 << k)
        if not v & pivots
        and all(reduce(sum(b for e, b in zip(fixed, move) if v & e)) >= v for move in moves)
    ]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class PropertyFailure(NamedTuple):
    graph: str
    params: dict
    detail: str

    def to_dict(self) -> dict:
        return {"graph": self.graph, "params": self.params, "detail": self.detail}


class PropertyReport(NamedTuple):
    name: str
    universe: dict
    checked: int
    failures: tuple[PropertyFailure, ...]
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "property": self.name,
            "params": self.universe,
            "checked": self.checked,
            "failures": [f.to_dict() for f in self.failures],
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def summary(self) -> str:
        state = "pass" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return f"{self.name}: {state}, {self.checked} instances, {self.elapsed_ms:.0f} ms"


# ---------------------------------------------------------------------------
# Instance generators shared by the properties
# ---------------------------------------------------------------------------

def _edge_subsets(g: RibbonGraph) -> Iterator[tuple[str, ...]]:
    """Every subset for small graphs; a deterministic sample beyond."""
    names = g.edge_names
    k = len(names)
    if k <= SUBSET_EXHAUSTIVE_CAP:
        masks = range(1 << k)
    else:
        rng = random.Random(graph_to_text(g))
        masks = {0, (1 << k) - 1}
        while len(masks) < 2 + SUBSET_SAMPLES:
            masks.add(rng.randrange(1 << k))
    for mask in sorted(masks):
        yield tuple(names[i] for i in range(k) if mask >> i & 1)


def _disjoint_pairs(g: RibbonGraph) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Disjoint (B, C) pairs: all 3^k for small graphs, sampled beyond."""
    names = g.edge_names
    k = len(names)
    if k <= SUBSET_EXHAUSTIVE_CAP:
        chosen = itertools.product((0, 1, 2), repeat=k)
    else:
        rng = random.Random("pairs:" + graph_to_text(g))
        chosen = {(0,) * k}
        while len(chosen) < 1 + SUBSET_SAMPLES:
            chosen.add(tuple(rng.randrange(3) for _ in range(k)))
    for assignment in sorted(chosen):
        b = tuple(names[i] for i in range(k) if assignment[i] == 1)
        c = tuple(names[i] for i in range(k) if assignment[i] == 2)
        yield b, c


def _complement(g: RibbonGraph, subset: Iterable[str]) -> tuple[str, ...]:
    chosen = set(subset)
    return tuple(n for n in g.edge_names if n not in chosen)


def _built(store: dict, key, build: Callable[..., RibbonGraph], *args) -> RibbonGraph:
    """``store[key]``, built as ``build(*args)`` the first time it is asked for.

    A suite names each operand it shares by its loop indices, so no graph
    is hashed, and keeps the store for one graph only.
    """
    if key not in store:
        store[key] = build(*args)
    return store[key]


Instance = tuple[dict, bool, str]


# ---------------------------------------------------------------------------
# The property catalogue
# ---------------------------------------------------------------------------

def _prop_boundary_partition(g: RibbonGraph) -> Iterator[Instance]:
    decomp = trace_boundary(g)
    segs = [s for c in decomp.components for s in c.segments]
    ok = len(segs) == 4 * len(g.edge_names) and len(set(segs)) == len(segs)
    yield {}, ok, "boundary walk must partition all half-edge segments"
    degs = decomp.face_degrees()
    yield {}, sum(degs) == 2 * len(g.edge_names), "face degrees must sum to twice the edge count"
    chis = euler_characteristic_by_component(g)
    yield {}, all(2 - chi >= 0 for chi in chis), "per-component Euler characteristic above 2"


def _prop_checkerboard_implies_eulerian(g: RibbonGraph) -> Iterator[Instance]:
    if is_checkerboard_colourable(g):
        yield {}, is_eulerian(g), "checkerboard colourable graph must be Eulerian"


def _prop_bipartite_implies_even_face(g: RibbonGraph) -> Iterator[Instance]:
    if is_bipartite(g):
        yield {}, is_even_face(g), "bipartite graph must be even-face"


def _prop_checkerboard_iff_dual_bipartite(g: RibbonGraph) -> Iterator[Instance]:
    lhs = is_checkerboard_colourable(g)
    rhs = is_bipartite(geometric_dual(g))
    yield {}, lhs == rhs, "checkerboard colourability must match bipartiteness of the dual"


def _prop_even_face_iff_dual_eulerian(g: RibbonGraph) -> Iterator[Instance]:
    yield {}, is_even_face(g) == is_eulerian(geometric_dual(g)), (
        "even-face must match Eulerian dual"
    )


def _prop_orientability_flip_invariant(g: RibbonGraph) -> Iterator[Instance]:
    base = is_orientable(g)
    for v in g.vertex_names:
        yield {"flip": v}, is_orientable(flip_vertex(g, v)) == base, (
            "orientability must be invariant under vertex flips"
        )


def _prop_flip_involution(g: RibbonGraph) -> Iterator[Instance]:
    for v in g.vertex_names:
        yield {"flip": v}, flip_vertex(flip_vertex(g, v), v) == g, "double flip must restore the graph"


def _prop_arrow_roundtrip(g: RibbonGraph) -> Iterator[Instance]:
    yield {}, from_arrow_presentation(to_arrow_presentation(g)) == g, (
        "arrow-presentation round trip must be the identity"
    )
    for v in g.vertex_names:
        h = flip_vertex(g, v)
        yield {"flip": v}, from_arrow_presentation(to_arrow_presentation(h)) == h, (
            "round trip must also hold after flips"
        )


def _prop_text_roundtrip(g: RibbonGraph) -> Iterator[Instance]:
    text = graph_to_text(g)
    yield {}, parse_graph(text) == g, "text round trip must reproduce the graph"
    ctext = canonical_text(g)
    yield {}, graph_to_text(parse_graph(ctext)) == ctext, (
        "canonical serializations must round trip bit-exactly"
    )


def _prop_canonical_stability(g: RibbonGraph) -> Iterator[Instance]:
    key = canonical_key(g)
    canon = _graph_of_key(key)
    again = canonical_key(canon)
    yield {}, again == key, "canonical graph must stay in the class"
    yield {}, _graph_of_key(again) == canon, "canonicalisation must be idempotent"
    for v in g.vertex_names:
        yield {"flip": v}, canonical_key(flip_vertex(g, v)) == key, (
            "canonical key must be flip-invariant"
        )


def _prop_petrial_involution(g: RibbonGraph) -> Iterator[Instance]:
    for a in _edge_subsets(g):
        yield {"A": list(a)}, partial_petrial(partial_petrial(g, a), a) == g, (
            "half-twisting twice must restore the graph exactly"
        )


def _prop_dual_involution(g: RibbonGraph) -> Iterator[Instance]:
    for a in _edge_subsets(g):
        again = partial_dual(partial_dual(g, a), a)
        yield {"A": list(a)}, are_isomorphic(again, g, match_edge_labels=True), (
            "dualising the same set twice must give an isomorphic graph"
        )


def _prop_pdual_disjoint_union(g: RibbonGraph) -> Iterator[Instance]:
    # G^(B∪C) is built once per union and G^B once per B.
    unions: dict[frozenset, RibbonGraph] = {}
    firsts: dict[tuple, RibbonGraph] = {}
    for b, c in _disjoint_pairs(g):
        lhs = _built(unions, frozenset(b + c), partial_dual, g, b + c)
        rhs = partial_dual(_built(firsts, b, partial_dual, g, b), c)
        yield {"A": list(b), "B": list(c)}, are_isomorphic(lhs, rhs, match_edge_labels=True), (
            "dualising a union must match dualising in stages"
        )


def _prop_delta_tau_commute(g: RibbonGraph) -> Iterator[Instance]:
    names = g.edge_names
    # In itertools.permutations order, with G^{e1} built once per e1 and G^{τ(e2)} once per e2.
    twisted: dict[str, RibbonGraph] = {}
    for e1 in names:
        dual = partial_dual(g, [e1])
        for e2 in names:
            if e2 == e1:
                continue
            lhs = partial_petrial(dual, [e2])
            rhs = partial_dual(_built(twisted, e2, partial_petrial, g, [e2]), [e1])
            yield {"dual": e1, "twist": e2}, are_isomorphic(lhs, rhs, match_edge_labels=True), (
                "duals and twists on distinct edges must commute"
            )


def _prop_group_relations(g: RibbonGraph) -> Iterator[Instance]:
    for e in g.edge_names:
        h = g
        for _ in range(3):
            h = apply_twist_word(h, {e: "dt"})
        yield {"edge": e, "word": "(dt)^3"}, are_isomorphic(h, g, match_edge_labels=True), (
            "the sixth-order relation must act as the identity"
        )


def _prop_twist_word_grouping(g: RibbonGraph) -> Iterator[Instance]:
    names = g.edge_names[:2]
    # The letter chain's graph after each run of (edge, letter) steps, so
    # words that begin with the same letters share their graphs.
    chains: dict[tuple, RibbonGraph] = {}
    for combo in itertools.product(TWIST_ELEMENTS, repeat=len(names)):
        word = dict(zip(names, combo))
        grouped = apply_twist_word(g, word)
        sequential, done = g, ()
        for name, op in [(name, op) for name in reversed(names) for op in reversed(word[name]) if op != "1"]:
            done += ((name, op),)
            build = partial_petrial if op == "t" else partial_dual
            sequential = _built(chains, done, build, sequential, [name])
        yield {"word": dict(word)}, are_isomorphic(grouped, sequential, match_edge_labels=True), (
            "grouped and sequential word application must agree"
        )


def _prop_minor_commute(g: RibbonGraph) -> Iterator[Instance]:
    # G/C is built once per C and G - B once per B.
    contracted: dict[tuple, RibbonGraph] = {}
    deleted: dict[tuple, RibbonGraph] = {}
    for b, c in _disjoint_pairs(g):
        lhs = delete(_built(contracted, c, contract, g, c), b)
        rhs = contract(_built(deleted, b, delete, g, b), c)
        yield {"delete": list(b), "contract": list(c)}, are_isomorphic(
            lhs, rhs, match_edge_labels=True
        ), "deletion and contraction of disjoint sets must commute"


def _splice_contract_nonloop(g: RibbonGraph, name: str) -> RibbonGraph:
    """Independent contraction oracle for a non-loop edge: splice the two
    rotations at the edge.  A twisted edge is first untwisted by flipping
    its far endpoint here: that rotation is reversed, and each edge with
    one end there changes sign."""
    d1, d2 = g.edge(name).ends
    u1, u2 = g.vertex_of(d1), g.vertex_of(d2)
    assert u1 != u2
    rotations = {v.name: v.rotation for v in g.vertices}
    r1, r2 = rotations[u1], rotations.pop(u2)
    edges = [x for x in g.edges if x.name != name]
    if g.edge(name).sign < 0:
        r2 = r2[::-1]
        edges = [Edge(x.name, -x.sign) if sum(y.edge == x.name for y in r2) == 1 else x for x in edges]
    i1, i2 = r1.index(d1), r2.index(d2)
    rotations[u1] = r1[i1 + 1:] + r1[:i1] + r2[i2 + 1:] + r2[:i2]
    return RibbonGraph([Vertex(v, r) for v, r in rotations.items()], edges)


def _prop_contract_vs_splice(g: RibbonGraph) -> Iterator[Instance]:
    for e in g.edge_names:
        if g.is_loop(e):
            continue
        lhs = contract(g, [e])
        rhs = _splice_contract_nonloop(g, e)
        yield {"edge": e}, are_isomorphic(lhs, rhs, match_edge_labels=True), (
            "dual-route contraction must match direct splicing on non-loops"
        )


def _prop_pdual_minor_exchange(g: RibbonGraph) -> Iterator[Instance]:
    # The minors do not depend on A, nor G^A on (B, C), so each is built
    # once; the left side depends on A only through A∖(B∪C), so each minor
    # is dualised once per such rest.
    minors = [(b, c, set(b) | set(c), minor(g, b, c), {}) for b, c in _disjoint_pairs(g)]
    for a in _edge_subsets(g):
        aset = set(a)
        dual = partial_dual(g, a)
        for b, c, bc, m, duals in minors:
            rest = tuple(x for x in a if x not in bc)
            lhs = _built(duals, rest, partial_dual, m, rest)
            bp = tuple(sorted((set(b) - aset) | (set(c) & aset)))
            cp = tuple(sorted((set(c) - aset) | (set(b) & aset)))
            rhs = minor(dual, bp, cp)
            yield {"A": list(a), "B": list(b), "C": list(c)}, are_isomorphic(
                lhs, rhs, match_edge_labels=True
            ), "partial duality must exchange deleted and contracted sets"


def _prop_pdual_deletion_identities(g: RibbonGraph) -> Iterator[Instance]:
    gdual = geometric_dual(g)
    for a in _edge_subsets(g):
        comp = _complement(g, a)
        dual = partial_dual(g, a)
        lhs1 = geometric_dual(delete(g, comp))
        rhs1 = delete(dual, comp)
        yield {"A": list(a)}, are_isomorphic(lhs1, rhs1, match_edge_labels=True), (
            "dualising after deleting the complement must match deleting it from the partial dual"
        )
        lhs2 = geometric_dual(delete(gdual, a))
        rhs2 = delete(dual, a)
        yield {"A": list(a)}, are_isomorphic(lhs2, rhs2, match_edge_labels=True), (
            "the dual-side deletion identity must hold"
        )


def _prop_pdual_bipartite_minors(g: RibbonGraph) -> Iterator[Instance]:
    gdual = geometric_dual(g)
    for a in _edge_subsets(g):
        if not is_bipartite(partial_dual(g, a)):
            continue
        comp = _complement(g, a)
        m1 = geometric_dual(delete(g, comp))
        m2 = geometric_dual(delete(gdual, a))
        ok = is_bipartite(m1) and is_bipartite(m2)
        yield {"A": list(a)}, ok, "bipartite partial dual forces bipartite minors"


def _prop_pdual_checkerboard_minors(g: RibbonGraph) -> Iterator[Instance]:
    gdual = geometric_dual(g)
    for a in _edge_subsets(g):
        if not is_checkerboard_colourable(partial_dual(g, a)):
            continue
        comp = _complement(g, a)
        kept = delete(g, a)
        dual_kept = delete(gdual, comp)
        ok = all(is_checkerboard_colourable(h) and is_eulerian(h) for h in (kept, dual_kept))
        yield {"A": list(a)}, ok, (
            "checkerboard partial dual forces checkerboard Eulerian minors"
        )


def _prop_boundary_criterion_equivalence(g: RibbonGraph) -> Iterator[Instance]:
    if not is_orientable(g):
        return
    for a in _edge_subsets(g):
        crit = has_alternating_boundary_orientation(g, a)
        colourable = is_checkerboard_colourable(partial_dual(g, a))
        yield {"A": list(a)}, crit == colourable, (
            "the boundary-orientation criterion must match dual colourability"
        )


def _prop_all_crossing(g: RibbonGraph) -> Iterator[Instance]:
    if not is_orientable(g):
        return
    m = build_medial(g)
    for seed in (0, 1):
        direction = straight_ahead_direction(m, seed=seed)
        yield {"seed": seed}, is_all_crossing(m, direction), (
            "straight-ahead directions must be all-crossing"
        )
        cls = classify_cd(m, direction)
        yield {"seed": seed}, set(cls) == set(g.edge_names) and all(
            v in ("c", "d") for v in cls.values()
        ), "crossing classification must be total"


def _prop_smoothing_signs(g: RibbonGraph) -> Iterator[Instance]:
    if not is_orientable(g):
        return
    m = build_medial(g)
    direction = straight_ahead_direction(m)
    cls = classify_cd(m, direction)
    curves = smooth(m, direction, cls)
    coherent = all(len({s.sign for s in curve.segments}) <= 1 for curve in curves)
    yield {}, coherent, "every smoothed curve must be all-positive or all-negative"
    by_edge: dict[str, list[int]] = {}
    for curve in curves:
        for s in curve.segments:
            by_edge.setdefault(s.edge, []).append(s.sign)
    ok = all(sorted(v) == [-1, 1] for v in by_edge.values())
    yield {}, ok and set(by_edge) == set(g.edge_names), (
        "each edge must get one positive and one negative smoothed strand"
    )


def _prop_curves_match_boundary(g: RibbonGraph) -> Iterator[Instance]:
    if not is_orientable(g):
        return
    m = build_medial(g)
    direction = straight_ahead_direction(m)
    cls = classify_cd(m, direction)
    curves = smooth(m, direction, cls)
    removed = d_edges(cls)
    decomp = trace_boundary(delete(m.host, removed))
    yield {"D": list(removed)}, len(curves) == decomp.count, (
        "smoothed curves must match boundary components of the d-deleted host"
    )
    # Each curve's kept-edge strands must form exactly the side pairs of one
    # boundary component.
    comp_keys = sorted(_side_pair_key(zip(c.segments[::2], c.segments[1::2])) for c in decomp.components)
    curve_keys = sorted(_side_pair_key((s.entry, s.exit) for s in c.segments if s.kind == "edge-line") for c in curves)
    yield {"D": list(removed)}, comp_keys == curve_keys, (
        "curves must traverse exactly the ribbon sides of their boundary component"
    )


def _side_pair_key(pairs) -> tuple:
    return tuple(sorted(tuple(sorted(pair)) for pair in pairs))


def _prop_d_edges_eulerian_minors(g: RibbonGraph) -> Iterator[Instance]:
    if not is_orientable(g):
        return
    m = build_medial(g)
    cls = classify_cd(m, straight_ahead_direction(m))
    dset = d_edges(cls)
    comp = _complement(g, dset)
    ok = is_eulerian(delete(g, dset)) and is_eulerian(delete(geometric_dual(g), comp))
    yield {"D": list(dset)}, ok, "deleting d-edges must leave Eulerian graphs on both sides"


def _prop_petrial_orientable_dual_eulerian(g: RibbonGraph) -> Iterator[Instance]:
    if not is_orientable(petrial(g)):
        return
    yield {}, is_eulerian(geometric_dual(g)), (
        "an orientable Petrial forces an Eulerian dual"
    )


def _prop_theorem1_endtoend(g: RibbonGraph) -> Iterator[Instance]:
    cert = checkerboard_twisted_dual(g)
    yield {}, is_orientable(partial_petrial(g, cert.petrial_set)), (
        "the twist set must orientate the graph"
    )
    recomputed = partial_dual(partial_petrial(g, cert.petrial_set), cert.dual_set)
    yield {"A": list(cert.petrial_set), "D": list(cert.dual_set)}, are_isomorphic(
        recomputed, cert.result, match_edge_labels=True
    ), "the certificate must reproduce its result"
    yield {}, is_checkerboard_colourable(cert.result), (
        "the twisted dual must be checkerboard colourable"
    )
    via_word = apply_twist_word(g, cert.twist_word())
    yield {"word": cert.twist_word()}, are_isomorphic(
        via_word, cert.result, match_edge_labels=True
    ), "the certificate's twist word must carry the input to the result"


def _prop_theorem2_endtoend(g: RibbonGraph) -> Iterator[Instance]:
    if not is_eulerian(g):
        return
    cert = checkerboard_partial_petrial(g)
    yield {"I": list(cert.twisted)}, cert.result == partial_petrial(g, cert.twisted), "the result must twist exactly I"
    yield {}, is_checkerboard_colourable(cert.result), "the twisted graph must be checkerboard colourable"


def _prop_orienting_set(g: RibbonGraph) -> Iterator[Instance]:
    a = orienting_petrial_set(g)
    yield {"A": list(a)}, is_orientable(partial_petrial(g, a)), (
        "twisting the orienting set must give an orientable graph"
    )
    if is_orientable(g):
        yield {}, a == (), "orientable graphs must need no twists"


PROPERTIES: dict[str, Callable[[RibbonGraph], Iterator[Instance]]] = {
    "boundary-partition": _prop_boundary_partition,
    "checkerboard-implies-eulerian": _prop_checkerboard_implies_eulerian,
    "bipartite-implies-even-face": _prop_bipartite_implies_even_face,
    "checkerboard-iff-dual-bipartite": _prop_checkerboard_iff_dual_bipartite,
    "even-face-iff-dual-eulerian": _prop_even_face_iff_dual_eulerian,
    "orientability-flip-invariant": _prop_orientability_flip_invariant,
    "flip-involution": _prop_flip_involution,
    "arrow-roundtrip": _prop_arrow_roundtrip,
    "text-roundtrip": _prop_text_roundtrip,
    "canonical-stability": _prop_canonical_stability,
    "petrial-involution": _prop_petrial_involution,
    "dual-involution": _prop_dual_involution,
    "pdual-disjoint-union": _prop_pdual_disjoint_union,
    "delta-tau-commute": _prop_delta_tau_commute,
    "group-relations": _prop_group_relations,
    "twist-word-grouping": _prop_twist_word_grouping,
    "minor-commute": _prop_minor_commute,
    "contract-vs-splice": _prop_contract_vs_splice,
    "pdual-minor-exchange": _prop_pdual_minor_exchange,
    "pdual-deletion-identities": _prop_pdual_deletion_identities,
    "pdual-bipartite-minors": _prop_pdual_bipartite_minors,
    "pdual-checkerboard-minors": _prop_pdual_checkerboard_minors,
    "boundary-criterion-equivalence": _prop_boundary_criterion_equivalence,
    "all-crossing": _prop_all_crossing,
    "smoothing-signs": _prop_smoothing_signs,
    "curves-match-boundary": _prop_curves_match_boundary,
    "d-edges-eulerian-minors": _prop_d_edges_eulerian_minors,
    "petrial-orientable-implies-dual-eulerian": _prop_petrial_orientable_dual_eulerian,
    "orienting-set": _prop_orienting_set,
    "theorem1-endtoend": _prop_theorem1_endtoend,
    "theorem2-endtoend": _prop_theorem2_endtoend,
}


def _evaluate(names: tuple[str, ...], g: RibbonGraph) -> list[tuple[int, list[PropertyFailure], float]]:
    """Each named suite's instance count, failures and seconds on ``g``, run in turn."""
    results = []
    for name in names:
        start, checked, failures = time.perf_counter(), 0, []
        for checked, (params, ok, detail) in enumerate(PROPERTIES[name](g), 1):
            if not ok:
                failures.append(PropertyFailure(graph_to_text(g), params, detail))
        results.append((checked, failures, time.perf_counter() - start))
    return results


def run_property_suite(universe: GraphUniverse, selector: str, *, workers: int = 1) -> PropertyReport:
    """Evaluate one named property over every graph in the universe."""
    if selector not in PROPERTIES:
        raise UnknownPropertyError(
            f"unknown property {selector!r}; known: {', '.join(sorted(PROPERTIES))}"
        )
    return _run(universe, universe.params(), (selector,), workers)[0]


def run_all_properties(universe: GraphUniverse, *, workers: int = 1) -> list[PropertyReport]:
    """Evaluate every property in one pass over the universe."""
    return _run(universe, universe.params(), tuple(PROPERTIES), workers)


def _require_workers(workers: int) -> None:
    if workers < 1:
        raise WorkerCountError("workers must be at least 1")


def _run(graphs: Iterable[RibbonGraph], params: dict, names: tuple[str, ...], workers: int) -> list[PropertyReport]:
    """One report per named suite, from one pass in which each graph runs every suite in
    turn and is then dropped with its memos; with ``workers > 1`` the graphs stream through
    one pool, in order, four to a task (a ≤3-edge pass is 127 graphs, the costliest last).
    A suite's ``elapsed_ms`` sums its own time over the graphs (and the workers)."""
    _require_workers(workers)
    evaluate, totals = functools.partial(_evaluate, names), [[0, [], 0.0] for _ in names]
    with contextlib.ExitStack() as stack:
        per_graph = map(evaluate, graphs)
        if workers > 1:
            import multiprocessing

            per_graph = stack.enter_context(multiprocessing.Pool(workers)).imap(evaluate, graphs, 4)
        for results in per_graph:
            for total, (checked, failures, seconds) in zip(totals, results):
                total[0] += checked
                total[1] += failures  # extended in place
                total[2] += seconds
    return [PropertyReport(name, params, c, tuple(f), s * 1000) for name, (c, f, s) in zip(names, totals)]


def predicate_implication_table(universe: GraphUniverse) -> dict[str, dict]:
    """Empirical implication table for the four predicates over a universe."""
    tests = {
        "bipartite": is_bipartite, "even-face": is_even_face,
        "eulerian": is_eulerian, "checkerboard": is_checkerboard_colourable,
    }
    counts = {p: {q: 0 for q in tests} for p in tests}
    total = 0
    for g in universe:
        total += 1
        values = {name: test(g) for name, test in tests.items()}
        for p in tests:
            for q in tests:
                if values[p] and not values[q]:
                    counts[p][q] += 1
    return {
        "graphs": total,
        "counterexamples": counts,
        "holds": {p: {q: counts[p][q] == 0 for q in tests} for p in tests},
    }


# ---------------------------------------------------------------------------
# Counterexample search
# ---------------------------------------------------------------------------

class ConverseWitness(NamedTuple):
    """A graph and subset where both dualised minors are bipartite but the
    partial dual itself is not."""

    graph: RibbonGraph
    subset: tuple[str, ...]

    def verify(self) -> bool:
        g, a = self.graph, self.subset
        comp = _complement(g, a)
        return (
            is_bipartite(geometric_dual(delete(g, comp)))
            and is_bipartite(geometric_dual(delete(geometric_dual(g), a)))
            and not is_bipartite(partial_dual(g, a))
        )


def search_converse_counterexample(universe: GraphUniverse) -> ConverseWitness | None:
    """First witness, in universe-then-subset order, or None within bounds."""
    for g in universe:
        names = g.edge_names
        for mask in range(1 << len(names)):
            witness = ConverseWitness(g, tuple(names[i] for i in range(len(names)) if mask >> i & 1))
            if witness.verify():
                return witness
    return None
