import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from ribbonlab import (
    Edge,
    EdgeEnd,
    RibbonGraph,
    Vertex,
    are_isomorphic,
    canonical_graph,
    canonical_key,
    canonical_text,
    flip_vertex,
    geometric_dual,
    graph_to_text,
    parse_graph,
    partial_dual,
    partial_petrial,
)

from ribbonlab import isomorphism
from ribbonlab.core import _from_flags
from ribbonlab.isomorphism import _permutation_graph, canonical_key_darts
from ribbonlab.workbench import sample_graphs

from helpers import (
    RENAMED_PAIRS,
    assert_born_with_flags,
    backtracking_labelled_search,
    dart_graph,
    flip_mask_canonical_key_darts,
    graph,
    minimal_sigma_reps,
    quadratic_canonical_key_darts,
    random_graph,
    rotation_systems,
    same_partition,
)


def test_reflexive():
    for name in ("loop", "twisted_loop", "torus", "isolated"):
        assert are_isomorphic(graph(name), graph(name))


def test_loop_and_twisted_loop_differ():
    assert not are_isomorphic(graph("loop"), graph("twisted_loop"))


def test_isolated_vertices_laid_out_before_every_end_key_as_after():
    # The key's scratch per vertex must count the isolated vertices too.
    before = parse_graph("vertex a:\nvertex b:\nvertex c:\nvertex v: x.1 x.2\nedge x: +\n")
    after = parse_graph("vertex u: x.1 x.2\nvertex w:\nvertex y:\nvertex z:\nedge x: +\n")
    assert before._flags.bounds == [0, 0, 0, 0, 2] and canonical_key(before) == canonical_key(after)


def test_flips_are_isomorphisms(universe2):
    for g in universe2:
        for v in g.vertex_names:
            assert are_isomorphic(g, flip_vertex(g, v))
            assert canonical_key(flip_vertex(g, v)) == canonical_key(g)


def test_relabelling_is_an_isomorphism():
    g = parse_graph("vertex u: a.1 b.1 a.2 b.2\nedge a: +\nedge b: +\n")
    h = parse_graph("vertex x: q.1 p.1 q.2 p.2\nedge q: +\nedge p: +\n")
    assert are_isomorphic(g, h)


def test_rotation_shift_is_an_isomorphism():
    g = parse_graph("vertex u: a.1 b.1 a.2 b.2\nedge a: +\nedge b: +\n")
    h = parse_graph("vertex u: b.2 a.1 b.1 a.2\nedge a: +\nedge b: +\n")
    assert are_isomorphic(g, h, match_edge_labels=True)


def test_single_edge_signs_equivalent():
    plus = parse_graph("vertex u: a.1\nvertex v: a.2\nedge a: +\n")
    minus = parse_graph("vertex u: a.1\nvertex v: a.2\nedge a: -\n")
    assert are_isomorphic(plus, minus, match_edge_labels=True)


def test_interleaving_matters():
    assert not are_isomorphic(graph("torus"), graph("bouquet"))


def test_match_edge_labels_is_stricter():
    g = parse_graph("vertex u: a.1 a.2\nvertex v: b.1\nvertex w: b.2\nedge a: +\nedge b: +\n")
    h = parse_graph("vertex u: b.1 b.2\nvertex v: a.1\nvertex w: a.2\nedge a: +\nedge b: +\n")
    assert are_isomorphic(g, h)
    assert not are_isomorphic(g, h, match_edge_labels=True)


def test_canonical_separates_and_identifies(universe2):
    # canonical keys agree exactly on isomorphic pairs
    sample = universe2[:40]
    for g, h in itertools.combinations(sample, 2):
        same = canonical_key(g) == canonical_key(h)
        assert same == are_isomorphic(g, h)
        assert not same  # the universe is deduplicated


def test_canonical_graph_idempotent(universe2):
    for g in universe2:
        canon = canonical_graph(g)
        assert canonical_key(canon) == canonical_key(g)
        assert canonical_graph(canon) == canon
        assert canonical_text(g) == graph_to_text(canon)


def test_canonical_key_invariant_under_twist_relabelling():
    g = graph("torus")
    h = parse_graph("vertex u: b.1 a.1 b.2 a.2\nedge a: +\nedge b: +\n")
    assert canonical_key(g) == canonical_key(h)


def test_not_isomorphic_when_signs_unfixable():
    g = partial_petrial(graph("torus"), ["a"])
    assert not are_isomorphic(g, graph("torus"))


def _labelled_reference(g, h) -> bool:
    if len(g.edges) != len(h.edges) or len(g.vertices) != len(h.vertices):
        return False
    return sorted(g.edge_names) == sorted(h.edge_names) and backtracking_labelled_search(g, h)


def test_labelled_search_matches_backtracking(raw_universe3):
    rng = random.Random(5)
    by_size: dict[int, list[RibbonGraph]] = {}
    for g in raw_universe3:
        by_size.setdefault(len(g.edges), []).append(g)
    for g in raw_universe3:
        names = g.edge_names
        partners = [geometric_dual(geometric_dual(g)), rng.choice(by_size[len(names)])]
        for r in range(len(names) + 1):
            for subset in itertools.combinations(names, r):
                partners += [partial_dual(g, subset), partial_petrial(g, subset)]
        for h in partners:
            expected = _labelled_reference(g, h)
            assert are_isomorphic(g, h, match_edge_labels=True) == expected
            # are_isomorphic answers pairs with equal flags before searching;
            # the search must still agree on them.
            if len(g.vertex_names) == len(h.vertex_names) and g.edge_names == h.edge_names:
                assert isomorphism._labelled_search(g, h) == expected


def _count_searches(monkeypatch) -> list:
    calls: list = []
    search = isomorphism._labelled_search
    monkeypatch.setattr(isomorphism, "_labelled_search", lambda g, h: calls.append(1) or search(g, h))
    return calls


def _shifted_copy(g: RibbonGraph, order, shifts) -> RibbonGraph:
    """g rebuilt from Vertex tuples, vertices in ``order`` and each rotation
    started ``shifts[i]`` ends later."""
    vertices = [g.vertices[i] for i in order]
    return RibbonGraph(
        tuple(Vertex(v.name, v.rotation[s:] + v.rotation[:s]) for v, s in zip(vertices, shifts)),
        g.edges,
    )


def _sign_toggled(g: RibbonGraph, name: str) -> RibbonGraph:
    return RibbonGraph(g.vertices, tuple(Edge(e.name, -e.sign) if e.name == name else e for e in g.edges))


SEARCH_GRAPHS = ["loop", "twisted_loop", "torus", "bouquet", "digon", "triangle", "isolated"]


def _compared_flags(g: RibbonGraph) -> tuple:
    """The flags that ``are_isomorphic``'s equal-flags test compares."""
    return g._flags.ends, g._flags.corner, g._flags.side


def test_equal_flags_are_isomorphic_without_a_search(monkeypatch):
    calls = _count_searches(monkeypatch)
    for g in [graph(name) for name in SEARCH_GRAPHS] + [random_graph(40, seed) for seed in (1, 2)]:
        renamed = _from_flags(g._flags, tuple(f"w{i}" for i in range(len(g.vertex_names))), g.edge_names)
        chosen = g.edge_names[::2]
        twice = partial_petrial(partial_petrial(g, chosen), chosen)
        for h in (renamed, twice):
            assert _compared_flags(h) == _compared_flags(g) and h.edges == g.edges
            for labelled in (True, False):
                assert are_isomorphic(g, h, match_edge_labels=labelled)
                assert are_isomorphic(h, g, match_edge_labels=labelled)
    assert calls == []


def test_renamed_copies_are_isomorphic_but_not_with_their_labels():
    # The first two pairs share every flag, so the equal-flag answer must
    # not hold for a labelled comparison before the edge names are checked.
    for a, b in RENAMED_PAIRS:
        g, h = parse_graph(a), parse_graph(b)
        assert are_isomorphic(g, h) and are_isomorphic(h, g)
        assert not are_isomorphic(g, h, match_edge_labels=True)
        assert not are_isomorphic(h, g, match_edge_labels=True)


def test_differing_flags_still_reach_the_search(monkeypatch):
    calls = _count_searches(monkeypatch)
    answers = []
    for g in [graph(name) for name in SEARCH_GRAPHS if name != "isolated"] + [random_graph(8, s) for s in (1, 2, 3)]:
        n = len(g.vertices)
        shifted = _shifted_copy(g, range(n - 1, -1, -1), [1] * n)
        for h in (shifted, _sign_toggled(g, g.edge_names[-1])):
            assert (_compared_flags(h), h.edges) != (_compared_flags(g), g.edges)
            answers.append(are_isomorphic(g, h, match_edge_labels=True))
            assert answers[-1] == backtracking_labelled_search(g, h)
    assert len(calls) == len(answers) and set(answers) == {True, False}


@given(g=rotation_systems(max_edges=5), data=st.data())
def test_reordered_shifted_flipped_copies_are_labelled_isomorphic(g, data):
    order = data.draw(st.permutations(range(len(g.vertices))))
    shifts = [data.draw(st.integers(0, max(len(g.vertices[i].rotation) - 1, 0))) for i in order]
    h = flip_vertex(_shifted_copy(g, order, shifts), data.draw(st.sampled_from(g.vertex_names)))
    assert are_isomorphic(g, h, match_edge_labels=True)
    if g.edges:
        toggled = _sign_toggled(h, data.draw(st.sampled_from(g.edge_names)))
        assert are_isomorphic(g, toggled, match_edge_labels=True) == backtracking_labelled_search(g, toggled)


def test_labelled_search_scales():
    isolated = RibbonGraph(tuple(Vertex(f"v{i}") for i in range(1100)))
    assert are_isomorphic(isolated, isolated, match_edge_labels=True)
    g = random_graph(2000, 1)
    twice = geometric_dual(geometric_dual(g))
    assert are_isomorphic(g, twice, match_edge_labels=True)
    assert not are_isomorphic(g, partial_petrial(twice, ["e7"]), match_edge_labels=True)


def _flip_mask_key(g: RibbonGraph) -> tuple:
    # The reference reads the vertices and edges, the key the flags.
    return flip_mask_canonical_key_darts(dart_graph(g))


def test_key_partition_matches_flip_mask_reference_on_raw_universe(raw_universe3):
    assert len(raw_universe3) == 5861
    assert same_partition(raw_universe3, canonical_key, _flip_mask_key)


def _four_edge_candidates() -> list[tuple]:
    """Every sign vector of every 4-edge relabelling representative."""
    return [
        (sigma, signs, 0)
        for sigma in minimal_sigma_reps(4)
        for signs in itertools.product((1, -1), repeat=4)
    ]


def test_key_partition_matches_flip_mask_reference_on_four_edge_candidates():
    darts = _four_edge_candidates()
    graphs = [_permutation_graph(*dg) for dg in darts]
    assert len(graphs) == 2912
    # The builder lays out exactly the permutation it is given.
    assert [dart_graph(g) for g in graphs] == darts
    assert same_partition(graphs, canonical_key, _flip_mask_key)
    assert len({canonical_key(g) for g in graphs}) == 850


def test_permutation_graph_names_darts_2i_and_2i_plus_1_edge_e_i_past_ten_edges():
    # The flags number edge e<i> by its name's rank, and e10 ranks before e2,
    # so a builder that took i for the rank would rename edges past ten.
    rng = random.Random("twelve edges")
    sigma = list(range(24))
    rng.shuffle(sigma)
    signs = [rng.choice((1, -1)) for _ in range(12)]
    g = _permutation_graph(sigma, signs, 0)
    rotations, met = [], set()
    for d in range(24):
        cycle = []
        while d not in met:
            met.add(d)
            cycle.append(EdgeEnd(f"e{d >> 1}", 1 + (d & 1)))
            d = sigma[d]
        rotations += [tuple(cycle)] if cycle else []
    assert [v.rotation for v in g.vertices] == rotations
    assert g.edges == tuple(sorted(Edge(f"e{i}", sign) for i, sign in enumerate(signs)))
    assert g.edge_names[:5] == ("e0", "e1", "e10", "e11", "e2")


def _cycle(n: int, sign: int) -> RibbonGraph:
    """n edges round n vertices of degree 2, every edge of the given sign."""
    sigma = [0] * (2 * n)
    for i in range(n):
        # Vertex i holds end 1 of edge i and end 2 of edge i - 1.
        a, b = 2 * i, (2 * i - 1) % (2 * n)
        sigma[a], sigma[b] = b, a
    return _permutation_graph(sigma, (sign,) * n, 0)


def _bouquet(n: int, sign: int) -> RibbonGraph:
    """n loops at one vertex, each loop's ends side by side."""
    return _permutation_graph([(d + 1) % (2 * n) for d in range(2 * n)], (sign,) * n, 0)


def _cyclic_cover(sigma, signs, shifts, n: int) -> RibbonGraph:
    """n copies of the graph (sigma, signs), with end 2 of each edge i
    moved ``shifts[i]`` copies on: shifting every copy by one is an
    automorphism, so candidates tie."""
    k = len(signs)

    def dart(d: int, copy: int) -> int:
        i = d >> 1
        return 2 * (i + (copy - shifts[i] * (d & 1)) % n * k) + (d & 1)

    lifted = [0] * (2 * k * n)
    for copy in range(n):
        for d in range(2 * k):
            lifted[dart(d, copy)] = dart(sigma[d], copy)
    return _permutation_graph(lifted, tuple(signs) * n, 0)


def _random_covers(count: int, seed: int) -> list[RibbonGraph]:
    rng = random.Random(f"covers:{seed}")
    out = []
    for _ in range(count):
        k, n = rng.randint(1, 5), rng.randint(2, 7)
        sigma = rng.sample(range(2 * k), 2 * k)
        signs = [rng.choice((1, -1)) for _ in range(k)]
        out.append(_cyclic_cover(sigma, signs, [rng.randrange(n) for _ in range(k)], n))
    return out


def test_key_matches_quadratic_reference(raw_universe3):
    graphs = raw_universe3 + [_permutation_graph(*dg) for dg in _four_edge_candidates()]
    graphs += [g for edges in (10, 20, 30, 40, 50) for g in sample_graphs(edges, 10, seed=edges)]
    graphs += [build(n, sign) for build in (_cycle, _bouquet) for n in (1, 2, 3, 60) for sign in (1, -1)]
    # A cover whose candidates tie before its least one is walked: an
    # automorphism read with the wrong orientations skips that one.
    graphs.append(_cyclic_cover([7, 3, 2, 8, 6, 1, 4, 5, 0, 9], [-1, -1, 1, -1, 1], [0, 0, 1, 2, 4], 5))
    graphs += _random_covers(200, 0)
    for g in graphs:
        assert canonical_key_darts(g._flags) == quadratic_canonical_key_darts(g._flags)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("build", (_cycle, _bouquet))
def test_symmetric_graphs_key_without_walking_every_start(build, sign):
    # Every (start, orientation) candidate ties here, so the quadratic key
    # walks all 8,000 of them in full: about 20 s.
    g = build(2000, sign)
    start = time.perf_counter()
    key = canonical_key(g)
    assert time.perf_counter() - start < 2
    assert canonical_key(_renamed(g, 1)) == key


def test_canonical_graphs_carry_their_flags(universe3):
    big = sample_graphs(40, 5, seed=3)
    canon = [canonical_graph(g) for g in universe3 + big]
    assert_born_with_flags(canon)
    assert [canonical_key(c) for c in canon] == [canonical_key(g) for g in universe3 + big]


def _path(n: int) -> RibbonGraph:
    return RibbonGraph(
        tuple(
            Vertex(f"v{i}", tuple([EdgeEnd(f"e{i - 1}", 2)] * (i > 0) + [EdgeEnd(f"e{i}", 1)] * (i < n - 1)))
            for i in range(n)
        ),
        tuple(Edge(f"e{i}") for i in range(n - 1)),
    )


def _renamed(g: RibbonGraph, seed: int) -> RibbonGraph:
    names = list(g.edge_names)
    shuffled = names[:]
    random.Random(seed).shuffle(shuffled)
    new = {old: "x" + other for old, other in zip(names, shuffled)}
    return RibbonGraph(
        tuple(Vertex(v.name, tuple(EdgeEnd(new[d.edge], d.end) for d in v.rotation)) for v in g.vertices),
        tuple(Edge(new[e.name], e.sign) for e in g.edges),
    )


def test_canonical_key_scales_and_stays_invariant():
    # Keys over every flip mask took 33 s on the 16-vertex path.
    big = random_graph(300, 2)
    for g in (_path(16), big):
        start = time.perf_counter()
        key = canonical_key(g)
        assert time.perf_counter() - start < 5
        flipped = g
        for v in g.vertex_names[::3]:
            flipped = flip_vertex(flipped, v)
        assert canonical_key(flipped) == key
        assert canonical_key(_renamed(g, 1)) == key
        assert canonical_key(canonical_graph(g)) == key
    assert canonical_key(partial_petrial(big, ["e5"])) != canonical_key(big)
