from collections import Counter

import pytest

from ribbonlab import (
    RED,
    checkerboard_colouring,
    enumerate_graphs,
    euler_characteristic_by_component,
    face_degrees,
    geometric_dual,
    is_bipartite,
    is_checkerboard_colourable,
    is_eulerian,
    is_even_face,
    orientation_flips,
    partial_petrial,
    trace_boundary,
)
from ribbonlab.core import EdgeEnd, HalfEdgeSegment, L, R

from helpers import brute_force_parity, component_index, graph, random_graph, segment_trace_boundary


def test_eulerian_examples():
    assert is_eulerian(graph("isolated"))
    assert is_eulerian(graph("loop"))
    assert not is_eulerian(graph("path2"))


def test_bipartite_examples():
    assert is_bipartite(graph("path2"))
    assert not is_bipartite(graph("loop"))
    assert is_bipartite(graph("digon"))
    assert not is_bipartite(graph("triangle"))


@pytest.mark.parametrize(
    "name,degrees",
    [
        ("loop", [1, 1]),
        ("twisted_loop", [2]),
        ("torus", [4]),
        ("isolated", [0]),
    ],
)
def test_face_degrees(name, degrees):
    assert sorted(face_degrees(graph(name)).elements()) == degrees


def test_even_face_examples():
    assert is_even_face(graph("twisted_loop"))
    assert not is_even_face(graph("loop"))
    assert is_even_face(graph("torus"))


def test_face_degree_sum(universe2):
    for g in universe2:
        assert sum(face_degrees(g).elements()) == 2 * len(g.edges)


def test_checkerboard_examples():
    assert is_checkerboard_colourable(graph("loop"))
    assert not is_checkerboard_colourable(graph("twisted_loop"))
    assert not is_checkerboard_colourable(graph("torus"))
    assert is_checkerboard_colourable(partial_petrial(graph("torus"), ["a", "b"]))


def test_colouring_is_deterministic_and_proper():
    g = graph("loop")
    colouring = checkerboard_colouring(g)
    assert colouring is not None
    assert colouring.colours[0] == RED  # lowest index is red
    comp_of = component_index(segment_trace_boundary(g))
    for e in g.edges:
        # The two half-edge segments at end 1 lie on the edge's two sides.
        s1, s2 = (HalfEdgeSegment(EdgeEnd(e.name, 1), side) for side in (L, R))
        assert colouring.colours[comp_of[s1]] != colouring.colours[comp_of[s2]]


def test_isolated_vertex_coloured_red():
    colouring = checkerboard_colouring(graph("isolated"))
    assert colouring is not None and colouring.colours == (RED,)


def test_self_adjacent_face_blocks_colouring():
    assert checkerboard_colouring(graph("twisted_loop")) is None


def test_known_implications(universe2):
    for g in universe2:
        if is_checkerboard_colourable(g):
            assert is_eulerian(g)
        if is_bipartite(g):
            assert is_even_face(g)


def test_duality_equivalences(universe2):
    for g in universe2:
        assert is_checkerboard_colourable(g) == is_bipartite(geometric_dual(g))
        assert is_even_face(g) == is_eulerian(geometric_dual(g))


def test_eulerian_does_not_imply_checkerboard():
    g = graph("torus")
    assert is_eulerian(g) and not is_checkerboard_colourable(g)


def test_parity_predicates_match_brute_force(raw_universe3):
    """Bipartiteness, orientability and face colourability each ask for
    bits satisfying parity links; every answer is checked against trying
    all assignments, and every returned colouring against every link."""
    for g in raw_universe3:
        index = {v.name: i for i, v in enumerate(g.vertices)}
        home = {d: index[v.name] for v in g.vertices for d in v.rotation}
        ends = [(home[e.ends[0]], home[e.ends[1]]) for e in g.edges]
        n = len(g.vertices)

        assert is_bipartite(g) == (brute_force_parity(n, [(u, w, 1) for u, w in ends]) is not None)

        twist_links = [(u, w, int(e.sign < 0)) for e, (u, w) in zip(g.edges, ends)]
        flips = orientation_flips(g)
        assert (flips is None) == (brute_force_parity(n, twist_links) is None)
        if flips is not None:
            bit = [int(v.name in flips) for v in g.vertices]
            assert all(bit[u] ^ bit[w] == p for u, w, p in twist_links)

        decomp = segment_trace_boundary(g)
        comp_of = component_index(decomp)
        face_links = [
            (comp_of[HalfEdgeSegment(e.ends[0], L)], comp_of[HalfEdgeSegment(e.ends[0], R)], 1)
            for e in g.edges
        ]
        colouring = checkerboard_colouring(g)
        assert (colouring is None) == (brute_force_parity(decomp.count, face_links) is None)
        if colouring is not None:
            assert all(colouring.colours[a] != colouring.colours[b] for a, b, _ in face_links)


def test_face_readers_match_segment_walk(raw_universe3):
    """The face readers take the memoised flag orbits; each is checked
    against the named-segment reference walk, with pieces found by a
    union-find of its own."""
    isolated = list(enumerate_graphs(2, extra_isolated=2))
    for g in [*raw_universe3, *isolated, random_graph(300, 1), random_graph(2000, 2)]:
        ref = segment_trace_boundary(g)
        degrees = [len(c.segments) // 2 for c in ref.components]
        assert face_degrees(g) == Counter(degrees)
        assert is_even_face(g) == all(d % 2 == 0 for d in degrees)

        home = {d: v.name for v in g.vertices for d in v.rotation}
        root = {v.name: v.name for v in g.vertices}

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for e in g.edges:
            root[find(home[e.ends[0]])] = find(home[e.ends[1]])
        chi = Counter()
        for v in g.vertices:
            chi[find(v.name)] += 1
        for e in g.edges:
            chi[find(home[e.ends[0]])] -= 1
        for c in ref.components:
            chi[find(home[c.segments[0].end] if c.segments else c.isolated_vertex)] += 1
        pieces = dict.fromkeys(find(v.name) for v in g.vertices)
        assert euler_characteristic_by_component(g) == [chi[p] for p in pieces]

        colouring = checkerboard_colouring(g)
        if colouring is not None:
            assert colouring.graph is g
            assert trace_boundary(colouring.graph) == ref
            assert len(colouring.colours) == ref.count
