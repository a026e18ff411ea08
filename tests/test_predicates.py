import pytest

from ribbonlab import (
    RED,
    checkerboard_colouring,
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

from helpers import brute_force_parity, graph


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
    comp_of = colouring.decomposition.component_of()
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

        decomp = trace_boundary(g)
        comp_of = decomp.component_of()
        face_links = [
            (comp_of[HalfEdgeSegment(e.ends[0], L)], comp_of[HalfEdgeSegment(e.ends[0], R)], 1)
            for e in g.edges
        ]
        colouring = checkerboard_colouring(g)
        assert (colouring is None) == (brute_force_parity(decomp.count, face_links) is None)
        if colouring is not None:
            assert all(colouring.colours[a] != colouring.colours[b] for a, b, _ in face_links)
