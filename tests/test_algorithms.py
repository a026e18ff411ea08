import pytest

from ribbonlab import (
    BLUE,
    RED,
    HalfEdgeSegment,
    EdgeEnd,
    NotEulerianError,
    NotOrientableError,
    UnknownEdgeError,
    apply_twist_word,
    are_isomorphic,
    build_medial,
    checkerboard_colouring,
    checkerboard_partial_petrial,
    checkerboard_twisted_dual,
    classify_cd,
    d_edges,
    geometric_dual,
    has_alternating_boundary_orientation,
    is_checkerboard_colourable,
    is_eulerian,
    is_orientable,
    orienting_petrial_set,
    parse_graph,
    partial_dual,
    partial_petrial,
    ribbon_graph,
    straight_ahead_direction,
    trace_boundary,
)

from ribbonlab.core import L, R

from helpers import (
    brute_force_alternating_boundary_orientation,
    component_index,
    graph,
    random_graph,
    segment_trace_boundary,
)


# ---------------------------------------------------------------------------
# orienting twist set
# ---------------------------------------------------------------------------

def test_orientable_graph_needs_no_twists():
    for name in ("loop", "torus", "path2", "digon"):
        assert orienting_petrial_set(graph(name)) == ()


def test_twisted_loop_needs_its_only_edge():
    assert orienting_petrial_set(graph("twisted_loop")) == ("a",)


def test_orienting_set_works(universe4):
    for g in universe4:
        a = orienting_petrial_set(g)
        assert is_orientable(partial_petrial(g, a))


# ---------------------------------------------------------------------------
# the partial-Petrial pipeline and its corner colouring
# ---------------------------------------------------------------------------

def corner_colours(cert) -> tuple:
    """Per vertex of the result, the colour of the face at each corner in
    rotation order, read on the reference segment walk.  Corner k lies
    between end k's R segment and end k + 1's L segment, and both must lie
    on the same face."""
    comp_of = component_index(segment_trace_boundary(cert.result))
    colours = cert.colouring.colours
    out = []
    for v in cert.result.vertices:
        rot = v.rotation
        corners = tuple(colours[comp_of[HalfEdgeSegment(d, R)]] for d in rot)
        for k, c in enumerate(corners):
            assert colours[comp_of[HalfEdgeSegment(rot[(k + 1) % len(rot)], L)]] == c
        out.append((v.name, corners))
    return tuple(out)


def test_isolated_vertex_colouring_empty():
    cert = checkerboard_partial_petrial(graph("isolated"))
    assert cert.twisted == ()
    assert corner_colours(cert) == (("u", ()),)


def test_degree_two_alternation():
    assert corner_colours(checkerboard_partial_petrial(graph("loop"))) == (("u", (BLUE, RED)),)


def test_degree_four_alternation():
    cert = checkerboard_partial_petrial(graph("torus"))
    assert corner_colours(cert) == (("u", (BLUE, RED, BLUE, RED)),)


def test_corner_colours_alternate_around_every_vertex(universe3):
    for g in universe3:
        if is_eulerian(g):
            for _, corners in corner_colours(checkerboard_partial_petrial(g)):
                assert all(corners[k] != corners[k - 1] for k in range(len(corners)))


def test_odd_degree_rejected(universe3):
    for g in universe3:
        if not is_eulerian(g):
            with pytest.raises(NotEulerianError):
                checkerboard_partial_petrial(g)


def test_half_twist_toggles_consistency(universe3):
    for g in universe3:
        if not is_eulerian(g):
            continue
        twisted = checkerboard_partial_petrial(g).twisted
        for e in g.edge_names:
            assert (e in twisted) != (e in checkerboard_partial_petrial(partial_petrial(g, [e])).twisted)


def test_twisting_inconsistent_edges_fixes_all(universe3):
    for g in universe3:
        if is_eulerian(g):
            assert checkerboard_partial_petrial(checkerboard_partial_petrial(g).result).twisted == ()


def test_partial_petrial_pipeline_on_torus():
    cert = checkerboard_partial_petrial(graph("torus"))
    assert cert.twisted == ("a", "b")
    assert cert.result == partial_petrial(graph("torus"), ["a", "b"])
    assert is_checkerboard_colourable(cert.result)


def test_partial_petrial_pipeline_identity_when_consistent():
    g = graph("loop")
    cert = checkerboard_partial_petrial(g)
    assert cert.twisted == ()
    assert cert.result == g


def test_partial_petrial_pipeline_requires_eulerian():
    with pytest.raises(NotEulerianError):
        checkerboard_partial_petrial(graph("path2"))


def test_boundaries_monochromatic_after_twisting(universe3):
    for g in universe3:
        if not is_eulerian(g):
            continue
        cert = checkerboard_partial_petrial(g)
        # Corner k of each vertex gets colour k % 2; an end's R segment
        # touches its own corner and its L segment the one before.
        colour = {}
        for v in cert.result.vertices:
            for k, d in enumerate(v.rotation):
                colour[HalfEdgeSegment(d, R)] = k % 2
                colour[HalfEdgeSegment(d, L)] = (k - 1) % 2
        for comp in segment_trace_boundary(cert.result).components:
            assert len({colour[s] for s in comp.segments}) <= 1


# ---------------------------------------------------------------------------
# the twisted-dual pipeline
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,petrial_set,dual_set",
    [
        ("loop", (), ()),
        ("twisted_loop", ("a",), ()),
        ("path2", (), ("a",)),
        ("torus", (), ("b",)),
    ],
)
def test_twisted_dual_certificates(name, petrial_set, dual_set):
    cert = checkerboard_twisted_dual(graph(name))
    assert cert.petrial_set == petrial_set
    assert cert.dual_set == dual_set
    assert is_checkerboard_colourable(cert.result)


def test_one_boundary_component_walkthrough():
    g = parse_graph("vertex v0: e0.1 e1.1 e0.2 e1.2\nedge e0: +\nedge e1: -\n")
    assert trace_boundary(g).count == 1
    assert not is_checkerboard_colourable(g)
    cert = checkerboard_twisted_dual(g)
    assert cert.petrial_set == ("e1",)
    assert cert.dual_set == ("e1",)
    assert trace_boundary(cert.result).count == 2
    assert set(cert.colouring.colours) == {RED, BLUE}


def test_certificate_reconstructs_result(universe2):
    for g in universe2:
        cert = checkerboard_twisted_dual(g)
        rebuilt = partial_dual(partial_petrial(g, cert.petrial_set), cert.dual_set)
        assert are_isomorphic(rebuilt, cert.result, match_edge_labels=True)
        via_word = apply_twist_word(g, cert.twist_word())
        assert are_isomorphic(via_word, cert.result, match_edge_labels=True)


def test_certificate_word_gives_the_result_exactly(universe3):
    # The word is a partial Petrial then a partial dual, so it must rebuild
    # the result's vertex names too, not only its isomorphism class.
    for g in [*universe3, *(random_graph(200, seed) for seed in range(5))]:
        cert = checkerboard_twisted_dual(g)
        assert apply_twist_word(g, cert.twist_word()) == cert.result


def test_certificate_word_elements():
    cert = checkerboard_twisted_dual(
        parse_graph("vertex v0: e0.1 e1.1 e0.2 e1.2\nedge e0: +\nedge e1: -\n")
    )
    assert cert.twist_word() == {"e1": "dt"}


def test_both_seeds_give_colourable_results(universe2):
    for g in universe2:
        for seed in (0, 1):
            cert = checkerboard_twisted_dual(g, seed=seed)
            assert is_checkerboard_colourable(cert.result)


def test_twisted_dual_on_random_larger_graphs():
    from ribbonlab import sample_graphs, delete

    for k, count in ((4, 20), (5, 12), (6, 8)):
        for g in sample_graphs(k, count, seed=1):
            cert = checkerboard_twisted_dual(g)
            assert is_checkerboard_colourable(cert.result)
            oriented = partial_petrial(g, cert.petrial_set)
            comp = [n for n in g.edge_names if n not in set(cert.dual_set)]
            assert is_eulerian(delete(oriented, cert.dual_set))
            assert is_eulerian(delete(geometric_dual(oriented), comp))


def test_twisted_dual_matches_the_medial_views(raw_universe3):
    # The pipeline classifies on flags without building the medial graph;
    # the public medial views must reach the same dual set.
    for g in [*raw_universe3, random_graph(300, 1), random_graph(2000, 1)]:
        for seed in (0, 1):
            cert = checkerboard_twisted_dual(g, seed=seed)
            m = build_medial(partial_petrial(g, cert.petrial_set))
            assert cert.dual_set == d_edges(classify_cd(m, straight_ahead_direction(m, seed=seed)))


def test_twisted_dual_solves_orientation_once(monkeypatch):
    # The bits that found the petrial set also orient the twisted graph.
    from ribbonlab import algorithms, core

    calls = []
    real = core._orientation_parity
    monkeypatch.setattr(core, "_orientation_parity", lambda g: calls.append(g) or real(g))
    monkeypatch.setattr(algorithms, "_orientation_parity", core._orientation_parity)
    for g in (graph("twisted_loop"), graph("torus"), random_graph(300, 1)):
        checkerboard_twisted_dual(g)
        assert calls == [g]
        calls.clear()


def test_twisted_dual_certificate_at_scale():
    g = random_graph(2000, 1)
    cert = checkerboard_twisted_dual(g)
    assert cert.result.edge_names == g.edge_names
    decomp = segment_trace_boundary(cert.result)
    assert trace_boundary(cert.colouring.graph) == decomp
    comp_of = component_index(decomp)
    colours = cert.colouring.colours
    for name in cert.result.edge_names:
        end = EdgeEnd(name, 1)
        left, right = comp_of[HalfEdgeSegment(end, L)], comp_of[HalfEdgeSegment(end, R)]
        assert colours[left] != colours[right]


def test_partial_petrial_on_random_larger_graphs():
    from ribbonlab import sample_graphs

    for k, count in ((4, 20), (5, 12), (6, 8)):
        for g in sample_graphs(k, count, seed=2, eulerian=True):
            cert = checkerboard_partial_petrial(g)
            assert is_checkerboard_colourable(cert.result)


# ---------------------------------------------------------------------------
# the boundary-orientation criterion
# ---------------------------------------------------------------------------

def test_criterion_matches_known_duals():
    loop = graph("loop")
    # deleting nothing: the loop itself is checkerboard colourable
    assert has_alternating_boundary_orientation(loop, [])
    # deleting the loop: its dual is the one-edge path with a single face
    assert not has_alternating_boundary_orientation(loop, ["a"])
    assert not is_checkerboard_colourable(partial_dual(loop, ["a"]))


def test_criterion_requires_orientable():
    with pytest.raises(NotOrientableError):
        has_alternating_boundary_orientation(graph("twisted_loop"), [])


def test_criterion_rejects_unknown_edge_names():
    with pytest.raises(UnknownEdgeError):
        has_alternating_boundary_orientation(graph("torus"), ["zz"])
    with pytest.raises(UnknownEdgeError):
        has_alternating_boundary_orientation(graph("torus"), ["a", "zz"])
    # Orientability is checked first, as before the names.
    with pytest.raises(NotOrientableError):
        has_alternating_boundary_orientation(graph("twisted_loop"), ["zz"])


def test_criterion_equivalence_small(universe2):
    import itertools

    for g in universe2:
        if not is_orientable(g):
            continue
        names = sorted(g.edge_names)
        for r in range(len(names) + 1):
            for subset in itertools.combinations(names, r):
                crit = has_alternating_boundary_orientation(g, subset)
                assert crit == is_checkerboard_colourable(partial_dual(g, subset))


def test_criterion_handles_fully_deleted_vertices():
    g = graph("bouquet")
    assert has_alternating_boundary_orientation(g, ["a", "b"]) == (
        is_checkerboard_colourable(geometric_dual(g))
    )


def test_criterion_matches_brute_force_reference(raw_universe3):
    import itertools

    for g in raw_universe3:
        if not is_orientable(g):
            continue
        names = g.edge_names
        for r in range(len(names) + 1):
            for subset in itertools.combinations(names, r):
                assert has_alternating_boundary_orientation(g, subset) == (
                    brute_force_alternating_boundary_orientation(g, subset)
                )


def test_criterion_is_linear_in_components():
    import time

    # Removing every edge of a 200-vertex path leaves 200 components whose
    # constraints form a path; of a 201-vertex cycle, an odd cycle.  The
    # brute force would try 2^200 sign vectors.
    for n, closed in ((200, False), (201, True)):
        rotations = {f"v{i}": [] for i in range(n)}
        for i in range(n if closed else n - 1):
            rotations[f"v{i}"].append(f"e{i}.1")
            rotations[f"v{(i + 1) % n}"].append(f"e{i}.2")
        g = ribbon_graph(rotations)
        start = time.perf_counter()
        crit = has_alternating_boundary_orientation(g, g.edge_names)
        assert time.perf_counter() - start < 1.0
        assert crit == (not closed)
        assert crit == is_checkerboard_colourable(partial_dual(g, g.edge_names))


def test_criterion_equivalence_at_scale():
    import random

    for seed in range(5):
        g = random_graph(200, seed)
        g = partial_petrial(g, [e.name for e in g.edges if e.sign < 0])
        rng = random.Random(seed)
        subset = [name for name in g.edge_names if rng.random() < 0.5]
        crit = has_alternating_boundary_orientation(g, subset)
        assert crit == is_checkerboard_colourable(partial_dual(g, subset))
        # The theorem 1 dual set of an orientable graph is a "yes" instance.
        cert = checkerboard_twisted_dual(g)
        assert cert.petrial_set == ()
        assert has_alternating_boundary_orientation(g, cert.dual_set)


def test_criterion_equivalence_on_random_larger_graphs():
    import random

    from ribbonlab import sample_graphs

    rng = random.Random(7)
    for k in (4, 5):
        for g in sample_graphs(k, 10, seed=3):
            if not is_orientable(g):
                continue
            names = sorted(g.edge_names)
            subset = tuple(n for n in names if rng.random() < 0.5)
            crit = has_alternating_boundary_orientation(g, subset)
            assert crit == is_checkerboard_colourable(partial_dual(g, subset))
