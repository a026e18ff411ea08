import pickle
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from ribbonlab import (
    Edge,
    EdgeEnd,
    HalfEdgeSegment,
    InvalidGraphError,
    MalformedPresentationError,
    NotOrientableError,
    RibbonGraph,
    TextFormatError,
    UnknownEdgeError,
    Vertex,
    Violation,
    canonical_graph,
    checkerboard_partial_petrial,
    checkerboard_twisted_dual,
    connected_components,
    delete,
    enumerate_graphs,
    euler_characteristic,
    euler_characteristic_by_component,
    flip_vertex,
    from_arrow_presentation,
    graph_to_text,
    is_checkerboard_colourable,
    is_eulerian,
    is_orientable,
    orientation_flips,
    oriented_form,
    orienting_petrial_set,
    parse_graph,
    partial_dual,
    partial_petrial,
    ribbon_graph,
    canonical_text,
    sample_graphs,
    save_graph,
    to_arrow_presentation,
    trace_boundary,
)
from ribbonlab import core
from ribbonlab.core import Arrow, ArrowPresentation, Circle, _Flags, _parity_colouring

from helpers import (
    FIXTURES,
    RENAMED_PAIRS,
    TEXTS,
    assert_born_with_flags,
    assert_partners_across_the_ribbon,
    brute_force_parity,
    graph,
    random_graph,
    rotation_systems,
    segment_trace_boundary,
)


# ---------------------------------------------------------------------------
# validation: once, where a graph is built
# ---------------------------------------------------------------------------

#: One graph of each kind of structural violation, as (vertices, edges).
INVALID = {
    "duplicate-end": ((Vertex("u", (EdgeEnd("e", 1), EdgeEnd("e", 1))),), (Edge("e"),)),
    "unplaced-end": ((Vertex("u", (EdgeEnd("e", 1),)),), (Edge("e"),)),
    "bad-sign": ((Vertex("u", (EdgeEnd("e", 1), EdgeEnd("e", 2))),), (Edge("e", 0),)),
    "no-ends": ((Vertex("u"),), (Edge("e"),)),
    "duplicate-vertex": ((Vertex("u", (EdgeEnd("e", 1), EdgeEnd("e", 2))), Vertex("u")), (Edge("e"),)),
    "duplicate-edge": ((Vertex("u", (EdgeEnd("e", 1), EdgeEnd("e", 2))),), (Edge("e"), Edge("e", -1))),
    "bad-end-index": ((Vertex("u", (EdgeEnd("e", 1), EdgeEnd("e", 3), EdgeEnd("e", 2))),), (Edge("e"),)),
    "unknown-edge-end": (
        (Vertex("u", (EdgeEnd("e", 1), EdgeEnd("f", 1))), Vertex("v", (EdgeEnd("e", 2),))), (Edge("e"),)
    ),
}


def _unplaced(edge: str, end: int) -> Violation:
    return Violation("unplaced-edge-end", f"edge-end {edge}.{end} appears in no vertex rotation", EdgeEnd(edge, end))


#: The violations, messages and edge-ends reported for each graph of
#: INVALID, pinned in report order.
VIOLATIONS = {
    "duplicate-end": (
        Violation("duplicate-edge-end", "edge-end e.1 appears more than once", EdgeEnd("e", 1)),
        _unplaced("e", 2),
    ),
    "unplaced-end": (_unplaced("e", 2),),
    "bad-sign": (Violation("bad-sign", "edge e has sign 0, expected +1 or -1"),),
    "no-ends": (_unplaced("e", 1), _unplaced("e", 2)),
    "duplicate-vertex": (Violation("duplicate-vertex", "duplicate vertex name"),),
    "duplicate-edge": (Violation("duplicate-edge", "duplicate edge name"),),
    "bad-end-index": (
        Violation("bad-end-index", "edge-end e.3 at vertex u has end index 3", EdgeEnd("e", 3)),
    ),
    "unknown-edge-end": (
        Violation("unknown-edge-end", "edge-end f.1 at vertex u names no declared edge", EdgeEnd("f", 1)),
    ),
}


def test_empty_graph_is_valid():
    g = RibbonGraph((Vertex("u"),), ())
    assert g.vertex_names == ("u",) and g.edges == ()
    assert core.validate(("u",), [], [0, 0], ()) == []


@pytest.mark.parametrize("kind", sorted(INVALID))
def test_construction_raises_with_every_violation(kind):
    with pytest.raises(InvalidGraphError) as info:
        RibbonGraph(*INVALID[kind])
    assert info.value.violations == VIOLATIONS[kind]
    assert str(info.value) == "invalid ribbon graph: " + "; ".join(v.message for v in VIOLATIONS[kind])


@pytest.mark.parametrize("kind", sorted(set(INVALID) - {"duplicate-vertex", "duplicate-edge"}))
def test_ribbon_graph_raises_with_every_violation(kind):
    # A mapping holds each vertex and edge name once, so two kinds cannot be
    # written as one; and every edge the rotations name is declared, so an
    # unknown end's edge becomes an edge with an unplaced end.
    vertices, edges = INVALID[kind]
    with pytest.raises(InvalidGraphError) as info:
        ribbon_graph({v.name: v.rotation for v in vertices}, {e.name: e.sign for e in edges})
    assert info.value.violations == ((_unplaced("f", 2),) if kind == "unknown-edge-end" else VIOLATIONS[kind])


def test_trace_boundary_traces_each_graph_once(monkeypatch):
    from ribbonlab import core

    traced = []
    real = core._trace_boundary
    monkeypatch.setattr(core, "_trace_boundary", lambda g: traced.append(g) or real(g))
    g = graph("torus")
    first = trace_boundary(g)
    assert trace_boundary(g) is first
    assert traced == [g]
    # An equal graph built afresh is traced afresh, to the same result.
    assert trace_boundary(graph("torus")) == first
    assert len(traced) == 2


def test_edge_end_and_segment_keep_order_text_and_hash():
    a1, a2, b1 = EdgeEnd("a", 1), EdgeEnd("a", 2), EdgeEnd("b", 1)
    assert sorted([b1, a2, a1]) == [a1, a2, b1]
    assert (str(a2), repr(a2)) == ("a.2", "EdgeEnd(edge='a', end=2)")
    assert hash(a2) == hash(("a", 2))
    left, right = HalfEdgeSegment(a1, "L"), HalfEdgeSegment(a1, "R")
    assert sorted([HalfEdgeSegment(b1, "L"), right, HalfEdgeSegment(a2, "L"), left]) == [
        left, right, HalfEdgeSegment(a2, "L"), HalfEdgeSegment(b1, "L")
    ]
    assert str(right) == "a.1R"
    assert repr(right) == "HalfEdgeSegment(end=EdgeEnd(edge='a', end=1), side='R')"
    assert hash(right) == hash((("a", 1), "R"))
    # An Edge is a named tuple too: equal to its plain tuple, which no set or dict mixes with it.
    a, twisted = Edge("a"), Edge("a", -1)
    assert (repr(a), repr(twisted)) == ("Edge(name='a', sign=1)", "Edge(name='a', sign=-1)")
    assert a == Edge("a", 1) == ("a", 1) and a != twisted and hash(a) == hash(("a", 1))
    assert a.ends == (a1, a2) and sorted([Edge("b"), twisted, a]) == [twisted, a, Edge("b")]


def test_vertex_rotation_is_coerced_to_a_tuple():
    ends = [EdgeEnd("a", 1), EdgeEnd("a", 2)]
    listed, tupled = Vertex("u", ends), Vertex("u", tuple(ends))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert type(listed.rotation) is tuple and Vertex("u", iter(ends)).rotation == tuple(ends)
    assert Vertex("u").rotation == () and listed == ("u", tuple(ends))
    assert repr(listed) == "Vertex(name='u', rotation=(EdgeEnd(edge='a', end=1), EdgeEnd(edge='a', end=2)))"
    assert pickle.loads(pickle.dumps(listed)) == listed


def test_graphs_refuse_assignment_and_deletion():
    # RibbonGraph.__setattr__ and __delattr__ refuse every name, stored
    # fields and memos alike; the constructor and memos write __dict__.
    g = graph("torus")
    before = dict(vars(g))
    for name in ("edges", "_flags", "_faces", "spare"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(g, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(g, name)
    assert vars(g) == before and g == graph("torus")


def test_graph_and_boundary_reprs_are_pinned():
    g = parse_graph((FIXTURES / "twisted_loop.rg").read_text())
    assert repr(g) == (
        "RibbonGraph(vertices=(Vertex(name='u', rotation=(EdgeEnd(edge='a', end=1), EdgeEnd(edge='a', end=2))),),"
        " edges=(Edge(name='a', sign=-1),))"
    )
    assert repr(trace_boundary(g)) == (
        "BoundaryDecomposition(components=(BoundaryComponent(segments=("
        "HalfEdgeSegment(end=EdgeEnd(edge='a', end=1), side='L'), HalfEdgeSegment(end=EdgeEnd(edge='a', end=2), side='L'), "
        "HalfEdgeSegment(end=EdgeEnd(edge='a', end=1), side='R'), HalfEdgeSegment(end=EdgeEnd(edge='a', end=2), side='R')"
        "), isolated_vertex=None),))"
    )


def test_graphs_survive_a_pickle_round_trip():
    # Worker processes receive graphs and return results by pickle.
    for g in (graph("torus"), parse_graph((FIXTURES / "twisted_loop.rg").read_text()), random_graph(50, 1)):
        trace_boundary(g)  # memos travel with the graph
        copy = pickle.loads(pickle.dumps(g))
        assert type(copy) is RibbonGraph and copy == g and hash(copy) == hash(g) and repr(copy) == repr(g)
        assert trace_boundary(copy) == trace_boundary(g) and graph_to_text(copy) == graph_to_text(g)


def test_memos_leave_eq_hash_and_repr_alone(universe2):
    # Every graph holds its flags, vertex names and edge names from
    # construction; RibbonGraph.__eq__ and __hash__ read the first two, and
    # __repr__ the vertices and edges views.
    g = graph("torus")
    fresh = RibbonGraph(g.vertices, g.edges)
    stored, memos = {"_flags", "vertex_names", "edge_names"}, {"_faces", "_edge_links"}
    assert stored <= vars(fresh).keys() and not vars(fresh).keys() & memos
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert not vars(fresh).keys() & memos  # eq, hash and repr read none of them
    faces, links = fresh._faces, fresh._edge_links
    # Each memo is stored on the instance at its first read, then read back.
    assert memos <= vars(fresh).keys()
    assert fresh._faces is faces and fresh._edge_links is links
    assert fresh.edge_names == ("a", "b")
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    # Equal graphs hash equal however they were built, and a graph built on
    # flags holds its signs only there until its edges view is read.
    for h in universe2:
        v, e = h.vertex_names[0], h.edge_names[:1]
        built = [
            RibbonGraph(h.vertices, h.edges),
            ribbon_graph({u.name: u.rotation for u in h.vertices}, h.signs()),
            parse_graph(graph_to_text(h)),
            partial_petrial(partial_petrial(h, h.edge_names), h.edge_names),
            flip_vertex(flip_vertex(h, v), v),
        ]
        # With no edge named, a partial Petrial or dual is h itself.
        operated = [flip_vertex(h, v), delete(h, e), canonical_graph(h)]
        operated += [op(h, e) for op in (partial_petrial, partial_dual) if e]
        for k in (built[2], *operated):
            assert stored <= vars(k).keys() and "edges" not in vars(k)
            assert k.edges is k.edges and "edges" in vars(k)
        for k in built:
            assert stored <= vars(k).keys()
            assert k == h and hash(k) == hash(h) and repr(k) == repr(h)
    for k in [*enumerate_graphs(2), *sample_graphs(3, 2)]:
        assert "edges" not in vars(k)


def test_ribbon_graph_builder_is_linear_and_keeps_order():
    g = random_graph(10_000, 3)
    rebuilt = ribbon_graph({v.name: v.rotation for v in g.vertices}, g.signs())
    assert rebuilt == g and str(rebuilt) == str(g)


def test_edges_are_stored_in_name_order():
    edges = [Edge("e10", -1), Edge("b"), Edge("e2"), Edge("a", -1), Edge("e1")]
    vertices = (Vertex("u", [d for e in edges for d in e.ends]),)
    g = RibbonGraph(vertices, edges)
    assert g.edge_names == ("a", "b", "e1", "e10", "e2")
    assert g == RibbonGraph(vertices, g.edges) == RibbonGraph(vertices, reversed(edges))
    assert [e.sign for e in g.edges] == [-1, 1, 1, -1, 1]


def test_ribbon_graph_builder_accepts_strings():
    g = ribbon_graph({"u": ["a.1", "a.2"]}, {"a": -1})
    assert g == graph("twisted_loop")
    assert g.signs()["a"] == -1


def test_lookups_name_the_unknown_edge():
    g = graph("path2")
    assert not g.is_loop("a") and graph("loop").is_loop("a")
    for call in (g.edge, g.is_loop):
        with pytest.raises(UnknownEdgeError) as info:
            call("zz")
        assert info.value.args == ("zz",)


# ---------------------------------------------------------------------------
# boundary tracing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,count",
    [
        ("loop", 2),
        ("twisted_loop", 1),
        ("path2", 1),
        ("torus", 1),
        ("bouquet", 3),
        ("digon", 2),
        ("isolated", 1),
    ],
)
def test_boundary_component_counts(name, count):
    assert trace_boundary(graph(name)).count == count


def test_twisting_torus_loops_gives_two_colourable_faces():
    g = partial_petrial(graph("torus"), ["a", "b"])
    decomp = trace_boundary(g)
    assert decomp.count == 2
    assert is_checkerboard_colourable(g)


def test_boundary_partitions_all_segments(universe2):
    for g in universe2:
        decomp = trace_boundary(g)
        segs = [s for c in decomp.components for s in c.segments]
        assert len(segs) == 4 * len(g.edges)
        assert len(set(segs)) == len(segs)


def test_boundary_walk_alternates_edge_sides():
    g = graph("torus")
    for comp in trace_boundary(g).components:
        segs = comp.segments
        for i in range(0, len(segs), 2):
            a, b = segs[i], segs[i + 1]
            assert a.end.edge == b.end.edge and a.end.end != b.end.end


def test_isolated_vertex_component_is_empty():
    comp = trace_boundary(graph("isolated")).components[0]
    assert comp.segments == ()
    assert comp.isolated_vertex == "u"
    assert comp.face_degree == 0


def test_trace_matches_segment_walk(raw_universe3):
    for g in raw_universe3 + [random_graph(300, 1), random_graph(2000, 2)]:
        assert trace_boundary(g) == segment_trace_boundary(g)


def test_flag_structure_invariants(raw_universe3):
    for g in raw_universe3 + [random_graph(300, 1), random_graph(2000, 2)]:
        flags = g._flags
        n = 2 * len(flags.ends)
        for inv in (flags.corner, flags.side):
            assert len(inv) == n
            assert all(inv[f] != f and inv[inv[f]] == f for f in range(n))
        # <corner, end> has one orbit per non-isolated vertex, made of the
        # 2 * degree flags of that vertex's ends.
        orbit_of = [-1] * n
        sizes: list[int] = []
        for f0 in range(n):
            if orbit_of[f0] >= 0:
                continue
            orbit_of[f0] = len(sizes)
            stack, size = [f0], 0
            while stack:
                f = stack.pop()
                size += 1
                for h in (flags.corner[f], f ^ 1):
                    if orbit_of[h] < 0:
                        orbit_of[h] = len(sizes)
                        stack.append(h)
            sizes.append(size)
        assert sizes == [2 * len(v.rotation) for v in g.vertices if v.rotation]
        assert orbit_of == sorted(orbit_of)


# ---------------------------------------------------------------------------
# euler characteristic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,chi",
    [
        ("isolated", 2),
        ("loop", 2),
        ("twisted_loop", 1),
        ("path2", 2),
        ("torus", 0),
        ("bouquet", 2),
        ("digon", 2),
        ("triangle", 2),
    ],
)
def test_euler_characteristic(name, chi):
    assert euler_characteristic(graph(name)) == chi


def test_euler_characteristic_per_component():
    g = parse_graph(
        "vertex u: a.1 b.1 a.2 b.2\nvertex w:\nvertex x: c.1 c.2\n"
        "edge a: +\nedge b: +\nedge c: +\n"
    )
    assert euler_characteristic_by_component(g) == [0, 2, 2]
    assert euler_characteristic(g) == 4
    pieces = connected_components(g)
    assert [vs for vs, _ in pieces] == [("u",), ("w",), ("x",)]


def test_sphere_fixtures_have_chi_two():
    for name in ("loop", "path2", "bouquet", "digon", "triangle"):
        assert euler_characteristic(graph(name)) == 2


def test_euler_characteristic_is_linear_on_a_digon_chain():
    """4,000 digons in a row: a sphere with 4,001 faces.  The boundary is
    traced first, so the bound times only what the Euler characteristic
    adds; looking each face's piece up by vertex scan took ~1.5 s on it."""
    k = 4000
    rotations: list[list[EdgeEnd]] = [[] for _ in range(k + 1)]
    for i in range(k):
        rotations[i] += [EdgeEnd(f"a{i}", 1), EdgeEnd(f"b{i}", 1)]
        rotations[i + 1] += [EdgeEnd(f"b{i}", 2), EdgeEnd(f"a{i}", 2)]
    g = RibbonGraph(
        tuple(Vertex(f"v{i}", tuple(rot)) for i, rot in enumerate(rotations)),
        tuple(Edge(f"{c}{i}") for i in range(k) for c in "ab"),
    )
    assert trace_boundary(g).count == k + 1
    start = time.perf_counter()
    assert euler_characteristic(g) == 2
    assert time.perf_counter() - start < 0.5


def test_euler_characteristic_is_the_sum_over_components(raw_universe3):
    # The total counts V - E + F at once, with one empty face per isolated
    # vertex; the per-piece count assigns each face to its piece.
    graphs = raw_universe3 + list(enumerate_graphs(2, extra_isolated=2)) + sample_graphs(50, 10, seed=4)
    assert any(len(connected_components(g)) > 2 for g in graphs)
    for g in graphs:
        assert euler_characteristic(g) == sum(euler_characteristic_by_component(g))


# ---------------------------------------------------------------------------
# the parity solver
# ---------------------------------------------------------------------------

def test_parity_colouring_matches_brute_force():
    rng = random.Random("parity")
    for _ in range(600):
        n = rng.randrange(8)
        m = rng.randrange(12) if n else 0
        links = [(rng.randrange(n), rng.randrange(n), rng.randrange(2)) for _ in range(m)]
        # Parallel links, with equal and with opposite parities.
        links += [rng.choice(links)[:2] + (rng.randrange(2),) for _ in range(m // 3)]
        bit, bad = _parity_colouring(n, links)
        assert len(bit) == n and set(bit) <= {0, 1}
        assert bad == [i for i, (u, w, p) in enumerate(links) if bit[u] ^ bit[w] != p]
        assert (not bad) == (brute_force_parity(n, links) is not None)
        # The lowest node of every piece gets bit 0.
        low = list(range(n))
        for _ in range(n):
            for u, w, _ in links:
                low[u] = low[w] = min(low[u], low[w])
        assert all(bit[low[u]] == 0 for u in range(n))


# ---------------------------------------------------------------------------
# orientability and flips
# ---------------------------------------------------------------------------

def test_orientability_basics():
    assert is_orientable(graph("loop"))
    assert not is_orientable(graph("twisted_loop"))
    assert is_orientable(graph("torus"))


def test_twisted_nonloop_edge_is_repairable():
    g = parse_graph("vertex u: a.1\nvertex v: a.2\nedge a: -\n")
    flips = orientation_flips(g)
    assert flips is not None and len(flips) == 1
    oriented, flipped = oriented_form(g)
    assert all(e.sign == 1 for e in oriented.edges)
    assert flipped == tuple(sorted(flips))


def test_odd_twist_cycle_is_not_orientable():
    g = parse_graph(
        "vertex u: a.1 c.2\nvertex v: b.1 a.2\nvertex w: c.1 b.2\n"
        "edge a: -\nedge b: +\nedge c: +\n"
    )
    assert not is_orientable(g)
    with pytest.raises(NotOrientableError):
        oriented_form(g)


def test_flip_isolated_vertex_is_identity():
    g = graph("isolated")
    assert flip_vertex(g, "u") == g


def test_flip_endpoint_toggles_sign_and_reverses():
    g = parse_graph("vertex u: a.1 b.1\nvertex v: a.2 b.2\nedge a: +\nedge b: -\n")
    h = flip_vertex(g, "v")
    assert h.vertex("v").rotation == (EdgeEnd("b", 2), EdgeEnd("a", 2))
    assert h.signs() == {"a": -1, "b": 1}
    assert h.vertex("u") == g.vertex("u")


def test_flip_keeps_loop_signs():
    g = graph("twisted_loop")
    assert flip_vertex(g, "u").signs()["a"] == -1


def test_flip_is_involution(universe2):
    for g in universe2:
        for v in g.vertex_names:
            assert flip_vertex(flip_vertex(g, v), v) == g


def test_orientability_flip_invariant(universe2):
    for g in universe2:
        base = is_orientable(g)
        for v in g.vertex_names:
            assert is_orientable(flip_vertex(g, v)) == base


def test_oriented_form_is_the_fold_of_its_flips(universe3):
    big = random_graph(2000, 0)
    big = partial_petrial(big, orienting_petrial_set(big))
    for g in [*universe3, big]:
        if not is_orientable(g):
            continue
        oriented, flipped = oriented_form(g)
        folded = g
        for name in flipped:
            folded = flip_vertex(folded, name)
        assert oriented == folded
        assert all(e.sign == 1 for e in oriented.edges)


# ---------------------------------------------------------------------------
# arrow presentations
# ---------------------------------------------------------------------------

def test_arrow_presentation_shapes():
    p = to_arrow_presentation(graph("isolated"))
    assert len(p.circles) == 1 and p.circles[0].arrows == ()
    p = to_arrow_presentation(graph("loop"))
    assert [a.label for a in p.circles[0].arrows] == ["a", "a"]


def test_loop_round_trip_signs():
    for name, sign in (("loop", 1), ("twisted_loop", -1)):
        p = to_arrow_presentation(graph(name))
        a1, a2 = p.circles[0].arrows
        assert (a1.forward == a2.forward) == (sign == 1)
        assert from_arrow_presentation(p) == graph(name)


def test_reversing_one_arrow_is_a_half_twist():
    from ribbonlab import are_isomorphic

    g = graph("torus")
    p = to_arrow_presentation(g)
    positions = [i for i, a in enumerate(p.circles[0].arrows) if a.label == "b"]
    for pos in positions:
        arrows = list(p.circles[0].arrows)
        arrows[pos] = Arrow("b", not arrows[pos].forward)
        q = ArrowPresentation((Circle("u", tuple(arrows)),))
        h = from_arrow_presentation(q)
        # same ribbon graph as the half-twisted one; reversing the second
        # arrow even reproduces the end numbering exactly
        assert are_isomorphic(h, partial_petrial(g, ["b"]), match_edge_labels=True)
    assert from_arrow_presentation(q) == partial_petrial(g, ["b"])


def test_round_trip_exhaustive(universe2):
    for g in universe2:
        assert from_arrow_presentation(to_arrow_presentation(g)) == g
        for v in g.vertex_names:
            h = flip_vertex(g, v)
            assert from_arrow_presentation(to_arrow_presentation(h)) == h


def test_two_circles_one_label_each_is_an_edge():
    p = ArrowPresentation(
        (Circle("u", (Arrow("e", True),)), Circle("v", (Arrow("e", True),)))
    )
    g = from_arrow_presentation(p)
    assert len(g.vertices) == 2 and g.signs()["e"] == 1
    assert trace_boundary(g).count == 1


def test_malformed_presentation_rejected():
    p = ArrowPresentation((Circle("u", (Arrow("e", True),)),))
    with pytest.raises(MalformedPresentationError):
        from_arrow_presentation(p)
    # Every label on two arrows lays out valid flags; the circle names are still validated.
    twins = ArrowPresentation((Circle("u", (Arrow("e", True),)), Circle("u", (Arrow("e", False),))))
    with pytest.raises(InvalidGraphError, match="duplicate vertex name"):
        from_arrow_presentation(twins)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_text_round_trip_fixtures():
    for name in ("loop", "twisted_loop", "path2", "torus", "isolated"):
        g = graph(name)
        assert parse_graph(graph_to_text(g)) == g


def test_text_round_trip_universe(universe2):
    for g in universe2:
        text = graph_to_text(g)
        assert parse_graph(text) == g
        assert graph_to_text(parse_graph(text)) == text


def test_writing_an_operator_result_builds_no_edges(raw_universe3):
    # graph_to_text writes each sign from its edge's twist bit, so neither the
    # edges view nor the links it was read through are built.
    for g in raw_universe3:
        names = g.edge_names
        outs = [partial_dual(g, names[::2]), partial_petrial(g, names[1:]), checkerboard_twisted_dual(g).result]
        if is_eulerian(g):
            outs.append(checkerboard_partial_petrial(g).result)
        for out in outs:
            if out is g:  # an operator given no edge returns its input
                continue
            text = graph_to_text(out)
            assert not vars(out).keys() & {"edges", "_edge_links"}
            signs = "".join(f"edge {e.name}: {'+' if e.sign > 0 else '-'}\n" for e in out.edges)
            assert text.endswith(signs) and parse_graph(text) == out


@pytest.mark.parametrize("name", ["a.b", "u v", "a#x", "u:1", ""])
def test_save_graph_refuses_names_the_text_format_cannot_hold(tmp_path, name):
    # Such graphs are valid and graph_to_text writes them, but load_graph
    # would refuse the file; nothing is created or truncated.
    kept = tmp_path / "kept.rg"
    kept.write_text("vertex u:\n")
    for g in (
        RibbonGraph((Vertex(name, (EdgeEnd("a", 1), EdgeEnd("a", 2))),), (Edge("a"),)),
        RibbonGraph((Vertex("u", (EdgeEnd(name, 1), EdgeEnd(name, 2))),), (Edge(name),)),
    ):
        assert graph_to_text(g)
        for path in (kept, tmp_path / "new.rg"):
            with pytest.raises(ValueError, match=re.escape(repr(name))):
                save_graph(path, g)
    assert kept.read_text() == "vertex u:\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.rg"]


def test_comments_and_blank_lines_ignored():
    g = parse_graph("# a loop\n\nvertex u: a.1 a.2  # inline\nedge a: +\n")
    assert g == graph("loop")


@pytest.mark.parametrize(
    "text,line",
    [
        ("vertex u a.1\n", 1),
        ("vertex u: a.3\nedge a: +\n", 1),
        ("vertex u: a.1 a.2\nedge a: *\n", 2),
        ("vertex u: a.1 a.2\n", 1),
        ("vertex u: a.1 a.2\nedge a: +\nedge a: +\n", 3),
        ("vertex u:\nvertex u:\n", 2),
        ("vertex u: a.1 a.2\nvertex v: b.1 b.2\nedge a: +\n", 2),
    ],
)
def test_parse_errors_carry_positions(text, line):
    with pytest.raises(TextFormatError) as info:
        parse_graph(text)
    assert info.value.line == line
    assert info.value.column >= 1


def test_undeclared_edge_error_points_at_first_use():
    with pytest.raises(TextFormatError) as info:
        parse_graph("vertex u: a.1 b.1\nvertex v: c.1 a.2 b.2 c.2\nedge a: +\n")
    assert (info.value.line, info.value.column) == (1, 15)
    with pytest.raises(TextFormatError) as info:
        parse_graph("vertex u: a.1 a.2\nvertex v:  c.2 c.1\nedge a: +\n")
    assert (info.value.line, info.value.column) == (2, 12)


def test_structural_error_points_at_offending_token():
    # a repeated edge-end: its second token
    with pytest.raises(TextFormatError) as info:
        parse_graph("vertex u: a.1 a.1\nvertex v: a.2\nedge a: +\n")
    assert (info.value.line, info.value.column) == (1, 15)
    # an edge-end in no rotation: its edge's declaration
    with pytest.raises(TextFormatError) as info:
        parse_graph("vertex u: a.1 b.1 b.2\n  edge a: +\nedge b: -\n")
    assert (info.value.line, info.value.column) == (2, 3)
    # both: whichever comes first in the text
    with pytest.raises(TextFormatError) as info:
        parse_graph("vertex u: b.1 b.2\nvertex v:  a.1 b.2\nedge b: +\nedge a: +\n")
    assert (info.value.line, info.value.column) == (2, 16)
    with pytest.raises(TextFormatError) as info:
        parse_graph("edge a: +\nvertex u: b.1 b.2\nvertex v:  a.1 b.2\nedge b: +\n")
    assert (info.value.line, info.value.column) == (1, 1)


def test_parse_rejects_structural_violations():
    with pytest.raises(TextFormatError):
        parse_graph("vertex u: a.1 a.1\nvertex v: a.2\nedge a: +\n")


#: Each kind of parse error, with comments, tabs, CRLF endings, blank lines
#: and a vertical tab (a line break to ``str.splitlines``), and its message.
PARSE_ERRORS = [
    ("vertex u a.1\n", "line 1, column 1: expected ':' after declaration head"),
    ("  vertex u a.1  # no colon\n", "line 1, column 3: expected ':' after declaration head"),
    ("vertex: a.1\n", "line 1, column 1: expected 'vertex <name>:' or 'edge <name>:'"),
    ("vertx u: a.1\n", "line 1, column 1: expected 'vertex <name>:' or 'edge <name>:'"),
    ("\tvertex u v: a.1\n", "line 1, column 2: expected 'vertex <name>:' or 'edge <name>:'"),
    ("vertex u\xa0v: a.1\n", "line 1, column 1: expected 'vertex <name>:' or 'edge <name>:'"),
    ("vertex a-b:\n", "line 1, column 8: bad name 'a-b'"),
    ("edge\ta.b: +\n", "line 1, column 6: bad name 'a.b'"),
    ("vertex u:\r\nvertex u:\r\n", "line 2, column 1: vertex 'u' declared twice"),
    ("vertex u: a.1 a.2\nedge a: +\n\n# again\nedge a: -\n", "line 5, column 1: edge 'a' declared twice"),
    ("vertex u: a.1 a.2\nedge a: *\n", "line 2, column 8: edge sign must be '+' or '-', got '*'"),
    ("vertex u: a.1 a.2\nedge a:\t# unsigned\n", "line 2, column 8: edge sign must be '+' or '-', got ''"),
    ("vertex u: a.1 a.2\nedge a: + -\n", "line 2, column 8: edge sign must be '+' or '-', got '+ -'"),
    ("vertex u: a.1 a.3\nedge a: +\n",
     "line 1, column 15: bad edge-end token 'a.3', expected '<edge>.1' or '<edge>.2'"),
    ("vertex u:\ta.1\t.2 # x\nedge a: +\n",
     "line 1, column 15: bad edge-end token '.2', expected '<edge>.1' or '<edge>.2'"),
    ("vertex u: a.1 a.x2\n", "line 1, column 15: bad edge-end token 'a.x2', expected '<edge>.1' or '<edge>.2'"),
    ("vertex u: a.1\x0ba.2\nedge a: +\n", "line 2, column 1: expected ':' after declaration head"),
    ("vertex u: a.1 b.1\r\nvertex v: c.1 a.2 b.2 c.2\r\nedge a: +\r\n",
     "line 1, column 15: edges used but never declared: b, c"),
    ("vertex u: a.1 a.2\nvertex v:  c.2 c.1\nedge a: +\n", "line 2, column 12: edges used but never declared: c"),
    ("vertex u: a.1 a.1\nvertex v: a.2\nedge a: +\n", "line 1, column 15: edge-end a.1 appears more than once"),
    ("vertex u: a.1 a.2 a.1  # twice\r\nedge a: +\r\n", "line 1, column 19: edge-end a.1 appears more than once"),
    ("vertex u: a.1 b.1 b.2\n  edge a: +\nedge b: -\n",
     "line 2, column 3: edge-end a.2 appears in no vertex rotation"),
    ("vertex u: b.1 b.2\nvertex v:  a.1 b.2\nedge b: +\nedge a: +\n",
     "line 2, column 16: edge-end b.2 appears more than once; edge-end a.2 appears in no vertex rotation"),
    ("edge a: +\nvertex u: b.1 b.2\nvertex v:  a.1 b.2\nedge b: +\n",
     "line 1, column 1: edge-end b.2 appears more than once; edge-end a.2 appears in no vertex rotation"),
    ("# header\n\n\tedge a: -\n",
     "line 3, column 2: edge-end a.1 appears in no vertex rotation; edge-end a.2 appears in no vertex rotation"),
    ("vertex u: a.2 a.1 a.2\nvertex v: a.1\nedge a: +\n",
     "line 1, column 19: edge-end a.2 appears more than once; edge-end a.1 appears more than once"),
]


@pytest.mark.parametrize("text,message", PARSE_ERRORS)
def test_parse_error_messages_are_pinned(text, message):
    with pytest.raises(TextFormatError) as info:
        parse_graph(text)
    assert str(info.value) == message


@st.composite
def mutated_rotations(draw):
    """Vertex names, rotations and edges of a valid system after one
    mutation: drop, repeat or rename an edge-end, repeat a vertex, drop an
    edge declaration, or none.  A renamed end may name an undeclared edge."""
    g = draw(rotation_systems(max_edges=5))
    names = list(g.vertex_names)
    rotations = [list(v.rotation) for v in g.vertices]
    edges = list(g.edges)
    at = [(i, j) for i, rot in enumerate(rotations) for j in range(len(rot))]
    kind = draw(st.sampled_from(["drop", "repeat", "rename", "vertex", "edge", "none"]))
    if kind in ("drop", "repeat", "rename") and at:
        i, j = draw(st.sampled_from(at))
        if kind == "drop":
            del rotations[i][j]
        elif kind == "repeat":
            k = draw(st.integers(0, len(rotations) - 1))
            rotations[k].insert(draw(st.integers(0, len(rotations[k]))), rotations[i][j])
        else:
            pool = [EdgeEnd(name, end) for name in [*g.edge_names, "zz"] for end in (1, 2)]
            rotations[i][j] = draw(st.sampled_from(pool))
    elif kind == "vertex":
        k = draw(st.integers(0, len(names) - 1))
        names.insert(k, names[k])
        rotations.insert(k, rotations[k][:])
    elif kind == "edge" and edges:
        del edges[draw(st.integers(0, len(edges) - 1))]
    return names, rotations, tuple(edges)


@settings(max_examples=300)
@given(mutated_rotations())
def test_parse_raises_exactly_when_validate_reports(case):
    # Validation runs in the constructor: parsing fails exactly when building the same graph does.
    names, rotations, edges = case
    text = "".join(f"vertex {n}:" + "".join(f" {d}" for d in rot) + "\n" for n, rot in zip(names, rotations))
    text += "".join(f"edge {e.name}: {'+' if e.sign > 0 else '-'}\n" for e in edges)
    try:
        ref = RibbonGraph(tuple(Vertex(n, tuple(rot)) for n, rot in zip(names, rotations)), edges)
    except InvalidGraphError:
        ref = None
    try:
        parsed = parse_graph(text)
    except TextFormatError:
        assert ref is None
    else:
        assert ref is not None and parsed == ref and parsed.vertices == ref.vertices


def _valid_texts(graphs):
    texts = [p.read_text() for p in sorted(FIXTURES.glob("*.rg"))] + list(TEXTS.values())
    texts.append("# comments, tabs, CRLF and blank lines\r\n\r\n\tvertex u:\ta.1  a.2 # loop\r\nedge a:\t-\r\n")
    texts += [graph_to_text(g) for g in graphs] + [canonical_text(g) for g in graphs]
    return texts + [graph_to_text(random_graph(1000, seed)) for seed in range(3)]


def test_parsed_graphs_are_born_with_flags(raw_universe3):
    assert_born_with_flags([parse_graph(text) for text in _valid_texts(raw_universe3)])


def test_valid_text_is_never_validated(universe3, monkeypatch):
    texts = _valid_texts(universe3)  # random graphs are built, and checked, by the constructor
    calls = []
    real = core.validate
    monkeypatch.setattr(core, "validate", lambda *graph: calls.append(graph) or real(*graph))
    for text in texts:
        parse_graph(text)
    assert calls == []
    with pytest.raises(TextFormatError):
        parse_graph("vertex u: a.1 a.1\nvertex v: a.2\nedge a: +\n")
    assert len(calls) == 1


@given(rotation_systems())
def test_text_round_trip_keeps_flags(g):
    h = parse_graph(graph_to_text(g))
    assert h == g and h._flags == g._flags and h.vertices == g.vertices


@st.composite
def layout_variants(draw):
    """A valid graph and its text re-rendered with other layout: runs of
    spaces and tabs between tokens and before ``:``, indents, trailing
    comments, blank and comment-only lines, and ``\\n``, ``\\r\\n`` or ``\\r``
    line endings."""
    g = draw(rotation_systems())
    spaces, gaps = st.text(" \t", max_size=3), st.text(" \t", min_size=1, max_size=3)
    comments = st.one_of(st.just(""), st.text("ab.:# \t", max_size=6).map("#".__add__))
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    text = ""
    for line in graph_to_text(g).splitlines():
        for _ in range(draw(st.integers(0, 2))):
            text += draw(spaces) + draw(comments) + draw(endings)
        head, _, rest = line.partition(":")
        kind, name = head.split()
        fields = [name + draw(spaces) + ":", *rest.split()]
        text += draw(spaces) + kind + "".join(draw(gaps) + f for f in fields)
        text += draw(spaces) + draw(comments) + draw(endings)
    return g, text


@given(layout_variants())
def test_layout_variants_parse_to_the_same_graph(case):
    g, text = case
    h = parse_graph(text)
    assert h == g and h._flags == g._flags and h.vertex_names == g.vertex_names


def test_late_errors_in_a_large_file_carry_their_positions():
    # One error of each kind injected near the end of a 1,000-edge text,
    # with the line and column worked out from where it was put.
    lines = graph_to_text(random_graph(1000, 0)).splitlines()
    v = max(i for i, line in enumerate(lines) if line.startswith("vertex "))  # the last vertex line
    last = lines[v]
    placed = lines[0].partition(":")[2].split()[0]  # an edge-end on the first line
    dropped = last.split()[-1]
    declared = next(i for i, line in enumerate(lines) if line.startswith(f"edge {dropped.partition('.')[0]}:"))
    twice = lines[-3].partition(":")[0].split()[1]
    sign = lines[-1].index(":") + 1

    def edited(changes):
        return "".join(changes.get(i, line) + "\n" for i, line in enumerate(lines))

    cases = [
        (edited({v: last + "\t " + placed}), v + 1, len(last) + 3, f"edge-end {placed} appears more than once"),
        (edited({v: last[: -len(dropped) - 1], declared: "\t" + lines[declared]}), declared + 1, 2,
         f"edge-end {dropped} appears in no vertex rotation"),
        (edited({v: last + "  zz.2 zz.1"}), v + 1, len(last) + 3, "edges used but never declared: zz"),
        (edited({len(lines) - 1: lines[-1] + "\n  " + lines[-3]}), len(lines) + 1, 3, f"edge {twice!r} declared twice"),
        (edited({v: last + " e7.1 e7.3"}), v + 1, len(last) + 7,
         "bad edge-end token 'e7.3', expected '<edge>.1' or '<edge>.2'"),
        (edited({len(lines) - 1: lines[-1][:sign] + " *"}), len(lines), sign + 1,
         "edge sign must be '+' or '-', got '*'"),
    ]
    assert v > 400 and declared > v
    for text, line, column, message in cases:
        with pytest.raises(TextFormatError) as info:
            parse_graph(text)
        assert str(info.value) == f"line {line}, column {column}: {message}"


def test_graphs_that_differ_only_in_edge_names_are_unequal():
    for a, b in RENAMED_PAIRS:
        g, h = parse_graph(a), parse_graph(b)
        assert g != h and h != g and len({g, h}) == 2
        assert RibbonGraph(g.vertices, g.edges) != RibbonGraph(h.vertices, h.edges)


def test_flags_hold_darts_that_name_no_edge():
    # Dart 2j + (end - 1) stands for an end of the edge ranked j in the sorted
    # names, so copies that differ only in edge names share every flag.
    for a, b in RENAMED_PAIRS[:2]:
        g, h = parse_graph(a), parse_graph(b)
        assert g._flags == h._flags and g.edge_names != h.edge_names
    assert parse_graph(TEXTS["torus"])._flags.ends == [0, 2, 1, 3]
    # Names sort as strings, so past ten edges a name's rank is not its number.
    g = sample_graphs(12, 1)[0]
    assert g.edge_names[:5] == ("e0", "e1", "e10", "e11", "e2")
    rank = {name: j for j, name in enumerate(g.edge_names)}
    assert [2 * rank[d.edge] + d.end - 1 for v in g.vertices for d in v.rotation] == g._flags.ends
    assert parse_graph(graph_to_text(g)) == g


def test_flags_store_each_partner_once_across_the_ribbon(raw_universe3, universe4):
    # An end's partner is read as the end across the ribbon; no field stores
    # it again.  Parsed, sampled, canonical, ≤3-edge enumerated graphs and
    # operator results are checked by helpers.assert_born_with_flags.
    assert _Flags._fields == ("ends", "corner", "side", "forward", "bounds")
    built = [RibbonGraph(g.vertices, g.edges) for g in raw_universe3]
    arrows = [from_arrow_presentation(to_arrow_presentation(g)) for g in built]
    for g in built + arrows + universe4:
        assert_partners_across_the_ribbon(g._flags)


def test_equality_reads_flags_as_the_vertices_would(universe2):
    # RibbonGraph.__eq__ compares flags, which every graph holds from
    # construction; that must agree with comparing the vertices, whether the
    # graphs are hand-built or laid out by the library.
    copies = [RibbonGraph(g.vertices, g.edges) for g in universe2]
    # Pairs of flag-born graphs that differ only in a vertex name, or only in the bounds.
    texts = ["vertex u: a.1 a.2\nedge a: +\n", "vertex w: a.1 a.2\nedge a: +\n",
             "vertex u: a.1\nvertex v: a.2\nedge a: +\n", "vertex u: a.1 a.2\nvertex v:\nedge a: +\n"]
    graphs = universe2 + copies + [parse_graph(text) for text in texts]
    for g in graphs:
        for h in graphs:
            assert (g == h) == ((g.vertices, g.edges) == (h.vertices, h.edges))
            assert g != (g.vertices, g.edges)


# ---------------------------------------------------------------------------
# randomized cross-checks
# ---------------------------------------------------------------------------

@given(data=st.data())
def test_random_flips_preserve_boundary_count(universe2, data):
    g = data.draw(st.sampled_from(universe2))
    flips = data.draw(st.lists(st.sampled_from(sorted(g.vertex_names)), max_size=4))
    base = trace_boundary(g).count
    h = g
    for v in flips:
        h = flip_vertex(h, v)
    assert trace_boundary(h).count == base
