import itertools

import pytest

from ribbonlab import (
    AllCrossingDirection,
    EdgeEnd,
    HalfEdgeSegment,
    InvalidDirectionError,
    UnsupportedHostError,
    build_medial,
    classify_cd,
    d_edges,
    delete,
    euler_characteristic,
    is_all_crossing,
    is_orientable,
    medial_to_dot,
    orienting_petrial_set,
    partial_petrial,
    smooth,
    straight_ahead_direction,
    to_ribbon_graph,
    trace_boundary,
)

from helpers import corner_edge_straight_ahead, graph, random_graph


def test_loop_medial_shape():
    m = build_medial(graph("loop"))
    assert len(m.vertices) == 1
    assert len(m.corner_edges) == 2
    assert m.free_loops == ()


def test_isolated_vertex_is_a_free_loop():
    m = build_medial(graph("isolated"))
    assert m.vertices == ()
    assert m.free_loops == ("u",)


def test_torus_medial_shape():
    m = build_medial(graph("torus"))
    assert len(m.vertices) == 2
    assert len(m.corner_edges) == 4


def test_corner_edge_count_matches_degrees(universe3):
    for g in universe3:
        if not is_orientable(g):
            continue
        m = build_medial(g)
        assert len(m.corner_edges) == 2 * len(g.edges)
        ports = [p for c in m.corner_edges for p in c.ports]
        assert len(ports) == len(set(ports))  # 4-regular: one edge end per port


def test_non_orientable_host_rejected():
    with pytest.raises(UnsupportedHostError):
        build_medial(graph("twisted_loop"))


def test_host_is_normalised():
    g = graph("path2")
    twisted = graph("path2").__class__(
        g.vertices, tuple(type(e)(e.name, -1) for e in g.edges)
    )
    m = build_medial(twisted)
    assert all(e.sign == 1 for e in m.host.edges)
    assert len(m.flipped) == 1


def test_ports_alternate_between_strands(universe2):
    for g in universe2:
        if not is_orientable(g):
            continue
        for mv in build_medial(g).vertices:
            # Straight ahead through a crossing: other end, same side letter.
            p0, p1, p2, p3 = mv.ports
            assert p2 == HalfEdgeSegment(EdgeEnd(p0.end.edge, 3 - p0.end.end), p0.side)
            assert p3 == HalfEdgeSegment(EdgeEnd(p1.end.edge, 3 - p1.end.end), p1.side)


def test_straight_ahead_all_crossing(universe3):
    for g in universe3:
        if not is_orientable(g):
            continue
        m = build_medial(g)
        for seed in (0, 1):
            direction = straight_ahead_direction(m, seed=seed)
            assert is_all_crossing(m, direction)
            cls = classify_cd(m, direction)
            assert set(cls) == set(g.edge_names)
            assert all(v in ("c", "d") for v in cls.values())


def test_straight_ahead_matches_corner_edge_walk(raw_universe3):
    hosts = [g for g in raw_universe3 if is_orientable(g)]
    for edges, seed in ((300, 1), (2000, 2)):
        g = random_graph(edges, seed)
        hosts.append(partial_petrial(g, orienting_petrial_set(g)))
    for g in hosts:
        m = build_medial(g)
        for seed in (0, 1):
            assert straight_ahead_direction(m, seed=seed) == corner_edge_straight_ahead(m, seed)


def test_walks_partition_corner_edges(universe2):
    for g in universe2:
        if not is_orientable(g):
            continue
        m = build_medial(g)
        direction = straight_ahead_direction(m)
        walked = [i for walk in direction.walks for i in walk]
        assert sorted(walked) == list(range(len(m.corner_edges)))


def test_known_classifications():
    assert classify_cd(*_medial_and_direction("loop")) == {"a": "c"}
    assert classify_cd(*_medial_and_direction("path2")) == {"a": "d"}
    assert classify_cd(*_medial_and_direction("torus")) == {"a": "c", "b": "d"}


def _medial_and_direction(name):
    m = build_medial(graph(name))
    return m, straight_ahead_direction(m)


def test_all_crossing_and_cd_rule_on_every_head_pattern():
    # Ports read (1,L), (2,R), (2,L), (1,R) around the crossing.  The side
    # smoothing pairs ports 0+1 and 2+3, the end smoothing 0+3 and 1+2, so
    # adjacent heads 1+2 or 3+0 make a c-edge and 0+1 or 2+3 a d-edge.
    m = build_medial(graph("loop"))
    ports = m.vertices[0].ports
    crossing = {(0, 1, 1, 0): "c", (1, 0, 0, 1): "c", (1, 1, 0, 0): "d", (0, 0, 1, 1): "d"}
    for pattern in itertools.product((0, 1), repeat=4):
        direction = AllCrossingDirection(tuple((p, p) for p, h in zip(ports, pattern) if h), ())
        assert is_all_crossing(m, direction) == (pattern in crossing)
        if pattern in crossing:
            assert classify_cd(m, direction) == {"a": crossing[pattern]}
        else:
            with pytest.raises(InvalidDirectionError):
                classify_cd(m, direction)


def test_classify_rejects_bad_direction():
    m, direction = _medial_and_direction("torus")
    flipped = list(direction.directions)
    flipped[0] = (flipped[0][1], flipped[0][0])
    bad = AllCrossingDirection(tuple(flipped), direction.walks)
    if is_all_crossing(m, bad):
        pytest.skip("single reversal kept the pattern on this instance")
    with pytest.raises(InvalidDirectionError):
        classify_cd(m, bad)


def test_smoothing_partitions_and_flows(universe2):
    for g in universe2:
        if not is_orientable(g):
            continue
        m = build_medial(g)
        direction = straight_ahead_direction(m)
        cls = classify_cd(m, direction)
        curves = smooth(m, direction, cls)
        visited = [i for c in curves for i in c.corner_path]
        assert sorted(visited) == list(range(len(m.corner_edges)))
        for curve in curves:
            signs = {s.sign for s in curve.segments}
            assert len(signs) <= 1  # each curve is all-positive or all-negative


def test_smoothing_gives_one_strand_of_each_sign(universe2):
    for g in universe2:
        if not is_orientable(g):
            continue
        m = build_medial(g)
        direction = straight_ahead_direction(m)
        cls = classify_cd(m, direction)
        by_edge = {}
        for curve in smooth(m, direction, cls):
            for s in curve.segments:
                by_edge.setdefault(s.edge, []).append(s.sign)
        for e in g.edge_names:
            assert sorted(by_edge[e]) == [-1, 1]


def test_smoothed_kinds_follow_classification():
    m, direction = _medial_and_direction("torus")
    cls = classify_cd(m, direction)
    for curve in smooth(m, direction, cls):
        for s in curve.segments:
            want = "edge-line" if cls[s.edge] == "c" else "common-line"
            assert s.kind == want


def test_curves_match_boundary_components(universe2):
    for g in universe2:
        if not is_orientable(g):
            continue
        m = build_medial(g)
        direction = straight_ahead_direction(m)
        cls = classify_cd(m, direction)
        curves = smooth(m, direction, cls)
        removed = d_edges(cls)
        decomp = trace_boundary(delete(m.host, removed))
        assert len(curves) == decomp.count

        def key(pairs):
            return tuple(sorted(tuple(sorted(p)) for p in pairs))

        comp_pairs = sorted(
            key(
                (c.segments[i], c.segments[i + 1])
                for i in range(0, len(c.segments), 2)
            )
            for c in decomp.components
        )
        curve_pairs = sorted(
            key((s.entry, s.exit) for s in c.segments if s.kind == "edge-line")
            for c in curves
        )
        assert comp_pairs == curve_pairs


def test_free_loop_becomes_trivial_curve():
    m = build_medial(graph("isolated"))
    direction = straight_ahead_direction(m)
    curves = smooth(m, direction, {})
    assert len(curves) == 1
    assert curves[0].free_vertex == "u"
    assert curves[0].segments == ()


def test_medial_as_ribbon_graph(universe2):
    for g in universe2:
        if not is_orientable(g):
            continue
        m = build_medial(g)
        rg = to_ribbon_graph(m)
        assert len(rg.edges) == 2 * len(g.edges)
        for v in rg.vertices:
            assert len(v.rotation) in (0, 4)
        assert is_orientable(rg)
        assert euler_characteristic(rg) == euler_characteristic(m.host)


def test_dot_export():
    m, direction = _medial_and_direction("torus")
    cls = classify_cd(m, direction)
    dot = medial_to_dot(m, direction, cls)
    assert dot.startswith("digraph")
    assert '"a" [label="a (c)"]' in dot
    assert '"b" [label="b (d)"]' in dot
    undirected = medial_to_dot(m)
    assert undirected.startswith("graph")
