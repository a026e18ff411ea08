import inspect
import itertools
import random

import pytest
from hypothesis import given, strategies as st

import ribbonlab
from ribbonlab import (
    TWIST_ELEMENTS,
    Edge,
    EdgeEnd,
    InvalidGraphError,
    NotEulerianError,
    NotOrientableError,
    RibbonGraph,
    UnknownEdgeError,
    UnknownVertexError,
    UnsupportedHostError,
    Vertex,
    Violation,
    apply_twist_word,
    are_isomorphic,
    contract,
    delete,
    flip_vertex,
    geometric_dual,
    graph_to_text,
    is_checkerboard_colourable,
    is_orientable,
    load_graph,
    minor,
    oriented_form,
    orienting_petrial_set,
    parse_graph,
    partial_dual,
    partial_petrial,
    petrial,
    save_graph,
    trace_boundary,
    twist_compose,
)
from ribbonlab import core, operators

from helpers import (
    TEXTS,
    arrow_splice_partial_dual,
    assert_born_with_flags,
    chain_contract,
    chain_minor,
    graph,
    letter_chain,
    random_graph,
    rotation_systems,
)


# ---------------------------------------------------------------------------
# validation: once, where a graph is built; operator results come out valid
# ---------------------------------------------------------------------------

def test_operator_outputs_validate_afresh(universe3):
    # The constructor checks a rebuilt copy; the output itself was not checked.
    ops = (delete, partial_petrial, partial_dual, contract)
    for g in universe3:
        names = g.edge_names
        for r in range(len(names) + 1):
            for subset in itertools.combinations(names, r):
                for op in ops:
                    out = op(g, subset)
                    assert RibbonGraph(out.vertices, out.edges) == out
        for b, c in _disjoint_pairs(names):
            out = minor(g, b, c)
            assert RibbonGraph(out.vertices, out.edges) == out


def takes_graph(p: inspect.Parameter) -> bool:
    return p.annotation in ("RibbonGraph", RibbonGraph)


#: Every public function that takes a graph, but ``graph_to_text``, which
#: only prints it.
GRAPH_FUNCTIONS = [
    fn
    for name, fn in sorted(vars(ribbonlab).items())
    if inspect.isfunction(fn)
    and name != "graph_to_text"
    and any(map(takes_graph, inspect.signature(fn).parameters.values()))
]
#: The calls that refuse their graph for what it is, not for how it is built.
REFUSED = {
    ("build_medial", "twisted_loop"): UnsupportedHostError,
    ("checkerboard_partial_petrial", "path2"): NotEulerianError,
    ("has_alternating_boundary_orientation", "twisted_loop"): NotOrientableError,
    ("oriented_form", "twisted_loop"): NotOrientableError,
}


def _other_args(g, unknown=None):
    """A value for each parameter other than the graph: names from ``g``,
    or the unknown name ``unknown`` for the edges, vertex and word (a minor
    contracts a known edge then, as one name both deleted and contracted
    is refused for that)."""
    names = g.edge_names
    other = {"edges": names[:1], "deleted": names[:1], "contracted": names[1:2], "vertex": g.vertex_names[0],
             "word": dict(zip(names, ("dt", "d", "t"))), "path": "out.rg"}
    if unknown is not None:
        other.update(edges=[unknown], deleted=[unknown], vertex=unknown, word={unknown: "d"})
    return other


def _graphs_in(value):
    """Every RibbonGraph in a result, through its tuples, lists and dicts."""
    if isinstance(value, RibbonGraph):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list, set, frozenset)):
        return [h for x in value for h in _graphs_in(x)]
    return []


def _call(fn, g, other):
    args = [
        g if takes_graph(p) else other[p.name]
        for p in inspect.signature(fn).parameters.values()
        if p.default is inspect.Parameter.empty
    ]
    return fn(*args)


@pytest.mark.parametrize("name", sorted(TEXTS))
@pytest.mark.parametrize("fn", GRAPH_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_every_public_function_keeps_its_graphs_valid(fn, name, tmp_path, monkeypatch):
    # No function checks the graph it is given, so each must take every
    # valid graph as built and return only graphs the constructor accepts;
    # names from outside are still checked, before anything is written.
    monkeypatch.chdir(tmp_path)
    g = graph(name)
    refused = REFUSED.get((fn.__name__, name))
    if refused is not None:
        with pytest.raises(refused):
            _call(fn, g, _other_args(g))
    else:
        assert_born_with_flags(_graphs_in(_call(fn, g, _other_args(g))))
    if fn is save_graph:
        assert (tmp_path / "out.rg").read_text() == graph_to_text(g) and load_graph("out.rg") == g
        (tmp_path / "out.rg").unlink()
    assert list(tmp_path.iterdir()) == []
    asked = {p.name for p in inspect.signature(fn).parameters.values()} & {"edges", "deleted", "contracted", "vertex", "word"}
    if asked and refused is None:
        with pytest.raises(UnknownVertexError if asked == {"vertex"} else UnknownEdgeError) as info:
            _call(fn, g, _other_args(g, unknown="zz"))
        assert info.value.args == ("zz",)


#: The public functions that take edge names, and the lookups that take one.
EDGE_NAME_FUNCTIONS = [fn for fn in GRAPH_FUNCTIONS if {"edges", "deleted", "word"} & set(inspect.signature(fn).parameters)]
LOOKUPS = [RibbonGraph.edge, RibbonGraph.is_loop]


@pytest.mark.parametrize("names", [[1], [None], ["zz", 1], [1, "zz"], ["zz", "yy"]], ids=repr)
@pytest.mark.parametrize("fn", EDGE_NAME_FUNCTIONS + LOOKUPS, ids=lambda fn: fn.__name__)
def test_unknown_edge_names_of_any_type_are_named(fn, names):
    # The least unknown name when all are strings, else the first one given.
    g = graph("torus")
    if fn in LOOKUPS:
        names = names[:1]
    other = _other_args(g)
    other.update(edges=names, deleted=names, word=dict.fromkeys(names, "d"))
    with pytest.raises(UnknownEdgeError) as info:
        fn(g, names[0]) if fn in LOOKUPS else _call(fn, g, other)
    assert info.value.args == (min(names) if all(isinstance(n, str) for n in names) else names[0],)


def _corrupted(out, kind):
    """The vertices and edges of ``out`` with one violation of ``kind`` put
    in at its first edge ``e``, and the violations the check reports."""
    vertices, edges = [list(v.rotation) for v in out.vertices], list(out.edges)
    names = [v.name for v in out.vertices]
    e = edges[0]
    one, two = e.ends
    at = next(k for k, rot in enumerate(vertices) if one in rot)
    if kind == "duplicate-end":
        rot = next(rot for rot in vertices if two in rot)
        rot[rot.index(two)] = one
        found = (Violation("duplicate-edge-end", f"edge-end {one} appears more than once", one), _unplaced(two))
    elif kind == "unplaced-end":
        next(rot for rot in vertices if two in rot).remove(two)
        found = (_unplaced(two),)
    elif kind == "bad-sign":
        edges[0] = Edge(e.name, 0)
        found = (Violation("bad-sign", f"edge {e.name} has sign 0, expected +1 or -1"),)
    elif kind == "no-ends":
        vertices = [[d for d in rot if d.edge != e.name] for rot in vertices]
        found = (_unplaced(one), _unplaced(two))
    elif kind == "duplicate-vertex":
        names.append(names[0])
        vertices.append([])
        found = (Violation("duplicate-vertex", "duplicate vertex name"),)
    elif kind == "duplicate-edge":
        edges.append(Edge(e.name, -e.sign))
        found = (Violation("duplicate-edge", "duplicate edge name"),)
    elif kind == "bad-end-index":
        bad = EdgeEnd(e.name, 3)
        vertices[at].insert(vertices[at].index(one) + 1, bad)
        found = (Violation("bad-end-index", f"edge-end {bad} at vertex {names[at]} has end index 3", bad),)
    else:
        unknown = EdgeEnd("zz", 1)
        vertices[0].insert(0, unknown)
        found = (Violation("unknown-edge-end", f"edge-end zz.1 at vertex {names[0]} names no declared edge", unknown),)
    return [Vertex(n, tuple(rot)) for n, rot in zip(names, vertices)], edges, found


def _unplaced(d: EdgeEnd) -> Violation:
    return Violation("unplaced-edge-end", f"edge-end {d} appears in no vertex rotation", d)


#: Graph operators, each applied to a 10-edge graph.
CORRUPTED_OPS = {
    "delete": lambda g: delete(g, g.edge_names[:3]),
    "contract": lambda g: contract(g, g.edge_names[:3]),
    "minor": lambda g: minor(g, g.edge_names[:2], g.edge_names[2:4]),
    "partial_dual": lambda g: partial_dual(g, g.edge_names[::2]),
    "partial_petrial": lambda g: partial_petrial(g, g.edge_names[::3]),
    "apply_twist_word": lambda g: apply_twist_word(g, dict(zip(g.edge_names, TWIST_ELEMENTS * 2))),
    "flip_vertex": lambda g: flip_vertex(g, g.vertex_names[-1]),
}
CORRUPTIONS = ("duplicate-end", "unplaced-end", "bad-sign", "no-ends", "duplicate-vertex", "duplicate-edge",
               "bad-end-index", "unknown-edge-end")


@pytest.mark.parametrize("op", sorted(CORRUPTED_OPS))
@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_constructor_refuses_each_corruption_of_an_operator_result(kind, op):
    # An operator's result is trusted unchecked; rebuilt from its parts it
    # passes the check, and with one part broken it is refused, each time
    # with the same violations.
    out = CORRUPTED_OPS[op](random_graph(10, 4))
    assert RibbonGraph(out.vertices, out.edges) == out
    vertices, edges, found = _corrupted(out, kind)
    for _ in range(2):
        with pytest.raises(InvalidGraphError) as info:
            RibbonGraph(vertices, edges)
        assert info.value.violations == found


def _operator_outputs(g, subsets, pairs):
    """Every flag-building operator's output on ``g``: the whole-graph
    operators, two twist words mixing all six elements, each vertex flip,
    the oriented form of ``g`` (or of its orienting partial Petrial), and
    each subset and (deleted, contracted) pair.  Outputs that are ``g``
    itself are left out."""
    names = g.edge_names
    outs = [geometric_dual(g), petrial(g)]
    outs += [apply_twist_word(g, dict(zip(names, TWIST_ELEMENTS[k:] * len(names)))) for k in (1, 3)]
    outs += [flip_vertex(g, v) for v in g.vertex_names]
    outs.append(oriented_form(g if is_orientable(g) else partial_petrial(g, orienting_petrial_set(g)))[0])
    for a in subsets:
        outs += [partial_dual(g, a), contract(g, a), delete(g, a), partial_petrial(g, a)]
    outs += [minor(g, b, c) for b, c in pairs]
    return [out for out in outs if out is not g]


def test_operator_outputs_carry_their_flags(raw_universe3):
    # partial_dual, contract and minor on every subset and pair are checked
    # where they are matched exactly against their references below.
    for g in raw_universe3:
        names = g.edge_names
        subsets = [a for r in range(len(names) + 1) for a in itertools.combinations(names, r)]
        outs = _operator_outputs(g, [], [])
        outs += [op(g, a) for a in subsets for op in (delete, partial_petrial)]
        assert_born_with_flags(outs)


def test_operator_outputs_carry_their_flags_at_scale():
    for seed in range(3):
        g = random_graph(200, seed)
        rng = random.Random(f"flags:{seed}")
        lots = [{name: rng.randrange(3) for name in g.edge_names} for _ in range(3)]
        subsets = [[name for name, x in lot.items() if x] for lot in lots]
        pairs = [([n for n, x in lot.items() if x == 1], [n for n, x in lot.items() if x == 2]) for lot in lots]
        assert_born_with_flags(_operator_outputs(g, subsets, pairs))


def test_operator_chains_build_no_vertex_tuples(raw_universe3, monkeypatch):
    built = []
    new = core.Vertex.__new__

    def counted(cls, name, rotation=()):
        built.append(name)
        return new(cls, name, rotation)

    monkeypatch.setattr(core.Vertex, "__new__", counted)
    outs = []
    for g in raw_universe3:
        names = g.edge_names
        h = partial_petrial(partial_dual(g, names[::2]), names[1::2])
        h = apply_twist_word(h, dict(zip(names, ("dt", "td", "dtd"))))
        h = flip_vertex(h, h.vertex_names[-1])
        outs += [h, minor(h, names[:1], names[1:2]), contract(h, names[1:]), delete(h, names[:2])]
    assert built == []
    # The text is written from the flags; the view builds each vertex once.
    texts = [graph_to_text(h) for h in outs]
    assert [str(h) for h in outs] == texts and built == []
    assert sum(len(h.vertices) for h in outs) == len(built) == sum(len(h.vertex_names) for h in outs)
    assert sum(len(h.vertices) for h in outs) == len(built)


def test_operator_chain_validates_only_its_input(raw_universe3, monkeypatch):
    # The input is checked once, when it is built; no operator checks again.
    checked = []
    real = core.validate
    monkeypatch.setattr(core, "validate", lambda *graph: checked.append(graph) or real(*graph))
    for g in raw_universe3:
        fresh = RibbonGraph(g.vertices, g.edges)
        assert len(checked) == 1 and checked.pop()[0] == g.vertex_names
        names = g.edge_names
        minor(partial_dual(petrial(fresh), names[::2]), names[:1], names[1:2])
        assert checked == []


@given(g=rotation_systems(), data=st.data())
def test_operator_outputs_carry_their_flags_on_drawn_graphs(g, data):
    names = g.edge_names
    lot = data.draw(st.lists(st.sampled_from((0, 1, 2)), min_size=len(names), max_size=len(names)))
    subset = [n for n, x in zip(names, lot) if x]
    pair = ([n for n, x in zip(names, lot) if x == 1], [n for n, x in zip(names, lot) if x == 2])
    assert_born_with_flags(_operator_outputs(g, [subset], [pair]))


def _disjoint_pairs(names):
    """Every (deleted, contracted) pair of disjoint subsets of ``names``."""
    for lot in itertools.product((0, 1, 2), repeat=len(names)):
        yield (
            [n for n, x in zip(names, lot) if x == 1],
            [n for n, x in zip(names, lot) if x == 2],
        )


# ---------------------------------------------------------------------------
# deletion
# ---------------------------------------------------------------------------

def test_delete_all_leaves_isolated_vertices():
    g = delete(graph("torus"), ["a", "b"])
    assert len(g.edges) == 0
    assert [len(v.rotation) for v in g.vertices] == [0]


def test_delete_nothing_is_identity():
    g = graph("torus")
    assert delete(g, []) == g


def test_delete_one_of_parallel_pair():
    g = delete(graph("digon"), ["b"])
    assert g.edge_names == ("a",)
    assert trace_boundary(g).count == 1


def test_delete_unknown_edge():
    with pytest.raises(UnknownEdgeError):
        delete(graph("loop"), ["nope"])


# ---------------------------------------------------------------------------
# half twists
# ---------------------------------------------------------------------------

def test_half_twist_untwists():
    assert partial_petrial(graph("twisted_loop"), ["a"]) == graph("loop")


def test_empty_half_twist_is_identity():
    g = graph("torus")
    assert partial_petrial(g, []) is g
    with pytest.raises(UnknownEdgeError):
        partial_petrial(g, ["zz"])


def test_half_twist_involution(universe2):
    for g in universe2:
        names = sorted(g.edge_names)
        for r in range(len(names) + 1):
            for subset in itertools.combinations(names, r):
                assert partial_petrial(partial_petrial(g, subset), subset) == g


def test_petrial_twists_everything():
    g = petrial(graph("torus"))
    assert all(e.sign == -1 for e in g.edges)
    assert is_checkerboard_colourable(g)


# ---------------------------------------------------------------------------
# partial duality
# ---------------------------------------------------------------------------

def test_partial_dual_empty_set_is_identity():
    g = graph("torus")
    assert partial_dual(g, []) is g


def test_dual_of_planar_loop_is_an_edge():
    d = geometric_dual(graph("loop"))
    assert are_isomorphic(d, graph("path2"), match_edge_labels=True)
    assert len(d.vertices) == 2


def test_dual_swaps_vertices_and_faces(universe2):
    for g in universe2:
        d = geometric_dual(g)
        assert len(d.vertices) == trace_boundary(g).count
        assert trace_boundary(d).count == len(g.vertices)


def test_dual_vertex_labels_fresh():
    d = geometric_dual(graph("torus"))
    assert all(name.startswith("v") for name in d.vertex_names)
    assert d.edge_names == ("a", "b")


def test_dual_involution(universe2):
    for g in universe2:
        names = sorted(g.edge_names)
        for r in range(len(names) + 1):
            for subset in itertools.combinations(names, r):
                again = partial_dual(partial_dual(g, subset), subset)
                assert are_isomorphic(again, g, match_edge_labels=True)


def test_partial_dual_in_stages(universe2):
    for g in universe2:
        names = sorted(g.edge_names)
        if len(names) < 2:
            continue
        a, b = names[:2]
        lhs = partial_dual(g, [a, b])
        rhs = partial_dual(partial_dual(g, [a]), [b])
        assert are_isomorphic(lhs, rhs, match_edge_labels=True)


def test_one_pass_partial_dual_matches_staged_splices():
    for seed in range(50):
        g = random_graph(30 + seed % 6, seed)
        rng = random.Random(seed)
        subset = [name for name in g.edge_names if rng.random() < 0.5]
        staged = g
        for name in subset:
            staged = partial_dual(staged, [name])
        d = partial_dual(g, subset)
        assert are_isomorphic(d, staged, match_edge_labels=True)
        assert str(d) == str(arrow_splice_partial_dual(g, subset))


def test_partial_dual_matches_arrow_splice_exactly(raw_universe3):
    for g in raw_universe3:
        names = g.edge_names
        born = []
        for r in range(len(names) + 1):
            for subset in itertools.combinations(names, r):
                d = partial_dual(g, subset)
                ref = arrow_splice_partial_dual(g, subset)
                assert d == ref and str(d) == str(ref)
                if subset:
                    born.append(d)
        assert_born_with_flags(born)


def test_partial_dual_vertex_and_face_counts_at_scale():
    g = random_graph(2000, 0)
    rng = random.Random(0)
    subset = {name for name in g.edge_names if rng.random() < 0.5}
    rest = [name for name in g.edge_names if name not in subset]
    d = partial_dual(g, subset)
    assert len(d.vertices) == trace_boundary(delete(g, rest)).count
    assert trace_boundary(d).count == trace_boundary(delete(g, subset)).count
    back = partial_dual(d, subset)
    assert len(back.vertices) == len(g.vertices)
    assert trace_boundary(back).count == trace_boundary(g).count


def test_torus_partial_dual_is_checkerboard():
    h = partial_dual(graph("torus"), ["b"])
    assert trace_boundary(h).count == 2
    assert is_checkerboard_colourable(h)


# ---------------------------------------------------------------------------
# contraction and minors
# ---------------------------------------------------------------------------

def test_contract_planar_loop_gives_two_isolated_vertices():
    g = contract(graph("loop"), ["a"])
    assert len(g.edges) == 0 and len(g.vertices) == 2
    assert all(len(v.rotation) == 0 for v in g.vertices)


def test_contract_twisted_loop_gives_one_isolated_vertex():
    g = contract(graph("twisted_loop"), ["a"])
    assert len(g.edges) == 0 and len(g.vertices) == 1


def test_contract_nonloop_merges_vertices():
    g = parse_graph(
        "vertex u: a.1 b.1\nvertex v: a.2 c.1\nvertex w: b.2 c.2\n"
        "edge a: +\nedge b: +\nedge c: +\n"
    )
    h = contract(g, ["a"])
    assert len(h.vertices) == 2 and sorted(h.edge_names) == ["b", "c"]


def test_contract_nothing_is_identity():
    g = graph("torus")
    assert contract(g, []) == g


def test_minor_rejects_overlap():
    with pytest.raises(ValueError):
        minor(graph("torus"), ["a"], ["a"])


def test_minor_of_nothing_is_identity():
    g = graph("torus")
    assert minor(g, [], []) == g


def test_contract_and_minor_match_the_chain_exactly(raw_universe3):
    # Every disjoint (B, C) once: the chain's contraction is built once per
    # C and each B is deleted from it, as chain_minor does.
    for g in raw_universe3:
        names = g.edge_names
        born = []
        for r in range(len(names) + 1):
            for c in itertools.combinations(names, r):
                contracted = chain_contract(g, c)
                out = contract(g, c)
                assert graph_to_text(out) == graph_to_text(contracted)
                born.append(out)
                rest = [n for n in names if n not in c]
                for k in range(len(rest) + 1):
                    for b in itertools.combinations(rest, k):
                        out = minor(g, b, c)
                        assert graph_to_text(out) == graph_to_text(delete(contracted, b))
                        born.append(out)
        assert_born_with_flags(born)


def test_contract_and_minor_match_the_chain_at_scale():
    for seed in range(20):
        g = random_graph(200, seed)
        rng = random.Random(seed)
        lot = {name: rng.randrange(3) for name in g.edge_names}
        b = [name for name, x in lot.items() if x == 1]
        c = [name for name, x in lot.items() if x == 2]
        assert graph_to_text(minor(g, b, c)) == graph_to_text(chain_minor(g, b, c))
        assert graph_to_text(contract(g, c)) == graph_to_text(chain_contract(g, c))


def test_minor_keeps_the_chains_error_order():
    # An overlap, then an unknown contracted edge, then an unknown deleted edge.
    with pytest.raises(ValueError):
        minor(graph("torus"), ["x"], ["x"])
    for call in (minor, chain_minor):
        with pytest.raises(UnknownEdgeError, match="^y$"):
            call(graph("torus"), ["x"], ["y"])
        with pytest.raises(UnknownEdgeError, match="^x$"):
            call(graph("torus"), ["x", "y"], ["a"])


def test_minor_order_immaterial(universe2):
    for g in universe2:
        names = sorted(g.edge_names)
        if len(names) < 2:
            continue
        b, c = [names[0]], [names[1]]
        lhs = delete(contract(g, c), b)
        rhs = contract(delete(g, b), c)
        assert are_isomorphic(lhs, rhs, match_edge_labels=True)


# ---------------------------------------------------------------------------
# twist words
# ---------------------------------------------------------------------------

def test_twist_compose_relations():
    assert twist_compose("d", "d") == "1"
    assert twist_compose("t", "t") == "1"
    assert twist_compose("d", "t") == "dt"
    assert twist_compose("dt", "dt") == twist_compose("td", "1") == "td"
    x = "1"
    for _ in range(3):
        x = twist_compose("dt", x)
    assert x == "1"
    assert twist_compose("dtd", "dtd") == "1"
    assert len({twist_compose(a, b) for a in TWIST_ELEMENTS for b in TWIST_ELEMENTS}) == 6


def test_identity_word_is_identity():
    g = graph("torus")
    assert apply_twist_word(g, {"a": "1", "b": "1"}) == g


def test_all_dual_word_is_geometric_dual():
    g = graph("torus")
    assert apply_twist_word(g, {"a": "d", "b": "d"}) == geometric_dual(g)


def test_all_twist_word_is_petrial():
    g = graph("torus")
    assert apply_twist_word(g, {"a": "t", "b": "t"}) == petrial(g)


def test_sixth_power_of_dt_is_identity(universe2):
    for g in universe2:
        for e in sorted(g.edge_names):
            h = g
            for _ in range(3):
                h = apply_twist_word(h, {e: "dt"})
            assert are_isomorphic(h, g, match_edge_labels=True)


def test_sixth_power_of_dt_is_identity_at_scale():
    g = random_graph(500, 0)
    rng = random.Random("dt-cubed")
    everywhere = {name: "dt" for name in g.edge_names}
    for word in (everywhere, {name: "dt" for name in g.edge_names if rng.random() < 0.5}):
        h = g
        for _ in range(3):
            h = apply_twist_word(h, word)
        assert are_isomorphic(h, g, match_edge_labels=True)


def _every_word(g):
    return [dict(zip(g.edge_names, combo)) for combo in itertools.product(TWIST_ELEMENTS, repeat=len(g.edge_names))]


def test_twist_word_makes_at_most_one_dual_walk(universe2, monkeypatch):
    walks = []
    real = operators._dual_without
    monkeypatch.setattr(operators, "_dual_without", lambda *args: walks.append(1) or real(*args))
    counts = []
    for g in universe2:
        for word in _every_word(g):
            walks.clear()
            apply_twist_word(g, word)
            counts.append(len(walks))
    assert len(counts) == 631 and max(counts) == 1


def test_twist_word_matches_the_letter_chain(universe2):
    for g in universe2:
        for word in _every_word(g):
            assert are_isomorphic(apply_twist_word(g, word), letter_chain(g, word), match_edge_labels=True)


@given(g=rotation_systems(), data=st.data())
def test_twist_word_matches_the_letter_chain_on_rotation_systems(g, data):
    word = {name: data.draw(st.sampled_from(TWIST_ELEMENTS)) for name in g.edge_names}
    assert are_isomorphic(apply_twist_word(g, word), letter_chain(g, word), match_edge_labels=True)


def test_twist_word_matches_the_letter_chain_at_scale():
    for seed in range(3):
        g = random_graph(500, seed)
        rng = random.Random(f"word:{seed}")
        word = {name: rng.choice(TWIST_ELEMENTS) for name in g.edge_names}
        assert are_isomorphic(apply_twist_word(g, word), letter_chain(g, word), match_edge_labels=True)


def test_word_validation():
    with pytest.raises(ValueError):
        apply_twist_word(graph("loop"), {"a": "x"})
    with pytest.raises(UnknownEdgeError):
        apply_twist_word(graph("loop"), {"zz": "d"})


def test_duals_and_twists_commute_on_distinct_edges(universe2):
    for g in universe2:
        names = sorted(g.edge_names)
        if len(names) < 2:
            continue
        e1, e2 = names[:2]
        lhs = partial_petrial(partial_dual(g, [e1]), [e2])
        rhs = partial_dual(partial_petrial(g, [e2]), [e1])
        assert are_isomorphic(lhs, rhs, match_edge_labels=True)


@given(data=st.data())
def test_random_words_respect_composition(universe2, data):
    g = data.draw(st.sampled_from([x for x in universe2 if x.edges]))
    names = sorted(g.edge_names)
    w1 = {n: data.draw(st.sampled_from(TWIST_ELEMENTS)) for n in names}
    w2 = {n: data.draw(st.sampled_from(TWIST_ELEMENTS)) for n in names}
    combined = {n: twist_compose(w2[n], w1[n]) for n in names}
    lhs = apply_twist_word(apply_twist_word(g, w1), w2)
    rhs = apply_twist_word(g, combined)
    assert are_isomorphic(lhs, rhs, match_edge_labels=True)


def test_involutions_and_minor_exchange_on_random_larger_graphs():
    import random

    from ribbonlab import minor, sample_graphs

    rng = random.Random(11)
    for k in (4, 5, 6):
        for g in sample_graphs(k, 6, seed=4):
            names = sorted(g.edge_names)
            subset = tuple(n for n in names if rng.random() < 0.5)
            assert partial_petrial(partial_petrial(g, subset), subset) == g
            again = partial_dual(partial_dual(g, subset), subset)
            assert are_isomorphic(again, g, match_edge_labels=True)
            lot = [rng.randrange(3) for _ in names]
            b = tuple(n for n, x in zip(names, lot) if x == 1)
            c = tuple(n for n, x in zip(names, lot) if x == 2)
            aset = set(subset)
            lhs = partial_dual(minor(g, b, c), [x for x in subset if x not in set(b) | set(c)])
            bp = tuple(sorted((set(b) - aset) | (set(c) & aset)))
            cp = tuple(sorted((set(c) - aset) | (set(b) & aset)))
            rhs = minor(partial_dual(g, subset), bp, cp)
            assert are_isomorphic(lhs, rhs, match_edge_labels=True)


def test_minor_exchange_and_contraction_at_scale():
    for edges in (50, 500):
        for seed in range(3):
            g = random_graph(edges, seed)
            rng = random.Random(f"exchange:{edges}:{seed}")
            a = [name for name in g.edge_names if rng.random() < 0.5]
            lot = {name: rng.randrange(3) for name in g.edge_names}
            b = {name for name, x in lot.items() if x == 1}
            c = {name for name, x in lot.items() if x == 2}
            aset = set(a)
            lhs = partial_dual(minor(g, b, c), [x for x in a if x not in b | c])
            rhs = minor(partial_dual(g, a), (b - aset) | (c & aset), (c - aset) | (b & aset))
            assert are_isomorphic(lhs, rhs, match_edge_labels=True)
            assert are_isomorphic(contract(g, c), chain_contract(g, c), match_edge_labels=True)


@given(data=st.data())
def test_random_subset_dual_involution(universe2, data):
    g = data.draw(st.sampled_from(universe2))
    subset = data.draw(st.lists(st.sampled_from(sorted(g.edge_names) or [""]), unique=True))
    subset = [s for s in subset if s]
    again = partial_dual(partial_dual(g, subset), subset)
    assert are_isomorphic(again, g, match_edge_labels=True)
