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
    RibbonGraph,
    UnknownEdgeError,
    Vertex,
    apply_twist_word,
    are_isomorphic,
    contract,
    delete,
    flip_vertex,
    geometric_dual,
    graph_to_text,
    is_checkerboard_colourable,
    is_orientable,
    minor,
    oriented_form,
    orienting_petrial_set,
    parse_graph,
    partial_dual,
    partial_petrial,
    petrial,
    to_arrow_presentation,
    trace_boundary,
    twist_compose,
    validate,
)
from ribbonlab import core, operators

from helpers import (
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
# validation: once per graph, still on every operator
# ---------------------------------------------------------------------------

INVALID = {
    "duplicate-end": RibbonGraph(
        (Vertex("u", (EdgeEnd("e", 1), EdgeEnd("e", 1))),), (Edge("e"),)
    ),
    "unplaced-end": RibbonGraph((Vertex("u", (EdgeEnd("e", 1),)),), (Edge("e"),)),
    "bad-sign": RibbonGraph(
        (Vertex("u", (EdgeEnd("e", 1), EdgeEnd("e", 2))),), (Edge("e", 0),)
    ),
    "no-ends": RibbonGraph((Vertex("u"),), (Edge("e"),)),
    "duplicate-vertex": RibbonGraph(
        (Vertex("u", (EdgeEnd("e", 1), EdgeEnd("e", 2))), Vertex("u")), (Edge("e"),)
    ),
    "duplicate-edge": RibbonGraph(
        (Vertex("u", (EdgeEnd("e", 1), EdgeEnd("e", 2))),), (Edge("e"), Edge("e", -1))
    ),
    "bad-end-index": RibbonGraph(
        (Vertex("u", (EdgeEnd("e", 1), EdgeEnd("e", 3), EdgeEnd("e", 2))),), (Edge("e"),)
    ),
    "unknown-edge-end": RibbonGraph(
        (Vertex("u", (EdgeEnd("e", 1), EdgeEnd("f", 1))), Vertex("v", (EdgeEnd("e", 2),))), (Edge("e"),)
    ),
}
#: The violation each graph of INVALID is built to show, where its key is not that kind.
INVALID_KIND = {"duplicate-end": "duplicate-edge-end", "unplaced-end": "unplaced-edge-end", "no-ends": "unplaced-edge-end"}
CHECKED_OPS = {
    "delete": lambda g: delete(g, ["e"]),
    "partial_petrial": lambda g: partial_petrial(g, ["e"]),
    "partial_dual": lambda g: partial_dual(g, ["e"]),
    "contract": lambda g: contract(g, ["e"]),
    "minor": lambda g: minor(g, [], ["e"]),
    "trace_boundary": trace_boundary,
    "to_arrow_presentation": to_arrow_presentation,
}


@pytest.mark.parametrize("op", sorted(CHECKED_OPS))
@pytest.mark.parametrize("kind", sorted(INVALID))
def test_invalid_graph_rejected_on_every_call(kind, op):
    g = INVALID[kind]
    with pytest.raises(InvalidGraphError) as first:
        CHECKED_OPS[op](g)
    with pytest.raises(InvalidGraphError) as second:
        CHECKED_OPS[op](g)
    assert first.value.violations == second.value.violations == tuple(validate(g))


@pytest.mark.parametrize("kind", sorted(INVALID))
def test_invalid_graphs_are_laid_out_written_and_compared(kind):
    # The constructor lays out the flags of any vertices, so an invalid
    # graph is built, written and compared like a valid one.
    g = INVALID[kind]
    copy = RibbonGraph(g.vertices, g.edges)
    assert {"_flags", "vertex_names", "edges"} <= vars(copy).keys() and "_violations" not in vars(copy)
    assert INVALID_KIND.get(kind, kind) in {v.kind for v in validate(g)}
    lines = [f"vertex {v.name}:" + "".join(f" {d}" for d in v.rotation) for v in g.vertices]
    lines += [f"edge {e.name}: {'+' if e.sign > 0 else '-'}" for e in g.edges]
    assert graph_to_text(g) == graph_to_text(copy) == "\n".join(lines) + "\n"
    for h in [copy, *INVALID.values(), graph("loop")]:
        same = (g.vertices, g.edges) == (h.vertices, h.edges)
        assert (g == h) == (h == g) == same
        if same:
            assert hash(g) == hash(h)


def takes_graph(p: inspect.Parameter) -> bool:
    return p.annotation in ("RibbonGraph", RibbonGraph)


#: Every public function that takes a graph, but ``validate``, which
#: reports the violations, and ``graph_to_text``, which prints any graph.
GRAPH_FUNCTIONS = [
    fn
    for name, fn in sorted(vars(ribbonlab).items())
    if inspect.isfunction(fn)
    and name not in ("validate", "graph_to_text")
    and any(map(takes_graph, inspect.signature(fn).parameters.values()))
]
#: A value for each other required parameter.  The edge names are unknown,
#: so the graph must be validated before they are checked.
OTHER_ARGS = {"edges": ["zz"], "deleted": ["zz"], "contracted": ["zz"], "vertex": "u", "word": {}, "path": "unused.rg"}


@pytest.mark.parametrize("kind", sorted(INVALID))
@pytest.mark.parametrize("fn", GRAPH_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_every_public_function_rejects_invalid_graphs(fn, kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = [
        INVALID[kind] if takes_graph(p) else OTHER_ARGS[p.name]
        for p in inspect.signature(fn).parameters.values()
        if p.default is inspect.Parameter.empty
    ]
    with pytest.raises(InvalidGraphError):
        fn(*args)
    assert list(tmp_path.iterdir()) == []


def test_operator_outputs_validate_afresh(universe3):
    ops = (delete, partial_petrial, partial_dual, contract)
    for g in universe3:
        names = g.edge_names
        for r in range(len(names) + 1):
            for subset in itertools.combinations(names, r):
                for op in ops:
                    out = op(g, subset)
                    # A rebuilt copy carries no cached verdict.
                    assert validate(RibbonGraph(out.vertices, out.edges)) == []
        for b, c in _disjoint_pairs(names):
            out = minor(g, b, c)
            assert validate(RibbonGraph(out.vertices, out.edges)) == []


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
    checked = []
    real = core.validate
    monkeypatch.setattr(core, "validate", lambda g: checked.append(g) or real(g))
    for g in raw_universe3:
        fresh = RibbonGraph(g.vertices, g.edges)
        names = g.edge_names
        minor(partial_dual(petrial(fresh), names[::2]), names[:1], names[1:2])
        assert len(checked) == 1 and checked.pop() is fresh


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
    # An invalid graph, then an overlap, then an unknown contracted edge,
    # then an unknown deleted edge.  The chain's first step, a partial
    # dual, validates before it reads edge names.
    bad = INVALID["bad-sign"]
    for call in (minor, chain_minor):
        with pytest.raises(InvalidGraphError):
            call(bad, ["x"], ["y"])
    with pytest.raises(InvalidGraphError):
        minor(bad, ["e"], ["e"])
    for call in (contract, chain_contract):
        with pytest.raises(InvalidGraphError):
            call(bad, ["y"])
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
