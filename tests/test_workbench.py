import itertools
import json
import math
import pickle
from fractions import Fraction

import pytest

from ribbonlab import (
    EnumerationLimitError,
    PROPERTIES,
    UnknownPropertyError,
    WorkerCountError,
    are_isomorphic,
    enumerate_graphs,
    graph_to_text,
    is_eulerian,
    load_graph,
    predicate_implication_table,
    run_all_properties,
    run_property_suite,
    sample_graphs,
    search_converse_counterexample,
)

from ribbonlab import canonical_text, core, isomorphism, operators, workbench
from ribbonlab.workbench import ConverseWitness, _sigma_reps

from helpers import (
    FIXTURES,
    REFERENCE_SUITES,
    _double_factorial,
    assert_born_with_flags,
    brute_force_automorphism_count,
    burnside_class_count,
    random_graph,
    unpruned_enumeration,
)

GOLDEN_CLASS_COUNTS = {0: 1, 1: 3, 2: 17, 3: 106, 4: 850}


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_zero_edges_single_graph():
    graphs = list(enumerate_graphs(0))
    assert len(graphs) == 1
    assert len(graphs[0].vertices) == 1 and not graphs[0].edges


def test_one_edge_classes():
    graphs = [g for g in enumerate_graphs(1) if g.edges]
    assert len(graphs) == 3
    loops = [g for g in graphs if len(g.vertices) == 1]
    assert len(loops) == 2  # untwisted and twisted loop
    assert len([g for g in graphs if len(g.vertices) == 2]) == 1


def test_golden_class_counts(universe3, universe4):
    counts = {}
    for g in universe4:
        counts[len(g.edges)] = counts.get(len(g.edges), 0) + 1
    assert counts == GOLDEN_CLASS_COUNTS
    assert len(universe3) == sum(GOLDEN_CLASS_COUNTS[k] for k in range(4))
    # the independent oracle: Burnside's lemma over the flag encoding
    assert counts == {0: 1, **{k: burnside_class_count(k) for k in range(1, 5)}}


def _mass(graphs) -> dict[int, Fraction]:
    """Σ 1/|Aut| per edge count, with |Aut| from a brute force that shares
    no code with the canonical key."""
    mass: dict[int, Fraction] = {}
    for g in graphs:
        k = len(g.edges)
        mass[k] = mass.get(k, 0) + Fraction(1, brute_force_automorphism_count(g))
    return mass


def _mass_formula(k: int) -> Fraction:
    # Orbit-stabilizer for the edge group W of order 4^k k! acting on the
    # (4k - 1)!! corner involutions of the 4k flags: each class weighs 1/|Aut|.
    return Fraction(_double_factorial(4 * k - 1), 4**k * math.factorial(k))


def test_classes_satisfy_the_mass_formula(universe4):
    mass = _mass(universe4)
    assert [mass[k] for k in range(1, 5)] == [_mass_formula(k) for k in range(1, 5)]
    assert [mass[k] for k in range(1, 5)] == [
        Fraction(3, 4), Fraction(105, 32), Fraction(3465, 128), Fraction(675675, 2048)
    ]


def test_five_edge_classes_match_burnside_and_the_mass_formula():
    fives = [g for g in enumerate_graphs(5) if len(g.edges) == 5]
    assert len(fives) == burnside_class_count(5) == 9284
    assert _mass(fives) == {5: _mass_formula(5)} == {5: Fraction(43648605, 8192)}


def _relabellings(k: int):
    """Every dart relabelling that keeps the pairs (2i, 2i+1) together."""
    for perm in itertools.permutations(range(k)):
        for swaps in itertools.product((0, 1), repeat=k):
            yield tuple(2 * perm[d >> 1] + ((d & 1) ^ swaps[d >> 1]) for d in range(2 * k))


def _conjugate(g, sigma) -> tuple[int, ...]:
    """g∘σ∘g⁻¹."""
    h = [0] * len(sigma)
    for d in range(len(sigma)):
        h[g[d]] = g[sigma[d]]
    return tuple(h)


def _relabelling_orbit(sigma: tuple[int, ...]) -> set[tuple[int, ...]]:
    """σ conjugated by every dart relabelling that keeps the pairs
    (2i, 2i+1) together."""
    return {_conjugate(g, sigma) for g in _relabellings(len(sigma) // 2)}


def _cycle_count(sigma) -> int:
    seen, count = set(), 0
    for d in range(len(sigma)):
        count += d not in seen
        while d not in seen:
            seen.add(d)
            d = sigma[d]
    return count


def test_sigma_reps_hit_each_relabelling_orbit_once():
    for k in range(1, 4):
        minima = [s for s in itertools.permutations(range(2 * k)) if min(_relabelling_orbit(s)) == s]
        hits = [min(_relabelling_orbit(tuple(s))) for s in _sigma_reps(k, 2 * k)]
        assert sorted(hits) == minima
    reps = [tuple(s) for s in _sigma_reps(4, 8)]
    assert len(reps) == 182
    assert len({min(_relabelling_orbit(s)) for s in reps}) == 182


def test_sigma_reps_drop_cycle_types_with_too_many_vertices():
    every = list(_sigma_reps(4, 8))
    for parts in range(9):
        assert list(_sigma_reps(4, parts)) == [s for s in every if _cycle_count(s) <= parts]


ENUMERATION_OPTIONS = [{}, {"connected": True}, {"max_vertices": 2}, {"extra_isolated": 1}]


@pytest.mark.parametrize("options", ENUMERATION_OPTIONS, ids=lambda o: ",".join(o) or "default")
def test_pruned_enumeration_yields_the_unpruned_graphs(options):
    pruned = [canonical_text(g) for g in enumerate_graphs(4, **options)]
    reference = [canonical_text(g) for g in unpruned_enumeration(4, **options)]
    assert len(pruned) == len(reference)
    assert set(pruned) == set(reference)


def test_enumeration_keys_one_sign_vector_per_symmetry_orbit(monkeypatch):
    calls = {"all-plus": 0, "signed": 0}
    plus_key, key = workbench._key_and_automorphisms, workbench.canonical_key_darts

    def counted(name, fn):
        return lambda fl: calls.__setitem__(name, calls[name] + 1) or fn(fl)

    monkeypatch.setattr(workbench, "_key_and_automorphisms", counted("all-plus", plus_key))
    monkeypatch.setattr(workbench, "canonical_key_darts", counted("signed", key))
    assert len(list(enumerate_graphs(3))) == 127
    assert calls == {"all-plus": 45, "signed": 95}  # 309 with every sign vector keyed
    calls.update({"all-plus": 0, "signed": 0})
    assert len(list(enumerate_graphs(4))) == 977
    assert calls == {"all-plus": 227, "signed": 895}  # 3,221 with every sign vector keyed


def test_raw_counts():
    raw1 = list(enumerate_graphs(1, dedup=False))
    assert len(raw1) == 1 + 2 * 2  # the empty graph plus 2 rotations x 2 signs
    raw2 = [g for g in enumerate_graphs(2, dedup=False) if len(g.edges) == 2]
    assert len(raw2) == 24 * 4


def test_dedup_emits_pairwise_nonisomorphic(universe2):
    for i, g in enumerate(universe2):
        for h in universe2[i + 1 :]:
            if len(g.edges) == len(h.edges) and len(g.vertices) == len(h.vertices):
                assert not are_isomorphic(g, h)


def test_every_raw_graph_has_a_representative(universe2):
    keys = {graph_to_text(g): g for g in universe2}
    for raw in enumerate_graphs(2, dedup=False):
        assert any(are_isomorphic(raw, g) for g in universe2 if len(g.edges) == len(raw.edges))


def test_connected_filter():
    for g in enumerate_graphs(2, connected=True):
        from ribbonlab import connected_components

        assert len(connected_components(g)) == 1


def test_max_vertices_filter():
    graphs = list(enumerate_graphs(1, max_vertices=1))
    assert all(len(g.vertices) <= 1 for g in graphs)
    assert len([g for g in graphs if g.edges]) == 2


def test_extra_isolated_vertices():
    graphs = list(enumerate_graphs(1, extra_isolated=1))
    withedges = [g for g in graphs if g.edges]
    assert all(any(len(v.rotation) == 0 for v in g.vertices) for g in withedges)


def test_hard_cap():
    with pytest.raises(EnumerationLimitError):
        enumerate_graphs(7)


def test_negative_max_vertices():
    with pytest.raises(EnumerationLimitError, match="^max_vertices must be nonnegative$"):
        enumerate_graphs(1, max_vertices=-1)


def test_sampling_is_not_held_to_the_enumeration_cap():
    graphs = sample_graphs(50, 2, seed=1)
    assert [len(g.edges) for g in graphs] == [50, 50]
    eulerian = sample_graphs(40, 2, seed=1, eulerian=True)
    assert [len(g.edges) for g in eulerian] == [40, 40]
    assert all(is_eulerian(g) for g in eulerian)
    with pytest.raises(EnumerationLimitError):
        sample_graphs(-1, 2)


def test_sampled_empty_graph_is_the_enumerated_one():
    assert sample_graphs(0, 2, seed=3) == list(enumerate_graphs(0)) * 2


def test_enumerated_and_sampled_graphs_carry_their_flags():
    for universe in (
        enumerate_graphs(3, dedup=False),
        enumerate_graphs(3, extra_isolated=2),
        enumerate_graphs(3, connected=True, max_vertices=2),
    ):
        assert_born_with_flags(list(universe))
    assert_born_with_flags(
        sample_graphs(0, 2, seed=1) + sample_graphs(200, 3, seed=2) + sample_graphs(8, 20, seed=3, eulerian=True)
    )


def test_canonical_stability_suite_validates_nothing(monkeypatch):
    # Enumerated and canonical graphs are built valid, and flips of them
    # are operator results: nothing in the suite enters from outside.
    checked = []
    real = core.validate
    monkeypatch.setattr(core, "validate", lambda *graph: checked.append(graph) or real(*graph))
    report = run_property_suite(enumerate_graphs(3), "canonical-stability")
    assert report.passed and report.checked > 0
    assert checked == []


def test_enumeration_deterministic():
    run1 = [graph_to_text(g) for g in enumerate_graphs(2)]
    run2 = [graph_to_text(g) for g in enumerate_graphs(2)]
    assert run1 == run2


# ---------------------------------------------------------------------------
# property reports
# ---------------------------------------------------------------------------

def test_unknown_property_rejected():
    with pytest.raises(UnknownPropertyError):
        run_property_suite(enumerate_graphs(1), "not-a-property")


def test_report_shape_and_determinism():
    u = enumerate_graphs(2)
    r1 = run_property_suite(u, "checkerboard-implies-eulerian")
    r2 = run_property_suite(u, "checkerboard-implies-eulerian")
    assert r1.passed and r2.passed
    d1, d2 = r1.to_dict(), r2.to_dict()
    assert list(d1) == ["property", "params", "checked", "failures", "elapsed_ms"]
    d1.pop("elapsed_ms"), d2.pop("elapsed_ms")
    assert d1 == d2
    parsed = json.loads(json.dumps(r1.to_dict(), indent=2))
    assert parsed["property"] == "checkerboard-implies-eulerian"
    assert parsed["failures"] == []


def test_workers_give_identical_reports():
    # pdual-minor-exchange runs operator chains inside each worker; the
    # pickling of operator results is checked by
    # test_operators._assert_born_with_flags.
    for suite, max_edges in (("arrow-roundtrip", 1), ("pdual-minor-exchange", 2)):
        u = enumerate_graphs(max_edges)
        r1 = run_property_suite(u, suite, workers=1).to_dict()
        r2 = run_property_suite(u, suite, workers=2).to_dict()
        r1.pop("elapsed_ms"), r2.pop("elapsed_ms")
        assert r1 == r2 and r1["checked"] > 0


def test_reports_survive_a_pickle_round_trip(monkeypatch):
    # Reports and their failures are pickled like the graphs a worker receives.
    monkeypatch.setitem(workbench.PROPERTIES, "always-fails", lambda g: [({"note": 1}, False, "deliberate")])
    for name in ("arrow-roundtrip", "always-fails"):
        report = run_property_suite(enumerate_graphs(1), name)
        copy = pickle.loads(pickle.dumps(report))
        assert type(copy) is type(report) and copy == report and copy.to_dict() == report.to_dict()
    assert copy.failures and all(type(f) is workbench.PropertyFailure for f in copy.failures)


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_are_rejected(workers):
    u = enumerate_graphs(1)
    for call in (
        lambda: run_property_suite(u, "arrow-roundtrip", workers=workers),
        lambda: run_all_properties(u, workers=workers),
    ):
        with pytest.raises(WorkerCountError, match="^workers must be at least 1$"):
            call()


def test_verify_all_enumerates_once_and_hands_each_suite_fresh_graphs(monkeypatch):
    passes, held = [], set()
    real_iter, real_evaluate = workbench.GraphUniverse.__iter__, workbench._evaluate
    monkeypatch.setattr(workbench.GraphUniverse, "__iter__", lambda self: passes.append(1) or real_iter(self))
    monkeypatch.setattr(workbench, "_evaluate", lambda name, g: held.update(vars(g)) or real_evaluate(name, g))
    u = enumerate_graphs(2)
    reports = [r.to_dict() for r in workbench.run_all_properties(u)]
    assert len(passes) == 1
    # No suite sees a memo another suite left behind.
    assert held == {"_flags", "vertex_names", "edge_names"}
    singles = [run_property_suite(u, name).to_dict() for name in PROPERTIES]
    for r in reports + singles:
        r.pop("elapsed_ms")
    assert reports == singles


@pytest.mark.parametrize("name", sorted(REFERENCE_SUITES))
def test_suites_sharing_operands_yield_their_references_instances(name, universe3):
    # Past SUBSET_EXHAUSTIVE_CAP edges, _edge_subsets and _disjoint_pairs
    # sample, and the seeded graphs hold parallel edges, loops and twists.
    seeded = [g for k in (4, 5, 6) for g in (*sample_graphs(k, 1, seed=k), random_graph(k, k))]
    for g in universe3 + seeded:
        assert list(PROPERTIES[name](g)) == list(REFERENCE_SUITES[name](g)), graph_to_text(g)


#: Dual walks (partial duals, contractions and minors) of one ≤3-edge pass
#: of each suite that shares its operands across instances.  Rebuilding
#: each operand per instance made 37,184, 7,102, 6,050, 11,343 and 1,340.
SHARED_OPERAND_WALKS = {
    "pdual-minor-exchange": 31392,
    "pdual-disjoint-union": 3694,
    "minor-commute": 3948,
    "twist-word-grouping": 6540,
    "delta-tau-commute": 1025,
    "canonical-stability": 0,
}


def test_suites_build_each_shared_operand_once(monkeypatch):
    walks, keys, twists = {}, {}, {}
    suite = [""]
    walk, key, twist = operators._dual_without, isomorphism.canonical_key_darts, operators._twist_flags

    def counted(calls, fn):
        return lambda *args: calls.__setitem__(suite[0], calls.get(suite[0], 0) + 1) or fn(*args)

    monkeypatch.setattr(operators, "_dual_without", counted(walks, walk))
    monkeypatch.setattr(isomorphism, "canonical_key_darts", counted(keys, key))
    monkeypatch.setattr(operators, "_twist_flags", counted(twists, twist))
    u = list(enumerate_graphs(3))
    for name in PROPERTIES:
        suite[0] = name
        workbench._run_suite(u, {}, name, 1)
    assert {name: walks.get(name, 0) for name in SHARED_OPERAND_WALKS} == SHARED_OPERAND_WALKS
    assert sum(walks.values()) == 54767  # 71,187 with every operand rebuilt per instance
    assert twists["delta-tau-commute"] == 1022  # 1,340 with G^{τ(e2)} rebuilt per pair
    # 1,082 with the graph's key made per instance, 795 with canonical_graph keying the graph
    # again, 668 with canonical_graph keying the canonical graph again
    assert keys["canonical-stability"] == 541


def test_spec_named_properties_pass_small():
    u = enumerate_graphs(2)
    for name in (
        "checkerboard-implies-eulerian",
        "theorem1-endtoend",
        "petrial-orientable-implies-dual-eulerian",
    ):
        assert name in PROPERTIES
        assert run_property_suite(u, name).passed


def test_implication_table():
    table = predicate_implication_table(enumerate_graphs(2))
    assert table["graphs"] == 21
    holds = table["holds"]
    assert holds["checkerboard"]["eulerian"]
    assert holds["bipartite"]["even-face"]
    assert not holds["eulerian"]["checkerboard"]
    assert not holds["even-face"]["bipartite"]
    assert json.dumps(table)  # serializable


def test_failures_are_reported_with_witnesses(monkeypatch):
    from ribbonlab import workbench

    def always_fails(g):
        yield {"note": 1}, False, "deliberately failing check"

    monkeypatch.setitem(workbench.PROPERTIES, "always-fails", always_fails)
    report = run_property_suite(enumerate_graphs(1), "always-fails")
    assert not report.passed
    assert report.checked == 4 and len(report.failures) == 4
    first = report.failures[0]
    assert first.params == {"note": 1}
    assert "deliberately failing" in first.detail
    from ribbonlab import parse_graph

    assert parse_graph(first.graph) is not None  # witness is a loadable graph
    as_json = report.to_dict()
    assert as_json["failures"][0]["params"] == {"note": 1}


def test_cli_reports_failures_with_exit_one(monkeypatch, capsys):
    from ribbonlab import workbench
    from ribbonlab.cli import main

    def always_fails(g):
        yield {}, False, "deliberately failing check"

    monkeypatch.setitem(workbench.PROPERTIES, "always-fails", always_fails)
    code = main(["verify", "always-fails", "--max-edges", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "witness" in out


# ---------------------------------------------------------------------------
# the converse counterexample search
# ---------------------------------------------------------------------------

def test_search_finds_and_verifies_witness():
    witness = search_converse_counterexample(enumerate_graphs(4))
    assert witness is not None
    assert witness.verify()
    assert graph_to_text(witness.graph) == (
        "vertex v0: e0.1 e1.1 e0.2 e2.1 e1.2 e2.2\nedge e0: +\nedge e1: +\nedge e2: +\n"
    )
    assert witness.subset == ("e0", "e2")


def test_stored_converse_witness_still_verifies():
    stored = load_graph(FIXTURES / "converse_witness.rg")
    assert ConverseWitness(stored, ("e2",)).verify()


def test_no_witness_below_three_edges():
    assert search_converse_counterexample(enumerate_graphs(2)) is None
