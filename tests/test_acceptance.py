"""Acceptance suite: the package-level guarantees at their full stated scale.

Every test prints one ``ACCEPTANCE <name>: PASS|FAIL`` line (visible with
``pytest -s``) and then asserts.  The graph universes are exhaustive and
deduplicated; subset-quantified checks run over every subset.
"""

import itertools
import time

import pytest

from ribbonlab import (
    ConverseWitness,
    apply_twist_word,
    are_isomorphic,
    canonical_graph,
    checkerboard_partial_petrial,
    checkerboard_twisted_dual,
    classify_cd,
    build_medial,
    d_edges,
    delete,
    enumerate_graphs,
    from_arrow_presentation,
    geometric_dual,
    graph_to_text,
    has_alternating_boundary_orientation,
    is_checkerboard_colourable,
    is_eulerian,
    is_orientable,
    load_graph,
    parse_graph,
    partial_dual,
    partial_petrial,
    petrial,
    run_property_suite,
    search_converse_counterexample,
    straight_ahead_direction,
    to_arrow_presentation,
)
from ribbonlab.cli import main

from helpers import FIXTURES


def _report(name: str, failures: int, checked: int, extra: str = "") -> None:
    state = "PASS" if failures == 0 else f"FAIL ({failures} failures)"
    suffix = f" [{extra}]" if extra else ""
    print(f"ACCEPTANCE {name}: {state} ({checked} instances){suffix}", flush=True)
    assert failures == 0


def _subsets(names):
    names = sorted(names)
    for r in range(len(names) + 1):
        yield from itertools.combinations(names, r)


def test_twisted_dual_endtoend(universe3):
    """Every graph with at most 3 edges gets a checkerboard colourable
    twisted dual, within the time budget."""
    start = time.perf_counter()
    graphs = list(enumerate_graphs(3))
    failures = 0
    for g in graphs:
        cert = checkerboard_twisted_dual(g)
        if not is_checkerboard_colourable(cert.result):
            failures += 1
    elapsed = time.perf_counter() - start
    _report(
        "twisted-dual-endtoend",
        failures,
        len(graphs),
        f"{elapsed:.1f}s",
    )
    assert elapsed < 60.0


def test_partial_petrial_endtoend(universe4):
    """Every Eulerian graph with at most 4 edges gets a checkerboard
    colourable partial Petrial."""
    eulerian = [g for g in universe4 if is_eulerian(g)]
    failures = 0
    for g in eulerian:
        cert = checkerboard_partial_petrial(g)
        if not is_checkerboard_colourable(cert.result):
            failures += 1
    _report("partial-petrial-endtoend", failures, len(eulerian))


def test_boundary_criterion_equivalence(universe3):
    """The brute-force boundary-orientation criterion agrees with
    checkerboard colourability of the partial dual, for every orientable
    graph with at most 3 edges and every edge subset."""
    checked = failures = 0
    for g in universe3:
        if not is_orientable(g):
            continue
        for subset in _subsets(g.edge_names):
            checked += 1
            crit = has_alternating_boundary_orientation(g, subset)
            colourable = is_checkerboard_colourable(partial_dual(g, subset))
            if crit != colourable:
                failures += 1
    _report("boundary-criterion-equivalence", failures, checked)


def test_orientable_petrial_forces_eulerian_dual(universe4):
    """Whenever the Petrial of a graph with at most 4 edges is orientable,
    the geometric dual is Eulerian."""
    checked = failures = 0
    for g in universe4:
        if not is_orientable(petrial(g)):
            continue
        checked += 1
        if not is_eulerian(geometric_dual(g)):
            failures += 1
    _report("petrial-orientable-dual-eulerian", failures, checked)


def test_checkerboard_dual_forces_colourable_minors(universe3):
    """A checkerboard colourable partial dual forces both reduced graphs to
    be checkerboard colourable and Eulerian."""
    checked = failures = 0
    for g in universe3:
        for subset in _subsets(g.edge_names):
            if not is_checkerboard_colourable(partial_dual(g, subset)):
                continue
            checked += 1
            comp = tuple(n for n in g.edge_names if n not in set(subset))
            kept = delete(g, subset)
            dual_kept = delete(geometric_dual(g), comp)
            ok = (
                is_checkerboard_colourable(kept)
                and is_eulerian(kept)
                and is_checkerboard_colourable(dual_kept)
                and is_eulerian(dual_kept)
            )
            if not ok:
                failures += 1
    _report("checkerboard-dual-minors", failures, checked)


def test_minor_duality_exchange():
    """Partial duality exchanges deleted and contracted edge sets, for every
    graph with at most 3 edges, every subset and every disjoint pair."""
    report = run_property_suite(enumerate_graphs(3), "pdual-minor-exchange")
    _report("minor-duality-exchange", len(report.failures), report.checked)


def test_d_edge_deletion_eulerian(universe3):
    """Deleting the d-edges produced by the medial pipeline leaves Eulerian
    graphs, on both the graph and its dual."""
    checked = failures = 0
    for g in universe3:
        if not is_orientable(g):
            continue
        checked += 1
        m = build_medial(g)
        cls = classify_cd(m, straight_ahead_direction(m))
        dset = d_edges(cls)
        comp = tuple(n for n in g.edge_names if n not in set(dset))
        if not (
            is_eulerian(delete(g, dset))
            and is_eulerian(delete(geometric_dual(g), comp))
        ):
            failures += 1
    _report("d-edge-deletion-eulerian", failures, checked)


def test_operator_algebra(universe3):
    """Involutions, disjoint-edge commutation and the order-six relation."""
    checked = failures = 0
    for g in universe3:
        names = sorted(g.edge_names)
        for subset in _subsets(names):
            checked += 2
            if partial_petrial(partial_petrial(g, subset), subset) != g:
                failures += 1
            again = partial_dual(partial_dual(g, subset), subset)
            if not are_isomorphic(again, g, match_edge_labels=True):
                failures += 1
        for e1, e2 in itertools.permutations(names, 2):
            checked += 1
            lhs = partial_petrial(partial_dual(g, [e1]), [e2])
            rhs = partial_dual(partial_petrial(g, [e2]), [e1])
            if not are_isomorphic(lhs, rhs, match_edge_labels=True):
                failures += 1
        for e in names:
            checked += 1
            h = g
            for _ in range(3):
                h = apply_twist_word(h, {e: "dt"})
            if not are_isomorphic(h, g, match_edge_labels=True):
                failures += 1
    _report("operator-algebra", failures, checked)


def test_torus_fixture_and_cli(capsys):
    """The two-loop torus: Eulerian but not checkerboard colourable until
    both loops are twisted; the theorem2 command reproduces this."""
    g = load_graph(FIXTURES / "torus2loop.rg")
    failures = 0
    if not is_eulerian(g) or is_checkerboard_colourable(g):
        failures += 1
    if not is_checkerboard_colourable(partial_petrial(g, ["a", "b"])):
        failures += 1
    code = main(["theorem2", str(FIXTURES / "torus2loop.rg")])
    out = capsys.readouterr().out
    if code != 0 or "twisted edges I: ['a', 'b']" not in out:
        failures += 1
    with capsys.disabled():
        _report("torus-fixture-cli", failures, 3)


def test_round_trips(universe3):
    """Arrow-presentation and text round trips, double dual, double Petrial."""
    checked = failures = 0
    for g in universe3:
        checked += 4
        if from_arrow_presentation(to_arrow_presentation(g)) != g:
            failures += 1
        text = graph_to_text(canonical_graph(g))
        if graph_to_text(parse_graph(text)) != text or parse_graph(graph_to_text(g)) != g:
            failures += 1
        if not are_isomorphic(geometric_dual(geometric_dual(g)), g, match_edge_labels=True):
            failures += 1
        if petrial(petrial(g)) != g:
            failures += 1
    _report("round-trips", failures, checked)


def test_converse_counterexample_search():
    """The search over the 4-edge universe terminates with a verified
    witness, the first in enumeration order; the stored fixture's graph is
    a witness too."""
    start = time.perf_counter()
    witness = search_converse_counterexample(enumerate_graphs(4))
    elapsed = time.perf_counter() - start
    failures = 0
    if witness is None or not witness.verify():
        failures += 1
    else:
        expected = "vertex v0: e0.1 e1.1 e0.2 e2.1 e1.2 e2.2\nedge e0: +\nedge e1: +\nedge e2: +\n"
        if graph_to_text(witness.graph) != expected or witness.subset != ("e0", "e2"):
            failures += 1
    if not ConverseWitness(load_graph(FIXTURES / "converse_witness.rg"), ("e2",)).verify():
        failures += 1
    _report("converse-counterexample-search", failures, 2, f"{elapsed:.1f}s")
