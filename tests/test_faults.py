"""Negative controls: which property suites notice each catalogued fault."""

import pytest

import ribbonlab
from ribbonlab import algorithms, isomorphism, parse_graph, workbench

from faults import FAULTS, installed, killing_suites
from helpers import graph

# The suites that kill each fault at ≤2 edges, each suite run on its own.
# No suite needs a labelled comparison to answer False (every pair they
# compare is isomorphic in a correct program), so a comparison that always
# answers True is killed by none: verify alone cannot notice it.
KILLED_AT_TWO_EDGES = {
    "labelled-search-always-true": set(),
    "labelled-comparison-always-true": set(),
    # Killed from three edges on, by canonical-stability and
    # boundary-criterion-equivalence.
    "flip-keeps-every-sign": set(),
    "twist-word-dt-td-swapped": {"theorem1-endtoend", "twist-word-grouping"},
    "colouring-fails-on-2-edges-2-faces": {
        "boundary-criterion-equivalence", "checkerboard-iff-dual-bipartite", "theorem1-endtoend", "theorem2-endtoend",
    },
    "theorem2-inconsistent-set-missing-one-edge": {"theorem2-endtoend"},
    # The enumerator alone uses the memo, and a universe missing classes
    # fails no suite.
    "key-memo-ignores-twists": set(),
    # Killed from three edges on, by canonical-stability.
    "key-tries-forward-starts-only": set(),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_each_fault_is_killed_by_its_pinned_suites(fault):
    assert killing_suites(fault, 2) == KILLED_AT_TWO_EDGES[fault]


def test_faults_rebind_every_binding_and_restore_it():
    assert KILLED_AT_TWO_EDGES.keys() == FAULTS.keys()
    real = isomorphism.are_isomorphic
    with installed("labelled-comparison-always-true"):
        faulty = isomorphism.are_isomorphic
        assert faulty is not real and ribbonlab.are_isomorphic is faulty and workbench.are_isomorphic is faulty
    assert ribbonlab.are_isomorphic is real and workbench.are_isomorphic is real
    real = ribbonlab.core._flip_vertices
    with installed("flip-keeps-every-sign"):
        assert algorithms._flip_vertices is ribbonlab.core._flip_vertices is not real
    assert algorithms._flip_vertices is real


def _three_loops_keep_their_key_when_flipped() -> bool:
    # Keyed from forward starts alone, this graph's key changes when its vertex is flipped.
    g = parse_graph("vertex u: a.1 a.2 b.1 c.1 b.2 c.2\nedge a: +\nedge b: +\nedge c: -\n")
    return ribbonlab.canonical_key(ribbonlab.flip_vertex(g, "u")) == ribbonlab.canonical_key(g)


# For each fault that no suite kills at ≤2 edges, a question and its right
# answer, which the fault changes: an empty kill set is a gap in what verify
# can notice only if the fault does change what the library answers.
ANSWERS = {
    "labelled-search-always-true": (
        lambda: ribbonlab.are_isomorphic(graph("loop"), graph("twisted_loop"), match_edge_labels=True), False,
    ),
    "labelled-comparison-always-true": (
        lambda: ribbonlab.are_isomorphic(graph("loop"), graph("twisted_loop"), match_edge_labels=True), False,
    ),
    "flip-keeps-every-sign": (lambda: ribbonlab.flip_vertex(graph("digon"), "u").signs(), {"a": -1, "b": -1}),
    "key-memo-ignores-twists": (lambda: len(list(ribbonlab.enumerate_graphs(2))), 21),
    "key-tries-forward-starts-only": (_three_loops_keep_their_key_when_flipped, True),
}


def test_the_unkilled_faults_change_an_answer():
    assert ANSWERS.keys() == {fault for fault, killers in KILLED_AT_TWO_EDGES.items() if not killers}
    for fault, (ask, right) in ANSWERS.items():
        assert ask() == right
        with installed(fault):
            assert ask() != right, fault
