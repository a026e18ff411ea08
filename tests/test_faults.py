"""Negative controls: which property suites notice each catalogued fault."""

import pytest

import ribbonlab
from ribbonlab import algorithms, isomorphism, workbench

from faults import FAULTS, installed, killing_suites
from helpers import graph

# The suites that kill each fault at ≤2 edges, each suite run on its own.
# No suite needs a labelled comparison to answer False (every pair they
# compare is isomorphic in a correct program), so a comparison that always
# answers True is killed by none: verify alone cannot notice it.
KILLED_AT_TWO_EDGES = {
    "labelled-search-always-true": set(),
    "labelled-comparison-always-true": set(),
    # A RecursionError in the suite's own contraction oracle.
    "flip-keeps-every-sign": {"contract-vs-splice"},
    "twist-word-dt-td-swapped": {"theorem1-endtoend", "twist-word-grouping"},
    "colouring-fails-on-2-edges-2-faces": {
        "boundary-criterion-equivalence", "checkerboard-iff-dual-bipartite", "theorem1-endtoend", "theorem2-endtoend",
    },
    "theorem2-inconsistent-set-missing-one-edge": {"theorem2-endtoend"},
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


def test_the_unkilled_faults_change_an_answer():
    # An empty kill set means a gap only if the fault does change what the
    # library answers: a loop and a twisted loop are not isomorphic.
    loop, twisted = graph("loop"), graph("twisted_loop")
    assert not ribbonlab.are_isomorphic(loop, twisted, match_edge_labels=True)
    for fault, killers in KILLED_AT_TWO_EDGES.items():
        if not killers:
            with installed(fault):
                assert ribbonlab.are_isomorphic(loop, twisted, match_edge_labels=True)
