"""Negative controls: named faults, each installed by rebinding one library
function at every binding, and the property suites that kill them.

A suite kills a fault when, run on its own with the fault installed, it
reports a failure or raises.  A fault that no suite kills shows a gap in
what ``verify`` can notice (mutation analysis: DeMillo, Lipton and Sayward,
"Hints on test data selection", IEEE Computer 1978).
"""

from __future__ import annotations

import contextlib
import sys
from typing import Callable, Iterator

from ribbonlab import RibbonGraph, Vertex, enumerate_graphs
from ribbonlab import algorithms, core, isomorphism, operators, predicates
from ribbonlab.workbench import PROPERTIES, run_property_suite


def _labelled_search_always_true(real):
    return lambda g, h: True


def _labelled_comparison_always_true(real):
    def are_isomorphic(g, h, *, match_edge_labels=False):
        return True if match_edge_labels else real(g, h)

    return are_isomorphic


def _flip_keeping_every_sign(real):
    def flip(g: RibbonGraph, flipped: set[str]) -> RibbonGraph:
        vertices = [Vertex(v.name, v.rotation[::-1] if v.name in flipped else v.rotation) for v in g.vertices]
        return RibbonGraph(vertices, g.edges)

    return flip


def _twist_word_with_dt_and_td_swapped(real):
    swap = {"dt": "td", "td": "dt"}
    return lambda g, word: real(g, {name: swap.get(elem, elem) for name, elem in word.items()})


def _colouring_failing_on_two_edges_and_two_faces(real):
    return lambda g: None if len(g.edge_names) == 2 and len(g._faces) == 2 else real(g)


def _inconsistent_set_missing_one_edge(real):
    return lambda g, col: real(g, col)[:-1]


#: Fault name -> (module, function name, maker of the faulty function from the real one).
FAULTS: dict[str, tuple[object, str, Callable]] = {
    "labelled-search-always-true": (isomorphism, "_labelled_search", _labelled_search_always_true),
    "labelled-comparison-always-true": (isomorphism, "are_isomorphic", _labelled_comparison_always_true),
    "flip-keeps-every-sign": (core, "_flip_vertices", _flip_keeping_every_sign),
    "twist-word-dt-td-swapped": (operators, "apply_twist_word", _twist_word_with_dt_and_td_swapped),
    "colouring-fails-on-2-edges-2-faces": (
        predicates, "checkerboard_colouring", _colouring_failing_on_two_edges_and_two_faces,
    ),
    "theorem2-inconsistent-set-missing-one-edge": (algorithms, "_inconsistent", _inconsistent_set_missing_one_edge),
}


@contextlib.contextmanager
def installed(fault: str) -> Iterator[None]:
    """Rebind the fault's function in every ribbonlab namespace that binds it, then restore each binding."""
    module, name, make = FAULTS[fault]
    real = getattr(module, name)
    namespaces = [m for key, m in sys.modules.items() if key == "ribbonlab" or key.startswith("ribbonlab.")]
    bindings = [(ns, bound) for ns in namespaces for bound, obj in list(vars(ns).items()) if obj is real]
    faulty = make(real)
    for ns, bound in bindings:
        setattr(ns, bound, faulty)
    try:
        yield
    finally:
        for ns, bound in bindings:
            setattr(ns, bound, real)


def killing_suites(fault: str, max_edges: int) -> set[str]:
    """The suites that kill ``fault``, each run on its own over the graphs with at most ``max_edges`` edges."""
    killers = set()
    with installed(fault):
        for suite in PROPERTIES:
            try:
                killed = not run_property_suite(enumerate_graphs(max_edges), suite).passed
            except Exception:
                killed = True
            if killed:
                killers.add(suite)
    return killers
