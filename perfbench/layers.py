"""Per-layer spans recorded from outside ribbonlab.

While installed, every public function of each ribbonlab module is replaced,
in every module namespace that binds it, by a wrapper that records a span:
its duration, minus the time covered by the wrapped calls it makes, is the
self time of the function's part.  ``workbench``, ``algorithms`` and ``cli``
import names directly, so patching only the defining module would miss their
calls.  Enumeration is timed through ``GraphUniverse.__iter__``: each
``next()`` is one span of ``workbench.enumerate``.  Nothing under ``src/``
changes; uninstalling restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("core", "operators", "predicates", "medial", "algorithms", "isomorphism", "workbench", "cli")

# (module, function) -> (part, call counter or None).  Functions not listed
# here fall into "<module>.other" where the module has named parts, and into
# "<module>" otherwise.
PARTS = {
    ("core", "validate"): ("core.validate", "core.validate.calls"),
    ("core", "require_valid"): ("core.validate", None),
    ("core", "trace_boundary"): ("core.trace_boundary", "core.trace_boundary.calls"),
    ("core", "to_arrow_presentation"): ("core.arrow", None),
    ("core", "from_arrow_presentation"): ("core.arrow", None),
    ("core", "flip_vertex"): ("core.flip", None),
    ("core", "oriented_form"): ("core.flip", None),
    ("core", "orientation_flips"): ("core.flip", None),
    ("core", "parse_graph"): ("core.io", None),
    ("core", "load_graph"): ("core.io", None),
    ("core", "save_graph"): ("core.io", None),
    ("core", "graph_to_text"): ("core.io", None),
    ("operators", "partial_dual"): ("operators.partial_dual", "operators.partial_dual.calls"),
    ("isomorphism", "canonical_key"): ("isomorphism.canonical_key", None),
    ("isomorphism", "canonical_key_darts"): ("isomorphism.canonical_key", "isomorphism.canonical_key.calls"),
    ("isomorphism", "_labelled_search"): ("isomorphism.labelled", "isomorphism.labelled.calls"),
}
OTHER = {"core": "core.other", "operators": "operators.other", "isomorphism": "isomorphism.other", "workbench": "workbench.suite"}
ENUMERATE = "workbench.enumerate"

SELF_PARTS = (
    "core.validate", "core.trace_boundary", "core.arrow", "core.flip", "core.io", "core.other",
    "operators.partial_dual", "operators.other", "predicates", "medial", "algorithms",
    "isomorphism.canonical_key", "isomorphism.labelled", "isomorphism.other",
    ENUMERATE, "workbench.suite", "cli",
)
COUNTERS = (
    "core.validate.calls", "core.trace_boundary.calls", "operators.partial_dual.calls",
    "isomorphism.canonical_key.calls", "isomorphism.labelled.calls",
    "workbench.enumerate.passes", "workbench.enumerate.candidates", "workbench.enumerate.classes",
)


class Tracer:
    """Self time per (label, part) and counts per counter name.

    ``label`` names the command being traced, so the benchmark can show
    which layer dominates which command.
    """

    def __init__(self):
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.label = ""
        # Child time accumulated by each open span; the bottom entry belongs
        # to the benchmark, outside every span.
        self.stack: list[float] = [0.0]
        self._patches: list[tuple[object, str, object, object]] = []

    def span_wrapper(self, fn, part: str, counter: str | None):
        stack = self.stack
        self_s = self.self_s
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[self.label, part] += dt - stack.pop()
                stack[-1] += dt
                if counter:
                    counts[counter] += 1

        return wrapper

    def install(self, package) -> None:
        """Wrap every public function (and the parts' named private ones) of each module."""
        if not self._patches:
            self._patches = self._plan(package)
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def _plan(self, package) -> list[tuple[object, str, object, object]]:
        modules = {short: sys.modules[f"{package.__name__}.{short}"] for short in MODULES}
        namespaces = [package, *modules.values()]
        plan = []
        for short, module in modules.items():
            for name, fn in list(vars(module).items()):
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if name.startswith("_") and (short, name) not in PARTS:
                    continue
                part, counter = PARTS.get((short, name), (OTHER.get(short, short), None))
                wrapper = self.span_wrapper(fn, part, counter)
                for ns in namespaces:
                    plan.extend((ns, bound, fn, wrapper) for bound, obj in vars(ns).items() if obj is fn)
        universe = modules["workbench"].GraphUniverse
        plan.append((universe, "__iter__", universe.__iter__, self._universe_iter(universe.__iter__)))
        return plan

    def _universe_iter(self, original):
        step = self.span_wrapper(next, ENUMERATE, None)
        counts = self.counts

        def traced_iter(universe):
            counts["workbench.enumerate.passes"] += 1
            it = original(universe)
            while True:
                before = counts["isomorphism.canonical_key.calls"]
                try:
                    g = step(it)
                except StopIteration:
                    return
                finally:
                    counts["workbench.enumerate.candidates"] += counts["isomorphism.canonical_key.calls"] - before
                counts["workbench.enumerate.classes"] += 1
                yield g

        return traced_iter

    def per_part(self) -> dict[str, float]:
        out = dict.fromkeys(SELF_PARTS, 0.0)
        for (_, part), s in self.self_s.items():
            out[part] += s
        return out

    def per_label(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = defaultdict(dict)
        for (label, part), s in self.self_s.items():
            out[label][part] = s
        return out
