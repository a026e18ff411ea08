"""The ribbonlab benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client drives ``ribbonlab.cli.main`` in-process in a closed loop: each
command starts when the previous one returns, with one worker.  Workload
units (a pass over every suite, one enumeration, one rung of the pipelines
ladder) repeat up to the unit boundary closest to ``--seconds``.  Every
output is checked against ``oracle``, which shares no code with ribbonlab,
outside the timed spans.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics, every time calibrated to a reference host speed by a probe that
interrupts each command (see ``Probing``); with ``--trace 1`` each command
runs once untraced and once under ``layers.Tracer``, and the line carries
per-layer self times and counts per workload unit.  Lines above it give the same figures as a readable table.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator

import gen
import layers
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURE = os.path.join(ROOT, "fixtures", "twisted_loop.rg")

SIZES = (100, 300, 1000)

# Speed calibration.  The whole of a shared host slows down and speeds up by
# up to 40% over minutes and by more from second to second.  So while a
# command runs, a timer interrupts it every PROBE_INTERVAL_S to time a fixed
# probe (the benchmark's own oracle tracing the faces of one fixed 300-edge
# graph, with the collector off), and the command's own time (wall time
# less the probe time) is reported scaled by PROBE_REF_S / mean probe time:
# the time it would have taken on a host where the probe takes PROBE_REF_S.
# Each set-up spawn runs in a child process, so it is scaled by probe runs
# filling PROBE_SHARE of its span just after it instead.  Raw times are
# printed in the table.
PROBE_TEXT = gen.to_text(*gen.connected_graph(random.Random("ribbonlab-bench:probe"), 300))
PROBE_INTERVAL_S = 0.01
PROBE_SHARE = 0.2
PROBE_REF_S = 0.002  # about the probe's median on the 2-core x86-64 host the benchmark was written on
SETUP_SPAWNS = 11
SETUP_CHILD = "import sys; sys.path.insert(0, 'src'); import ribbonlab.cli; ribbonlab.cli.build_parser(); print('ready', flush=True)"

# Percentile reported as latency_tail_ms.  Each is fixed per workload so
# that it stays the same statistic when a faster program fits more units
# into a run.  Its nearest rank leaves at least 10 samples beyond it in one
# pass of 31 suites and in four ladder rungs of 9 commands; a 30-second run
# of enumerate has about ten samples of one command, two or three beyond
# p75.  It is a Harrell-Davis estimate, which averages the samples near the
# percentile: in one pass the suites near p67 differ by 10-20% in size, so
# the single sample at that rank jumps from suite to suite between runs.
TAIL_PERCENTILE = {"verify-exhaustive": 67, "enumerate": 75, "pipelines-scale": 72}
WORK_UNIT = {"verify-exhaustive": "instances", "enumerate": "classes", "pipelines-scale": "input edges"}


@dataclass
class Command:
    label: str
    argv: list[str]
    work: int
    check: Callable[[str], str | None]


def verify_units(seed: int, workdir: str) -> Iterator[list[Command]]:
    """Every suite once, in a seeded order, over the deduplicated <=3-edge universe."""
    rng = random.Random(f"verify:{seed}")
    while True:
        suites = sorted(oracle.VERIFY_INSTANCES)
        rng.shuffle(suites)
        yield [
            Command(f"verify {s}", ["verify", s, "--max-edges", "3", "--json"],
                    oracle.VERIFY_INSTANCES[s], functools.partial(oracle.check_verify, s))
            for s in suites
        ]


def enumerate_units(seed: int, workdir: str) -> Iterator[list[Command]]:
    """The fixed <=4-edge enumeration; the seed does not change it."""
    while True:
        yield [Command("enumerate", ["enumerate", "--max-edges", "4"], sum(oracle.ENUMERATE_CLASSES), oracle.check_enumerate)]


def pipeline_units(seed: int, workdir: str) -> Iterator[list[Command]]:
    """One ladder rung: check and theorem1 on a graph, theorem2 on its Eulerian twin, per size."""
    for rung in itertools.count():
        unit = []
        for edges, graph, twin in gen.ladder(seed, rung, SIZES):
            gpath = _write(workdir, f"graph{edges}.rg", graph)
            tpath = _write(workdir, f"twin{edges}.rg", twin)
            unit += [
                Command(f"check@{edges}", ["check", gpath], edges, functools.partial(oracle.check_check, graph)),
                Command(f"theorem1@{edges}", ["theorem1", gpath], edges, functools.partial(oracle.check_theorem1, graph)),
                Command(f"theorem2@{edges}", ["theorem2", tpath], edges, functools.partial(oracle.check_theorem2, twin)),
            ]
        yield unit


WORKLOADS = {"verify-exhaustive": verify_units, "enumerate": enumerate_units, "pipelines-scale": pipeline_units}


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def probe_once() -> float:
    """Seconds for one run of the probe, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        oracle.parse(PROBE_TEXT).faces()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Probing:
    """While entered, a timer interrupts the program every PROBE_INTERVAL_S for one probe run.

    On leaving, the probe runs once more if the timer never fired.
    ``calibrate`` turns the wall time of the block into calibrated time of
    the program alone.
    """

    def __enter__(self):
        self.spent, self.runs, self.active = 0.0, 0, True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)
        return self

    def _tick(self, signum, frame):
        if self.active:
            self.spent += probe_once()
            self.runs += 1
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def __exit__(self, *exc):
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self.runs == 0:
            self.spent += probe_once()
            self.runs += 1

    def own(self, wall: float) -> float:
        return wall - self.spent

    def calibrate(self, wall: float) -> float:
        return self.own(wall) * PROBE_REF_S * self.runs / self.spent


def calibrated_setup(span: float) -> float:
    """``span`` scaled by PROBE_REF_S / mean time of probe runs filling PROBE_SHARE of it after it."""
    gc.collect()
    runs, spent = 0, 0.0
    while runs == 0 or spent < PROBE_SHARE * span:
        spent += probe_once()
        runs += 1
    return span * PROBE_REF_S * runs / spent


def run_command(cli, argv: list[str], probing: Probing | None = None) -> tuple[str | None, str, float]:
    """Run one CLI command, under ``probing`` if given; returns (problem or None, stdout, wall seconds).

    Garbage left by earlier commands is collected first, outside the timed
    span, so each command starts from the heap a fresh process would have.
    """
    gc.collect()
    out = io.StringIO()
    problem = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), probing or contextlib.nullcontext():
            code = cli.main(argv)
        if code != 0:
            problem = f"exit code {code}"
    except SystemExit as exc:
        problem = f"exit code {exc.code}"
    except Exception:
        problem = traceback.format_exc()
    return problem, out.getvalue(), perf_counter() - t0


@dataclass
class Outcome:
    latencies: list
    unit_rates: list
    raw_latencies: list
    attempted: int = 0
    failed: int = 0
    traced_wall: float = 0.0
    bench_self: float = 0.0

    @property
    def units(self) -> int:
        return len(self.unit_rates)


def measure(units: Iterator[list[Command]], cli, seconds: float, tracer=None, package=None) -> Outcome:
    """Closed loop with one client, in whole units, ending at the unit boundary closest to ``seconds``.

    Untraced, each command runs under ``Probing`` and its time is calibrated; traced, it is raw.
    """
    result = Outcome([], [], [])
    probing = Probing() if tracer is None else None
    start = perf_counter()
    for unit in units:
        work = 0
        busy = 0.0
        for cmd in unit:
            problem, out, dt = run_command(cli, cmd.argv, probing)
            if probing is not None:
                result.raw_latencies.append(probing.own(dt))
                dt = probing.calibrate(dt)
            else:
                result.raw_latencies.append(dt)
            result.latencies.append(dt)
            busy += dt
            if tracer is not None:
                tracer.label = cmd.label
                tracer.stack[0] = 0.0
                tracer.install(package)
                try:
                    traced_problem, traced_out, traced_dt = run_command(cli, cmd.argv)
                finally:
                    tracer.uninstall()
                result.traced_wall += traced_dt
                result.bench_self += traced_dt - tracer.stack[0]
                problem = problem or traced_problem or _check(cmd, traced_out)
            problem = problem or _check(cmd, out)
            result.attempted += 1
            if problem is None:
                work += cmd.work
            else:
                result.failed += 1
                print(f"FAILED {cmd.label}: {problem.strip()}", file=sys.stderr)
        result.unit_rates.append(work / busy)
        elapsed = perf_counter() - start
        if seconds - elapsed < elapsed / result.units / 2:
            return result
    return result


def _check(cmd: Command, out: str) -> str | None:
    try:
        return cmd.check(out)
    except Exception:
        return "oracle could not read the output: " + traceback.format_exc()


def measure_setup() -> float:
    """Median calibrated seconds from starting a fresh interpreter until ribbonlab is imported and ready."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD], cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = perf_counter() - t0
            proc.stdout.read()
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError("a fresh interpreter could not import ribbonlab")
        times.append(calibrated_setup(dt))
    return statistics.median(times)


def self_test(seed: int, cli, workdir: str) -> list[str]:
    """Problems with the oracle or the generator; empty when both behave."""
    problems = []
    with open(FIXTURE, encoding="utf-8") as fh:
        loop = fh.read()
    fake = "petrial set A: []\ndual set D: []\ntwist word: {}\nresult:\n" + loop + "colouring: red\n"
    if oracle.check_theorem1(loop, fake) is None:
        problems.append("oracle accepted the non-colourable twisted loop as a theorem1 result")

    _, _, twin = gen.ladder(seed, 0, (12,))[0]
    problem, out, _ = run_command(cli, ["theorem2", _write(workdir, "selftest.rg", twin)])
    if problem or oracle.check_theorem2(twin, out) is not None:
        problems.append("oracle rejected a genuine theorem2 certificate")
    else:
        head, _, tail = out.partition("\nresult:\n")
        edge = next(line for line in tail.splitlines() if line.startswith("edge "))
        flipped = edge[:-1] + ("-" if edge.endswith("+") else "+")
        corrupt = head + "\nresult:\n" + tail.replace(edge, flipped, 1)
        if oracle.check_theorem2(twin, corrupt) is None:
            problems.append("oracle accepted a certificate with one corrupted edge sign")

    digests = [hashlib.sha256(repr(gen.ladder(seed, 0, SIZES)).encode()).hexdigest() for _ in range(2)]
    if digests[0] != digests[1]:
        problems.append("the generator gave different inputs for one seed")
    return problems


def beyond(values: list[float], pct: int) -> int:
    """How many samples lie beyond the nearest rank of the ``pct`` percentile."""
    return len(values) - max(1, -(-pct * len(values) // 100))


def harrell_davis(values: list[float], pct: int) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile.

    A mean of the sorted samples, the i-th weighted by the mass a
    Beta(p(n+1), (1-p)(n+1)) density puts on ((i-1)/n, i/n], integrated by
    the midpoint rule on 16 points per interval.
    """
    ordered = sorted(values)
    n, steps = len(ordered), 16
    a, b = pct / 100 * (n + 1), (1 - pct / 100) * (n + 1)
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
            for t in ((j + 0.5) / (n * steps) for j in range(n * steps))]
    top = max(logs)
    density = [math.exp(v - top) for v in logs]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def end_to_end(workload: str, outcome: Outcome, setup_s: float) -> tuple[dict, list[str]]:
    tail_pct = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": (setup_s, "s"),
        "work_per_s": (statistics.median(outcome.unit_rates), "1/s"),
        "latency_p50_ms": (statistics.median(outcome.latencies) * 1000, "ms"),
        "latency_tail_ms": (harrell_davis(outcome.latencies, tail_pct) * 1000, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    raw = sum(outcome.raw_latencies) / sum(outcome.latencies)
    notes = [
        f"times are calibrated to a probe of {PROBE_REF_S * 1000:g} ms; raw command time was {raw:.3f}x calibrated, "
        f"raw latency_p50_ms {statistics.median(outcome.raw_latencies) * 1000:.3f}",
        f"work_per_s is the median over {outcome.units} units of {WORK_UNIT[workload]} per second of command time",
        f"latency_tail_ms is p{tail_pct} of {len(outcome.latencies)} commands, "
        f"{beyond(outcome.latencies, tail_pct)} beyond its nearest rank",
        f"failed_frac {outcome.failed / outcome.attempted:.6f} ({outcome.failed} of {outcome.attempted} commands)",
    ]
    return metrics, notes


def per_layer(outcome: Outcome, tracer: layers.Tracer) -> tuple[dict, list[str]]:
    parts = tracer.per_part()
    n = outcome.units
    metrics = {f"{part}.self_s": (s / n, "s") for part, s in parts.items()}
    metrics.update({name: (tracer.counts[name] / n, "count") for name in layers.COUNTERS})
    candidates = tracer.counts["workbench.enumerate.candidates"]
    metrics["workbench.enumerate.yield_ratio"] = (
        tracer.counts["workbench.enumerate.classes"] / candidates if candidates else 0.0, "ratio")
    metrics["bench.self_s"] = (outcome.bench_self / n, "s")
    metrics["trace.overhead_frac"] = (outcome.traced_wall / sum(outcome.raw_latencies) - 1, "ratio")
    notes = [f"per-layer figures are per unit, over {n} units"]
    for label, by_part in sorted(tracer.per_label().items(), key=lambda kv: -sum(kv[1].values())):
        total = sum(by_part.values())
        top = sorted(by_part.items(), key=lambda kv: -kv[1])[:3]
        notes.append(f"{label}: {total:.3f} s traced; " + ", ".join(f"{p} {s / total:.0%}" for p, s in top))
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ribbonlab", "__init__.py")) or not os.path.isfile(FIXTURE):
        print(f"error: run from a ribbonlab checkout; {SRC} or {FIXTURE} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ribbonlab
    import ribbonlab.cli as cli

    workdir = os.path.join(HERE, f".work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        problems = self_test(args.seed, cli, workdir)
        units = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            tracer = layers.Tracer()
            outcome = measure(units, cli, args.seconds, tracer, ribbonlab)
            metrics, notes = per_layer(outcome, tracer)
            accounted = sum(tracer.per_part().values()) + outcome.bench_self
            if abs(accounted - outcome.traced_wall) > 1e-6 * max(1.0, outcome.traced_wall):
                problems.append(f"layer self times add up to {accounted:.6f} s, traced wall is {outcome.traced_wall:.6f} s")
        else:
            setup_s = measure_setup()
            outcome = measure(units, cli, args.seconds)
            metrics, notes = end_to_end(args.workload, outcome, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {outcome.units} units")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6f} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": not problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
