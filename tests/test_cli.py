import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from ribbonlab import (
    graph_to_text,
    is_checkerboard_colourable,
    load_graph,
    orienting_petrial_set,
    parse_graph,
    partial_petrial,
    sample_graphs,
)
from ribbonlab import cli
from ribbonlab.cli import main

from helpers import FIXTURES, REPO, random_graph


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_torus(capsys):
    code, out, _ = run(capsys, "check", str(FIXTURES / "torus2loop.rg"))
    assert code == 0
    lines = dict(
        (line.split("  ")[0].strip(), line.split("  ")[-1].strip())
        for line in out.strip().splitlines()
    )
    assert lines["eulerian"] == "yes"
    assert lines["checkerboard"] == "no"
    assert lines["boundary components"] == "1"
    assert lines["euler characteristic"] == "0"


def test_pipeline_commands_never_trace_their_input(capsys, monkeypatch):
    # They read the memoised face orbits and never build the segment view.
    from ribbonlab import core

    traced = []
    real = core._trace_boundary
    monkeypatch.setattr(core, "_trace_boundary", lambda g: traced.append(g) or real(g))
    for command in ("check", "theorem1", "theorem2"):
        code, _, _ = run(capsys, command, str(FIXTURES / "torus2loop.rg"))
        assert code == 0
    assert traced == []


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "no/such/file.rg")
    assert code == 2
    assert "no such file" in err


def test_unreadable_inputs_are_usage_errors(tmp_path, capsys):
    binary = tmp_path / "binary.rg"
    binary.write_bytes(b"\xff")
    for path in (tmp_path, binary):
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert err.startswith(f"error: cannot read {path}: ")
        assert "Traceback" not in err
    # For iso, exit 1 would read as "not isomorphic".
    code, _, _ = run(capsys, "iso", str(tmp_path), str(FIXTURES / "loop.rg"))
    assert code == 2


def test_op_output_in_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "out.rg"
    code, out, err = run(capsys, "op", str(FIXTURES / "loop.rg"), "--dual", "-o", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")


def test_check_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.rg"
    bad.write_text("vertex u: a.3\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "line 1" in err


def test_op_ppetrial_fixes_torus(tmp_path, capsys):
    out_file = tmp_path / "out.rg"
    code, _, _ = run(
        capsys,
        "op",
        str(FIXTURES / "torus2loop.rg"),
        "--ppetrial",
        "a,b",
        "-o",
        str(out_file),
    )
    assert code == 0
    assert is_checkerboard_colourable(load_graph(out_file))


def test_op_word(capsys):
    code, out, _ = run(capsys, "op", str(FIXTURES / "loop.rg"), "--word", "a:d")
    assert code == 0
    g = parse_graph(out)
    assert len(g.vertices) == 2


def test_op_requires_exactly_one_operation(capsys):
    code, _, err = run(capsys, "op", str(FIXTURES / "loop.rg"), "--dual", "--petrial")
    assert code == 2
    assert "exactly one" in err


def test_op_unknown_edge(capsys):
    path = str(FIXTURES / "loop.rg")
    for option, edges in [
        ("--pdual", "zz"), ("--ppetrial", "a,zz"), ("--delete", "zz"), ("--contract", "zz"), ("--word", "a:d,zz:t"),
    ]:
        code, out, err = run(capsys, "op", path, option, edges)
        assert (code, out, err) == (2, "", f"error: {path}: no edge 'zz'\n"), option


def test_op_bad_word(capsys):
    code, _, err = run(capsys, "op", str(FIXTURES / "loop.rg"), "--word", "a:xx")
    assert code == 2
    assert "bad word entry" in err


def test_op_word_repeated_edge(capsys):
    code, out, err = run(capsys, "op", str(FIXTURES / "torus2loop.rg"), "--word", "a:d,a:t")
    assert code == 2
    assert out == ""
    assert "bad word entry 'a:t'" in err and "edge 'a'" in err


def test_medial_dot(capsys):
    code, out, _ = run(capsys, "medial", str(FIXTURES / "torus2loop.rg"), "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "(c)" in out and "(d)" in out


def test_medial_summary(capsys):
    code, out, _ = run(capsys, "medial", str(FIXTURES / "loop.rg"))
    assert code == 0
    assert "medial vertices: 1" in out
    assert "corner edges: 2" in out


def test_medial_rejects_nonorientable(capsys):
    code, _, err = run(capsys, "medial", str(FIXTURES / "twisted_loop.rg"))
    assert code == 2


def test_theorem1(capsys):
    code, out, _ = run(capsys, "theorem1", str(FIXTURES / "interleaved_twist.rg"))
    assert code == 0
    assert "petrial set A: ['e1']" in out
    assert "dual set D: ['e1']" in out
    assert "red" in out and "blue" in out


def test_theorem1_output_ignores_the_hash_seed(tmp_path):
    path = tmp_path / "g100.rg"
    path.write_text(graph_to_text(random_graph(100, 3)))
    outputs = []
    for seed in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]),
        }
        done = subprocess.run(
            [sys.executable, "-m", "ribbonlab.cli", "theorem1", str(path)],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(done.stdout)
    assert "twist word:" in outputs[0]
    assert outputs[0] == outputs[1]


#: SHA-256 of command output on ``g = random_graph(300, s)``.  ``theorem1``
#: and ``check`` read ``g`` and pin the breadth-first spanning tree that
#: picks the petrial set, and the rule that the lowest-indexed face of each
#: piece is red.  ``medial --dot`` reads ``g`` with its orienting set
#: twisted and pins the straight-ahead directions; ``op --pdual`` dualises
#: the lower half of the edge names and pins the dual's vertex order.
#: ``theorem2`` reads ``sample_graphs(300, 1, seed=s, eulerian=True)[0]``
#: and pins the corner colouring and its inconsistent edges.
GOLDEN_300 = {
    (1, "theorem1"): "284ca0483900a2ef28ec3514cbff1e3cab996291b53f82a69c414892938ba93e",
    (1, "check"): "a62ad162525501ed71a994d1d66b3e1868ffeac92789f28c3641bba706800d10",
    (1, "medial --dot"): "e5953a1c23335034b6563e4dcce2fe0064af9376f1da5eb86d9e34f6b08c4274",
    (1, "op --pdual"): "8061f1a06e207a2f0ec626529494fdbaad82fbea5677ffaa8fcb673433a760fd",
    (2, "theorem1"): "f48684d6644e5f89900e43eda983ad971f181f0db98132b6cd7495ce97a37146",
    (2, "check"): "63dd90d9a48533117e74b0b7dfd58eaff067ec9b552dea80a88c99db8ff28b0d",
    (2, "medial --dot"): "0c1d0168badd59b9e1dd59e923906cc9b493b37430e23a09fc9ae81a048e48c3",
    (2, "op --pdual"): "2af2597e72af11441ca4fb7fc43b923a3081f7f12186569f6bab7d7be7f80593",
    (3, "theorem1"): "256aac308b9f1c56552e401c5b37a1b4dbd525734462ce923ea759d956a2b78e",
    (3, "check"): "f9de4aa84c96b58b3bffca37338b38a115afbdffc6ea818a515581f9d16acc8a",
    (3, "medial --dot"): "266f3fd9bca73756e843cbea3bc9955938486245e812131b1a189ead721b6870",
    (3, "op --pdual"): "7681dc6d89afc0216d3b3d39a4f43a3f2115177b325e08d37ef30e2e268b49eb",
    (1, "theorem2"): "43fa9cb0a8fd7fa2fe4072f9e1931c9b6c17be6703ffbb569803548fdc95b96d",
    (2, "theorem2"): "4e8a49c528aac27bcbab7ab9b9d2badab7791017d2896efc876248e0a6a41eeb",
    (3, "theorem2"): "9e6300fa9a162720075cf9f47ce325f320cc00378b023c5ffb349423a59f24b3",
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_300_edge_output_is_pinned(capsys, tmp_path, seed):
    g = random_graph(300, seed)
    path = tmp_path / "g300.rg"
    path.write_text(graph_to_text(g))
    oriented = tmp_path / "oriented300.rg"
    oriented.write_text(graph_to_text(partial_petrial(g, orienting_petrial_set(g))))
    eulerian = tmp_path / "eulerian300.rg"
    eulerian.write_text(graph_to_text(sample_graphs(300, 1, seed=seed, eulerian=True)[0]))
    commands = {
        "theorem1": ["theorem1", str(path)],
        "theorem2": ["theorem2", str(eulerian)],
        "check": ["check", str(path)],
        "medial --dot": ["medial", str(oriented), "--dot"],
        "op --pdual": ["op", str(path), "--pdual", ",".join(g.edge_names[:150])],
    }
    for name, argv in commands.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_300[seed, name]


def test_theorem2_torus(capsys):
    code, out, _ = run(capsys, "theorem2", str(FIXTURES / "torus2loop.rg"))
    assert code == 0
    assert "twisted edges I: ['a', 'b']" in out
    assert "edge a: -" in out and "edge b: -" in out
    assert "red" in out and "blue" in out


def test_theorem2_rejects_non_eulerian(capsys):
    code, _, err = run(capsys, "theorem2", str(FIXTURES / "path2.rg"))
    assert code == 2
    assert "odd degree" in err


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-edges", "1")
    assert code == 0
    assert "edges 0: 1" in out
    assert "edges 1: 3" in out
    assert "total: 4" in out


def test_enumerate_cap(capsys):
    code, _, err = run(capsys, "enumerate", "--max-edges", "9")
    assert code == 2
    code, out, err = run(capsys, "enumerate", "--max-edges", "1", "--max-vertices", "-1")
    assert (code, out, err) == (2, "", "error: max_vertices must be nonnegative\n")


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("suite", ["all", "orienting-set", "implication-table"])
def test_verify_rejects_workers_below_one(capsys, suite, workers):
    code, out, err = run(capsys, "verify", suite, "--max-edges", "1", "--workers", workers)
    assert (code, out, err) == (2, "", "error: workers must be at least 1\n")


def test_verify_single_property(capsys):
    code, out, _ = run(
        capsys, "verify", "checkerboard-implies-eulerian", "--max-edges", "2"
    )
    assert code == 0
    assert "pass" in out


# Instances per suite of `verify all --max-edges 3`, as the seed
# implementation counted them; they sum to 43,083.
VERIFY_INSTANCES_AT_THREE_EDGES = {
    "boundary-partition": 381,
    "checkerboard-implies-eulerian": 18,
    "bipartite-implies-even-face": 18,
    "checkerboard-iff-dual-bipartite": 127,
    "even-face-iff-dual-eulerian": 127,
    "orientability-flip-invariant": 287,
    "flip-involution": 287,
    "arrow-roundtrip": 414,
    "text-roundtrip": 254,
    "canonical-stability": 541,
    "petrial-involution": 923,
    "dual-involution": 923,
    "pdual-disjoint-union": 3025,
    "delta-tau-commute": 670,
    "group-relations": 355,
    "twist-word-grouping": 4447,
    "minor-commute": 3025,
    "contract-vs-splice": 129,
    "pdual-minor-exchange": 23527,
    "pdual-deletion-identities": 1846,
    "pdual-bipartite-minors": 90,
    "pdual-checkerboard-minors": 90,
    "boundary-criterion-equivalence": 309,
    "all-crossing": 180,
    "smoothing-signs": 90,
    "curves-match-boundary": 90,
    "d-edges-eulerian-minors": 45,
    "petrial-orientable-implies-dual-eulerian": 45,
    "orienting-set": 172,
    "theorem1-endtoend": 508,
    "theorem2-endtoend": 140,
}


def test_verify_all_at_three_edges_passes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-edges", "3", "--json")
    assert code == 0
    reports = json.loads(out)
    assert all(r["failures"] == [] for r in reports)
    checked = {r["property"]: r["checked"] for r in reports}
    assert checked == VERIFY_INSTANCES_AT_THREE_EDGES
    assert sum(checked.values()) == 43_083


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "arrow-roundtrip", "--max-edges", "1", "--json"
    )
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["property"] == "arrow-roundtrip"
    assert reports[0]["failures"] == []


def test_verify_unknown_property(capsys):
    code, _, err = run(capsys, "verify", "bogus", "--max-edges", "1")
    assert code == 2
    assert "unknown property" in err


def test_verify_implication_table(capsys):
    code, out, _ = run(capsys, "verify", "implication-table", "--max-edges", "2")
    assert code == 0
    table = json.loads(out)
    assert table["holds"]["checkerboard"]["eulerian"]


def test_search_command(capsys):
    code, out, _ = run(capsys, "search", "--max-edges", "4")
    assert code == 0
    assert out == (
        "subset A: ['e0', 'e2']\n"
        "vertex v0: e0.1 e1.1 e0.2 e2.1 e1.2 e2.2\nedge e0: +\nedge e1: +\nedge e2: +\n"
        "re-verified: yes\n"
    )


def test_search_reports_absence(capsys):
    code, out, _ = run(capsys, "search", "--max-edges", "2")
    assert code == 0
    assert "no witness" in out


def test_op_pdual_and_contract(capsys):
    code, out, _ = run(capsys, "op", str(FIXTURES / "torus2loop.rg"), "--pdual", "b")
    assert code == 0
    assert len(parse_graph(out).vertices) == 2
    code, out, _ = run(capsys, "op", str(FIXTURES / "loop.rg"), "--contract", "a")
    assert code == 0
    g = parse_graph(out)
    assert not g.edges and len(g.vertices) == 2


def test_enumerate_print(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-edges", "1", "--print")
    assert code == 0
    assert out.count("vertex") >= 4


def test_iso_same_file(capsys):
    code, out, _ = run(
        capsys, "iso", str(FIXTURES / "loop.rg"), str(FIXTURES / "loop.rg")
    )
    assert code == 0
    assert "isomorphic" in out


def test_iso_different(capsys):
    code, out, _ = run(
        capsys, "iso", str(FIXTURES / "loop.rg"), str(FIXTURES / "twisted_loop.rg")
    )
    assert code == 1
    assert "not isomorphic" in out


def every_command():
    """Each subcommand once on fixtures, a usage error and ``--help``, interleaved."""
    loop, torus = str(FIXTURES / "loop.rg"), str(FIXTURES / "torus2loop.rg")
    return [
        ["check", torus],
        ["--help"],
        ["op", torus, "--pdual", "b"],
        ["enumerate", "--max-edges", "x"],
        ["medial", loop],
        ["theorem1", torus],
        ["op", loop, "--delete", "zz"],
        ["theorem2", torus],
        ["iso", loop, str(FIXTURES / "twisted_loop.rg")],
        ["enumerate", "--max-edges", "1"],
        ["verify", "checkerboard-implies-eulerian", "--max-edges", "1"],
        ["search", "--max-edges", "1"],
    ]


def test_main_builds_no_parser_after_its_first_call(capsys, monkeypatch):
    assert cli.build_parser() is not cli.build_parser()
    run(capsys, "enumerate", "--max-edges", "0")
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    codes = [run(capsys, *argv)[0] for argv in every_command()]
    assert codes == [0, 0, 0, 2, 0, 0, 2, 0, 1, 0, 0, 0]
    assert built == []


def test_commands_in_one_process_match_fresh_interpreters(capsys, monkeypatch):
    # A fixed width, so argparse wraps --help and usage alike in both.
    monkeypatch.setenv("COLUMNS", "80")
    env = {
        **os.environ,
        "COLUMNS": "80",
        "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]),
    }

    def untimed(out):  # verify's summary line ends in its elapsed time
        return re.sub(r", \d+ ms$", ", - ms", out, flags=re.M)

    for argv in every_command():
        alone = subprocess.run(
            [sys.executable, "-m", "ribbonlab.cli", *argv], env=env, capture_output=True, text=True
        )
        code, out, err = run(capsys, *argv)
        assert (code, untimed(out), err) == (alone.returncode, untimed(alone.stdout), alone.stderr), argv
