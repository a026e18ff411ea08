"""The CLI's help pages and ``op`` usage errors, pinned byte for byte."""

import sys

import pytest

from ribbonlab.cli import main

from helpers import FIXTURES

HELP = {
    None: """\
usage: ribbonlab [-h]
                 {check,op,medial,theorem1,theorem2,enumerate,verify,search,iso}
                 ...

Ribbon graphs: twisted duality, medial graphs, checkerboard colourings.

positional arguments:
  {check,op,medial,theorem1,theorem2,enumerate,verify,search,iso}
    check               print the predicate table for a graph file
    op                  apply a twisted-duality operator
    medial              medial graph with direction and c/d labels
    theorem1            checkerboard colourable twisted dual
    theorem2            checkerboard colourable partial Petrial (Eulerian
                        input)
    enumerate           enumerate small graphs
    verify              run property suites
    search              search for the converse counterexample
    iso                 decide ribbon-graph isomorphism of two files

options:
  -h, --help            show this help message and exit
""",
    "check": """\
usage: ribbonlab check [-h] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
""",
    "op": """\
usage: ribbonlab op [-h] [--word WORD] [--dual] [--petrial] [--pdual PDUAL]
                    [--ppetrial PPETRIAL] [--delete DELETE]
                    [--contract CONTRACT] [-o OUTPUT]
                    file

positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --word WORD           per-edge word, e.g. "e1:dt,e2:1,e3:d"
  --dual
  --petrial
  --pdual PDUAL         comma-separated edges
  --ppetrial PPETRIAL   comma-separated edges
  --delete DELETE       comma-separated edges
  --contract CONTRACT   comma-separated edges
  -o OUTPUT, --output OUTPUT
""",
    "medial": """\
usage: ribbonlab medial [-h] [--dot] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
  --dot       emit Graphviz DOT
""",
    "theorem1": """\
usage: ribbonlab theorem1 [-h] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
""",
    "theorem2": """\
usage: ribbonlab theorem2 [-h] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
""",
    "enumerate": """\
usage: ribbonlab enumerate [-h] [--max-edges MAX_EDGES]
                           [--max-vertices MAX_VERTICES] [--connected]
                           [--no-dedup] [--print]

options:
  -h, --help            show this help message and exit
  --max-edges MAX_EDGES
  --max-vertices MAX_VERTICES
  --connected
  --no-dedup
  --print               print every graph
""",
    "verify": """\
usage: ribbonlab verify [-h] [--max-edges MAX_EDGES]
                        [--max-vertices MAX_VERTICES] [--connected]
                        [--no-dedup] [--json] [--workers WORKERS]
                        property

positional arguments:
  property              a property name, 'all', or 'implication-table'

options:
  -h, --help            show this help message and exit
  --max-edges MAX_EDGES
  --max-vertices MAX_VERTICES
  --connected
  --no-dedup
  --json
  --workers WORKERS
""",
    "search": """\
usage: ribbonlab search [-h] [--max-edges MAX_EDGES]
                        [--max-vertices MAX_VERTICES] [--connected]
                        [--no-dedup]

options:
  -h, --help            show this help message and exit
  --max-edges MAX_EDGES
  --max-vertices MAX_VERTICES
  --connected
  --no-dedup
""",
    "iso": """\
usage: ribbonlab iso [-h] file1 file2

positional arguments:
  file1
  file2

options:
  -h, --help  show this help message and exit
""",
}

EXACTLY_ONE = "error: op needs exactly one of --word/--dual/--petrial/--pdual/--ppetrial/--delete/--contract\n"
NO_EDGE = "error: {path}: no edge 'zz'\n"

#: ``op`` arguments after the file, and the stderr they give with exit code 2.
OP_ERRORS = [
    (["--dual", "--petrial"], EXACTLY_ONE),
    (["--pdual", "a", "--word", "a:d"], EXACTLY_ONE),
    ([], EXACTLY_ONE),
    (["--word", "a:xx"], "error: bad word entry 'a:xx'; use <edge>:<element> with element one of 1, d, t, dt, td, dtd\n"),
    (["--word", "a:d,a:t"], "error: bad word entry 'a:t'; edge 'a' already has element 'd'\n"),
    (["--word", "zz:d"], NO_EDGE),
    (["--pdual", "zz"], NO_EDGE),
    (["--ppetrial", "zz"], NO_EDGE),
    (["--delete", "zz"], NO_EDGE),
    (["--contract", "zz"], NO_EDGE),
]


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # --help exits through argparse
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Python 3.13 changed how argparse lays out an option with a short and a long name.
@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse formats help differently from 3.13")
@pytest.mark.parametrize("command", list(HELP), ids=lambda c: c or "ribbonlab")
def test_help_pages_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    argv = [command, "--help"] if command else ["--help"]
    assert run(capsys, *argv) == (0, HELP[command], "")


@pytest.mark.parametrize("args, err", OP_ERRORS, ids=[" ".join(args) or "none" for args, _ in OP_ERRORS])
def test_op_usage_errors_are_pinned(capsys, args, err):
    path = str(FIXTURES / "torus2loop.rg")
    assert run(capsys, "op", path, *args) == (2, "", err.format(path=path))
