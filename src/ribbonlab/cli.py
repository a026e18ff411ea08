"""Command-line interface.

Exit codes: 0 on success (or a passing verification), 1 when a property
fails, a theorem pipeline hits an internal invariant failure, or two graphs
are not isomorphic, and 2 for usage, unreadable or malformed files and
precondition errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .core import (
    RibbonGraph,
    TextFormatError,
    RibbonGraphError,
    UnknownEdgeError,
    euler_characteristic,
    graph_to_text,
    is_orientable,
    load_graph,
    save_graph,
)
from .isomorphism import are_isomorphic
from .medial import (
    InternalInvariantError,
    build_medial,
    classify_cd,
    medial_to_dot,
    straight_ahead_direction,
    to_ribbon_graph,
)
from .algorithms import (
    checkerboard_partial_petrial,
    checkerboard_twisted_dual,
)
from .operators import (
    TWIST_ELEMENTS,
    apply_twist_word,
    contract,
    delete,
    geometric_dual,
    partial_dual,
    partial_petrial,
    petrial,
)
from .predicates import (
    checkerboard_colouring,
    face_degrees,
    is_bipartite,
    is_eulerian,
    is_even_face,
)
from .workbench import (
    GraphUniverse,
    _require_workers,
    enumerate_graphs,
    predicate_implication_table,
    run_all_properties,
    run_property_suite,
    search_converse_counterexample,
)

USAGE_ERROR = 2
FAILURE = 1


def _load(path: str) -> RibbonGraph:
    try:
        return load_graph(path)
    except FileNotFoundError:
        raise _CliError(f"no such file: {path}")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _CliError(f"cannot read {path}: {exc}")
    except TextFormatError as exc:
        raise _CliError(f"{path}: {exc}")


class _CliError(Exception):
    pass


def _cmd_check(args) -> int:
    g = _load(args.file)
    degrees = sorted(face_degrees(g).elements())
    colouring = checkerboard_colouring(g)
    rows = [
        ("vertices", len(g.vertex_names)),
        ("edges", len(g.edge_names)),
        ("boundary components", len(degrees)),
        ("face degrees", degrees),
        ("euler characteristic", euler_characteristic(g)),
        ("orientable", _yesno(is_orientable(g))),
        ("eulerian", _yesno(is_eulerian(g))),
        ("bipartite", _yesno(is_bipartite(g))),
        ("even-face", _yesno(is_even_face(g))),
        ("checkerboard", _yesno(colouring is not None)),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    if colouring is not None:
        print(f"{'colouring':<{width}}  {' '.join(colouring.colours)}")
    return 0


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _split_edges(arg: str) -> list[str]:
    return [part for part in arg.split(",") if part]


def _word(arg: str) -> dict[str, str]:
    word = {}
    for part in _split_edges(arg):
        edge, _, elem = part.partition(":")
        if not _ or elem not in TWIST_ELEMENTS:
            raise _CliError(
                f"bad word entry {part!r}; use <edge>:<element> with element one of {', '.join(TWIST_ELEMENTS)}"
            )
        if edge in word:
            raise _CliError(f"bad word entry {part!r}; edge {edge!r} already has element {word[edge]!r}")
        word[edge] = elem
    return word


_EDGE_LIST = {"help": "comma-separated edges"}
_FLAG = {"action": "store_true"}

#: ``op``'s operations in option order: the ``add_argument`` keywords of
#: ``--<name>`` and the operation on the graph and the option's value.
_OPS = {
    "word": ({"help": 'per-edge word, e.g. "e1:dt,e2:1,e3:d"'}, lambda g, v: apply_twist_word(g, _word(v))),
    "dual": (_FLAG, lambda g, _: geometric_dual(g)),
    "petrial": (_FLAG, lambda g, _: petrial(g)),
    "pdual": (_EDGE_LIST, lambda g, v: partial_dual(g, _split_edges(v))),
    "ppetrial": (_EDGE_LIST, lambda g, v: partial_petrial(g, _split_edges(v))),
    "delete": (_EDGE_LIST, lambda g, v: delete(g, _split_edges(v))),
    "contract": (_EDGE_LIST, lambda g, v: contract(g, _split_edges(v))),
}


def _cmd_op(args) -> int:
    g = _load(args.file)
    chosen = [name for name in _OPS if getattr(args, name)]
    if len(chosen) != 1:
        raise _CliError(f"op needs exactly one of {'/'.join('--' + name for name in _OPS)}")
    name = chosen[0]
    try:
        out = _OPS[name][1](g, getattr(args, name))
    except UnknownEdgeError as exc:
        raise _CliError(f"{args.file}: no edge {exc.args[0]!r}")
    if args.output:
        try:
            save_graph(args.output, out)
        except OSError as exc:
            raise _CliError(f"cannot write {args.output}: {exc.strerror or exc}")
    else:
        sys.stdout.write(graph_to_text(out))
    return 0


def _cmd_medial(args) -> int:
    g = _load(args.file)
    m = build_medial(g)
    direction = straight_ahead_direction(m)
    cls = classify_cd(m, direction)
    if args.dot:
        sys.stdout.write(medial_to_dot(m, direction, cls))
    else:
        print(f"medial vertices: {len(m.vertices)}")
        print(f"corner edges: {len(m.corner_edges)}")
        print(f"free loops: {len(m.free_loops)}")
        print("classification: " + " ".join(f"{e}:{cls[e]}" for e in sorted(cls)))
        sys.stdout.write(graph_to_text(to_ribbon_graph(m)))
    return 0


def _cmd_theorem1(args) -> int:
    return _certify(args.file, checkerboard_twisted_dual, lambda cert: (
        f"petrial set A: {list(cert.petrial_set)}",
        f"dual set D: {list(cert.dual_set)}",
        f"twist word: {cert.twist_word()}",
    ))


def _cmd_theorem2(args) -> int:
    return _certify(args.file, checkerboard_partial_petrial, lambda cert: (f"twisted edges I: {list(cert.twisted)}",))


def _certify(path: str, pipeline, head) -> int:
    """Print the certificate a theorem pipeline makes of a graph file: ``head``'s lines, the result, its colouring."""
    g = _load(path)
    try:
        cert = pipeline(g)
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return FAILURE
    print(*head(cert), "result:", sep="\n")
    sys.stdout.write(graph_to_text(cert.result))
    print(f"colouring: {' '.join(cert.colouring.colours)}")
    return 0


def _universe(args) -> GraphUniverse:
    return enumerate_graphs(
        args.max_edges,
        max_vertices=args.max_vertices,
        connected=args.connected,
        dedup=not args.no_dedup,
    )


def _cmd_enumerate(args) -> int:
    universe = _universe(args)
    counts: dict[int, int] = {}
    total = 0
    for g in universe:
        counts[len(g.edge_names)] = counts.get(len(g.edge_names), 0) + 1
        total += 1
        if args.print:
            sys.stdout.write(graph_to_text(g) + "\n")
    for k in sorted(counts):
        print(f"edges {k}: {counts[k]}")
    print(f"total: {total}")
    return 0


def _cmd_verify(args) -> int:
    universe = _universe(args)
    _require_workers(args.workers)  # the implication table runs sequentially but refuses a bad count too
    if args.property == "implication-table":
        table = predicate_implication_table(universe)
        print(json.dumps(table, indent=2))
        return 0
    if args.property == "all":
        reports = run_all_properties(universe, workers=args.workers)
    else:
        reports = [run_property_suite(universe, args.property, workers=args.workers)]
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.summary())
            for f in r.failures[:5]:
                print(f"  witness params={f.params}: {f.detail}")
                for line in f.graph.strip().splitlines():
                    print(f"    {line}")
    return 0 if all(r.passed for r in reports) else FAILURE


def _cmd_search(args) -> int:
    universe = _universe(args)
    witness = search_converse_counterexample(universe)
    if witness is None:
        print(f"no witness within max_edges={args.max_edges}")
        return 0
    print(f"subset A: {list(witness.subset)}")
    sys.stdout.write(graph_to_text(witness.graph))
    print(f"re-verified: {_yesno(witness.verify())}")
    return 0


def _cmd_iso(args) -> int:
    g = _load(args.file1)
    h = _load(args.file2)
    if are_isomorphic(g, h):
        print("isomorphic")
        return 0
    print("not isomorphic")
    return FAILURE


def _add_universe_args(p: argparse.ArgumentParser, default_edges: int) -> None:
    p.add_argument("--max-edges", type=int, default=default_edges)
    p.add_argument("--max-vertices", type=int, default=None)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--no-dedup", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribbonlab",
        description="Ribbon graphs: twisted duality, medial graphs, checkerboard colourings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="print the predicate table for a graph file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("op", help="apply a twisted-duality operator")
    p.add_argument("file")
    for name, (option, _) in _OPS.items():
        p.add_argument(f"--{name}", **option)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_op)

    p = sub.add_parser("medial", help="medial graph with direction and c/d labels")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.set_defaults(func=_cmd_medial)

    p = sub.add_parser("theorem1", help="checkerboard colourable twisted dual")
    p.add_argument("file")
    p.set_defaults(func=_cmd_theorem1)

    p = sub.add_parser("theorem2", help="checkerboard colourable partial Petrial (Eulerian input)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_theorem2)

    p = sub.add_parser("enumerate", help="enumerate small graphs")
    _add_universe_args(p, 3)
    p.add_argument("--print", action="store_true", help="print every graph")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("property", help="a property name, 'all', or 'implication-table'")
    _add_universe_args(p, 2)
    p.add_argument("--json", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="search for the converse counterexample")
    _add_universe_args(p, 4)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("iso", help="decide ribbon-graph isomorphism of two files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_iso)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # One parser serves every call: each parse makes a fresh namespace, no action
    # has a mutable default, and argparse finds sys.stdout/stderr only when it prints.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (_CliError, RibbonGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
