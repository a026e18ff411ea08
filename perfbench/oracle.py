"""Output checks that share no code with ribbonlab.

The oracle parses the text format itself and traces faces on flags: each
edge-end carries two flags, ``+`` facing the next edge-end counterclockwise
and ``-`` facing the previous one.  A corner joins ``(h, +)`` to
``(next(h), -)``; walking along an untwisted ribbon side joins ``(h1, +)``
to ``(h2, -)``, a twisted one ``(h1, +)`` to ``(h2, +)``.  Boundary
components are the orbits of these two involutions, plus one per isolated
vertex.  Every check returns an error string, or ``None`` when the output
is accepted.
"""

from __future__ import annotations

import ast
import json

# Instances per suite of `verify <suite> --max-edges 3`, recorded from the
# seed implementation; they sum to 43,083 and every suite passes.
VERIFY_INSTANCES = {
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

# Isomorphism classes of ribbon graphs with k = 0..4 edges.
ENUMERATE_CLASSES = (1, 3, 17, 106, 850)


class Graph:
    """A parsed signed rotation system: ``rotations[v]`` lists ``(edge, end)``."""

    def __init__(self, rotations: dict[str, list[tuple[str, int]]], signs: dict[str, int]):
        self.rotations = rotations
        self.signs = signs

    def faces(self) -> list[list[tuple[tuple[str, int], int]]]:
        """Boundary components as lists of flags ``((edge, end), ±1)``; isolated vertices give ``[]``."""
        corner: dict = {}
        for rot in self.rotations.values():
            for i, h in enumerate(rot):
                nxt = rot[(i + 1) % len(rot)]
                corner[(h, 1)] = (nxt, -1)
                corner[(nxt, -1)] = (h, 1)
        seen: set = set()
        out = []
        for start in corner:
            if start in seen:
                continue
            face = []
            flag = start
            while flag not in seen:
                seen.add(flag)
                face.append(flag)
                flag = self._side(flag)
                seen.add(flag)
                face.append(flag)
                flag = corner[flag]
            out.append(face)
        out.extend([] for rot in self.rotations.values() if not rot)
        return out

    def _side(self, flag):
        (edge, end), s = flag
        return (edge, 3 - end), (s if self.signs[edge] < 0 else -s)

    def face_count(self) -> int:
        return len(self.faces())

    def is_checkerboard_colourable(self) -> bool:
        """Faces 2-colourable so that the two sides of every edge differ."""
        faces = self.faces()
        face_of = {flag: i for i, face in enumerate(faces) for flag in face}
        links = [(face_of[((e, 1), 1)], face_of[((e, 1), -1)], 1) for e in self.signs]
        return _two_colourable(len(faces), links)

    def is_orientable(self) -> bool:
        """Vertices 2-colourable (flipped or not) so that exactly the twisted edges join different colours."""
        return self._vertex_colourable(lambda edge: self.signs[edge] < 0)

    def is_bipartite(self) -> bool:
        return self._vertex_colourable(lambda edge: True)

    def _vertex_colourable(self, differ) -> bool:
        index = {v: i for i, v in enumerate(self.rotations)}
        at: dict[str, list[int]] = {}
        for v, rot in self.rotations.items():
            for edge, _ in rot:
                at.setdefault(edge, []).append(index[v])
        return _two_colourable(len(index), [(u, w, int(differ(e))) for e, (u, w) in at.items()])

    def twisted(self, edges) -> "Graph":
        signs = dict(self.signs)
        for e in edges:
            signs[e] = -signs[e]
        return Graph(self.rotations, signs)

    def spanning(self, edges) -> "Graph":
        keep = set(edges)
        rotations = {v: [h for h in rot if h[0] in keep] for v, rot in self.rotations.items()}
        return Graph(rotations, {e: s for e, s in self.signs.items() if e in keep})


def _two_colourable(n: int, links: list[tuple[int, int, int]]) -> bool:
    """Whether nodes 0..n-1 take colours 0/1 so that each link (a, b, d) has colour[a] ^ colour[b] == d."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, d in links:
        adj[a].append((b, d))
        adj[b].append((a, d))
    colour: list[int | None] = [None] * n
    for start in range(n):
        if colour[start] is not None:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            cur = stack.pop()
            for other, d in adj[cur]:
                want = colour[cur] ^ d
                if colour[other] is None:
                    colour[other] = want
                    stack.append(other)
                elif colour[other] != want:
                    return False
    return True


def parse(text: str) -> Graph:
    """Parse the graph text format; raises ValueError on anything malformed."""
    rotations: dict[str, list[tuple[str, int]]] = {}
    signs: dict[str, int] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        kind, _, name = head.partition(" ")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"bad line {raw!r}")
        if kind == "vertex" and name not in rotations:
            rot = []
            for token in rest.split():
                edge, _, end = token.rpartition(".")
                if not edge or end not in ("1", "2"):
                    raise ValueError(f"bad edge-end {token!r}")
                rot.append((edge, int(end)))
            rotations[name] = rot
        elif kind == "edge" and rest.strip() in ("+", "-") and name not in signs:
            signs[name] = 1 if rest.strip() == "+" else -1
        else:
            raise ValueError(f"bad line {raw!r}")
    placed = [h for rot in rotations.values() for h in rot]
    if sorted(placed) != sorted((e, k) for e in signs for k in (1, 2)):
        raise ValueError("edge-ends do not match the declared edges")
    return Graph(rotations, signs)


def _sections(out: str) -> dict[str, str]:
    """Split pipeline output into its ``key: value`` lines and the result graph text."""
    fields: dict[str, str] = {}
    graph: list[str] = []
    in_result = False
    for line in out.splitlines():
        if line == "result:":
            in_result = True
        elif line.startswith("colouring:"):
            in_result = False
            fields["colouring"] = line.partition(":")[2]
        elif in_result:
            graph.append(line)
        else:
            key, _, value = line.partition(":")
            fields[key] = value.strip()
    fields["result"] = "\n".join(graph) + "\n"
    return fields


def check_theorem1(input_text: str, out: str) -> str | None:
    """Result colourable with one colour per face, and (Chmutov) its vertex
    count equals the boundary-component count of the spanning subgraph on D
    of the input with A twisted."""
    g = parse(input_text)
    f = _sections(out)
    a = ast.literal_eval(f["petrial set A"])
    d = ast.literal_eval(f["dual set D"])
    result = parse(f["result"])
    if set(result.signs) != set(g.signs):
        return "theorem1: result edges differ from input edges"
    if not result.is_checkerboard_colourable():
        return "theorem1: result is not checkerboard colourable"
    if len(f["colouring"].split()) != result.face_count():
        return "theorem1: colour count differs from face count"
    expected = g.twisted(a).spanning(d).face_count()
    if len(result.rotations) != expected:
        return f"theorem1: {len(result.rotations)} vertices, Chmutov count gives {expected}"
    return None


def check_theorem2(input_text: str, out: str) -> str | None:
    """Result is the input with exactly I's signs toggled, and it is colourable."""
    g = parse(input_text)
    f = _sections(out)
    result = parse(f["result"])
    if result.rotations != g.rotations:
        return "theorem2: result rotations differ from the input"
    expected = g.twisted(ast.literal_eval(f["twisted edges I"]))
    if result.signs != expected.signs:
        return "theorem2: result signs are not the input with I toggled"
    if not result.is_checkerboard_colourable():
        return "theorem2: result is not checkerboard colourable"
    if len(f["colouring"].split()) != result.face_count():
        return "theorem2: colour count differs from face count"
    return None


def check_check(input_text: str, out: str) -> str | None:
    """The predicate table agrees with the oracle's own computations."""
    g = parse(input_text)
    faces = g.faces()
    rows = {}
    for line in out.splitlines():
        key, _, value = line.partition("  ")
        rows[key.strip()] = value.strip()
    yes = {True: "yes", False: "no"}
    colourable = g.is_checkerboard_colourable()
    want = {
        "vertices": str(len(g.rotations)),
        "edges": str(len(g.signs)),
        "boundary components": str(len(faces)),
        "face degrees": str(sorted(len(face) // 2 for face in faces)),
        "euler characteristic": str(len(g.rotations) - len(g.signs) + len(faces)),
        "orientable": yes[g.is_orientable()],
        "eulerian": yes[all(len(rot) % 2 == 0 for rot in g.rotations.values())],
        "bipartite": yes[g.is_bipartite()],
        "even-face": yes[all(len(face) % 4 == 0 for face in faces)],
        "checkerboard": yes[colourable],
    }
    for key, value in want.items():
        if rows.get(key) != value:
            return f"check: {key} is {rows.get(key)!r}, oracle says {value!r}"
    if colourable and len(rows.get("colouring", "").split()) != len(faces):
        return "check: colour count differs from face count"
    return None


def check_verify(suite: str, out: str) -> str | None:
    reports = json.loads(out)
    if len(reports) != 1 or reports[0]["property"] != suite:
        return f"verify {suite}: expected one report for the suite"
    report = reports[0]
    if report["failures"]:
        return f"verify {suite}: {len(report['failures'])} failures"
    if report["checked"] != VERIFY_INSTANCES[suite]:
        return f"verify {suite}: {report['checked']} instances, expected {VERIFY_INSTANCES[suite]}"
    return None


def check_enumerate(out: str) -> str | None:
    want = [f"edges {k}: {n}" for k, n in enumerate(ENUMERATE_CLASSES)]
    want.append(f"total: {sum(ENUMERATE_CLASSES)}")
    if out.splitlines() != want:
        return "enumerate: class counts differ from the golden counts"
    return None
