"""Medial graphs with full corner bookkeeping.

The medial graph of an orientable host puts one 4-valent vertex on every
host edge and one corner edge alongside every vertex line segment of the
host.  Each medial vertex keeps its four ports tagged with the half-edge
segment they sit next to, in the cyclic order induced by the host
orientation: ``(end1,L), (end2,R), (end2,L), (end1,R)``.  Straight ahead
through the crossing means the diagonally opposite port, which swaps the
end and keeps the side letter.

Directing every corner edge along the straight-ahead closed walks yields a
direction whose arrowheads read head, head, tail, tail around every medial
vertex.  Under such a direction, exactly one of the two smoothings of each
crossing is flow-consistent:

* the side smoothing, whose strands run along the two ribbon sides of the
  host edge (ports ``(1,L)+(2,R)`` and ``(1,R)+(2,L)``), or
* the end smoothing, whose strands hug the two attachment arcs
  (ports ``(1,L)+(1,R)`` and ``(2,L)+(2,R)``).

Host edges are labelled ``c`` when the side smoothing is consistent and
``d`` when the end smoothing is.  Smoothing every crossing accordingly cuts
the medial into directed closed curves that match the boundary components
of the host minus its d-edges; each curve carries one signed line segment
per smoothed strand (positive when traversed from an L port to an R port,
which is the direction agreeing with the host orientation).

The medial of an isolated host vertex is a closed curve with no crossing on
it, kept separately as a free loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    EdgeEnd,
    HalfEdgeSegment,
    L,
    R,
    RibbonGraph,
    Edge,
    NotOrientableError,
    RibbonGraphError,
    Vertex,
    _orbits,
    oriented_form,
    require_valid,
)


class UnsupportedHostError(RibbonGraphError):
    """Raised when a medial graph is requested for a non-orientable host."""


class InvalidDirectionError(RibbonGraphError):
    """A supplied edge direction is not all-crossing."""


class InternalInvariantError(RibbonGraphError):
    """An invariant the algorithms guarantee failed; signals a bug, never valid input."""


EDGE_LINE = "edge-line"
COMMON_LINE = "common-line"


@dataclass(frozen=True)
class MedialVertex:
    """The crossing placed on one host edge, with its four tagged ports."""

    edge: str
    ports: tuple[HalfEdgeSegment, HalfEdgeSegment, HalfEdgeSegment, HalfEdgeSegment]


@dataclass(frozen=True)
class CornerEdge:
    """A medial edge alongside one vertex line segment of the host."""

    index: int
    host_vertex: str
    ports: tuple[HalfEdgeSegment, HalfEdgeSegment]

    def other(self, port: HalfEdgeSegment) -> HalfEdgeSegment:
        a, b = self.ports
        if port == a:
            return b
        if port == b:
            return a
        raise KeyError(port)


@dataclass(frozen=True)
class MedialGraph:
    host: RibbonGraph
    flipped: tuple[str, ...]
    vertices: tuple[MedialVertex, ...]
    corner_edges: tuple[CornerEdge, ...]
    free_loops: tuple[str, ...]

    def vertex_for(self, edge: str) -> MedialVertex:
        for mv in self.vertices:
            if mv.edge == edge:
                return mv
        raise KeyError(edge)

    def edge_at(self) -> dict[HalfEdgeSegment, CornerEdge]:
        out: dict[HalfEdgeSegment, CornerEdge] = {}
        for c in self.corner_edges:
            for p in c.ports:
                out[p] = c
        return out

    @staticmethod
    def opposite(port: HalfEdgeSegment) -> HalfEdgeSegment:
        """Straight ahead through the crossing: other end, same side letter."""
        return HalfEdgeSegment(port.end.partner, port.side)


def build_medial(h: RibbonGraph) -> MedialGraph:
    """Construct the medial graph of an orientable host.

    The host is first normalised by vertex flips so every sign is +1 (the
    chosen global orientation); a non-orientable host raises
    :class:`UnsupportedHostError`.
    """
    require_valid(h)
    try:
        host, flipped = oriented_form(h)
    except NotOrientableError as exc:
        raise UnsupportedHostError(str(exc)) from None

    vertices = tuple(
        MedialVertex(
            e.name,
            (
                HalfEdgeSegment(EdgeEnd(e.name, 1), L),
                HalfEdgeSegment(EdgeEnd(e.name, 2), R),
                HalfEdgeSegment(EdgeEnd(e.name, 2), L),
                HalfEdgeSegment(EdgeEnd(e.name, 1), R),
            ),
        )
        for e in host.edges
    )
    corners: list[CornerEdge] = []
    for v in host.vertices:
        rot = v.rotation
        m = len(rot)
        for i in range(m):
            corners.append(
                CornerEdge(
                    len(corners),
                    v.name,
                    (
                        HalfEdgeSegment(rot[i], R),
                        HalfEdgeSegment(rot[(i + 1) % m], L),
                    ),
                )
            )
    free = tuple(v.name for v in host.vertices if not v.rotation)
    return MedialGraph(host, flipped, vertices, tuple(corners), free)


# ---------------------------------------------------------------------------
# Straight-ahead walks and all-crossing directions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AllCrossingDirection:
    """A direction per corner edge, as (tail port, head port), plus the
    straight-ahead walks (corner-edge index sequences) that produced it."""

    directions: tuple[tuple[HalfEdgeSegment, HalfEdgeSegment], ...]
    walks: tuple[tuple[int, ...], ...]

    def head_ports(self) -> set[HalfEdgeSegment]:
        return {head for _, head in self.directions}


def straight_ahead_direction(m: MedialGraph, *, seed: int = 0) -> AllCrossingDirection:
    """Direct every corner edge along its straight-ahead closed walk.

    Walks enter a crossing at one port and leave by the diagonally opposite
    one.  Each walk is directed by its traversal order; walk enumeration and
    the first edge's direction follow the deterministic corner-edge order
    (``seed`` picks which way the first edge of each walk points).  The
    result always satisfies head, head, tail, tail around every medial
    vertex for orientable hosts; a violation raises
    :class:`InternalInvariantError`.
    """
    # Ports are the host's flags: corner edge i joins flag 2i + 1 to
    # corner[2i + 1], and straight ahead (other end, same side letter) is
    # 2 mate + letter.  The walks are the orbits of <corner, ahead> from
    # tail flags.
    ends, mate, corner, _, _ = m.host._flags
    ahead = [2 * mate[f >> 1] | f & 1 for f in range(len(corner))]
    segs = [HalfEdgeSegment(d, letter) for d in ends for letter in (L, R)]
    tails = [2 * i + 1 if seed == 0 else corner[2 * i + 1] for i in range(len(ends))]
    directions: list[tuple[HalfEdgeSegment, HalfEdgeSegment] | None] = [None] * len(ends)
    walks: list[tuple[int, ...]] = []
    for orbit in _orbits(ahead, corner, tails):
        walk = [t >> 1 if t & 1 else corner[t] >> 1 for t in orbit]
        for t, index in zip(orbit, walk):
            if directions[index] is not None:
                raise InternalInvariantError(
                    f"straight-ahead walk traverses corner edge {index} both ways"
                )
            directions[index] = (segs[t], segs[corner[t]])
        walks.append(tuple(walk))
    result = AllCrossingDirection(tuple(directions), tuple(walks))
    bad = _all_crossing_violations(m, result)
    if bad:
        raise InternalInvariantError(
            f"straight-ahead direction is not all-crossing at {sorted(bad)}"
        )
    return result


def _all_crossing_violations(m: MedialGraph, direction: AllCrossingDirection) -> list[str]:
    heads = direction.head_ports()
    bad = []
    for mv in m.vertices:
        pattern = tuple(p in heads for p in mv.ports)
        if sum(pattern) != 2 or pattern in ((True, False, True, False), (False, True, False, True)):
            bad.append(mv.edge)
    return bad


def is_all_crossing(m: MedialGraph, direction: AllCrossingDirection) -> bool:
    """True when the arrowheads read head, head, tail, tail at every crossing."""
    return not _all_crossing_violations(m, direction)


# ---------------------------------------------------------------------------
# c/d classification and smoothing
# ---------------------------------------------------------------------------

CDClassification = dict[str, str]

_SIDE_PAIRING = ((0, 1), (2, 3))  # ports (1,L)+(2,R) and (2,L)+(1,R): along the ribbon sides
_END_PAIRING = ((0, 3), (1, 2))  # ports (1,L)+(1,R) and (2,R)+(2,L): around the attachment arcs


def classify_cd(m: MedialGraph, direction: AllCrossingDirection) -> CDClassification:
    """Label every host edge ``c`` or ``d`` by which smoothing is
    flow-consistent (each smoothed strand one head and one tail).

    Exactly one of the two is consistent under an all-crossing direction;
    a direction that is not all-crossing raises
    :class:`InvalidDirectionError`.
    """
    if not is_all_crossing(m, direction):
        raise InvalidDirectionError("direction is not all-crossing")
    heads = direction.head_ports()
    out: CDClassification = {}
    for mv in m.vertices:
        side_ok = all((mv.ports[i] in heads) != (mv.ports[j] in heads) for i, j in _SIDE_PAIRING)
        end_ok = all((mv.ports[i] in heads) != (mv.ports[j] in heads) for i, j in _END_PAIRING)
        if side_ok == end_ok:
            raise InternalInvariantError(
                f"smoothing consistency must pick exactly one of c/d at edge {mv.edge}"
            )
        out[mv.edge] = "c" if side_ok else "d"
    return out


def d_edges(cls: CDClassification) -> tuple[str, ...]:
    return tuple(sorted(e for e, kind in cls.items() if kind == "d"))


@dataclass(frozen=True)
class CurveSegment:
    """One smoothed strand on a curve: a ribbon side of a c-edge or an
    attachment arc of a d-edge, traversed entry -> exit.  The sign is +1
    when the traversal runs from the L port to the R port, the direction
    agreeing with the host orientation."""

    edge: str
    kind: str
    entry: HalfEdgeSegment
    exit: HalfEdgeSegment
    sign: int


@dataclass(frozen=True)
class SmoothedCurve:
    segments: tuple[CurveSegment, ...]
    corner_path: tuple[int, ...]
    free_vertex: str | None = None


def smooth(
    m: MedialGraph,
    direction: AllCrossingDirection,
    cls: CDClassification,
) -> tuple[SmoothedCurve, ...]:
    """Apply the chosen smoothing at every crossing and trace the directed
    closed curves.  Free loops come last, one per isolated host vertex."""
    partner: dict[HalfEdgeSegment, HalfEdgeSegment] = {}
    for mv in m.vertices:
        if mv.edge not in cls:
            raise InvalidDirectionError(f"classification missing edge {mv.edge!r}")
        pairing = _SIDE_PAIRING if cls[mv.edge] == "c" else _END_PAIRING
        for i, j in pairing:
            partner[mv.ports[i]] = mv.ports[j]
            partner[mv.ports[j]] = mv.ports[i]

    tails = {tail: idx for idx, (tail, _) in enumerate(direction.directions)}
    curves: list[SmoothedCurve] = []
    done: set[int] = set()
    for start in range(len(m.corner_edges)):
        if start in done:
            continue
        path: list[int] = []
        segments: list[CurveSegment] = []
        idx = start
        while True:
            path.append(idx)
            done.add(idx)
            _, head = direction.directions[idx]
            out = partner[head]
            kind = EDGE_LINE if cls[head.end.edge] == "c" else COMMON_LINE
            segments.append(
                CurveSegment(
                    edge=head.end.edge,
                    kind=kind,
                    entry=head,
                    exit=out,
                    sign=1 if head.side == L else -1,
                )
            )
            if out not in tails:
                raise InternalInvariantError(
                    f"smoothed strand at {out} does not continue with the flow"
                )
            idx = tails[out]
            if idx == start:
                break
        curves.append(SmoothedCurve(tuple(segments), tuple(path)))
    for name in m.free_loops:
        curves.append(SmoothedCurve((), (), free_vertex=name))
    return tuple(curves)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def to_ribbon_graph(m: MedialGraph) -> RibbonGraph:
    """The medial graph itself as a ribbon graph, for inspection.

    Medial vertices become vertices named ``m_<edge>`` with the four corner
    edges (named ``c<i>``) in port order; every sign is +1.  A free loop has
    no crossing on it, so it degenerates to an isolated vertex here.
    """
    end_of: dict[HalfEdgeSegment, EdgeEnd] = {}
    for c in m.corner_edges:
        end_of[c.ports[0]] = EdgeEnd(f"c{c.index}", 1)
        end_of[c.ports[1]] = EdgeEnd(f"c{c.index}", 2)
    vertices = [
        Vertex(f"m_{mv.edge}", tuple(end_of[p] for p in mv.ports)) for mv in m.vertices
    ]
    for name in m.free_loops:
        vertices.append(Vertex(f"free_{name}"))
    edges = tuple(Edge(f"c{c.index}", 1) for c in m.corner_edges)
    return RibbonGraph(tuple(vertices), edges)


def medial_to_dot(
    m: MedialGraph,
    direction: AllCrossingDirection | None = None,
    cls: CDClassification | None = None,
) -> str:
    """Graphviz DOT output; directed when a direction is given, with c/d
    labels when a classification is given."""
    lines = []
    name = "digraph" if direction is not None else "graph"
    lines.append(f"{name} medial {{")
    for mv in m.vertices:
        label = mv.edge if cls is None else f"{mv.edge} ({cls[mv.edge]})"
        lines.append(f'  "{mv.edge}" [label="{label}"];')
    for i, free in enumerate(m.free_loops):
        lines.append(f'  "free{i}" [label="free loop at {free}", shape=circle];')
    arrow = "->" if direction is not None else "--"
    for c in m.corner_edges:
        if direction is not None:
            tail, head = direction.directions[c.index]
            a, b = tail.end.edge, head.end.edge
            extra = f' [label="{c.host_vertex}", taillabel="{tail}", headlabel="{head}"]'
        else:
            a, b = c.ports[0].end.edge, c.ports[1].end.edge
            extra = f' [label="{c.host_vertex}"]'
        lines.append(f'  "{a}" {arrow} "{b}"{extra};')
    lines.append("}")
    return "\n".join(lines) + "\n"
