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

from typing import NamedTuple

from .core import (
    EdgeEnd,
    HalfEdgeSegment,
    RibbonGraph,
    Edge,
    NotOrientableError,
    RibbonGraphError,
    Vertex,
    _orbits,
    _positions,
    oriented_form,
)


class UnsupportedHostError(RibbonGraphError):
    """Raised when a medial graph is requested for a non-orientable host."""


class InvalidDirectionError(RibbonGraphError):
    """A supplied edge direction is not all-crossing."""


class InternalInvariantError(RibbonGraphError):
    """An invariant the algorithms guarantee failed; signals a bug, never valid input."""


EDGE_LINE = "edge-line"
COMMON_LINE = "common-line"


class MedialVertex(NamedTuple):
    """The crossing placed on one host edge, with its four tagged ports."""

    edge: str
    ports: tuple[HalfEdgeSegment, HalfEdgeSegment, HalfEdgeSegment, HalfEdgeSegment]


class CornerEdge(NamedTuple):
    """A medial edge alongside one vertex line segment of the host."""

    index: int
    host_vertex: str
    ports: tuple[HalfEdgeSegment, HalfEdgeSegment]


class MedialGraph(NamedTuple):
    host: RibbonGraph
    flipped: tuple[str, ...]
    vertices: tuple[MedialVertex, ...]
    corner_edges: tuple[CornerEdge, ...]
    free_loops: tuple[str, ...]


def build_medial(h: RibbonGraph) -> MedialGraph:
    """Construct the medial graph of an orientable host.

    The host is first normalised by vertex flips so every sign is +1 (the
    chosen global orientation); a non-orientable host raises
    :class:`UnsupportedHostError`.
    """
    try:
        host, flipped = oriented_form(h)
    except NotOrientableError as exc:
        raise UnsupportedHostError(str(exc)) from None

    fl = host._flags
    segs = host._segments
    at = _positions(fl.ends)  # edge j's ends 1 and 2 are at at[2j] and at[2j + 1]
    vertices = tuple(
        MedialVertex(name, (segs[2 * p], segs[2 * q + 1], segs[2 * q], segs[2 * p + 1]))
        for name, p, q in zip(host.edge_names, at[::2], at[1::2])
    )
    spans = list(zip(host.vertex_names, fl.bounds, fl.bounds[1:]))
    names = [name for name, a, b in spans for _ in range(a, b)]
    corners = tuple(
        CornerEdge(i, name, (segs[2 * i + 1], segs[fl.corner[2 * i + 1]])) for i, name in enumerate(names)
    )
    free = tuple(name for name, a, b in spans if a == b)
    return MedialGraph(host, flipped, vertices, corners, free)


# ---------------------------------------------------------------------------
# Straight-ahead walks, all-crossing directions and the c/d rule
# ---------------------------------------------------------------------------
#
# The ports are the host's flags: edge ``i``'s ports ``(end1,L), (end2,R),
# (end2,L), (end1,R)`` are the flags ``2p, 2q + 1, 2q, 2p + 1`` for its
# end-1 and end-2 positions ``p`` and ``q``, and corner edge ``i`` joins flag
# ``2i + 1`` to ``corner[2i + 1]``.  A direction is a head bit per flag.

class AllCrossingDirection(NamedTuple):
    """A direction per corner edge, as (tail port, head port), plus the
    straight-ahead walks (corner-edge index sequences) that produced it."""

    directions: tuple[tuple[HalfEdgeSegment, HalfEdgeSegment], ...]
    walks: tuple[tuple[int, ...], ...]


CDClassification = dict[str, str]


def _straight_ahead(host: RibbonGraph, seed: int) -> tuple[list[list[int]], CDClassification]:
    """The straight-ahead walks of an oriented host, as tail flags, and the
    c/d classification of the direction they induce.

    Straight ahead (other end, same side letter) is flag ``2 (side[f] >> 1)
    + letter``, so the walks are the orbits of <corner, ahead> from tail
    flags; ``seed`` picks which flag of each corner edge a walk may start
    from.  A corner edge walked both ways, or heads that are not
    all-crossing, raise :class:`InternalInvariantError`.
    """
    ends, corner, side, _, _ = host._flags
    ahead = [2 * (side[f] >> 1) | f & 1 for f in range(len(corner))]
    tails = [2 * i + 1 if seed == 0 else corner[2 * i + 1] for i in range(len(ends))]
    head = bytearray(len(corner))
    walks = _orbits(ahead, corner, tails)
    for walk in walks:
        for t in walk:
            if head[t]:
                raise InternalInvariantError(
                    f"straight-ahead walk traverses corner edge {_corner_index(corner, t)} both ways"
                )
            head[corner[t]] = 1
    cls, bad = _classify(host, head)
    if bad:
        raise InternalInvariantError(
            f"straight-ahead direction is not all-crossing at {sorted(bad)}"
        )
    return walks, cls


def _corner_index(corner: list[int], f: int) -> int:
    return f >> 1 if f & 1 else corner[f] >> 1


def _classify(host: RibbonGraph, head) -> tuple[CDClassification, list[str]]:
    """The c/d label of every edge under the head bits ``head``, in edge
    order, and the edges whose ports do not read head, head, tail, tail.

    The side smoothing pairs ports 0+1 and 2+3, the end smoothing 0+3 and
    1+2; an edge is ``c`` when each side strand joins a head to a tail and
    ``d`` when each end strand does.  Of the 16 head patterns, exactly one
    smoothing is consistent on precisely the four all-crossing ones, so
    one test checks both invariants.
    """
    cls: CDClassification = {}
    bad = []
    at = _positions(host._flags.ends)  # edge j's ends 1 and 2 are at at[2j] and at[2j + 1]
    for name, p, q in zip(host.edge_names, at[::2], at[1::2]):
        h0, h1, h2, h3 = head[2 * p], head[2 * q + 1], head[2 * q], head[2 * p + 1]
        side_ok = h0 != h1 and h2 != h3
        if side_ok == (h0 != h3 and h1 != h2):
            bad.append(name)
        cls[name] = "c" if side_ok else "d"
    return cls, bad


def _heads(m: MedialGraph, direction: AllCrossingDirection) -> tuple[list[HalfEdgeSegment], list[int | None], bytearray]:
    """The host's flags as ports, each corner edge's head as a flag (None
    for a port of another host) and the heads as flag bits."""
    segs = m.host._segments
    flag_of = {seg: f for f, seg in enumerate(segs)}
    heads = [flag_of.get(port) for _, port in direction.directions]
    bits = bytearray(len(segs))
    for f in heads:
        if f is not None:
            bits[f] = 1
    return segs, heads, bits


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
    fl = m.host._flags
    walks, _ = _straight_ahead(m.host, seed)
    corner, segs = fl.corner, m.host._segments
    directions: list = [None] * len(fl.ends)
    for walk in walks:
        for t in walk:
            directions[_corner_index(corner, t)] = (segs[t], segs[corner[t]])
    return AllCrossingDirection(
        tuple(directions),
        tuple(tuple(_corner_index(corner, t) for t in walk) for walk in walks),
    )


def is_all_crossing(m: MedialGraph, direction: AllCrossingDirection) -> bool:
    """True when the arrowheads read head, head, tail, tail at every crossing."""
    return not _classify(m.host, _heads(m, direction)[2])[1]


def classify_cd(m: MedialGraph, direction: AllCrossingDirection) -> CDClassification:
    """Label every host edge ``c`` or ``d`` by which smoothing is
    flow-consistent (each smoothed strand one head and one tail).

    Exactly one of the two is consistent under an all-crossing direction;
    a direction that is not all-crossing raises
    :class:`InvalidDirectionError`.
    """
    cls, bad = _classify(m.host, _heads(m, direction)[2])
    if bad:
        raise InvalidDirectionError("direction is not all-crossing")
    return cls


def d_edges(cls: CDClassification) -> tuple[str, ...]:
    return tuple(sorted(e for e, kind in cls.items() if kind == "d"))


class CurveSegment(NamedTuple):
    """One smoothed strand on a curve: a ribbon side of a c-edge or an
    attachment arc of a d-edge, traversed entry -> exit.  The sign is +1
    when the traversal runs from the L port to the R port, the direction
    agreeing with the host orientation."""

    edge: str
    kind: str
    entry: HalfEdgeSegment
    exit: HalfEdgeSegment
    sign: int


class SmoothedCurve(NamedTuple):
    segments: tuple[CurveSegment, ...]
    corner_path: tuple[int, ...]
    free_vertex: str | None = None


def smooth(
    m: MedialGraph,
    direction: AllCrossingDirection,
    cls: CDClassification,
) -> tuple[SmoothedCurve, ...]:
    """Apply the chosen smoothing at every crossing and trace the directed
    closed curves.  Free loops come last, one per isolated host vertex.

    On the oriented host the side smoothing pairs each flag with ``side``
    and the end smoothing with ``end``, so the curves are the orbits of
    <corner, pair>, started from each corner edge's head in index order.
    """
    for mv in m.vertices:
        if mv.edge not in cls:
            raise InvalidDirectionError(f"classification missing edge {mv.edge!r}")
    ends, corner, side, _, _ = m.host._flags
    names = m.host.edge_names
    c_edge = [cls[names[x >> 1]] == "c" for x in ends]
    pair = [s if c_edge[f >> 1] else f ^ 1 for f, s in enumerate(side)]
    segs, heads, head = _heads(m, direction)
    curves: list[SmoothedCurve] = []
    for orbit in _orbits(corner, pair, heads):
        for f in orbit:
            if head[pair[f]]:
                raise InternalInvariantError(
                    f"smoothed strand at {segs[pair[f]]} does not continue with the flow"
                )
        strands = tuple(
            CurveSegment(
                names[ends[f >> 1] >> 1],
                EDGE_LINE if c_edge[f >> 1] else COMMON_LINE,
                segs[f],
                segs[pair[f]],
                -1 if f & 1 else 1,
            )
            for f in orbit
        )
        curves.append(SmoothedCurve(strands, tuple(_corner_index(corner, f) for f in orbit)))
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
    end_of = {port: EdgeEnd(f"c{c.index}", k) for c in m.corner_edges for k, port in enumerate(c.ports, 1)}
    vertices = [Vertex(f"m_{mv.edge}", [end_of[p] for p in mv.ports]) for mv in m.vertices]
    vertices += [Vertex(f"free_{name}") for name in m.free_loops]
    return RibbonGraph(vertices, [Edge(f"c{c.index}") for c in m.corner_edges])


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
