"""Signed rotation systems: the canonical in-memory form of a ribbon graph.

A ribbon graph is stored as a cyclic order of edge-ends around each vertex
plus a twist sign per edge (+1 untwisted, -1 half-twisted).  This module
holds the data model, structural validation, the flag structure and its
orbit walker, faces and their boundary view, orientability, vertex flips, the
arrow-presentation view and the plain-text file format.

Conventions used throughout (all derived ones are pinned by round-trip and
involution identities exercised in the test suite):

* Rotations are read counterclockwise.  The two half-edge segments at an
  edge-end are labelled by side: ``R`` faces the next edge-end in rotation
  order, ``L`` faces the previous one.
* Crossing an untwisted ribbon swaps the side letter; crossing a twisted
  ribbon keeps it.  (Letters are relative to each vertex's own rotation
  sense, and the two ends of a flat ribbon see opposite senses.)
* Arrow presentations mark an edge untwisted exactly when its two arrows
  point the same way relative to their circles.
* The half-edge segments are the flags (Lins' graph-encoded maps): flag
  ``2i`` is the ``L`` side of the i-th edge-end in vertex order, ``2i + 1``
  its ``R`` side.  The involution ``corner`` rounds a vertex line segment,
  ``side`` crosses a ribbon and ``end`` is ``f ^ 1``.  Faces are the orbits
  of <corner, side>, memoised per graph and read by every face reader;
  :func:`trace_boundary` is their view as segments.  Vertices are the
  orbits of <corner, end>, and the flags hold each vertex's bounds.
* Every graph is stored as flags, and every graph is valid: input is
  checked once, where it enters.  ``RibbonGraph(vertices, edges)`` raises
  :class:`InvalidGraphError` before it lays out any flags, and so do
  :func:`parse_graph` and :func:`from_arrow_presentation`.  Operator
  results are built from a valid input with :func:`_flag_layout` or
  :func:`_twist_flags`; so are the enumerated, sampled and canonical
  graphs, laid out from a list of darts, and no operator checks its input
  again.  A graph stores flags, vertex names and sorted edge names, and
  each sign only as its edge's twist bit.  The flags hold edge-end ``end``
  of the edge ranked ``j`` in the sorted names as the dart ``2j + end - 1``;
  ``EdgeEnd``, ``Vertex`` and ``Edge`` tuples are built only in views, such
  as ``vertices`` and ``edges``.  Equality and hash read names and flags.
* Value types (edge-ends, edges, vertices, violations, boundaries, arrow
  presentations, and the certificates and reports of the other modules)
  are named tuples: they compare, hash, iterate and index as tuples of
  their fields.  ``RibbonGraph`` is a plain class whose ``__setattr__`` and
  ``__delattr__`` refuse every name; its constructor and memos write its
  ``__dict__``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import accumulate
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

L = "L"
R = "R"


class RibbonGraphError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGraphError(RibbonGraphError):
    """A graph was built from a structurally broken rotation system; ``violations`` lists each break."""

    def __init__(self, violations: Sequence["Violation"]):
        self.violations = tuple(violations)
        lines = "; ".join(v.message for v in self.violations)
        super().__init__(f"invalid ribbon graph: {lines}")


class UnknownVertexError(RibbonGraphError):
    pass


class UnknownEdgeError(RibbonGraphError):
    pass


class MalformedPresentationError(RibbonGraphError):
    """An arrow presentation that does not carry every label exactly twice."""


class NotOrientableError(RibbonGraphError):
    """An orientable graph was required."""


class TextFormatError(RibbonGraphError):
    """Parse error in the graph text format, with position information."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class EdgeEnd(NamedTuple):
    """One of the two ends of an edge ribbon; ``end`` is 1 or 2.

    A named tuple, so the many dict and set lookups keyed on edge-ends hash
    and compare in C; its hash is ``hash((edge, end))``.
    """

    edge: str
    end: int

    def __str__(self) -> str:
        return f"{self.edge}.{self.end}"


class HalfEdgeSegment(NamedTuple):
    """One quarter of a ribbon boundary: an edge-end plus a side letter.

    There are exactly four per edge and two per edge-end.  These are the
    states walked by :func:`trace_boundary`.
    """

    end: EdgeEnd
    side: str

    def __str__(self) -> str:
        return f"{self.end}{self.side}"


class Edge(NamedTuple):
    """An edge ribbon's name and twist sign; a named tuple, like :class:`EdgeEnd`."""

    name: str
    sign: int = 1

    @property
    def ends(self) -> tuple[EdgeEnd, EdgeEnd]:
        return (EdgeEnd(self.name, 1), EdgeEnd(self.name, 2))


class _VertexFields(NamedTuple):
    name: str
    rotation: tuple[EdgeEnd, ...]


class Vertex(_VertexFields):
    """A vertex name and its rotation, stored as a tuple of edge-ends
    whatever iterable it is given as."""

    __slots__ = ()

    def __new__(cls, name: str, rotation: Iterable[EdgeEnd] = ()):
        return tuple.__new__(cls, (name, tuple(rotation)))


_edge_name = attrgetter("name")


class _memo:
    """A per-graph memo without ``functools.cached_property``'s lock: the
    first ``__get__`` stores the value in the instance ``__dict__``, which
    then shadows it.  Graphs are immutable and memos pure, so a race only
    computes a value twice, and a builder that holds a value may store it."""

    def __init__(self, fn, name=None):
        self.fn = fn
        self.name = name or fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class RibbonGraph:
    """An immutable ribbon graph; all operations return new graphs.

    Vertex order is meaningful (it drives serialization); edge names are
    stored sorted, so graphs that differ only in edge declaration order
    compare equal.  Every graph stores its flags, vertex names and edge
    names: the constructor checks the given vertices and edges, raising
    :class:`InvalidGraphError` with every violation, then lays out their
    flags (and keeps ``edges``); an operator result is built on its flags
    (see :func:`_from_flags`).  ``vertices`` and ``edges`` are views of
    the flags, built as ``Vertex`` and ``Edge`` tuples when first read.
    """

    def __init__(self, vertices: Iterable[Vertex] = (), edges: Iterable[Edge] = ()):
        vertices = tuple(vertices)
        edges = tuple(sorted(edges, key=_edge_name))
        names = tuple(map(_edge_name, edges))
        self.__dict__.update(edges=edges, vertex_names=tuple(v.name for v in vertices), edge_names=names)
        ends = [d for v in vertices for d in v.rotation]
        bounds = [0, *accumulate(len(v.rotation) for v in vertices)]
        require_valid(self.vertex_names, ends, bounds, edges)
        dart = {name: 2 * j - 1 for j, name in enumerate(names)}  # plus the end index
        darts = [dart[d.edge] + d.end for d in ends]
        self.__dict__["_flags"] = _flag_structure(darts, bounds, [e.sign < 0 for e in edges])

    @_memo
    def vertices(self) -> tuple[Vertex, ...]:
        ends, bounds = _end_view(self), self._flags.bounds
        return tuple(Vertex(name, ends[a:b]) for name, a, b in zip(self.vertex_names, bounds, bounds[1:]))

    @_memo
    def edges(self) -> tuple[Edge, ...]:
        # Each sign is read from its edge's link: twist bit 1 is sign -1.
        return tuple([Edge(name, 1 - 2 * t) for name, (_, _, t) in zip(self.edge_names, self._edge_links)])

    @_memo
    def _boundary(self) -> "BoundaryDecomposition":
        # Read only through trace_boundary.
        return _trace_boundary(self)

    @_memo
    def _segments(self) -> list["HalfEdgeSegment"]:
        # Flag f as a half-edge segment.
        return [HalfEdgeSegment(d, letter) for d in _end_view(self) for letter in (L, R)]

    @_memo
    def _faces(self) -> list[list[int]]:
        # The orbits of <corner, side>, then one empty orbit per isolated
        # vertex: the boundary components, in trace_boundary's order.
        fl = self._flags
        faces = _orbits(fl.corner, fl.side, range(len(fl.side)))
        faces.extend([] for a, b in zip(fl.bounds, fl.bounds[1:]) if a == b)
        return faces

    @_memo
    def _edge_links(self) -> list[tuple[int, int, int]]:
        # Each edge's vertex indices at ends 1 and 2 and its twist bit, in
        # stored edge order: the links of _parity_colouring.
        ends, _, _, side, _, bounds = self._flags
        vertex = [0] * len(ends)
        for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
            vertex[a:b] = [k] * (b - a)
        at = _positions(ends)
        return [(vertex[p], vertex[m], ~side[2 * p] & 1) for p, m in zip(at[::2], at[1::2])]

    def vertex(self, name: str) -> Vertex:
        if name not in self.vertex_names:
            raise UnknownVertexError(name)
        return self.vertices[self.vertex_names.index(name)]

    def edge(self, name: str) -> Edge:
        return self.edges[_edge_mask(self, [name]).index(1)]

    def signs(self) -> dict[str, int]:
        return {e.name: e.sign for e in self.edges}

    def vertex_of(self, end: EdgeEnd) -> str:
        for v in self.vertices:
            if end in v.rotation:
                return v.name
        raise UnknownEdgeError(str(end))

    def is_loop(self, edge: str) -> bool:
        u, w, _ = self._edge_links[_edge_mask(self, [edge]).index(1)]
        return u == w

    def __str__(self) -> str:
        return graph_to_text(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Darts name no edge: equal edge names and darts fix every edge-end, and equal sides the twists.
        f, h = self._flags, other._flags
        return (self.vertex_names, self.edge_names, f.ends, f.bounds, f.side) == (
            other.vertex_names, other.edge_names, h.ends, h.bounds, h.side
        )

    def __hash__(self) -> int:
        fl = self._flags
        return hash((self.vertex_names, self.edge_names, tuple(fl.ends), tuple(fl.bounds), tuple(fl.side)))

    def __repr__(self) -> str:
        return f"RibbonGraph(vertices={self.vertices!r}, edges={self.edges!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a RibbonGraph is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a RibbonGraph is immutable")


def _from_flags(fl: "_Flags", vertex_names: tuple[str, ...], edge_names: tuple[str, ...]) -> RibbonGraph:
    """The graph with flags ``fl``, which hold every sign, built by an
    operator from a valid graph or laid out from checked or library-made
    darts: valid by construction, so it is not checked again, and
    ``edge_names`` are already sorted.  The one way in that skips the constructor."""
    g = object.__new__(RibbonGraph)
    g.__dict__.update(_flags=fl, vertex_names=vertex_names, edge_names=edge_names)
    return g


def _edge_mask(g: RibbonGraph, edges: Iterable[str]) -> list[int]:
    """The named edges as a mask over their ranks, found by bisecting the sorted names;
    raises UnknownEdgeError with the least unknown name, or the first if not all are strings."""
    names, todo = g.edge_names, iter(edges)
    mask = [0] * len(names)
    for name in todo:
        j = bisect_left(names, name) if isinstance(name, str) else len(names)
        if j == len(names) or names[j] != name:
            unknown = [n for n in (name, *todo) if n not in names]
            raise UnknownEdgeError(min(unknown) if all(isinstance(n, str) for n in unknown) else name)
        mask[j] = 1
    return mask


def _end_view(g: RibbonGraph) -> tuple[EdgeEnd, ...]:
    """The edge-end at each flag position, from one ``EdgeEnd`` per dart."""
    end_of = [EdgeEnd(name, k) for name in g.edge_names for k in (1, 2)]
    return tuple(map(end_of.__getitem__, g._flags.ends))


def ribbon_graph(
    rotations: Mapping[str, Iterable[EdgeEnd | str]],
    signs: Mapping[str, int] | None = None,
) -> RibbonGraph:
    """Build a graph from ``{vertex: [edge ends]}`` plus a sign per edge.

    Edge ends may be given as ``EdgeEnd`` or as strings like ``"a.1"``.
    Edges missing from ``signs`` default to +1; edge order follows first
    appearance in the rotations, then the ``signs`` mapping.
    """
    signs = signs or {}
    vertices = [
        Vertex(name, [EdgeEnd(*_parse_end(d)) if isinstance(d, str) else d for d in rot])
        for name, rot in rotations.items()
    ]
    seen = dict.fromkeys([d.edge for v in vertices for d in v.rotation] + list(signs))
    return RibbonGraph(vertices, [Edge(name, signs.get(name, 1)) for name in seen])


def _parse_end(token: str) -> tuple[str, int]:
    """The edge name and end index of an edge-end token like ``"a.1"``."""
    name, _, endpart = token.rpartition(".")
    if not name or endpart not in ("1", "2"):
        raise ValueError(f"bad edge-end token {token!r}, expected '<edge>.1' or '<edge>.2'")
    return name, int(endpart)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

class Violation(NamedTuple):
    kind: str
    message: str
    #: The offending edge-end, for the violations that concern one.
    end: EdgeEnd | None = None


def validate(vertex_names: Sequence[str], ends: Sequence[EdgeEnd], bounds: Sequence[int], edges: Sequence[Edge]):
    """Every structural violation of the graph with these vertex names,
    edge-ends listed vertex by vertex (vertex k holds positions ``bounds[k]``
    up to ``bounds[k + 1]``) and edges in name order; none means valid."""
    out: list[Violation] = []
    if len(set(vertex_names)) != len(vertex_names):
        out.append(Violation("duplicate-vertex", "duplicate vertex name"))
    enames = [e.name for e in edges]
    if len(set(enames)) != len(enames):
        out.append(Violation("duplicate-edge", "duplicate edge name"))
    known = set(enames)
    for e in edges:
        if e.sign not in (1, -1):
            out.append(Violation("bad-sign", f"edge {e.name} has sign {e.sign!r}, expected +1 or -1"))

    placed: dict[EdgeEnd, int] = {}
    for vname, a, b in zip(vertex_names, bounds, bounds[1:]):
        for d in ends[a:b]:
            if d.end not in (1, 2):
                out.append(Violation("bad-end-index", f"edge-end {d} at vertex {vname} has end index {d.end}", d))
                continue
            if d.edge not in known:
                out.append(Violation("unknown-edge-end", f"edge-end {d} at vertex {vname} names no declared edge", d))
                continue
            placed[d] = placed.get(d, 0) + 1
            if placed[d] == 2:
                out.append(Violation("duplicate-edge-end", f"edge-end {d} appears more than once", d))
    # ``placed`` holds only ends of declared edges, so it is full exactly
    # when every end is placed.
    if len(placed) < 2 * len(known):
        for e in edges:
            for d in e.ends:
                if d not in placed:
                    out.append(Violation("unplaced-edge-end", f"edge-end {d} appears in no vertex rotation", d))
    return out


def require_valid(vertex_names: Sequence[str], ends: Sequence[EdgeEnd], bounds: Sequence[int], edges: Sequence[Edge]):
    """Raise :class:`InvalidGraphError` with :func:`validate`'s violations,
    if any: the check made where a graph is built from outside input."""
    violations = validate(vertex_names, ends, bounds, edges)
    if violations:
        raise InvalidGraphError(violations)


# ---------------------------------------------------------------------------
# Flags and their orbits
# ---------------------------------------------------------------------------

class _Flags(NamedTuple):
    """The flag structure of a valid graph, shared and never mutated:
    ``ends[i]`` is the dart of the i-th edge-end in vertex order,
    ``mate[i]`` its partner's position, ``forward[i]`` its arrow's
    direction in :func:`to_arrow_presentation`, and vertex k holds
    positions ``bounds[k]`` up to ``bounds[k + 1]``.  Dart ``x`` is end
    ``1 + (x & 1)`` of the edge ranked ``x >> 1`` in the graph's sorted
    edge names, which sort as strings (``e10`` before ``e2``)."""

    ends: list[int]
    mate: list[int]
    corner: list[int]
    side: list[int]
    forward: list[bool]
    bounds: list[int]


def _flag_structure(ends: list[int], bounds: list[int], twisted: Sequence[bool]) -> _Flags:
    """The flags of the valid darts ``ends`` listed vertex by vertex, each
    paired with its edge's other end, edge ``j`` twisted iff ``twisted[j]``."""
    at = _positions(ends)
    return _flag_layout(ends, [at[x ^ 1] for x in ends], [twisted[x >> 1] for x in ends], bounds)


def _positions(perm: Sequence[int]) -> list[int]:
    """The inverse of a permutation of ``range(n)``, such as each dart's position."""
    at = [0] * len(perm)
    for i, x in enumerate(perm):
        at[x] = i
    return at


def _flag_layout(ends: list[int], mate: list[int], twisted: list[bool], bounds: list[int]) -> _Flags:
    """The flags of darts listed vertex by vertex (vertex k holds
    positions ``bounds[k]`` up to ``bounds[k + 1]``), from each end's
    partner position and its edge's twist: the one layout of ``corner``,
    ``side`` and ``forward``, for derived and operator-built flags alike."""
    n = len(ends)
    # R of end i faces L of end i + 1, except that the last end of a
    # vertex faces its first.
    corner = list(range(-1, 2 * n - 1))
    corner[1::2] = range(2, 2 * n + 1, 2)
    for base, stop in zip(bounds, bounds[1:]):
        if stop > base:
            corner[2 * base], corner[2 * stop - 1] = 2 * stop - 1, 2 * base
    side = [0] * (2 * n)
    forward = [False] * n
    for i, m in enumerate(mate):
        t = twisted[i]
        side[2 * i], side[2 * i + 1] = 2 * m + 1 - t, 2 * m + t
        forward[i] = (t or i < m) == (not ends[i] & 1)
    return _Flags(ends, mate, corner, side, forward, bounds)


def _twist_flags(fl: _Flags, chosen: Sequence[int]) -> _Flags:
    """The flags after toggling the sign of each edge ``j`` with
    ``chosen[j]`` set, as :func:`_flag_layout` lays them out."""
    ends, mate, corner, side, forward, bounds = fl
    side, forward = side[:], forward[:]
    for i, x in enumerate(ends):
        if chosen[x >> 1]:
            side[2 * i], side[2 * i + 1] = side[2 * i + 1], side[2 * i]
            # An edge's lower end points forward iff it is end 1, whatever its sign.
            forward[i] ^= i > mate[i]
    return _Flags(ends, mate, corner, side, forward, bounds)


def _orbits(step: Sequence[int], across: Sequence[int], starts: Iterable[int]) -> list[list[int]]:
    """The orbits of two involutions on flags, walked alternately; with
    ``across`` the identity, the cycles of any permutation ``step``.

    From each start not yet met, the walk applies ``across`` and then
    ``step`` until it is back at the start; an orbit is the list of flags
    ``across`` was applied to, and both flags of every such pair count as
    met.
    """
    seen = bytearray(len(across))
    out = []
    for f0 in starts:
        if seen[f0]:
            continue
        orbit = []
        f = f0
        while True:
            orbit.append(f)
            h = across[f]
            seen[f] = seen[h] = 1
            f = step[h]
            if f == f0:
                break
        out.append(orbit)
    return out


def _orbit_ids(orbits: list[list[int]], across: Sequence[int]) -> list[int]:
    """The index of the orbit each flag lies on, for orbits from :func:`_orbits`."""
    ids = [0] * len(across)
    for k, orbit in enumerate(orbits):
        for f in orbit:
            ids[f] = ids[across[f]] = k
    return ids


# ---------------------------------------------------------------------------
# Boundary tracing
# ---------------------------------------------------------------------------

class BoundaryComponent(NamedTuple):
    """One closed boundary walk, as a cyclic sequence of half-edge segments.

    Consecutive segments at even positions (0-1, 2-3, ...) lie on the two
    halves of one ribbon side; odd-to-even steps walk past one vertex line
    segment.  An isolated vertex yields a component with no segments.
    """

    segments: tuple[HalfEdgeSegment, ...]
    isolated_vertex: str | None = None

    @property
    def face_degree(self) -> int:
        return len(self.segments) // 2


class BoundaryDecomposition(NamedTuple):
    components: tuple[BoundaryComponent, ...]

    @property
    def count(self) -> int:
        return len(self.components)

    def face_degrees(self) -> list[int]:
        return [c.face_degree for c in self.components]


def trace_boundary(g: RibbonGraph) -> BoundaryDecomposition:
    """Partition all half-edge segments into boundary components.

    A view of the faces, the orbits of <corner, side> started in flag
    order: the walk alternates crossing a ribbon (the side letter swaps iff
    the edge is untwisted) with rounding one vertex line segment (``R`` to
    the next end's ``L``, ``L`` to the previous end's ``R``).  Isolated
    vertices give one empty component each, after the rest.  Each graph
    builds the view at most once.
    """
    return g._boundary


def _trace_boundary(g: RibbonGraph) -> BoundaryDecomposition:
    # Each step gives the segment it starts from and the one across the
    # ribbon; an empty orbit is the next isolated vertex.
    segs, side, bounds = g._segments, g._flags.side, g._flags.bounds
    isolated = (name for name, a, b in zip(g.vertex_names, bounds, bounds[1:]) if a == b)
    return BoundaryDecomposition(tuple(
        BoundaryComponent(tuple(seg for f in orbit for seg in (segs[f], segs[side[f]])))
        if orbit else BoundaryComponent((), isolated_vertex=next(isolated))
        for orbit in g._faces
    ))


# ---------------------------------------------------------------------------
# Connectivity, Euler characteristic, orientability
# ---------------------------------------------------------------------------

def _parity_colouring(n: int, links: Sequence[tuple[int, int, int]]) -> tuple[list[int], list[int]]:
    """Bits for nodes ``0..n-1`` asked to satisfy ``bit[u] ^ bit[w] == p``
    for every link ``(u, w, p)``, and the indices of the links they violate.

    This is balance of a signed graph: it holds exactly when no link is
    violated.  Each piece is searched breadth-first from its lowest node,
    which gets bit 0, following links in the order given; the links that
    discover nodes form a spanning forest and are never violated.  A loop
    ``(u, u, 1)`` is always violated.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, w, p in links:
        if u != w:
            adj[u].append((w, p))
            adj[w].append((u, p))
    bit = [-1] * n
    for start in range(n):
        if bit[start] >= 0:
            continue
        bit[start] = 0
        queue = [start]
        for cur in queue:
            b = bit[cur]
            for other, p in adj[cur]:
                if bit[other] < 0:
                    bit[other] = b ^ p
                    queue.append(other)
    return bit, [i for i, (u, w, p) in enumerate(links) if bit[u] ^ bit[w] != p]


def _root(parent: list[int], c: int) -> int:
    """The root of c's union-find class, halving the path to it."""
    while parent[c] != c:
        parent[c] = c = parent[parent[c]]
    return c


def connected_components(g: RibbonGraph) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Connected pieces of the underlying multigraph as (vertices, edges), in stored vertex order."""
    parent = list(range(len(g.vertex_names)))
    links = g._edge_links
    for u, w, _ in links:
        parent[_root(parent, u)] = _root(parent, w)

    # Keys are inserted in the order of each piece's first vertex.
    groups: dict[int, list[str]] = {}
    for i, name in enumerate(g.vertex_names):
        groups.setdefault(_root(parent, i), []).append(name)
    edges_of: dict[int, list[str]] = {root: [] for root in groups}
    for name, (u, _, _) in zip(g.edge_names, links):
        edges_of[_root(parent, u)].append(name)
    return [(tuple(vs), tuple(edges_of[root])) for root, vs in groups.items()]


def euler_characteristic_by_component(g: RibbonGraph) -> list[int]:
    """V - E + F for each connected piece (an isolated vertex counts 1 - 0 + 1 = 2)."""
    pieces = connected_components(g)
    # A face lies in the piece of any edge on it; an empty face is the next
    # piece without edges, an isolated vertex.
    piece_of = {name: i for i, (_, es) in enumerate(pieces) for name in es}
    isolated = (i for i, (_, es) in enumerate(pieces) if not es)
    faces = [0] * len(pieces)
    ends, names = g._flags.ends, g.edge_names
    for orbit in g._faces:
        faces[piece_of[names[ends[orbit[0] >> 1] >> 1]] if orbit else next(isolated)] += 1
    return [len(vs) - len(es) + faces[i] for i, (vs, es) in enumerate(pieces)]


def euler_characteristic(g: RibbonGraph) -> int:
    return sum(euler_characteristic_by_component(g))


def _orientation_parity(g: RibbonGraph) -> tuple[list[int], list[int]]:
    """Flip bits per vertex and the indices of the edges they leave
    twisted: one link per edge, odd exactly when it is twisted."""
    return _parity_colouring(len(g.vertex_names), g._edge_links)


def orientation_flips(g: RibbonGraph) -> set[str] | None:
    """A vertex set whose flips make every sign +1, or None if none exists.

    Twisted loops can never be repaired by flips, and a cycle with an odd
    number of twisted edges forces a parity conflict; either situation means
    the underlying surface is non-orientable.
    """
    bit, bad = _orientation_parity(g)
    if bad:
        return None
    return {name for name, b in zip(g.vertex_names, bit) if b}


def is_orientable(g: RibbonGraph) -> bool:
    return orientation_flips(g) is not None


def flip_vertex(g: RibbonGraph, vertex: str) -> RibbonGraph:
    """Reverse the rotation at one vertex; the result is the same surface.

    Edges with exactly one end at the vertex change sign; loops at it keep
    theirs.  Flipping twice restores the original graph exactly.
    """
    if vertex not in g.vertex_names:
        raise UnknownVertexError(vertex)
    return _flip_vertices(g, {vertex})


def _flip_vertices(g: RibbonGraph, flipped: set[str]) -> RibbonGraph:
    """Flip every vertex in ``flipped`` at once: the same graph as flipping
    them one after another, since an edge with both ends in the set changes
    sign twice.  Each flipped vertex's ends are laid out reversed, and an
    edge changes sign exactly when one of its ends is flipped."""
    ends, mate, corner, side, _, bounds = g._flags
    at = list(range(len(ends)))  # the input position at each result position, and back
    rev = bytearray(len(ends))  # 1 at the positions of flipped vertices
    for name, a, b in zip(g.vertex_names, bounds, bounds[1:]):
        if name in flipped:
            at[a:b] = range(b - 1, a - 1, -1)
            rev[a:b] = b"\1" * (b - a)
    twisted = [(not side[2 * p] & 1) != (rev[p] != rev[mate[p]]) for p in at]
    # ``corner`` depends on the bounds alone, so the input's is shared.
    fl = _flag_layout([ends[p] for p in at], [at[mate[p]] for p in at], twisted, bounds)._replace(corner=corner)
    return _from_flags(fl, g.vertex_names, g.edge_names)


def oriented_form(g: RibbonGraph) -> tuple[RibbonGraph, tuple[str, ...]]:
    """Flip vertices until all signs are +1; fails on non-orientable graphs."""
    flips = orientation_flips(g)
    if flips is None:
        raise NotOrientableError("graph is not orientable")
    flipped = tuple(name for name in g.vertex_names if name in flips)
    return (_flip_vertices(g, flips) if flipped else g), flipped


# ---------------------------------------------------------------------------
# Arrow presentations
# ---------------------------------------------------------------------------

class Arrow(NamedTuple):
    """A labelled arrow on a circle; ``forward`` is relative to the circle's sense."""

    label: str
    forward: bool


class Circle(NamedTuple):
    name: str
    arrows: tuple[Arrow, ...] = ()


class ArrowPresentation(NamedTuple):
    circles: tuple[Circle, ...] = ()


def to_arrow_presentation(g: RibbonGraph) -> ArrowPresentation:
    """One circle per vertex, arrows in rotation order.

    An untwisted edge gets two arrows pointing the same way relative to
    their circles, a twisted edge two arrows pointing opposite ways.  The
    remaining freedom (flipping both arrows of an untwisted edge) is spent
    encoding which arrow is end 1, so the round trip through
    :func:`from_arrow_presentation` reproduces the graph exactly.
    """
    fl, names = g._flags, g.edge_names
    arrows = [Arrow(names[x >> 1], f) for x, f in zip(fl.ends, fl.forward)]
    return ArrowPresentation(tuple(
        Circle(name, tuple(arrows[a:b])) for name, a, b in zip(g.vertex_names, fl.bounds, fl.bounds[1:])
    ))


def from_arrow_presentation(p: ArrowPresentation) -> RibbonGraph:
    """Rebuild the rotation system: circle -> vertex, arrow pair -> edge.

    Raises :class:`MalformedPresentationError` unless every label appears on
    exactly two arrows.  Matching arrow directions mean an untwisted edge,
    opposite directions a twisted one; end numbers are recovered from the
    convention used by :func:`to_arrow_presentation`.
    """
    arrows = [a for c in p.circles for a in c.arrows]
    positions: dict[str, list[int]] = {}
    for i, a in enumerate(arrows):
        positions.setdefault(a.label, []).append(i)
    for label, occ in positions.items():
        if len(occ) != 2:
            raise MalformedPresentationError(
                f"label {label!r} appears on {len(occ)} arrows, expected exactly 2"
            )

    # The flags, signs included, are laid out from the arrows; only the
    # circle names can still fail the check, so it is given no ends.
    n = len(arrows)
    ends, mate, twisted = [0] * n, [0] * n, [False] * n
    edge_names = tuple(sorted(positions))
    for j, label in enumerate(edge_names):
        i, k = positions[label]
        twisted[i] = twisted[k] = arrows[i].forward != arrows[k].forward
        one, two = (i, k) if arrows[i].forward else (k, i)
        ends[one], ends[two] = 2 * j, 2 * j + 1
        mate[i], mate[k] = k, i
    names = tuple(c.name for c in p.circles)
    require_valid(names, [], [0], [])
    bounds = [0, *accumulate(len(c.arrows) for c in p.circles)]
    return _from_flags(_flag_layout(ends, mate, twisted, bounds), names, edge_names)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def graph_to_text(g: RibbonGraph) -> str:
    """Serialize in the plain-text format; inverse of :func:`parse_graph`.
    Rotations are written from the names and darts, so no ``Vertex`` is built."""
    token = [f" {name}.{k}" for name in g.edge_names for k in (1, 2)]
    ends, bounds = [token[x] for x in g._flags.ends], g._flags.bounds
    lines = [f"vertex {name}:" + "".join(ends[a:b]) for name, a, b in zip(g.vertex_names, bounds, bounds[1:])]
    lines.extend(f"edge {e.name}: {'+' if e.sign > 0 else '-'}" for e in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> RibbonGraph:
    """Parse the text format::

        # comment
        vertex u: a.1 b.1 a.2 b.2
        edge a: +
        edge b: -

    Rotation order is as written (counterclockwise); errors carry the line
    and column of the first offending token.  Only invalid text is validated.
    """
    vertex_names: dict[str, None] = {}
    # Each edge name gets a provisional id when first used, and each token the
    # dart 2 * id + end - 1; ids become ranks once every name is read.
    edge_ids: dict[str, int] = {}
    darts: list[int] = []
    bounds = [0]
    signs: dict[str, int] = {}
    # (line number, text, offset of the rotation) of each vertex line
    vertex_lines: list[tuple[int, str, int]] = []
    # edge name -> (line, column) of its declaration
    declared_at: dict[str, tuple[int, int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].rstrip()
        if not line:
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        head, _, rest = stripped.partition(":")
        if not _:
            raise TextFormatError(lineno, indent + 1, "expected ':' after declaration head")
        parts = head.split()
        if len(parts) != 2 or parts[0] not in ("vertex", "edge"):
            raise TextFormatError(lineno, indent + 1, "expected 'vertex <name>:' or 'edge <name>:'")
        kind, name = parts
        if not _NAME.fullmatch(name):
            raise TextFormatError(lineno, line.index(name) + 1, f"bad name {name!r}")
        if kind == "vertex":
            if name in vertex_names:
                raise TextFormatError(lineno, indent + 1, f"vertex {name!r} declared twice")
            vertex_names[name] = None
            for k, token in enumerate(rest.split()):
                try:
                    edge, end = _parse_end(token)
                except ValueError as exc:
                    col = list(_token_columns(line, len(line) - len(rest)))[k]
                    raise TextFormatError(lineno, col, str(exc)) from None
                darts.append(2 * edge_ids.setdefault(edge, len(edge_ids)) + end - 1)
            bounds.append(len(darts))
            vertex_lines.append((lineno, line, len(line) - len(rest)))
        else:
            if name in declared_at:
                raise TextFormatError(lineno, indent + 1, f"edge {name!r} declared twice")
            declared_at[name] = (lineno, indent + 1)
            sig = rest.strip()
            if sig not in ("+", "-"):
                raise TextFormatError(lineno, len(line) - len(rest) + 1, f"edge sign must be '+' or '-', got {sig!r}")
            signs[name] = 1 if sig == "+" else -1

    edge_names = tuple(sorted(signs))
    # Names, signs and end indices are checked: valid means each declared edge's two ends, once each.
    if len(set(darts)) == len(darts) == 2 * len(signs) and signs.keys() >= edge_ids.keys():
        rank = {name: j for j, name in enumerate(edge_names)}
        dart = [2 * rank[name] for name in edge_ids]  # end 1's dart, by provisional id
        del vertex_lines, declared_at, edge_ids, rank  # for errors and ids only: freed before the layout peaks
        darts = [dart[x >> 1] | x & 1 for x in darts]
        twisted = [signs[name] < 0 for name in edge_names]
        return _from_flags(_flag_structure(darts, bounds, twisted), tuple(vertex_names), edge_names)
    used = list(edge_ids)
    ends = [EdgeEnd(used[x >> 1], 1 + (x & 1)) for x in darts]
    violations = validate(tuple(vertex_names), ends, bounds, [Edge(name, signs[name]) for name in edge_names])
    # Positions are found only now: edge-end -> (line, column) of each token.
    end_at: dict[EdgeEnd, list[tuple[int, int]]] = {}
    for (lineno, line, start), a, b in zip(vertex_lines, bounds, bounds[1:]):
        for d, col in zip(ends[a:b], _token_columns(line, start)):
            end_at.setdefault(d, []).append((lineno, col))
    missing = [v.end for v in violations if v.kind == "unknown-edge-end"]
    if missing:
        line, col = end_at[missing[0]][0]
        names = ", ".join(sorted({d.edge for d in missing}))
        raise TextFormatError(line, col, f"edges used but never declared: {names}")
    # Text that got this far can only repeat an edge-end or leave one out: a
    # repeat is shown at its second token, a missing end at its edge's
    # declaration.
    line, col = min(
        end_at[v.end][1] if v.kind == "duplicate-edge-end" else declared_at[v.end.edge]
        for v in violations
    )
    raise TextFormatError(line, col, "; ".join(v.message for v in violations))


_NAME = re.compile(r"\w+")


def _token_columns(line: str, start: int) -> Iterator[int]:
    """The 1-based column of each whitespace-separated token of ``line[start:]``."""
    for token in line[start:].split():
        start = line.index(token, start)
        yield start + 1
        start += len(token)


def load_graph(path) -> RibbonGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(path, g: RibbonGraph) -> None:
    """Write a valid graph in the text format, so that :func:`load_graph`
    reads it back.  A vertex or edge name the format cannot hold (one that
    is not a word of ``\\w`` characters) raises ValueError, naming the first
    such name, before the file is opened."""
    bad = [name for name in (*g.vertex_names, *g.edge_names) if not _NAME.fullmatch(name)]
    if bad:
        raise ValueError(f"name {bad[0]!r} cannot be saved: the text format needs names of word characters")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_text(g))
