"""Immutable finite simple graphs with string labels.

Vertex labels are opaque strings compared with numeric awareness
("x2" < "x10"); every operation iterates vertices in that order, so
repeated calls on equal inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Iterable

from .errors import EmptyGraph, LoopEdge, ParseError, UnknownVertex

_DIGIT_RUN = re.compile(r"(\d+)")


def label_key(label: str):
    """Sort key for labels: runs of digits compare as integers.

    The raw label is appended as a tie-break so distinct labels such as
    "x01" and "x1" still compare unequal.
    """
    parts = _DIGIT_RUN.split(label)
    return tuple(int(p) if i % 2 else p for i, p in enumerate(parts)), label


def sorted_labels(labels: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(labels, key=label_key))


def _vertex_order(labels: set) -> tuple[str, ...]:
    """The labels in label order; ParseError names a label whose digit run
    is too long for ``int`` (over 4300 digits by default)."""
    try:
        return sorted_labels(labels)
    except ValueError:
        label = max(labels, key=lambda w: max(map(len, _DIGIT_RUN.findall(w)), default=0))
        raise ParseError(
            f"vertex label {label[:20]!r}... ({len(label)} characters) has a digit run"
            f" too long to order; Python converts at most {sys.get_int_max_str_digits()} digits"
        ) from None


class Graph:
    """Finite simple undirected graph; immutable after construction.

    Vertices without incident edges are allowed; the empty graph is
    allowed here (it arises as an induced subgraph) but rejected by the
    public parsers.
    """

    __slots__ = ("_vertices", "_edges", "_adj", "_rank")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        # label_key runs once per vertex.
        self._build(_vertex_order(set(vertices)), edges)

    @classmethod
    def _in_label_order(cls, verts: tuple[str, ...], edges: Iterable[tuple[str, str]]) -> "Graph":
        """The graph on ``verts``, which the caller names distinct and
        already in label order, so no label is sorted."""
        g = cls.__new__(cls)
        g._build(verts, edges)
        return g

    def _build(self, verts: tuple[str, ...], edges: Iterable[tuple[str, str]]) -> None:
        # Each vertex gets its rank in label order, and edges are
        # canonicalised, deduplicated and sorted as rank pairs packed into
        # one integer, low * n + high.
        rank = {v: i for i, v in enumerate(verts)}
        n = len(verts)
        es = set()
        for u, v in edges:
            if u == v:
                raise LoopEdge(f"loop edge at {u!r}")
            a = rank.get(u)
            if a is None:
                raise UnknownVertex(f"edge endpoint {u!r} is not a declared vertex")
            b = rank.get(v)
            if b is None:
                raise UnknownVertex(f"edge endpoint {v!r} is not a declared vertex")
            es.add(a * n + b if a < b else b * n + a)
        self._vertices = verts
        self._edges = tuple((verts[k // n], verts[k % n]) for k in sorted(es))
        # Kept as the label order key, so no label is sorted again.  The
        # values are positions in this graph's vertices only here: a graph
        # from induced_subgraph shares its parent's dict, whose values
        # order the subgraph's vertices but do not index its vertices.
        self._rank = rank
        # Built on first use, so a graph that is only stored and read as
        # vertex and edge tuples (a decomposition's support) stays small.
        # Its keys are also the vertex set that membership is checked in.
        self._adj: dict[str, frozenset[str]] | None = None

    def _adjacency(self) -> dict[str, frozenset[str]]:
        if self._adj is None:
            adj: dict[str, set[str]] = {v: set() for v in self._vertices}
            for u, v in self._edges:
                adj[u].add(v)
                adj[v].add(u)
            self._adj = {v: frozenset(ns) for v, ns in adj.items()}
        return self._adj

    # -- basic accessors ------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return self._edges

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"Graph({len(self._vertices)} vertices, {len(self._edges)} edges)"

    def __reduce__(self):
        # Rebuilt from its tuples: an induced subgraph would otherwise
        # pickle and copy its parent's whole rank dict.
        return Graph, (self._vertices, self._edges)

    def has_edge(self, u: str, v: str) -> bool:
        adj = self._adjacency()
        return u in adj and v in adj[u]

    def degree(self, v: str) -> int:
        self._require(v)
        return len(self._adjacency()[v])

    # -- structural primitives ------------------------------------------

    def _require(self, v: str) -> None:
        if v not in self._adjacency():
            raise UnknownVertex(f"unknown vertex {v!r}")

    def neighborhood(self, v: str) -> frozenset[str]:
        """Open neighbourhood N(v)."""
        self._require(v)
        return self._adjacency()[v]

    def induced_subgraph(self, keep: Iterable[str]) -> "Graph":
        """Subgraph on the kept vertices with all edges inside them.

        The subgraph shares this graph's ranks, so its ``_rank[v]`` is v's
        position among this graph's vertices: an order, not an index into
        the subgraph's ``vertices``.  Positions in the subgraph come from
        ``enumerate(sub.vertices)``.
        """
        kept = set(keep)
        for v in kept:
            self._require(v)
        # Filtering keeps label and edge order, so the subgraph can share
        # this graph's edge tuples instead of sorting fresh copies, and its
        # ranks, which are read only as an order.
        sub = Graph.__new__(Graph)
        sub._vertices = tuple(v for v in self._vertices if v in kept)
        sub._edges = tuple(e for e in self._edges if e[0] in kept and e[1] in kept)
        sub._adj = None
        sub._rank = self._rank
        return sub

    def is_connected(self) -> bool:
        """Whether one traversal from the first vertex reaches every
        vertex; builds no component and sorts nothing.  True for the
        empty graph, which has no components."""
        if not self._vertices:
            return True
        adj = self._adjacency()
        root = self._vertices[0]
        reached = {root}
        stack = [root]
        while stack:
            new = adj[stack.pop()] - reached
            reached |= new
            stack.extend(new)
        return len(reached) == len(self._vertices)

    def leaves(self) -> tuple[str, ...]:
        """All vertices of degree 1."""
        adj = self._adjacency()
        return tuple(v for v in self._vertices if len(adj[v]) == 1)

    def pendant_triangles(self) -> tuple[tuple[str, str, str], ...]:
        """Triangles with two degree-2 vertices hanging off a vertex of degree > 2.

        Each is reported as (c, a, b) where c is the attachment vertex and
        a < b are the degree-2 vertices; sorted by c then (a, b).
        """
        adj = self._adjacency()
        rank = self._rank
        found = []
        for a in self._vertices:
            if len(adj[a]) != 2:
                continue
            # a's triangle partner is its degree-2 neighbour; the third
            # vertex is the attachment and must have degree > 2.  At most
            # one of the two readings holds, so the pair needs no order.
            x, y = adj[a]
            for b, c in ((x, y), (y, x)):
                if len(adj[b]) == 2 and len(adj[c]) > 2 and b in adj[c] and rank[a] < rank[b]:
                    found.append((c, a, b))
        # a runs in label order and starts at most one triangle, so a
        # stable sort by c gives the order by (c, a, b).
        found.sort(key=lambda t: rank[t[0]])
        return tuple(found)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "vertices": list(self._vertices),
            "edges": [list(e) for e in self._edges],
        }
        return json.dumps(payload)


def from_edge_list(
    pairs: Iterable[tuple[str, str]], isolated: Iterable[str] = ()
) -> Graph:
    """Build a graph from labelled edge pairs plus isolated vertices.

    Duplicate edges collapse; a loop raises LoopEdge; a pair that is not
    a tuple or list of two items, or a label that is not a nonempty
    string, raises ParseError; an overall empty vertex set raises
    EmptyGraph.
    """
    pairs = list(pairs)
    for pair in pairs:
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise ParseError(f"edge {pair!r} must be a list of exactly two endpoints")
    labels = [*isolated, *(w for pair in pairs for w in pair)]
    if not all(isinstance(w, str) and w for w in labels):
        raise ParseError("vertex labels must be nonempty strings")
    vertices = set(labels)
    if not vertices:
        raise EmptyGraph("a graph needs at least one vertex")
    return Graph(vertices, pairs)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    One edge per line as ``u v``; lines starting with ``#`` are comments;
    ``vertex u`` declares an isolated vertex.
    """
    pairs = []
    isolated = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "vertex":
            if len(tokens) != 2:
                raise ParseError("expected 'vertex <label>'", lineno)
            isolated.append(tokens[1])
        elif len(tokens) == 2:
            pairs.append((tokens[0], tokens[1]))
        else:
            raise ParseError(f"expected 'u v' or 'vertex u', got {line!r}", lineno)
    if not pairs and not isolated:
        raise EmptyGraph("input declares no vertices")
    return from_edge_list(pairs, isolated)


def parse_graph_json(text: str) -> Graph:
    """Parse the JSON format {"vertices": [...], "edges": [["u","v"], ...]}."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "edges" not in payload:
        raise ParseError("graph JSON needs an 'edges' field")
    vertices = payload.get("vertices", [])
    edges = payload["edges"]
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise ParseError("'vertices' and 'edges' must be lists")
    if not vertices and not edges:
        raise EmptyGraph("graph JSON declares no vertices")
    # from_edge_list rejects an edge that is not a list of two endpoints
    return from_edge_list(edges, vertices)
