"""Cameron-Walker recognition, decomposition and the graph of a decomposition.

A Cameron-Walker graph is a connected graph with im(G) = m(G) that is
neither a star nor a star triangle; structurally it is a connected
bipartite support whose left vertices each carry at least one leaf and
whose right vertices may carry pendant triangles.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Mapping
from itertools import accumulate, chain, islice
from types import MappingProxyType

from .errors import InvalidDecomposition, NotCameronWalker
from .graph import Graph
from .records import FrozenRecord, set_field

TAG_STAR = "Star"
TAG_STAR_TRIANGLE = "StarTriangle"
TAG_CAMERON_WALKER = "CameronWalker"
TAG_OTHER = "Other"


def _aligned(mapping: Mapping, side: tuple[str, ...]):
    """The values of ``mapping`` in the order of ``side``; None unless its
    keys are exactly the labels of the side."""
    if set(mapping) != set(side):
        return None
    return tuple(mapping[v] for v in side)


class CWDecomposition(FrozenRecord):
    """Structural certificate: bipartite support plus attachment lists.

    ``leaves[i]`` lists the leaves hanging off the left vertex
    ``left[i]`` (at least one each); ``triangles[j]`` lists the degree-2
    vertex pairs of the pendant triangles at the right vertex
    ``right[j]``.  Right vertices are ordered so that the
    triangle-bearing ones come first.  The constructor takes these lists
    as the maps ``leaf_map`` and ``triangle_map``, whose keys must be
    exactly the left and the right vertices, runs the checks of
    ``validate`` and keeps four tuples: ``left``, ``right``, the
    support's edge tuple ``support_edges`` and ``packed``, which holds
    the counts f_1..f_n and t_1..t_m, then every leaf, grouped by left
    vertex, then every triangle pair, grouped by right vertex.  (One
    tuple for counts and attachments keeps a stored certificate one
    tuple smaller.)  So every instance is a valid certificate and its
    users need not check it again.

    ``support``, ``leaves``, ``triangles``, ``f_counts``, ``t_counts``
    and the read-only maps are built from these tuples on each access,
    so a caller that reads one in a loop keeps one copy; only this
    module reads ``packed``.  The record's fields, which ``repr`` and
    pickling read, are the constructor's parameters.  Equality compares
    the four stored tuples instead, which on valid certificates is the
    same relation and builds no graph; a decomposition is unhashable.
    """

    __slots__ = ("left", "right", "support_edges", "packed")
    _fields = ("support", "left", "right", "leaf_map", "triangle_map")

    def __init__(
        self,
        support: Graph,
        left: tuple[str, ...],
        right: tuple[str, ...],
        leaf_map: Mapping[str, tuple[str, ...]],
        triangle_map: Mapping[str, tuple[tuple[str, str], ...]],
    ):
        set_field(self, "left", left)
        set_field(self, "right", right)
        set_field(self, "support_edges", support.edges)
        self._check_support(support.vertices)
        leaves = _aligned(leaf_map, left)
        if leaves is None:
            raise InvalidDecomposition("leaf_map keys must be exactly the left vertices")
        triangles = _aligned(triangle_map, right)
        if triangles is None:
            raise InvalidDecomposition("triangle_map keys must be exactly the right vertices")
        counts = (*map(len, leaves), *map(len, triangles))
        set_field(self, "packed", (*counts, *chain(*leaves), *chain(*triangles)))
        self._check_attachments()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    @property
    def support(self) -> Graph:
        """The support graph on ``left`` + ``right``, built on each access."""
        return Graph(self.left + self.right, self.support_edges)

    def _groups(self, first: int, stop: int) -> tuple[tuple, ...]:
        # the attachment tuples of the vertices first..stop-1 of left + right
        k = self.n + self.m
        ends = list(accumulate(self.packed[:k], initial=k))
        return tuple(self.packed[ends[i] : ends[i + 1]] for i in range(first, stop))

    @property
    def leaves(self) -> tuple[tuple[str, ...], ...]:
        """The leaves of each left vertex, built on each access."""
        return self._groups(0, self.n)

    @property
    def triangles(self) -> tuple[tuple[tuple[str, str], ...], ...]:
        """The triangle pairs of each right vertex, built on each access."""
        return self._groups(self.n, self.n + self.m)

    @property
    def leaf_map(self) -> Mapping[str, tuple[str, ...]]:
        """Read-only view {left vertex: its leaves}, built on each access."""
        return MappingProxyType(dict(zip(self.left, self.leaves)))

    @property
    def triangle_map(self) -> Mapping[str, tuple[tuple[str, str], ...]]:
        """Read-only view {right vertex: its triangle pairs}, built on each access."""
        return MappingProxyType(dict(zip(self.right, self.triangles)))

    @property
    def n(self) -> int:
        return len(self.left)

    @property
    def m(self) -> int:
        return len(self.right)

    @property
    def f_counts(self) -> tuple[int, ...]:
        return self.packed[: self.n]

    @property
    def t_counts(self) -> tuple[int, ...]:
        return self.packed[self.n : self.n + self.m]

    @property
    def f(self) -> int:
        return sum(self.packed[: self.n])

    @property
    def t(self) -> int:
        return sum(self.packed[self.n : self.n + self.m])

    @property
    def m_prime(self) -> int:
        return sum(1 for t in self.packed[self.n : self.n + self.m] if t >= 1)

    def validate(self) -> None:
        """Raise InvalidDecomposition unless this is a valid certificate."""
        self._check_support(self.left + self.right)
        self._check_attachments()

    def _check_support(self, vertices: tuple[str, ...]) -> None:
        # The checks of validate up to the attachments, on the support's
        # vertices and the stored edges.
        if not self.left or not self.right:
            raise InvalidDecomposition("support needs vertices on both sides")
        if len(set(self.left)) != len(self.left) or len(set(self.right)) != len(self.right):
            raise InvalidDecomposition("a vertex repeats within left or right")
        if set(vertices) != set(self.left) | set(self.right):
            raise InvalidDecomposition("left/right must partition the support vertices")
        if set(self.left) & set(self.right):
            raise InvalidDecomposition("left and right overlap")
        nbrs: dict[str, list[str]] = {v: [] for v in vertices}
        for u, v in self.support_edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        reached = {self.left[0]}
        stack = [self.left[0]]
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != len(nbrs):
            raise InvalidDecomposition("support is not connected")
        lset = set(self.left)
        for u, v in self.support_edges:
            if (u in lset) == (v in lset):
                raise InvalidDecomposition("support edge inside one side; not bipartite")

    def _check_attachments(self) -> None:
        # The rest of validate, on the stored counts and attachments.
        n, k = self.n, self.n + self.m
        if 0 in self.packed[:n]:
            raise InvalidDecomposition("every left vertex needs at least one leaf")
        seen_bare = False
        for t in self.packed[n:k]:
            if t == 0:
                seen_bare = True
            elif seen_bare:
                raise InvalidDecomposition(
                    "right vertices must be ordered with triangle-bearing ones first"
                )
        f = self.f
        attached = set(self.packed[k : k + f])
        for a, b in self.packed[k + f :]:
            attached.update((a, b))
        expected = f + 2 * self.t
        if len(attached) != expected or attached & {*self.left, *self.right}:
            raise InvalidDecomposition("attachment labels must be fresh and distinct")

    def vertex_count(self) -> int:
        return self.n + self.m + self.f + 2 * self.t

    def canonical_map(self) -> dict[str, str]:
        """Mapping from this decomposition's labels to the canonical scheme."""
        out: dict[str, str] = {}
        # zip stops each side at its own counts
        attached = iter(self.packed[self.n + self.m :])
        for i, (x, c) in enumerate(zip(self.left, self.packed), start=1):
            out[x] = f"x{i}"
            for l, z in enumerate(islice(attached, c), start=1):
                out[z] = f"z{i}_{l}"
        for j, (y, c) in enumerate(zip(self.right, self.packed[self.n :]), start=1):
            out[y] = f"y{j}"
            for k, (a, b) in enumerate(islice(attached, c), start=1):
                out[a] = f"w{j}_{k}+"
                out[b] = f"w{j}_{k}-"
        return out

    def to_dict(self) -> dict:
        """The payload that ``to_json`` writes."""
        return {
            "left": list(self.left),
            "right": list(self.right),
            "support_edges": [list(e) for e in self.support_edges],
            "leaves": dict(zip(self.left, self.packed)),
            "triangles": dict(zip(self.right, self.packed[self.n :])),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


class Classification(FrozenRecord):
    """The tag of a graph, with its decomposition when Cameron-Walker and
    the reason when Other.

    Only a Cameron-Walker result is built per call: ``classify`` returns
    the four fixed outcomes (star, star triangle, disconnected, im != m)
    as shared module-level records, which are immutable like every
    frozen record and equal to a freshly built one.
    """

    __slots__ = ("tag", "decomposition", "reason")

    def __init__(
        self, tag: str, decomposition: CWDecomposition | None = None, reason: str | None = None
    ):
        set_field(self, "tag", tag)
        set_field(self, "decomposition", decomposition)
        set_field(self, "reason", reason)

    def to_dict(self) -> dict:
        """The payload that ``to_json`` writes."""
        payload: dict = {"tag": self.tag}
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.decomposition is not None:
            payload["decomposition"] = self.decomposition.to_dict()
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


_STAR = Classification(TAG_STAR)
_STAR_TRIANGLE = Classification(TAG_STAR_TRIANGLE)
_DISCONNECTED = Classification(TAG_OTHER, reason="disconnected")
_IM_BELOW_M = Classification(TAG_OTHER, reason="im!=m")


def _is_star(g: Graph) -> bool:
    # K_{1,k} for k >= 0: at most one vertex, or a tree with a vertex
    # adjacent to all the others (which makes the graph connected).
    nv = g.vertex_count
    return nv <= 1 or (
        g.edge_count == nv - 1 and any(g.degree(v) == nv - 1 for v in g.vertices)
    )


def _is_star_triangle(g: Graph) -> bool:
    # t >= 1 triangles glued at one common vertex and nothing else: a
    # vertex of degree |V| - 1 (so the graph is connected) whose other
    # vertices all have degree 2 (each vertex of K_3 is such a centre).
    nv = g.vertex_count
    if nv < 3 or nv % 2 == 0 or g.edge_count != 3 * (nv - 1) // 2:
        return False
    degrees = [g.degree(v) for v in g.vertices]
    return nv - 1 in degrees and degrees.count(2) >= nv - 1


def _attachments(g: Graph, leaves: tuple[str, ...]):
    """Pendant-triangle pairs and the support vertices left after
    stripping them and g's ``leaves``."""
    triangles = g.pendant_triangles()
    stripped = set(leaves)
    for _, a, b in triangles:
        stripped.update((a, b))
    support_vertices = [v for v in g.vertices if v not in stripped]
    return triangles, support_vertices


def _two_coloring(g: Graph, vertices: list[str]):
    """The sides (left, right) of the subgraph of g induced on the nonempty
    ``vertices``, each in their order, by breadth-first layering from the
    first; None at the first edge inside a side.  A vertex the layering
    misses (a connected subgraph has none) lands on neither side, which
    ``CWDecomposition.validate`` rejects."""
    adj = g._adjacency()
    keep = set(vertices)
    color = {vertices[0]: 0}
    queue = deque([vertices[0]])
    while queue:
        u = queue.popleft()
        for w in adj[u] & keep:
            if w not in color:
                color[w] = 1 - color[u]
                queue.append(w)
            elif color[w] == color[u]:
                return None
    left = tuple(v for v in vertices if color.get(v) == 0)
    right = tuple(v for v in vertices if color.get(v) == 1)
    return left, right


def _try_decompose(g: Graph, leaves: tuple[str, ...]):
    """Attempt the structural reading of a connected g with these leaves;
    returns (decomposition, reason)."""
    triangles, support_vertices = _attachments(g, leaves)
    if len(support_vertices) < 2:
        return None, "support has fewer than two vertices after stripping"
    sides = _two_coloring(g, support_vertices)
    if sides is None:
        return None, "support is not bipartite"

    leaf_at: dict[str, list[str]] = {v: [] for v in support_vertices}
    for z in leaves:
        (u,) = g.neighborhood(z)
        leaf_at[u].append(z)
    # Each triangle's pair is stored as g's own edge tuple (a, b): the
    # triangles come sorted by (c, a, b) with a before b, so every list
    # is already in label order, and no new tuple is kept per pair.
    partner = {a: b for _, a, b in triangles}
    edge_at = {e[0]: e for e in g.edges if partner.get(e[0]) == e[1]}
    tri_at: dict[str, list[tuple[str, str]]] = {v: [] for v in support_vertices}
    for c, a, _ in triangles:
        tri_at[c].append(edge_at[a])

    def orientation_ok(left_side, right_side) -> bool:
        return (
            all(leaf_at[x] for x in left_side)
            and all(not tri_at[x] for x in left_side)
            and all(not leaf_at[y] for y in right_side)
        )

    # At most one orientation passes: the first needs every vertex of the
    # nonempty second side leafless, the second needs a leaf on each.
    first, second = sides
    if orientation_ok(first, second):
        left, right_side = first, second
    elif orientation_ok(second, first):
        left, right_side = second, first
    else:
        return None, "no side has a leaf on every vertex with triangles on the other"

    # Both sides and every leaf list are in label order already, since
    # they were filled in the order of g.vertices; the right side is split
    # stably, triangle-bearing vertices first.
    right = tuple(y for y in right_side if tri_at[y]) + tuple(
        y for y in right_side if not tri_at[y]
    )
    # the constructor flattens the lists into its packed tuple
    leaf_map = {x: leaf_at[x] for x in left}
    triangle_map = {y: tri_at[y] for y in right}
    support = g.induced_subgraph(support_vertices)
    return CWDecomposition(support, left, right, leaf_map, triangle_map), None


def certify_cw(g: Graph, dec: CWDecomposition) -> int:
    """Check that m(G) = im(G) = n + t on a decomposition read off g.

    Lower bound: one leaf edge per left vertex plus the w+w- edge of
    every pendant triangle form an induced matching of size n + t.
    Upper bound (an odd-set cover in the sense of Edmonds): every edge
    of g meets a left vertex or lies inside one of the odd sets
    {y} + triangle vertices at y, so no matching has more than
    n + sum_y t_y = n + t edges.  The constructor's ``validate`` already
    makes the labels of each side distinct, the sides disjoint and the
    attachment labels fresh and distinct, hence the matching edges and
    the cover's parts disjoint, so only g's edges are checked.  Linear in |V| + |E|; raises
    InvalidDecomposition when either half fails.
    """
    n, k, f = dec.n, dec.n + dec.m, dec.f
    firsts = accumulate(dec.packed[: n - 1], initial=k)
    matching = [(x, dec.packed[i]) for x, i in zip(dec.left, firsts)]
    matching += dec.packed[k + f :]
    slot: dict[str, int] = {}
    for i, (a, b) in enumerate(matching):
        if not g.has_edge(a, b):
            raise InvalidDecomposition(f"{(a, b)!r} is not an edge of the graph")
        slot[a] = slot[b] = i

    left = set(dec.left)
    odd_set = {y: y for y in dec.right}
    pairs = iter(dec.packed[k + f :])
    for y, c in zip(dec.right, dec.packed[n:]):
        for a, b in islice(pairs, c):
            odd_set[a] = odd_set[b] = y
    for u, v in g.edges:
        if u in slot and v in slot and slot[u] != slot[v]:
            raise InvalidDecomposition(f"edge {(u, v)!r} joins two matching edges")
        if u not in left and v not in left and (
            u not in odd_set or odd_set[u] != odd_set.get(v)
        ):
            raise InvalidDecomposition(f"edge {(u, v)!r} escapes the odd-set cover")
    return len(matching)


def _recognize(g: Graph) -> tuple[Classification, str | None]:
    """The classification, plus why the graph is not Cameron-Walker (None
    when it is).  A successful structural reading is certified.

    Stars and star triangles have a vertex of degree |V| - 1, so they are
    tested before connectivity.  A Cameron-Walker graph has a leaf on
    each of its n >= 1 left vertices, so a connected leafless graph is
    rejected before the attachment scan.
    """
    if _is_star(g):
        return _STAR, "graph is a star"
    if _is_star_triangle(g):
        return _STAR_TRIANGLE, "graph is a star triangle"
    if not g.is_connected():
        return _DISCONNECTED, "graph is disconnected"
    leaves = g.leaves()
    if not leaves:
        return _IM_BELOW_M, "graph has no leaf, but every left vertex needs one"
    dec, reason = _try_decompose(g, leaves)
    if dec is None:
        return _IM_BELOW_M, reason
    certify_cw(g, dec)
    return Classification(TAG_CAMERON_WALKER, decomposition=dec), None


def classify(g: Graph) -> Classification:
    """Star / StarTriangle / CameronWalker / Other, with certificate.

    A successful Cameron-Walker reading is certified by ``certify_cw``,
    which proves im(G) = m(G) (the defining equality) in linear time.
    """
    return _recognize(g)[0]


def decompose(g: Graph) -> CWDecomposition:
    """The structural certificate of a Cameron-Walker graph, checked by
    ``certify_cw``; NotCameronWalker says why another graph has none."""
    cls, reason = _recognize(g)
    if cls.decomposition is None:
        raise NotCameronWalker(reason)
    return cls.decomposition


def build_cw(dec: CWDecomposition) -> Graph:
    """Emit the graph of a decomposition with canonical labels.

    Left vertices become x1..xn, right vertices y1..ym, leaves z{i}_{l}
    and pendant-triangle pairs w{j}_{k}+ / w{j}_{k}-.  These labels are
    named in label order (every w by j, k and + before -, then x, y and
    z by their indices), so the graph is built without sorting them.
    """
    cmap = dec.canonical_map()
    n, k, f = dec.n, dec.n + dec.m, dec.f
    w = [cmap[a] for pair in dec.packed[k + f :] for a in pair]
    zs = [cmap[z] for z in dec.packed[k : k + f]]
    vertices = (*w, *(cmap[x] for x in dec.left), *(cmap[y] for y in dec.right), *zs)
    edges = [(cmap[u], cmap[v]) for u, v in dec.support_edges]
    attached = iter(dec.packed[k:])
    for x, c in zip(dec.left, dec.packed):
        for z in islice(attached, c):
            edges.append((cmap[x], cmap[z]))
    for y, c in zip(dec.right, dec.packed[n:]):
        for a, b in islice(attached, c):
            edges.append((cmap[y], cmap[a]))
            edges.append((cmap[y], cmap[b]))
            edges.append((cmap[a], cmap[b]))
    return Graph._in_label_order(vertices, edges)


def random_cw(
    n: int, m: int, max_f: int, max_t: int, edge_density: float, seed: int
) -> CWDecomposition:
    """Stand-in for ``constructions.random_cw``, imported on first call.

    The benchmark's tracer wraps this name in this module, so it stays
    here while the generator itself lives off the start-up path.
    """
    from .constructions import random_cw as impl

    return impl(n, m, max_f, max_t, edge_density, seed)
