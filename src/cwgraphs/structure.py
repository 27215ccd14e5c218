"""Cameron-Walker recognition, decomposition and the graph of a decomposition.

A Cameron-Walker graph is a connected graph with im(G) = m(G) that is
neither a star nor a star triangle; structurally it is a connected
bipartite support whose left vertices each carry at least one leaf and
whose right vertices may carry pendant triangles.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from collections.abc import Mapping
from itertools import accumulate, chain, islice, repeat
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


def _check_support(vertices, left, right, edges) -> None:
    """The checks of ``validate`` up to the attachments: the sides are
    nonempty, each free of repeats, disjoint and together the support's
    ``vertices``, which ``edges`` connect, each edge across the sides."""
    if not left or not right:
        raise InvalidDecomposition("support needs vertices on both sides")
    lset, rset = set(left), set(right)
    if len(lset) != len(left) or len(rset) != len(right):
        raise InvalidDecomposition("a vertex repeats within left or right")
    if set(vertices) != lset | rset:
        raise InvalidDecomposition("left/right must partition the support vertices")
    if lset & rset:
        raise InvalidDecomposition("left and right overlap")
    nbrs: dict[str, list[str]] = {v: [] for v in vertices}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    reached = {left[0]}
    stack = [left[0]]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) != len(nbrs):
        raise InvalidDecomposition("support is not connected")
    for u, v in edges:
        if (u in lset) == (v in lset):
            raise InvalidDecomposition("support edge inside one side; not bipartite")


def _check_attachments(left, right, leaves, triangles) -> None:
    """The rest of ``validate``, on the leaf lists aligned with ``left``
    and the triangle-pair lists aligned with ``right``."""
    if not all(leaves):
        raise InvalidDecomposition("every left vertex needs at least one leaf")
    seen_bare = False
    for pairs in triangles:
        if not pairs:
            seen_bare = True
        elif seen_bare:
            raise InvalidDecomposition(
                "right vertices must be ordered with triangle-bearing ones first"
            )
    attached = set(chain.from_iterable(leaves))
    for a, b in chain.from_iterable(triangles):
        attached.update((a, b))
    expected = sum(map(len, leaves)) + 2 * sum(map(len, triangles))
    if len(attached) != expected or attached & {*left, *right}:
        raise InvalidDecomposition("attachment labels must be fresh and distinct")


def _width(count: int) -> tuple[str, int]:
    """The ``memoryview`` format and byte size of one value of a code over
    ``count`` labels: the narrowest that holds count, which no value of a
    valid certificate exceeds."""
    if count < 1 << 8:
        return "B", 1
    return ("H", 2) if count < 1 << 16 else ("I", 4)


def _encode(labels, left, right, leaves, triangles, edges) -> bytes:
    """The code of a valid certificate over ``labels``: n, m, f_1..f_n and
    t_1..t_m, then the position in ``labels`` of every left and every
    right vertex, of every leaf grouped by left vertex, of both vertices
    of every triangle pair grouped by right vertex and of both ends of
    every support edge, each value in the width ``_width`` gives."""
    index = {v: i for i, v in enumerate(labels)}
    flat = chain.from_iterable
    values = [len(left), len(right), *map(len, leaves), *map(len, triangles)]
    values += map(
        index.__getitem__, chain(left, right, flat(leaves), flat(flat(triangles)), flat(edges))
    )
    _, size = _width(len(labels))
    if size == 1:
        return bytes(values)
    return b"".join(map(int.to_bytes, values, repeat(size), repeat(sys.byteorder)))


class CWDecomposition(FrozenRecord):
    """Structural certificate: bipartite support plus attachment lists.

    ``leaves[i]`` lists the leaves hanging off the left vertex
    ``left[i]`` (at least one each); ``triangles[j]`` lists the degree-2
    vertex pairs of the pendant triangles at the right vertex
    ``right[j]``.  Right vertices are ordered so that the
    triangle-bearing ones come first.  The constructor takes these lists
    as the maps ``leaf_map`` and ``triangle_map``, whose keys must be
    exactly the left and the right vertices, and runs the checks of
    ``validate``, so every instance is a valid certificate and its users
    need not check it again.

    An instance keeps two fields: ``labels``, a tuple holding each of its
    vertices once, and ``code``, the bytes that ``_encode`` writes, which
    refer to the vertices by their positions in ``labels``.  A
    certificate read off a graph shares the graph's ``vertices`` as its
    labels; the constructor lists them in the order left, right, leaves,
    triangle pairs.  Only this module reads ``code``.

    ``left``, ``right``, ``support_edges``, ``leaves``, ``triangles``,
    ``f_counts``, ``t_counts``, the read-only maps and ``support`` are
    decoded from the code on each access, so a caller that reads one in
    a loop keeps one copy.  The record's fields, which ``repr`` and
    pickling read, are the constructor's parameters.  Equality compares
    the decoded sides, attachment lists and support edges, which is the
    relation of those fields and builds no graph (two certificates over
    equal labels compare their codes instead); a decomposition is
    unhashable.
    """

    __slots__ = ("labels", "code")
    _fields = ("support", "left", "right", "leaf_map", "triangle_map")

    def __init__(
        self,
        support: Graph,
        left: tuple[str, ...],
        right: tuple[str, ...],
        leaf_map: Mapping[str, tuple[str, ...]],
        triangle_map: Mapping[str, tuple[tuple[str, str], ...]],
    ):
        _check_support(support.vertices, left, right, support.edges)
        leaves = _aligned(leaf_map, left)
        if leaves is None:
            raise InvalidDecomposition("leaf_map keys must be exactly the left vertices")
        triangles = _aligned(triangle_map, right)
        if triangles is None:
            raise InvalidDecomposition("triangle_map keys must be exactly the right vertices")
        _check_attachments(left, right, leaves, triangles)
        # in role order; the checks above make every label distinct
        flat = chain.from_iterable
        labels = (*left, *right, *flat(leaves), *flat(flat(triangles)))
        set_field(self, "labels", labels)
        set_field(self, "code", _encode(labels, left, right, leaves, triangles, support.edges))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Equal certificates have as many labels and as long a code, and
        # over the same labels the same code.
        if len(self.labels) != len(other.labels) or len(self.code) != len(other.code):
            return False
        if self.labels == other.labels:
            return self.code == other.code
        return self._parts() == other._parts()

    def _ints(self) -> memoryview:
        # the code's values, read in the width of this certificate
        return memoryview(self.code).cast(_width(len(self.labels))[0])

    def _flat(self) -> tuple[list[int], list[str]]:
        """The code decoded: its counts n, m, f_1..f_n, t_1..t_m, and the
        labels that the rest of it refers to, in order."""
        code = self._ints().tolist()
        k = 2 + code[0] + code[1]
        labels = self.labels
        return code[:k], [labels[i] for i in code[k:]]

    def _parts(self):
        """(left, right, leaves, triangles, support_edges), decoded."""
        counts, names = self._flat()
        n = counts[0]
        names = iter(names)
        left, right = tuple(islice(names, n)), tuple(islice(names, counts[1]))
        leaves = tuple([tuple(islice(names, f)) for f in counts[2 : 2 + n]])
        # consecutive names pair up, as the triangle pairs, then the edges
        pairs = zip(names, names)
        triangles = tuple([tuple(islice(pairs, t)) for t in counts[2 + n :]])
        return left, right, leaves, triangles, tuple(pairs)

    @property
    def left(self) -> tuple[str, ...]:
        return self._parts()[0]

    @property
    def right(self) -> tuple[str, ...]:
        return self._parts()[1]

    @property
    def leaves(self) -> tuple[tuple[str, ...], ...]:
        """The leaves of each left vertex."""
        return self._parts()[2]

    @property
    def triangles(self) -> tuple[tuple[tuple[str, str], ...], ...]:
        """The triangle pairs of each right vertex."""
        return self._parts()[3]

    @property
    def support_edges(self) -> tuple[tuple[str, str], ...]:
        """The support's edge tuple."""
        return self._parts()[4]

    @property
    def support(self) -> Graph:
        """The support graph on ``left`` + ``right``."""
        left, right, _, _, edges = self._parts()
        return Graph(left + right, edges)

    @property
    def leaf_map(self) -> Mapping[str, tuple[str, ...]]:
        """Read-only view {left vertex: its leaves}."""
        left, _, leaves, _, _ = self._parts()
        return MappingProxyType(dict(zip(left, leaves)))

    @property
    def triangle_map(self) -> Mapping[str, tuple[tuple[str, str], ...]]:
        """Read-only view {right vertex: its triangle pairs}."""
        _, right, _, triangles, _ = self._parts()
        return MappingProxyType(dict(zip(right, triangles)))

    @property
    def n(self) -> int:
        return self._ints()[0]

    @property
    def m(self) -> int:
        return self._ints()[1]

    @property
    def f_counts(self) -> tuple[int, ...]:
        code = self._ints()
        return tuple(code[2 : 2 + code[0]])

    @property
    def t_counts(self) -> tuple[int, ...]:
        code = self._ints()
        n = code[0]
        return tuple(code[2 + n : 2 + n + code[1]])

    @property
    def f(self) -> int:
        return sum(self.f_counts)

    @property
    def t(self) -> int:
        return sum(self.t_counts)

    @property
    def m_prime(self) -> int:
        return sum(1 for t in self.t_counts if t >= 1)

    def validate(self) -> None:
        """Raise InvalidDecomposition unless this is a valid certificate."""
        left, right, leaves, triangles, edges = self._parts()
        _check_support(left + right, left, right, edges)
        _check_attachments(left, right, leaves, triangles)

    def vertex_count(self) -> int:
        # n + m + f + 2t: the labels are exactly the certificate's vertices
        return len(self.labels)

    def canonical_map(self) -> dict[str, str]:
        """Mapping from this decomposition's labels to the canonical scheme."""
        return _canonical_map(*self._parts()[:4])

    def to_dict(self) -> dict:
        """The payload that ``to_json`` writes."""
        left, right, leaves, triangles, edges = self._parts()
        return {
            "left": list(left),
            "right": list(right),
            "support_edges": [list(e) for e in edges],
            "leaves": dict(zip(left, map(len, leaves))),
            "triangles": dict(zip(right, map(len, triangles))),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _canonical_map(left, right, leaves, triangles) -> dict[str, str]:
    """Mapping from the labels of these decoded parts to the canonical
    scheme of ``build_cw``."""
    out: dict[str, str] = {}
    for i, (x, zs) in enumerate(zip(left, leaves), start=1):
        out[x] = f"x{i}"
        for l, z in enumerate(zs, start=1):
            out[z] = f"z{i}_{l}"
    for j, (y, pairs) in enumerate(zip(right, triangles), start=1):
        out[y] = f"y{j}"
        for k, (a, b) in enumerate(pairs, start=1):
            out[a] = f"w{j}_{k}+"
            out[b] = f"w{j}_{k}-"
    return out


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
    the checks of ``CWDecomposition.validate`` reject."""
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
    returns (decomposition, reason).  A reading passes the checks of
    ``validate`` before it is coded over g's vertices, by their positions
    in ``g.vertices`` (not by ``g._rank``, which a subgraph shares with
    its parent)."""
    triangles, support_vertices = _attachments(g, leaves)
    if len(support_vertices) < 2:
        return None, "support has fewer than two vertices after stripping"
    sides = _two_coloring(g, support_vertices)
    if sides is None:
        return None, "support is not bipartite"

    adj = g._adjacency()
    leaf_at: dict[str, list[str]] = {v: [] for v in support_vertices}
    for z in leaves:
        (u,) = adj[z]
        leaf_at[u].append(z)
    # the triangles come sorted by (c, a, b), so every list is in label order
    tri_at: dict[str, list[tuple[str, str]]] = {v: [] for v in support_vertices}
    for c, a, b in triangles:
        tri_at[c].append((a, b))

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
    # stably, triangle-bearing vertices first.  The support edges are g's
    # own, filtered, so they keep the order of the support's edge tuple.
    right = tuple(y for y in right_side if tri_at[y]) + tuple(
        y for y in right_side if not tri_at[y]
    )
    leaf_lists = [leaf_at[x] for x in left]
    tri_lists = [tri_at[y] for y in right]
    keep = set(support_vertices)
    edges = [e for e in g.edges if e[0] in keep and e[1] in keep]
    _check_support(support_vertices, left, right, edges)
    _check_attachments(left, right, leaf_lists, tri_lists)
    dec = CWDecomposition.__new__(CWDecomposition)
    set_field(dec, "labels", g.vertices)
    set_field(dec, "code", _encode(g.vertices, left, right, leaf_lists, tri_lists, edges))
    return dec, None


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
    counts, names = dec._flat()
    n, m = counts[0], counts[1]
    f_counts, t_counts = counts[2 : 2 + n], counts[2 + n :]
    left, right = names[:n], names[n : n + m]
    # the first leaf of each left vertex, then every triangle pair
    firsts = accumulate(f_counts[:-1], initial=n + m)
    matching = [(x, names[i]) for x, i in zip(left, firsts)]
    k = n + m + sum(f_counts)
    end = k + 2 * sum(t_counts)
    pairs = list(zip(names[k:end:2], names[k + 1 : end : 2]))
    matching += pairs
    slot: dict[str, int] = {}
    for i, (a, b) in enumerate(matching):
        if not g.has_edge(a, b):
            raise InvalidDecomposition(f"{(a, b)!r} is not an edge of the graph")
        slot[a] = slot[b] = i

    lset = set(left)
    odd_set = {y: y for y in right}
    at_y = iter(pairs)
    for y, t in zip(right, t_counts):
        for a, b in islice(at_y, t):
            odd_set[a] = odd_set[b] = y
    for u, v in g.edges:
        if u in slot and v in slot and slot[u] != slot[v]:
            raise InvalidDecomposition(f"edge {(u, v)!r} joins two matching edges")
        if u not in lset and v not in lset and (
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
    left, right, leaves, triangles, support_edges = dec._parts()
    cmap = _canonical_map(left, right, leaves, triangles)
    w = [cmap[a] for pairs in triangles for pair in pairs for a in pair]
    zs = [cmap[z] for at_x in leaves for z in at_x]
    vertices = (*w, *(cmap[x] for x in left), *(cmap[y] for y in right), *zs)
    edges = [(cmap[u], cmap[v]) for u, v in support_edges]
    for x, at_x in zip(left, leaves):
        for z in at_x:
            edges.append((cmap[x], cmap[z]))
    for y, pairs in zip(right, triangles):
        for a, b in pairs:
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
