"""Cameron-Walker recognition, decomposition and the graph of a decomposition.

A Cameron-Walker graph is a connected graph with im(G) = m(G) that is
neither a star nor a star triangle; structurally it is a connected
bipartite support whose left vertices each carry at least one leaf and
whose right vertices may carry pendant triangles.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from types import MappingProxyType

from .errors import InvalidDecomposition, NotCameronWalker
from .graph import Graph, label_key, sorted_labels, two_coloring
from .records import FrozenRecord, set_field

TAG_STAR = "Star"
TAG_STAR_TRIANGLE = "StarTriangle"
TAG_CAMERON_WALKER = "CameronWalker"
TAG_OTHER = "Other"


class CWDecomposition(FrozenRecord):
    """Structural certificate: bipartite support plus attachment maps.

    ``leaf_map[x]`` lists the leaves hanging off the left vertex x (at
    least one each); ``triangle_map[y]`` lists the degree-2 vertex pairs
    of the pendant triangles at the right vertex y.  Right vertices are
    ordered so that the triangle-bearing ones come first.  The
    constructor keeps both maps as read-only views of its own copies and
    runs ``validate``, so every instance is a valid certificate and its
    users need not check it again.  The views show dicts, so a
    decomposition is unhashable.
    """

    __slots__ = ("support", "left", "right", "leaf_map", "triangle_map")

    def __init__(
        self,
        support: Graph,
        left: tuple[str, ...],
        right: tuple[str, ...],
        leaf_map: Mapping[str, tuple[str, ...]],
        triangle_map: Mapping[str, tuple[tuple[str, str], ...]],
    ):
        set_field(self, "support", support)
        set_field(self, "left", left)
        set_field(self, "right", right)
        set_field(self, "leaf_map", MappingProxyType(dict(leaf_map)))
        set_field(self, "triangle_map", MappingProxyType(dict(triangle_map)))
        self.validate()

    @property
    def n(self) -> int:
        return len(self.left)

    @property
    def m(self) -> int:
        return len(self.right)

    @property
    def f_counts(self) -> tuple[int, ...]:
        return tuple(len(self.leaf_map[x]) for x in self.left)

    @property
    def t_counts(self) -> tuple[int, ...]:
        return tuple(len(self.triangle_map[y]) for y in self.right)

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
        # Reads only the support's vertex and edge tuples, so validating
        # does not make the stored support build its adjacency.
        if not self.left or not self.right:
            raise InvalidDecomposition("support needs vertices on both sides")
        if len(set(self.left)) != len(self.left) or len(set(self.right)) != len(self.right):
            raise InvalidDecomposition("a vertex repeats within left or right")
        if set(self.support.vertices) != set(self.left) | set(self.right):
            raise InvalidDecomposition("left/right must partition the support vertices")
        if set(self.left) & set(self.right):
            raise InvalidDecomposition("left and right overlap")
        nbrs: dict[str, list[str]] = {v: [] for v in self.support.vertices}
        for u, v in self.support.edges:
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
        for u, v in self.support.edges:
            if (u in lset) == (v in lset):
                raise InvalidDecomposition("support edge inside one side; not bipartite")
        if set(self.leaf_map) != set(self.left):
            raise InvalidDecomposition("leaf_map keys must be exactly the left vertices")
        if set(self.triangle_map) != set(self.right):
            raise InvalidDecomposition("triangle_map keys must be exactly the right vertices")
        if any(len(ls) == 0 for ls in self.leaf_map.values()):
            raise InvalidDecomposition("every left vertex needs at least one leaf")
        counts = self.t_counts
        seen_bare = False
        for t in counts:
            if t == 0:
                seen_bare = True
            elif seen_bare:
                raise InvalidDecomposition(
                    "right vertices must be ordered with triangle-bearing ones first"
                )
        attached: set[str] = set()
        for ls in self.leaf_map.values():
            attached.update(ls)
        for pairs in self.triangle_map.values():
            for a, b in pairs:
                attached.update((a, b))
        expected = sum(len(ls) for ls in self.leaf_map.values()) + 2 * self.t
        if len(attached) != expected or attached & set(self.support.vertices):
            raise InvalidDecomposition("attachment labels must be fresh and distinct")

    def vertex_count(self) -> int:
        return self.n + self.m + self.f + 2 * self.t

    def canonical_map(self) -> dict[str, str]:
        """Mapping from this decomposition's labels to the canonical scheme."""
        out: dict[str, str] = {}
        for i, x in enumerate(self.left, start=1):
            out[x] = f"x{i}"
            for l, z in enumerate(self.leaf_map[x], start=1):
                out[z] = f"z{i}_{l}"
        for j, y in enumerate(self.right, start=1):
            out[y] = f"y{j}"
            for k, (a, b) in enumerate(self.triangle_map[y], start=1):
                out[a] = f"w{j}_{k}+"
                out[b] = f"w{j}_{k}-"
        return out

    def to_dict(self) -> dict:
        """The payload that ``to_json`` writes."""
        return {
            "left": list(self.left),
            "right": list(self.right),
            "support_edges": [list(e) for e in self.support.edges],
            "leaves": {x: len(self.leaf_map[x]) for x in self.left},
            "triangles": {y: len(self.triangle_map[y]) for y in self.right},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


class Classification(FrozenRecord):
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


def _is_star(g: Graph) -> bool:
    # K_{1,k} for k >= 0: every edge through one common vertex.
    return any(all(c in e for e in g.edges) for c in g.vertices)


def _is_star_triangle(g: Graph) -> bool:
    # t >= 1 triangles glued at one common vertex and nothing else: a
    # vertex of degree |V| - 1 whose other vertices all have degree 2
    # (each vertex of K_3 is such a centre).
    nv = g.vertex_count
    if nv < 3 or nv % 2 == 0 or g.edge_count != 3 * (nv - 1) // 2:
        return False
    degrees = [g.degree(v) for v in g.vertices]
    return nv - 1 in degrees and degrees.count(2) >= nv - 1


def _attachments(g: Graph):
    """Leaves, pendant-triangle pairs and the remaining support vertices."""
    leaves = g.leaves()
    triangles = g.pendant_triangles()
    stripped = set(leaves)
    for _, a, b in triangles:
        stripped.update((a, b))
    support_vertices = [v for v in g.vertices if v not in stripped]
    return leaves, triangles, support_vertices


def _try_decompose(g: Graph):
    """Attempt the structural reading; returns (decomposition, reason)."""
    leaves, triangles, support_vertices = _attachments(g)
    if len(support_vertices) < 2:
        return None, "support has fewer than two vertices after stripping"
    bip = two_coloring(g, support_vertices)
    if bip is None:
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
    # nonempty bip.right leafless, the second needs a leaf on each.
    if orientation_ok(bip.left, bip.right):
        left_side, right_side = bip.left, bip.right
    elif orientation_ok(bip.right, bip.left):
        left_side, right_side = bip.right, bip.left
    else:
        return None, "no side has a leaf on every vertex with triangles on the other"

    left = sorted_labels(left_side)
    right = tuple(
        sorted(right_side, key=lambda y: (0 if tri_at[y] else 1, label_key(y)))
    )
    leaf_map = {x: sorted_labels(leaf_at[x]) for x in left}
    triangle_map = {y: tuple(tri_at[y]) for y in right}
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
    matching = [(x, dec.leaf_map[x][0]) for x in dec.left]
    matching += [pair for y in dec.right for pair in dec.triangle_map[y]]
    slot: dict[str, int] = {}
    for i, (a, b) in enumerate(matching):
        if not g.has_edge(a, b):
            raise InvalidDecomposition(f"{(a, b)!r} is not an edge of the graph")
        slot[a] = slot[b] = i

    left = set(dec.left)
    odd_set: dict[str, str] = {}
    for y in dec.right:
        for v in (y, *(w for pair in dec.triangle_map[y] for w in pair)):
            odd_set[v] = y
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
    when it is).  A successful structural reading is certified."""
    if not g.is_connected():
        return Classification(TAG_OTHER, reason="disconnected"), "graph is disconnected"
    if _is_star(g):
        return Classification(TAG_STAR), "graph is a star"
    if _is_star_triangle(g):
        return Classification(TAG_STAR_TRIANGLE), "graph is a star triangle"
    dec, reason = _try_decompose(g)
    if dec is None:
        return Classification(TAG_OTHER, reason="im!=m"), reason
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
    and pendant-triangle pairs w{j}_{k}+ / w{j}_{k}-.
    """
    cmap = dec.canonical_map()
    vertices = list(cmap.values())
    edges = [(cmap[u], cmap[v]) for u, v in dec.support.edges]
    for x in dec.left:
        for z in dec.leaf_map[x]:
            edges.append((cmap[x], cmap[z]))
    for y in dec.right:
        for a, b in dec.triangle_map[y]:
            edges.append((cmap[y], cmap[a]))
            edges.append((cmap[y], cmap[b]))
            edges.append((cmap[a], cmap[b]))
    return Graph(vertices, edges)


def random_cw(
    n: int, m: int, max_f: int, max_t: int, edge_density: float, seed: int
) -> CWDecomposition:
    """Stand-in for ``constructions.random_cw``, imported on first call.

    The benchmark's tracer wraps this name in this module, so it stays
    here while the generator itself lives off the start-up path.
    """
    from .constructions import random_cw as impl

    return impl(n, m, max_f, max_t, edge_density, seed)
