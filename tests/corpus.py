"""Shared seeded corpora for the test suite."""

import itertools
import random
import re
from functools import lru_cache

from cwgraphs import CWDecomposition, is_cm_cw, random_cw
from cwgraphs.graph import Graph, label_key

CORPUS_SEED = 20240601


@lru_cache(maxsize=None)
def cw_corpus(count: int = 300, max_vertices: int = 16) -> tuple[CWDecomposition, ...]:
    """Seeded random Cameron-Walker decompositions, half of them with the
    Cohen-Macaulay one-leaf/one-triangle shape."""
    rng = random.Random(CORPUS_SEED)
    decs = []
    while len(decs) < count // 2:
        n = rng.randint(1, 5)
        m = rng.randint(1, 4)
        max_f = rng.randint(1, 3)
        max_t = rng.randint(0, 2)
        if n == 1 and max_t == 0:
            continue
        dec = random_cw(n, m, max_f, max_t, rng.random(), rng.randrange(2**30))
        if dec.vertex_count() <= max_vertices:
            decs.append(dec)
    while len(decs) < count:
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        if 2 * n + 3 * m > max_vertices:
            continue
        dec = random_cw(n, m, 1, 1, rng.random(), rng.randrange(2**30))
        if is_cm_cw(dec):
            decs.append(dec)
    return tuple(decs)


def label_key_reference(label: str):
    """Reference label key by definition: each digit run, at the odd
    positions of the split, converted to an integer, then the raw label."""
    parts = re.split(r"(\d+)", label)
    return tuple(int(p) if i % 2 else p for i, p in enumerate(parts)), label


def facet_key(f) -> tuple:
    """Reference facet order: the keys of the members, taken in the order
    that sorting the members by key gives."""
    return tuple(label_key_reference(v) for v in sorted(f, key=label_key_reference))


# Pairs whose label order differs from string order or whose keys agree
# before the tie-break: a zero-padded run, an Arabic-Indic digit, and
# two digit runs in one label.
TRICKY_LABELS = ("x01", "x1", "x\u0663", "x4", "a10b2", "a2b10", "z007")


def relabelled(g: Graph, rng: random.Random) -> Graph:
    """g with its vertices renamed at random, up to seven of them by
    TRICKY_LABELS and the rest q1, q2, ..."""
    n = g.vertex_count
    names = rng.sample(TRICKY_LABELS, min(n, len(TRICKY_LABELS)))
    names += [f"q{i}" for i in range(1, n - len(names) + 1)]
    rng.shuffle(names)
    rename = dict(zip(g.vertices, names))
    return Graph(names, [(rename[u], rename[v]) for u, v in g.edges])


def random_graph(rng: random.Random, max_vertices: int, density: float) -> Graph:
    nv = rng.randint(1, max_vertices)
    verts = [f"v{i + 1}" for i in range(nv)]
    edges = [p for p in itertools.combinations(verts, 2) if rng.random() < density]
    return Graph(verts, edges)


def is_matching(g: Graph, edges) -> bool:
    """Reference matching check: every pair is an edge of g (so a
    non-edge, a loop or an unknown vertex is rejected) and no two pairs
    share a vertex."""
    ends = [v for e in edges for v in e]
    return all(g.has_edge(u, v) for u, v in edges) and len(set(ends)) == len(ends)


def is_induced_matching(g: Graph, edges) -> bool:
    """Reference induced-matching check: a matching with no edge of g
    joining two of its members."""
    return is_matching(g, edges) and not any(
        g.has_edge(x, y) for e, f in itertools.combinations(edges, 2) for x in e for y in f
    )


def connected_components(g: Graph) -> tuple[tuple[str, ...], ...]:
    """Reference component finder: the maximal connected vertex sets, each
    sorted by label_key, listed by smallest member."""
    comps, seen = [], set()
    for root in g.vertices:
        if root in seen:
            continue
        comp, frontier = {root}, [root]
        while frontier:
            new = {w for u in frontier for w in g.neighborhood(u)} - comp
            comp |= new
            frontier = list(new)
        seen |= comp
        comps.append(tuple(sorted(comp, key=label_key)))
    return tuple(comps)


def pendant_triangles(g: Graph) -> tuple[tuple[str, str, str], ...]:
    """Reference pendant-triangle scan by definition, ordered by label_key:
    every triangle (c, a, b) with a < b of degree 2 and c of degree > 2."""
    found = []
    for a, b in g.edges:
        if g.degree(a) == g.degree(b) == 2:
            for c in g.neighborhood(a) & g.neighborhood(b):
                if g.degree(c) > 2:
                    a, b = sorted((a, b), key=label_key)
                    found.append((c, a, b))
    return tuple(sorted(found, key=lambda t: tuple(map(label_key, t))))


def random_clique_partition(rng: random.Random, base: Graph):
    rest = list(base.vertices)
    rng.shuffle(rest)
    parts = []
    while rest:
        v = rest.pop()
        part = {v}
        for u in rest[:]:
            if all(base.has_edge(u, w) for w in part) and rng.random() < 0.6:
                part.add(u)
                rest.remove(u)
        parts.append(frozenset(part))
    if rng.random() < 0.3:
        parts.append(frozenset())
    return tuple(parts)


def petersen() -> Graph:
    outer = [(f"v{i + 1}", f"v{(i + 1) % 5 + 1}") for i in range(5)]
    inner = [(f"u{i + 1}", f"u{(i + 2) % 5 + 1}") for i in range(5)]
    spokes = [(f"v{i + 1}", f"u{i + 1}") for i in range(5)]
    return Graph(
        [f"v{i + 1}" for i in range(5)] + [f"u{i + 1}" for i in range(5)],
        outer + inner + spokes,
    )


def complete_graph(n: int) -> Graph:
    verts = [f"a{i + 1}" for i in range(n)]
    return Graph(verts, itertools.combinations(verts, 2))


def complete_bipartite(a: int, b: int) -> Graph:
    ls = [f"l{i + 1}" for i in range(a)]
    rs = [f"r{j + 1}" for j in range(b)]
    return Graph(ls + rs, [(x, y) for x in ls for y in rs])


def star_triangle(t: int) -> Graph:
    """t triangles glued at a common centre."""
    edges = []
    for k in range(t):
        a, b = f"a{k + 1}", f"b{k + 1}"
        edges += [("c", a), ("c", b), (a, b)]
    return Graph(["c"] + [v for e in edges for v in e], edges)


def shelling_past_the_cap() -> Graph:
    """x1 with one leaf, joined to y1 with twelve pendant triangles: its
    shelling has 2^12 + 1 + 2^12 = 8193 facets, twice SHELLING_FACET_CAP."""
    edges = [("x1", "y1"), ("x1", "z1")]
    for k in range(1, 13):
        edges += [("y1", f"a{k}"), ("y1", f"b{k}"), (f"a{k}", f"b{k}")]
    return Graph([v for e in edges for v in e], edges)


G5_EDGES = [("x", "v"), ("x", "y"), ("y", "z"), ("y", "w"), ("z", "w")]
P5_EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]
STAR7_EDGES = [
    ("1", "2"), ("1", "3"), ("2", "3"),
    ("1", "4"), ("1", "5"), ("4", "5"),
    ("1", "6"), ("1", "7"), ("6", "7"),
]


def _named_decomposition(support, left, right, fs, ts) -> CWDecomposition:
    """The decomposition with f_i leaves z{i}_{l} at the i-th left vertex
    and t_j pairs w{j}_{k}+, w{j}_{k}- at the j-th right vertex, its right
    side stored triangle-bearing first."""
    leaf_map = {
        x: tuple(f"z{i}_{l}" for l in range(1, f + 1))
        for i, (x, f) in enumerate(zip(left, fs), start=1)
    }
    triangle_map = {
        y: tuple((f"w{j}_{k}+", f"w{j}_{k}-") for k in range(1, t + 1))
        for j, (y, t) in enumerate(zip(right, ts), start=1)
    }
    ordered = tuple(sorted(right, key=lambda y: not triangle_map[y]))
    return CWDecomposition(support, left, ordered, leaf_map, triangle_map)


def small_complete_support_decs():
    """The 60 decompositions over K_{n,m}, n, m <= 2, with one or two
    leaves per left vertex and up to two triangles per right vertex."""
    for n in (1, 2):
        for m in (1, 2):
            left = tuple(f"x{i + 1}" for i in range(n))
            right = tuple(f"y{j + 1}" for j in range(m))
            support = Graph(left + right, [(x, y) for x in left for y in right])
            for fs in itertools.product((1, 2), repeat=n):
                for ts in itertools.product((0, 1, 2), repeat=m):
                    if any(ts[j] == 0 and ts[j + 1] > 0 for j in range(m - 1)):
                        continue  # keep triangle-bearing vertices first
                    yield _named_decomposition(support, left, right, fs, ts)


def _connected_supports(left, right):
    """Every connected bipartite graph on the sides left and right."""
    pairs = [(x, y) for x in left for y in right]
    for r in range(1, len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            support = Graph(left + right, edges)
            if len(connected_components(support)) == 1:
                yield support


def labelled_decompositions(max_vertices: int):
    """Every decomposition with at most ``max_vertices`` vertices whose
    sides are the named vertices x1..xn and y1..ym: a connected bipartite
    support, f_i >= 1 leaves at x_i and t_j >= 0 pendant triangles at
    y_j, where a right vertex of support degree 1 carries a triangle (else
    it would be a leaf of its neighbour).  Each support edge set and each
    assignment of counts to the named vertices is one decomposition."""
    for n in range(1, max_vertices // 2 + 1):
        left = tuple(f"x{i}" for i in range(1, n + 1))
        for m in range(1, max_vertices - 2 * n + 1):
            right = tuple(f"y{j}" for j in range(1, m + 1))
            spare = max_vertices - 2 * n - m  # vertices beyond one leaf per x
            for support in _connected_supports(left, right):
                bare_ok = [support.degree(y) > 1 for y in right]
                for fs in itertools.product(range(1, spare + 2), repeat=n):
                    for ts in itertools.product(range(spare // 2 + 1), repeat=m):
                        if sum(fs) + 2 * sum(ts) <= spare + n and all(
                            t or ok for t, ok in zip(ts, bare_ok)
                        ):
                            yield _named_decomposition(support, left, right, fs, ts)
