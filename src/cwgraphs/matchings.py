"""Exact matching number m(G) and induced matching number im(G).

Both are computed by exhaustive branch-and-bound with memoization; the
returned witnesses are the lexicographically smallest optimal edge sets
in canonical edge order, so outputs are reproducible.
"""

from __future__ import annotations

from .errors import LengthMismatch, NotAnEdge, SizeGuard
from .graph import Graph, canonical_edge, label_key
from .records import FrozenRecord, set_field

MATCHING_VERTEX_CAP = 64
INDUCED_EDGE_CAP = 96

Edge = tuple[str, str]


class MatchingStats(FrozenRecord):
    __slots__ = ("m", "im", "witness_m", "witness_im")

    def __init__(
        self, m: int, im: int, witness_m: tuple[Edge, ...], witness_im: tuple[Edge, ...]
    ):
        set_field(self, "m", m)
        set_field(self, "im", im)
        set_field(self, "witness_m", witness_m)
        set_field(self, "witness_im", witness_im)


def _check_edges(g: Graph, edges) -> list[Edge]:
    out = []
    for u, v in edges:
        if not g.has_edge(u, v):
            raise NotAnEdge(f"{(u, v)!r} is not an edge of the graph")
        out.append(canonical_edge(u, v))
    return out


def is_matching(g: Graph, edges) -> bool:
    """True iff the edges are pairwise disjoint."""
    es = _check_edges(g, edges)
    used: set[str] = set()
    for u, v in es:
        if u in used or v in used:
            return False
        used.add(u)
        used.add(v)
    return True


def is_induced_matching(g: Graph, edges) -> bool:
    """True iff a matching with no graph edge bridging two of its members."""
    es = _check_edges(g, edges)
    if not is_matching(g, es):
        return False
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            a, b = es[i]
            c, d = es[j]
            if any(g.has_edge(x, y) for x in (a, b) for y in (c, d)):
                return False
    return True


def matching_number(g: Graph, cap: int = MATCHING_VERTEX_CAP) -> tuple[int, tuple[Edge, ...]]:
    """Exact maximum matching size plus the canonical witness."""
    if g.vertex_count > cap:
        raise SizeGuard(f"matching cap is {cap} vertices, graph has {g.vertex_count}")
    order = g.vertices
    adj = {v: g.neighborhood(v) for v in order}
    memo: dict[frozenset, int] = {}

    def first_live(verts: frozenset) -> str | None:
        for v in order:
            if v in verts and adj[v] & verts:
                return v
        return None

    def best(verts: frozenset) -> int:
        got = memo.get(verts)
        if got is not None:
            return got
        v = first_live(verts)
        if v is None:
            memo[verts] = 0
            return 0
        res = best(verts - {v})
        for u in adj[v] & verts:
            res = max(res, 1 + best(verts - {v, u}))
        memo[verts] = res
        return res

    verts = frozenset(order)
    size = best(verts)
    # Greedy reconstruction: matching the smallest live vertex along its
    # smallest workable neighbour yields the lex-least optimal edge set.
    witness: list[Edge] = []
    while True:
        v = first_live(verts)
        if v is None:
            break
        target = best(verts)
        chosen = None
        for u in sorted(adj[v] & verts, key=label_key):
            if 1 + best(verts - {v, u}) == target:
                chosen = u
                break
        if chosen is None:
            verts = verts - {v}
        else:
            witness.append(canonical_edge(v, chosen))
            verts = verts - {v, chosen}
    if len(witness) != size:
        raise LengthMismatch(f"witness has {len(witness)} edges, the optimum is {size}")
    return size, tuple(witness)


def induced_matching_number(g: Graph, cap: int = INDUCED_EDGE_CAP) -> tuple[int, tuple[Edge, ...]]:
    """Exact maximum induced matching size plus the canonical witness.

    Branch and bound over edges in canonical order: choosing an edge
    discards every edge meeting its closed neighbourhood.
    """
    if g.edge_count > cap:
        raise SizeGuard(f"induced-matching cap is {cap} edges, graph has {g.edge_count}")
    edges = g.edges
    k = len(edges)
    compatible: list[frozenset[int]] = []
    for i in range(k):
        a, b = edges[i]
        ok = set()
        for j in range(k):
            if j == i:
                continue
            c, d = edges[j]
            if {a, b} & {c, d}:
                continue
            if any(g.has_edge(x, y) for x in (a, b) for y in (c, d)):
                continue
            ok.add(j)
        compatible.append(frozenset(ok))

    memo: dict[frozenset, int] = {}

    def best(avail: frozenset) -> int:
        got = memo.get(avail)
        if got is not None:
            return got
        if not avail:
            return 0
        i = min(avail)
        res = max(best(avail - {i}), 1 + best(avail & compatible[i]))
        memo[avail] = res
        return res

    avail = frozenset(range(k))
    size = best(avail)
    witness: list[Edge] = []
    while avail:
        i = min(avail)
        if 1 + best(avail & compatible[i]) == best(avail):
            witness.append(edges[i])
            avail = avail & compatible[i]
        else:
            avail = avail - {i}
    if len(witness) != size:
        raise LengthMismatch(f"witness has {len(witness)} edges, the optimum is {size}")
    return size, tuple(witness)


def matching_stats(g: Graph) -> MatchingStats:
    """Both matching invariants with their witnesses."""
    m, wm = matching_number(g)
    im, wim = induced_matching_number(g)
    if im > m:
        raise LengthMismatch(f"induced matching number {im} exceeds matching number {m}")
    return MatchingStats(m=m, im=im, witness_m=wm, witness_im=wim)
