"""Exact matching number m(G) and induced matching number im(G).

Both come from one memoized search over edge masks that differs only
in which edges conflict; the returned witnesses are the
lexicographically smallest optimal edge sets in canonical edge order,
so outputs are reproducible.
"""

from __future__ import annotations

from .complexes import _bits, _check_ceiling
from .errors import LengthMismatch, NotAnEdge, SizeGuard
from .graph import Graph, canonical_edge
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


def _disjoint(es: list[Edge]) -> bool:
    return len({v for e in es for v in e}) == 2 * len(es)


def is_matching(g: Graph, edges) -> bool:
    """True iff the edges are pairwise disjoint."""
    return _disjoint(_check_edges(g, edges))


def is_induced_matching(g: Graph, edges) -> bool:
    """True iff a matching with no graph edge bridging two of its members."""
    es = _check_edges(g, edges)
    if not _disjoint(es):
        return False
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            a, b = es[i]
            c, d = es[j]
            if any(g.has_edge(x, y) for x in (a, b) for y in (c, d)):
                return False
    return True


def _max_edge_set(g: Graph, induced: bool) -> tuple[int, tuple[Edge, ...]]:
    """Largest set of pairwise compatible edges plus the canonical witness.

    Two edges conflict when they share a vertex or, for induced
    matchings, when an edge of g joins them, i.e. when one has an
    endpoint in N[u] + N[v] of the other, e = (u, v); the conflict masks
    are built from per-vertex edge masks.  The memoized search branches
    at the smallest vertex v that still has an available edge: either no
    edge at v is taken, or one of them is, tried in canonical order.
    Both branches remove v's edges, so the recursion is at most one
    level per vertex that has an edge.  The witness keeps, at each such v, the first edge
    that lies in an optimum, so it is the lexicographically least
    optimal edge set in canonical edge order.
    """
    edges = g.edges
    rank = {v: i for i, v in enumerate(g.vertices)}
    at = [0] * len(rank)
    for e, (u, v) in enumerate(edges):
        at[rank[u]] |= 1 << e
        at[rank[v]] |= 1 << e
    _check_ceiling("induced-matching" if induced else "matching", sum(1 for a in at if a))
    near = at
    if induced:
        # the edges meeting N[w] rather than w
        near = at[:]
        for u, v in edges:
            near[rank[u]] |= at[rank[v]]
            near[rank[v]] |= at[rank[u]]
    conflict = [near[rank[u]] | near[rank[v]] for u, v in edges]
    # Edges are sorted by their smaller endpoint, so the lowest available
    # edge starts at the smallest vertex that still has one.
    starts_at = [at[rank[u]] for u, _ in edges]
    memo = {0: 0}

    def best(avail: int) -> int:
        got = memo.get(avail)
        if got is None:
            first = avail & starts_at[(avail & -avail).bit_length() - 1]
            got = best(avail & ~first)
            for e in _bits(first):
                got = max(got, 1 + best(avail & ~conflict[e]))
            memo[avail] = got
        return got

    avail = (1 << len(edges)) - 1
    size = best(avail)
    witness: list[Edge] = []
    while avail:
        first = avail & starts_at[(avail & -avail).bit_length() - 1]
        target = best(avail)
        for e in _bits(first):
            if 1 + best(avail & ~conflict[e]) == target:
                witness.append(edges[e])
                avail &= ~conflict[e]
                break
        else:
            avail &= ~first
    if len(witness) != size:
        raise LengthMismatch(f"witness has {len(witness)} edges, the optimum is {size}")
    return size, tuple(witness)


def matching_number(g: Graph, cap: int = MATCHING_VERTEX_CAP) -> tuple[int, tuple[Edge, ...]]:
    """Exact maximum matching size plus the canonical witness."""
    if g.vertex_count > cap:
        raise SizeGuard(f"matching cap is {cap} vertices, graph has {g.vertex_count}")
    return _max_edge_set(g, induced=False)


def induced_matching_number(g: Graph, cap: int = INDUCED_EDGE_CAP) -> tuple[int, tuple[Edge, ...]]:
    """Exact maximum induced matching size plus the canonical witness."""
    if g.edge_count > cap:
        raise SizeGuard(f"induced-matching cap is {cap} edges, graph has {g.edge_count}")
    return _max_edge_set(g, induced=True)


def matching_stats(g: Graph) -> MatchingStats:
    """Both matching invariants with their witnesses."""
    m, wm = matching_number(g)
    im, wim = induced_matching_number(g)
    if im > m:
        raise LengthMismatch(f"induced matching number {im} exceeds matching number {m}")
    return MatchingStats(m=m, im=im, witness_m=wm, witness_im=wim)
