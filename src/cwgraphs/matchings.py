"""Exact matching number m(G) and induced matching number im(G).

Both come from one memoized search over edge masks that differs only
in which edges conflict; the returned witnesses are the
lexicographically smallest optimal edge sets in canonical edge order,
so outputs are reproducible.  The search refuses a graph past its fixed
cap, ``MATCHING_VERTEX_CAP`` vertices for m or ``INDUCED_EDGE_CAP``
edges for im.  It recurses once per vertex that has an edge, so these
caps keep it at most 64 or 192 levels deep, far under CPython's
recursion limit.
"""

from __future__ import annotations

from .complexes import _bits
from .errors import LengthMismatch, SizeGuard
from .graph import Graph
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
    at = dict.fromkeys(g.vertices, 0)
    for e, (u, v) in enumerate(edges):
        at[u] |= 1 << e
        at[v] |= 1 << e
    near = at
    if induced:
        # the edges meeting N[w] rather than w
        near = dict(at)
        for u, v in edges:
            near[u] |= at[v]
            near[v] |= at[u]
    conflict = [near[u] | near[v] for u, v in edges]
    # Edges are sorted by their smaller endpoint, so the lowest available
    # edge starts at the smallest vertex that still has one.
    starts_at = [at[u] for u, _ in edges]
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


def matching_number(g: Graph) -> tuple[int, tuple[Edge, ...]]:
    """Exact maximum matching size plus the canonical witness."""
    if g.vertex_count > MATCHING_VERTEX_CAP:
        raise SizeGuard(f"matching cap is {MATCHING_VERTEX_CAP} vertices, graph has {g.vertex_count}")
    return _max_edge_set(g, induced=False)


def induced_matching_number(g: Graph) -> tuple[int, tuple[Edge, ...]]:
    """Exact maximum induced matching size plus the canonical witness."""
    if g.edge_count > INDUCED_EDGE_CAP:
        raise SizeGuard(f"induced-matching cap is {INDUCED_EDGE_CAP} edges, graph has {g.edge_count}")
    return _max_edge_set(g, induced=True)


def matching_stats(g: Graph) -> MatchingStats:
    """Both matching invariants with their witnesses."""
    m, wm = matching_number(g)
    im, wim = induced_matching_number(g)
    if im > m:
        raise LengthMismatch(f"induced matching number {im} exceeds matching number {m}")
    return MatchingStats(m=m, im=im, witness_m=wm, witness_im=wim)
