"""Brute-force reference implementations, used by tests and the CLI.

These deliberately share no code with the optimized modules they check:
matchings are found by sweeping every edge subset, independent sets by
sweeping every vertex subset, and shellings by exhaustive search over
facet orders.
"""

from __future__ import annotations

import itertools

from .errors import SizeGuard
from .graph import Graph, label_key, sorted_labels
from .records import FrozenRecord, set_field


# Fixed limits of the sweeps; only the independent-set sweep takes its
# vertex budget as a parameter.
ORACLE_EDGE_CAP = 20
ORACLE_FACET_CAP = 12
ENUMERATION_VERTEX_CAP = 6


class OracleBudget(FrozenRecord):
    __slots__ = ("max_vertices",)

    def __init__(self, max_vertices: int = 16):
        set_field(self, "max_vertices", max_vertices)


DEFAULT_BUDGET = OracleBudget()


def oracle_matchings(g: Graph) -> tuple[int, int]:
    """(m, im) by enumerating all edge subsets.

    A subset is a matching iff its edges are pairwise disjoint, and an
    induced matching iff additionally no graph edge touches two of its
    members; both are pairwise conditions, checked incrementally.
    """
    edges = g.edges
    k = len(edges)
    if k > ORACLE_EDGE_CAP:
        raise SizeGuard(f"oracle edge budget is {ORACLE_EDGE_CAP}, graph has {k}")
    if k == 0:
        return 0, 0

    conflict_m = [0] * k
    conflict_im = [0] * k
    for i in range(k):
        a, b = edges[i]
        for j in range(i + 1, k):
            c, d = edges[j]
            share = bool({a, b} & {c, d})
            bridge = share or any(
                g.has_edge(x, y) for x in (a, b) for y in (c, d)
            )
            if share:
                conflict_m[i] |= 1 << j
                conflict_m[j] |= 1 << i
            if bridge:
                conflict_im[i] |= 1 << j
                conflict_im[j] |= 1 << i

    ok_m = bytearray(1 << k)
    ok_im = bytearray(1 << k)
    size = bytearray(1 << k)
    ok_m[0] = ok_im[0] = 1
    best_m = best_im = 0
    for s in range(1, 1 << k):
        low = s & -s
        e = low.bit_length() - 1
        rest = s ^ low
        size[s] = size[rest] + 1
        if ok_m[rest] and not (conflict_m[e] & rest):
            ok_m[s] = 1
            if size[s] > best_m:
                best_m = size[s]
        if ok_im[rest] and not (conflict_im[e] & rest):
            ok_im[s] = 1
            if size[s] > best_im:
                best_im = size[s]
    return best_m, best_im


def oracle_max_independent_sets(
    g: Graph, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple[tuple[str, ...], ...]:
    """All maximal independent sets by sweeping every vertex subset."""
    n = g.vertex_count
    if n > budget.max_vertices:
        raise SizeGuard(f"oracle vertex budget is {budget.max_vertices}, graph has {n}")
    verts = g.vertices
    pos = {v: i for i, v in enumerate(verts)}
    nmask = [0] * n  # closed neighbourhoods as bitmasks
    amask = [0] * n
    for i, v in enumerate(verts):
        m = 1 << i
        a = 0
        for w in g.neighborhood(v):
            a |= 1 << pos[w]
        amask[i] = a
        nmask[i] = m | a

    full = (1 << n) - 1
    independent = bytearray(1 << n)
    covered = [0] * (1 << n)
    independent[0] = 1
    found = []
    for s in range(1, 1 << n):
        low = s & -s
        e = low.bit_length() - 1
        rest = s ^ low
        covered[s] = covered[rest] | nmask[e]
        if independent[rest] and not (amask[e] & rest):
            independent[s] = 1
            if covered[s] == full:
                found.append(
                    sorted_labels(verts[i] for i in range(n) if s & (1 << i))
                )
    found.sort(key=lambda f: tuple(label_key(v) for v in f))
    return tuple(found)


def oracle_shelling_exists(c):
    """Search every facet order for a shelling; returns (flag, order or None).

    Whether an order can be extended depends only on the set of facets
    placed so far, so the search runs over facet subsets.
    """
    facets = list(c.facets)
    s = len(facets)
    if s > ORACLE_FACET_CAP:
        raise SizeGuard(f"oracle facet budget is {ORACLE_FACET_CAP}, complex has {s}")
    if s <= 1:
        return True, tuple(facets)

    def can_append(used: tuple[int, ...], i: int) -> bool:
        fi = facets[i]
        inters = {facets[j] & fi for j in used}
        maximal = [x for x in inters if not any(x < y for y in inters)]
        return all(len(x) == len(fi) - 1 for x in maximal)

    # BFS over subsets of placed facets, remembering one witness order.
    reachable: dict[int, tuple[int, ...]] = {}
    for i in range(s):
        reachable[1 << i] = (i,)
    frontier = dict(reachable)
    for _ in range(s - 1):
        nxt: dict[int, tuple[int, ...]] = {}
        for mask, order in frontier.items():
            for i in range(s):
                bit = 1 << i
                if mask & bit or (mask | bit) in reachable or (mask | bit) in nxt:
                    continue
                if can_append(order, i):
                    nxt[mask | bit] = order + (i,)
        reachable.update(nxt)
        frontier = nxt
        if not frontier:
            break
    full = (1 << s) - 1
    if full in reachable:
        return True, tuple(facets[i] for i in reachable[full])
    return False, None


def enumerate_labeled_graphs(n: int):
    """All labelled graphs on vertices v1..vn, in deterministic order."""
    if n > ENUMERATION_VERTEX_CAP:
        raise SizeGuard(f"labelled enumeration is capped at {ENUMERATION_VERTEX_CAP} vertices")
    verts = [f"v{i}" for i in range(1, n + 1)]
    pairs = list(itertools.combinations(verts, 2))
    for code in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if code & (1 << i)]
        yield Graph(verts, edges)
