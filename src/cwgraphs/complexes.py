"""Independence complexes: purity, vertex decomposability, shelling checks.

Complexes are stored as facet lists.  The maximal independent sets of a
graph are the facets of its independence complex, i.e. the maximal
cliques of the complement.  The enumeration and both
vertex-decomposability tests refuse more than ``COMPLEX_VERTEX_CAP``
vertices; each recurses about once per vertex, so this fixed cap also
keeps them far under CPython's recursion limit.
"""

from __future__ import annotations

from .errors import NotAPermutation, SizeGuard
from .graph import Graph, label_key, sorted_labels
from .structure import CWDecomposition

COMPLEX_VERTEX_CAP = 26


def _facet_key(f: frozenset[str]):
    return tuple(label_key(v) for v in sorted(f, key=label_key))


def _maximal_only(sets) -> tuple[frozenset[str], ...]:
    uniq = sorted(set(sets), key=len, reverse=True)
    kept: list[frozenset[str]] = []
    for s in uniq:
        if not any(s < k for k in kept):
            kept.append(s)
    return tuple(sorted(kept, key=_facet_key))


class SimplicialComplex:
    """Facet-list simplicial complex; equality compares facet sets.

    ``vertices`` is the union of the facets.
    """

    __slots__ = ("facets", "vertices")

    def __init__(self, facets):
        self.facets = _maximal_only(frozenset(f) for f in facets)
        self.vertices = frozenset().union(*self.facets)

    @classmethod
    def _from_maximal(cls, facets: tuple, vertices: frozenset) -> "SimplicialComplex":
        """Wrap facets that are already maximal, distinct and in
        ``_facet_key`` order; ``vertices`` must be their union.  The
        independence complex passes the graph's vertex set, which is that
        union because every vertex lies in a maximal independent set."""
        cx = cls.__new__(cls)
        cx.facets = facets
        cx.vertices = vertices
        return cx

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        return f"SimplicialComplex({len(self.facets)} facets on {len(self.vertices)} vertices)"

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) <= 1


def _bits(mask: int):
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _adjacency_masks(g: Graph) -> tuple[list[int], list[int]]:
    """Open and closed neighbourhoods as int masks: vertex i is bit i of
    ``g.vertices`` (label order), so ascending bits follow that order."""
    rank = {v: i for i, v in enumerate(g.vertices)}
    adj = [0] * len(rank)
    for u, v in g.edges:
        a, b = rank[u], rank[v]
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj, [a | 1 << i for i, a in enumerate(adj)]


def _maximal_independent_sets(
    adj: list[int], closed: list[int], p: int, found, need: int = 0,
    r: int = 0, dom: int = 0, x: int = 0,
) -> bool:
    """Pivoting Bron-Kerbosch on int masks, shared by the independence
    complex and the shedding test.

    Calls ``found(members, dominated)`` on each maximal independent set
    of the subgraph induced on mask p, with the union of its members'
    neighbourhoods, until ``found`` returns true, and returns whether it
    did.  ``adj`` and ``closed`` are the masks of ``_adjacency_masks``.
    A branch is dropped once some vertex of ``need`` that the set does
    not dominate has no neighbour left among the candidates p, since no
    set below it can dominate ``need`` then.  r, dom and x carry the
    recursion, one level per member: the set so far, the union of its
    neighbourhoods and the excluded vertices.  Sets go to a callback
    rather than being yielded, because a generator per node made the
    graph-level test about a third slower (CPython 3.11).
    """
    if not p:
        return not x and found(r, dom)
    for u in _bits(need & ~dom):
        if not adj[u] & p:
            return False
    pivot = min(_bits(p | x), key=lambda u: (p & closed[u]).bit_count())
    for v in _bits(p & closed[pivot]):
        if _maximal_independent_sets(
            adj, closed, p & ~closed[v], found, need, r | 1 << v, dom | adj[v], x & ~closed[v]
        ):
            return True
        p &= ~(1 << v)
        x |= 1 << v
    return False


def _maximal_independent_masks(g: Graph) -> list[int]:
    """The maximal independent sets of g, each once, as masks over
    ``g.vertices`` in the order the search finds them."""
    if g.vertex_count > COMPLEX_VERTEX_CAP:
        raise SizeGuard(
            f"independence-complex cap is {COMPLEX_VERTEX_CAP} vertices, graph has {g.vertex_count}"
        )
    adj, closed = _adjacency_masks(g)
    sets: list[int] = []
    # list.append returns None, so every maximal independent set is
    # reported, each once: no subset filter is needed.
    _maximal_independent_sets(adj, closed, (1 << g.vertex_count) - 1, lambda r, dom: sets.append(r))
    return sets


def independence_complex(g: Graph) -> SimplicialComplex:
    """The complex whose facets are the maximal independent sets of g."""
    order = g.vertices
    masks = _maximal_independent_masks(g)
    facets = sorted((frozenset(order[i] for i in _bits(r)) for r in masks), key=_facet_key)
    return SimplicialComplex._from_maximal(tuple(facets), frozenset(order))


# -- vertex decomposability -----------------------------------------------


def is_vertex_decomposable(c: SimplicialComplex):
    """Exact recursive test; returns (flag, witness tree of shed vertices).

    A vertex x sheds when no face of the link is a facet of the deletion.
    Runs on facet bitmasks: vertex i is bit i of the support in label
    order, and shedding vertices are tried in ascending bit order, first
    success wins, so the witness is a deterministic function of the
    input.  Results are memoized for this call only, keyed by the facet
    masks in ascending order.
    """
    support = c.vertices
    if len(support) > COMPLEX_VERTEX_CAP:
        raise SizeGuard(
            f"vertex-decomposability cap is {COMPLEX_VERTEX_CAP} vertices, complex has {len(support)}"
        )
    order = sorted_labels(support)
    bit = {v: 1 << i for i, v in enumerate(order)}
    memo: dict[tuple[int, ...], tuple] = {}

    def rec(facets: tuple[int, ...]):
        if not facets:
            return True, {"kind": "empty"}
        if len(facets) == 1:
            return True, {"kind": "simplex"}
        got = memo.get(facets)
        if got is not None:
            return got
        span = 0
        for f in facets:
            span |= f
        res = (False, None)
        for x in _bits(span):
            b = 1 << x
            rest = tuple(f for f in facets if not f & b)
            link = tuple(f ^ b for f in facets if f & b)
            # x sheds iff each link facet f - x lies in a facet without x,
            # which are then the deletion's facets; both stay ascending.
            if not all(any(not l & ~g for g in rest) for l in link):
                continue
            ok1, w1 = rec(rest)
            if not ok1:
                continue
            ok2, w2 = rec(link)
            if not ok2:
                continue
            res = (True, {"kind": "shed", "vertex": order[x], "deleted": w1, "link": w2})
            break
        memo[facets] = res
        return res

    return rec(tuple(sorted(sum(bit[v] for v in f) for f in c.facets)))


def is_vertex_decomposable_graph(g: Graph):
    """Graph-level recursion: G is vertex decomposable iff it is edgeless
    or some vertex v has G-v and G-N[v] vertex decomposable with no
    independent set of G-N[v] maximal in G-v.

    Splits into connected components; agrees with the complex-level test.
    Runs on bitmasks: vertex i is bit i of ``g.vertices`` (label order),
    so components listed by lowest bit and candidates tried in ascending
    bit order follow the canonical vertex order.
    """
    if g.vertex_count > COMPLEX_VERTEX_CAP:
        raise SizeGuard(
            f"vertex-decomposability cap is {COMPLEX_VERTEX_CAP} vertices, graph has {g.vertex_count}"
        )
    order = g.vertices
    adj, closed = _adjacency_masks(g)
    memo: dict[int, tuple] = {}

    def components(vs: int) -> list[int]:
        comps = []
        while vs:
            comp = frontier = vs & -vs
            while frontier:
                reach = 0
                for u in _bits(frontier):
                    reach |= adj[u]
                frontier = reach & vs & ~comp
                comp |= frontier
            comps.append(comp)
            vs &= ~comp
        return comps

    def rec(vs: int):
        got = memo.get(vs)
        if got is not None:
            return got
        if not any(adj[v] & vs for v in _bits(vs)):
            res = (True, {"kind": "edgeless"})
            memo[vs] = res
            return res
        comps = components(vs)
        if len(comps) > 1:
            parts = []
            res = (True, None)
            for comp in comps:
                ok, w = rec(comp)
                if not ok:
                    res = (False, None)
                    break
                parts.append(w)
            if res[0]:
                res = (True, {"kind": "components", "parts": parts})
            memo[vs] = res
            return res
        res = (False, None)
        for v in _bits(vs):
            rest = vs & ~(1 << v)
            outside = rest & ~adj[v]
            # v is a shedding vertex iff no maximal independent set of
            # G-N[v] dominates N(v), i.e. none is maximal in G-v; the
            # search stops at the first one that does.
            need = adj[v] & vs
            if _maximal_independent_sets(
                adj, closed, outside, lambda r, dom: not need & ~dom, need
            ):
                continue
            ok1, w1 = rec(rest)
            if not ok1:
                continue
            ok2, w2 = rec(outside)
            if not ok2:
                continue
            res = (
                True,
                {
                    "kind": "shed",
                    "vertex": order[v],
                    "minus_vertex": w1,
                    "minus_closed_neighborhood": w2,
                },
            )
            break
        memo[vs] = res
        return res

    return rec((1 << len(order)) - 1)


# -- shellings --------------------------------------------------------------


def verify_shelling(c: SimplicialComplex, order) -> tuple[bool, int | None]:
    """Check the shelling condition; returns (ok, first failing 1-based index).

    Facet i > 1 must meet the earlier facets in a pure complex of
    codimension one: every maximal intersection with a predecessor has
    cardinality |F_i| - 1.  Checked on facet bitmasks: that holds iff
    each F_i - F_j with j < i meets D, the union of the one-vertex
    differences F_i - F_k over k < i, as F_i & F_j then lies in one such
    F_i & F_k.
    """
    facs = [frozenset(f) for f in order]
    if len(facs) != len(c.facets) or set(facs) != set(c.facets):
        raise NotAPermutation("order must be a permutation of the facets")
    bit = {v: 1 << i for i, v in enumerate(c.vertices)}
    masks = [sum(bit[v] for v in f) for f in facs]
    for i in range(1, len(masks)):
        fi = masks[i]
        diffs = [fi & ~fj for fj in masks[:i]]
        d = 0
        for diff in diffs:
            if not diff & (diff - 1):
                d |= diff
        if any(not diff & d for diff in diffs):
            return False, i + 1
    return True, None


def cw_shelling(dec: CWDecomposition):
    """Stand-in for ``shelling.cw_shelling``, imported on first call.

    The benchmark's tracer wraps this name in this module, so it stays
    here while the shelling itself lives off the start-up path.
    """
    from .shelling import cw_shelling as impl

    return impl(dec)
