"""Independence complexes: purity, vertex decomposability, shelling checks.

Complexes are stored as facet lists.  The maximal independent sets of a
graph are the facets of its independence complex, i.e. the maximal
cliques of the complement; links and deletions recompute maximal faces
from the set-level definitions.
"""

from __future__ import annotations

import json

from .errors import NotAPermutation, SizeGuard, UnknownVertex
from .graph import Graph, label_key
from .structure import CWDecomposition

COMPLEX_VERTEX_CAP = 26
SHELLING_FACET_CAP = 4096
# The Bron-Kerbosch enumeration and both vertex-decomposability tests
# recurse about once per vertex, so above this many vertices they raise
# SizeGuard whatever their cap says.  At 512 vertices they use about 525
# frames, leaving a caller over 450 of CPython's default limit of 1000.
RECURSION_VERTEX_CEILING = 512

PLUS = "+"
MINUS = "-"


def _facet_key(f: frozenset[str]):
    return tuple(label_key(v) for v in sorted(f, key=label_key))


def _maximal_only(sets) -> tuple[frozenset[str], ...]:
    uniq = sorted(set(sets), key=len, reverse=True)
    kept: list[frozenset[str]] = []
    for s in uniq:
        if not any(s < k or s == k for k in kept):
            kept.append(s)
    return tuple(sorted(kept, key=_facet_key))


class SimplicialComplex:
    """Facet-list simplicial complex; equality compares facet sets.

    ``vertices`` is an explicit ground set and may exceed the union of
    the facets (so deleting a vertex that lies in no facet is legal and
    leaves the facets untouched).
    """

    __slots__ = ("facets", "vertices")

    def __init__(self, facets, vertices=None):
        fs = [frozenset(f) for f in facets]
        self.facets = _maximal_only(fs)
        support = set().union(*self.facets) if self.facets else set()
        if vertices is None:
            self.vertices = frozenset(support)
        else:
            self.vertices = frozenset(vertices) | support

    @classmethod
    def _from_maximal(cls, facets: tuple, vertices: frozenset) -> "SimplicialComplex":
        """Wrap facets that are already maximal, distinct and in
        ``_facet_key`` order, on a ground set containing them all."""
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

    def facet_support(self) -> frozenset[str]:
        return frozenset().union(*self.facets) if self.facets else frozenset()

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) <= 1

    def is_simplex(self) -> bool:
        return len(self.facets) <= 1

    def link(self, v: str) -> "SimplicialComplex":
        if v not in self.vertices:
            raise UnknownVertex(f"unknown vertex {v!r}")
        hit = [f - {v} for f in self.facets if v in f]
        return SimplicialComplex(hit, vertices=self.vertices - {v})

    def delete(self, v: str) -> "SimplicialComplex":
        if v not in self.vertices:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return SimplicialComplex(
            [f - {v} for f in self.facets], vertices=self.vertices - {v}
        )

    def to_json(self) -> str:
        return json.dumps(
            {"facets": [sorted(f, key=label_key) for f in self.facets]}
        )


def _check_ceiling(what: str, count: int) -> None:
    if count > RECURSION_VERTEX_CEILING:
        raise SizeGuard(
            f"{what} recursion ceiling is {RECURSION_VERTEX_CEILING} vertices, got {count}"
        )


def _max_ind_sets(vertices, adj) -> list[frozenset[str]]:
    """Maximal independent sets via pivoting Bron-Kerbosch on the complement."""
    verts = sorted(vertices, key=label_key)
    vset = set(verts)
    comp = {v: vset - adj[v] - {v} for v in verts}
    out: list[frozenset[str]] = []

    def bk(r: list, p: set, x: set) -> None:
        if not p and not x:
            out.append(frozenset(r))
            return
        cand = sorted(p | x, key=label_key)
        pivot = max(cand, key=lambda u: len(comp[u] & p))
        for v in sorted(p - comp[pivot], key=label_key):
            bk(r + [v], p & comp[v], x & comp[v])
            p = p - {v}
            x = x | {v}

    bk([], set(verts), set())
    return out


def independence_complex(g: Graph, cap: int = COMPLEX_VERTEX_CAP) -> SimplicialComplex:
    """The complex whose facets are the maximal independent sets of g."""
    if g.vertex_count > cap:
        raise SizeGuard(f"independence-complex cap is {cap} vertices, graph has {g.vertex_count}")
    _check_ceiling("independence-complex", g.vertex_count)
    adj = {v: set(g.neighborhood(v)) for v in g.vertices}
    # Bron-Kerbosch reports each maximal independent set once, so no
    # subset filter is needed; only the order is restored.
    facets = sorted(_max_ind_sets(g.vertices, adj), key=_facet_key)
    return SimplicialComplex._from_maximal(tuple(facets), frozenset(g.vertices))


# -- vertex decomposability -----------------------------------------------


def is_vertex_decomposable(c: SimplicialComplex, cap: int = COMPLEX_VERTEX_CAP):
    """Exact recursive test; returns (flag, witness tree of shed vertices).

    A vertex x sheds when no face of the link is a facet of the deletion,
    i.e. no deletion facet sits inside a link facet.  The search tries
    shedding vertices in canonical order, first success wins, so the
    witness is a deterministic function of the input.  Results are
    memoized for this call only, keyed by facet bitmasks rather than the
    facets themselves so the memo holds no subcomplex alive.
    """
    support = c.facet_support()
    if len(support) > cap:
        raise SizeGuard(f"vertex-decomposability cap is {cap} vertices")
    _check_ceiling("vertex-decomposability", len(support))
    bit = {v: 1 << i for i, v in enumerate(support)}
    memo: dict[tuple[int, ...], tuple] = {}

    def rec(cx: SimplicialComplex):
        if not cx.facets:
            return True, {"kind": "empty"}
        if len(cx.facets) == 1:
            return True, {"kind": "simplex"}
        key = tuple(sum(bit[v] for v in f) for f in cx.facets)
        got = memo.get(key)
        if got is not None:
            return got
        res = (False, None)
        for x in sorted(cx.facet_support(), key=label_key):
            deleted = cx.delete(x)
            link = cx.link(x)
            if any(any(d <= l for l in link.facets) for d in deleted.facets):
                continue
            ok1, w1 = rec(deleted)
            if not ok1:
                continue
            ok2, w2 = rec(link)
            if not ok2:
                continue
            res = (True, {"kind": "shed", "vertex": x, "deleted": w1, "link": w2})
            break
        memo[key] = res
        return res

    return rec(c)


def is_vertex_decomposable_graph(g: Graph, cap: int = COMPLEX_VERTEX_CAP):
    """Graph-level recursion: G is vertex decomposable iff it is edgeless
    or some vertex v has G-v and G-N[v] vertex decomposable with no
    independent set of G-N[v] maximal in G-v.

    Splits into connected components; agrees with the complex-level test.
    Runs on bitmasks: vertex i is bit i of ``g.vertices`` (label order),
    so components listed by lowest bit and candidates tried in ascending
    bit order follow the canonical vertex order.
    """
    if g.vertex_count > cap:
        raise SizeGuard(f"vertex-decomposability cap is {cap} vertices")
    _check_ceiling("vertex-decomposability", g.vertex_count)
    order = g.vertices
    index = {v: i for i, v in enumerate(order)}
    adj = [sum(1 << index[w] for w in g.neighborhood(v)) for v in order]
    closed = [a | 1 << i for i, a in enumerate(adj)]
    memo: dict[int, tuple] = {}

    def bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def components(vs: int) -> list[int]:
        comps = []
        while vs:
            comp = frontier = vs & -vs
            while frontier:
                reach = 0
                for u in bits(frontier):
                    reach |= adj[u]
                frontier = reach & vs & ~comp
                comp |= frontier
            comps.append(comp)
            vs &= ~comp
        return comps

    def dominates(need: int, dom: int, p: int, x: int) -> bool:
        """Pivoting Bron-Kerbosch for independent sets, stopped at the
        first maximal one whose neighbourhood covers ``need``.

        The current set R is implicit: ``dom`` is the union of its
        neighbourhoods, p its candidates and x the excluded vertices.
        """
        if not p:
            return not x and not need & ~dom
        for u in bits(need & ~dom):
            if not adj[u] & p:
                return False
        pivot = min(bits(p | x), key=lambda u: (p & closed[u]).bit_count())
        for v in bits(p & closed[pivot]):
            if dominates(need, dom | adj[v], p & ~closed[v], x & ~closed[v]):
                return True
            p &= ~(1 << v)
            x |= 1 << v
        return False

    def rec(vs: int):
        got = memo.get(vs)
        if got is not None:
            return got
        if not any(adj[v] & vs for v in bits(vs)):
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
        for v in bits(vs):
            rest = vs & ~(1 << v)
            outside = rest & ~adj[v]
            # v is a shedding vertex iff no maximal independent set of
            # G-N[v] dominates N(v), i.e. none is maximal in G-v.
            if dominates(adj[v] & vs, 0, outside, 0):
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
    cardinality |F_i| - 1.
    """
    facs = [frozenset(f) for f in order]
    if len(facs) != len(c.facets) or set(facs) != set(c.facets):
        raise NotAPermutation("order must be a permutation of the facets")
    for i in range(1, len(facs)):
        fi = facs[i]
        inters = {facs[j] & fi for j in range(i)}
        maximal = [s for s in inters if not any(s < t for t in inters)]
        if any(len(s) != len(fi) - 1 for s in maximal):
            return False, i + 1
    return True, None


def cw_shelling(dec: CWDecomposition, cap: int = SHELLING_FACET_CAP):
    """Stand-in for ``shelling.cw_shelling``, imported on first call.

    The benchmark's tracer wraps this name in this module, so it stays
    here while the shelling itself lives off the start-up path.
    """
    from .shelling import cw_shelling as impl

    return impl(dec, cap)
