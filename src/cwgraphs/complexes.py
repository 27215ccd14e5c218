"""Independence complexes: purity, vertex decomposability, shellings.

Complexes are stored as facet lists.  The maximal independent sets of a
graph are the facets of its independence complex, i.e. the maximal
cliques of the complement; links and deletions recompute maximal faces
from the set-level definitions.
"""

from __future__ import annotations

import itertools
import json
from functools import cmp_to_key

from .errors import (
    LengthMismatch,
    NotAPermutation,
    NotCompleteBipartiteSupport,
    SizeGuard,
    UnknownVertex,
)
from .graph import Graph, label_key
from .records import FrozenRecord, set_field
from .structure import CWDecomposition

COMPLEX_VERTEX_CAP = 26
SHELLING_FACET_CAP = 4096

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
    adj = {v: set(g.neighborhood(v)) for v in g.vertices}
    facets = _max_ind_sets(g.vertices, adj)
    return SimplicialComplex(facets, vertices=g.vertices)


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


def sign_vector_less(a, b) -> bool:
    """Strict order on equal-length +/- vectors: fewer plusses first; on a
    tie the vector with '+' at the first differing entry is smaller."""
    a = tuple(a)
    b = tuple(b)
    if len(a) != len(b):
        raise LengthMismatch(f"sign vectors of lengths {len(a)} and {len(b)}")
    ap = a.count(PLUS)
    bp = b.count(PLUS)
    if ap != bp:
        return ap < bp
    for x, y in zip(a, b):
        if x != y:
            return x == PLUS
    return False


def subset_less(a, b) -> bool:
    """Strict order on index sets: larger cardinality is smaller; on a tie
    compare the indicator-vector difference, left to right."""
    sa = frozenset(a)
    sb = frozenset(b)
    if len(sa) != len(sb):
        return len(sb) < len(sa)
    if sa == sb:
        return False
    return min(sa ^ sb) in sb


def _descending(items, less) -> list:
    def cmp(u, v):
        if less(u, v):
            return -1
        if less(v, u):
            return 1
        return 0

    return sorted(items, key=cmp_to_key(cmp), reverse=True)


def _sign_vectors_descending(length: int) -> list[tuple[str, ...]]:
    return _descending(
        list(itertools.product((PLUS, MINUS), repeat=length)), sign_vector_less
    )


class FacetProvenance(FrozenRecord):
    __slots__ = ("family", "index_set", "sign")

    def __init__(self, family: str, index_set: tuple[int, ...], sign: tuple[str, ...]):
        set_field(self, "family", family)  # "F" or "G"
        set_field(self, "index_set", index_set)
        set_field(self, "sign", sign)


class ShellingOrder(FrozenRecord):
    __slots__ = ("facets", "provenance")

    def __init__(
        self, facets: tuple[frozenset[str], ...], provenance: tuple[FacetProvenance, ...]
    ):
        set_field(self, "facets", facets)
        set_field(self, "provenance", provenance)

    def to_json(self) -> str:
        prov = []
        for p in self.provenance:
            entry = {"family": p.family}
            entry["I" if p.family == "F" else "J"] = list(p.index_set)
            entry["sign"] = "".join(p.sign)
            prov.append(entry)
        return json.dumps(
            {
                "facets": [sorted(f, key=label_key) for f in self.facets],
                "provenance": prov,
            }
        )


def cw_shelling(dec: CWDecomposition, cap: int = SHELLING_FACET_CAP) -> ShellingOrder:
    """Explicit shelling order for a decomposition over complete bipartite
    support.

    Facets come in two shapes: with no left vertex chosen (one family per
    subset I of the triangle-bearing right vertices) or with a nonempty
    left subset J chosen.  Families are emitted in descending index-set
    order, facets within a family in descending sign-vector order.
    """
    dec.validate()
    n, m = dec.n, dec.m
    if dec.support.edge_count != n * m:
        raise NotCompleteBipartiteSupport(
            f"support has {dec.support.edge_count} edges, K_{{{n},{m}}} needs {n * m}"
        )
    t_counts = dec.t_counts
    m_prime = dec.m_prime
    t_total = dec.t
    total = sum(
        2 ** sum(t_counts[i - 1] for i in range(1, m_prime + 1) if i not in set(idx))
        for idx in _all_subsets(m_prime)
    ) + (2**n - 1) * 2**t_total
    if total > cap:
        raise SizeGuard(f"shelling would have {total} facets, cap is {cap}")

    all_leaves = [z for x in dec.left for z in dec.leaf_map[x]]
    bare_right = [dec.right[j] for j in range(m_prime, m)]

    def tri_vertex(i: int, k: int, sign: str) -> str:
        pair = dec.triangle_map[dec.right[i - 1]][k]
        return pair[0] if sign == PLUS else pair[1]

    facets: list[frozenset[str]] = []
    provenance: list[FacetProvenance] = []

    for idx in _descending(_all_subsets(m_prime), subset_less):
        chosen = set(idx)
        slots = [
            (i, k)
            for i in range(1, m_prime + 1)
            if i not in chosen
            for k in range(t_counts[i - 1])
        ]
        base = set(bare_right) | set(all_leaves) | {dec.right[i - 1] for i in chosen}
        for nu in _sign_vectors_descending(len(slots)):
            extra = {tri_vertex(i, k, s) for (i, k), s in zip(slots, nu)}
            facets.append(frozenset(base | extra))
            provenance.append(FacetProvenance("F", tuple(sorted(idx)), nu))

    all_slots = [(i, k) for i in range(1, m_prime + 1) for k in range(t_counts[i - 1])]
    nonempty = [s for s in _all_subsets(n) if s]
    for idx in _descending(nonempty, subset_less):
        chosen = set(idx)
        base = {dec.left[j - 1] for j in chosen}
        for j in range(1, n + 1):
            if j not in chosen:
                base.update(dec.leaf_map[dec.left[j - 1]])
        for nu in _sign_vectors_descending(len(all_slots)):
            extra = {tri_vertex(i, k, s) for (i, k), s in zip(all_slots, nu)}
            facets.append(frozenset(base | extra))
            provenance.append(FacetProvenance("G", tuple(sorted(idx)), nu))

    if len(facets) != total:
        raise LengthMismatch(f"shelling lists {len(facets)} facets, the count is {total}")
    return ShellingOrder(tuple(facets), tuple(provenance))


def _all_subsets(ubound: int) -> list[tuple[int, ...]]:
    out = []
    for r in range(ubound + 1):
        out.extend(itertools.combinations(range(1, ubound + 1), r))
    return out
