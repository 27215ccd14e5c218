"""The explicit sign-vector shelling of a Cameron-Walker graph over complete
bipartite support.

Only ``cwgraphs shelling`` and library callers use this module, so the
command line's start-up path does not import it.  ``verify_shelling``,
the checker, stays in ``complexes``.
"""

from __future__ import annotations

import itertools
import json
from functools import cmp_to_key

from .complexes import MINUS, PLUS, SHELLING_FACET_CAP
from .errors import LengthMismatch, NotCompleteBipartiteSupport, SizeGuard
from .graph import label_key
from .records import FrozenRecord, set_field
from .structure import CWDecomposition


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
