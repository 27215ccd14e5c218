"""The explicit sign-vector shelling of a Cameron-Walker graph over complete
bipartite support.

Only ``cwgraphs shelling`` and library callers use this module, so the
command line's start-up path does not import it.  ``verify_shelling``,
the checker, stays in ``complexes``.  A shelling of more than
``SHELLING_FACET_CAP`` facets is refused before any facet is built;
``PLUS`` and ``MINUS`` are the entries of its sign vectors.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

from .errors import LengthMismatch, NotCompleteBipartiteSupport, SizeGuard
from .graph import label_key
from .records import FrozenRecord, set_field
from .structure import CWDecomposition

SHELLING_FACET_CAP = 4096
PLUS = "+"
MINUS = "-"


def _sign_vectors_descending(length: int) -> list[tuple[str, ...]]:
    """Every +/- vector of the length, more plusses first; on a tie the
    one with '-' at the first differing entry first."""
    return [
        tuple(PLUS if i in plus else MINUS for i in range(length))
        for k in range(length, -1, -1)
        for plus in reversed(list(itertools.combinations(range(length), k)))
    ]


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


def cw_shelling(dec: CWDecomposition) -> ShellingOrder:
    """Explicit shelling order for a decomposition over complete bipartite
    support.

    Facets come in two shapes: with no left vertex chosen (one family per
    subset I of the triangle-bearing right vertices) or with a nonempty
    left subset J chosen.  Families are emitted in the order
    ``_all_subsets`` enumerates their index sets, by size and then
    lexicographically; facets within a family in descending sign-vector
    order.
    """
    n, m = dec.n, dec.m
    # each view decodes the certificate, so each is read once
    edge_count = len(dec.support_edges)
    if edge_count != n * m:
        raise NotCompleteBipartiteSupport(
            f"support has {edge_count} edges, K_{{{n},{m}}} needs {n * m}"
        )
    t_counts = dec.t_counts
    m_prime = dec.m_prime
    # F_I has 2^(sum of t_i over i not in I) facets, so the F families
    # together have prod (1 + 2^t_i) over i <= m'; each G_J has 2^t.
    total = math.prod(1 + 2**t for t in t_counts[:m_prime]) + (2**n - 1) * 2**dec.t
    if total > SHELLING_FACET_CAP:
        raise SizeGuard(f"shelling would have {total} facets, cap is {SHELLING_FACET_CAP}")

    left, right, leaves, triangles = dec.left, dec.right, dec.leaves, dec.triangles
    bare_right = right[m_prime:]

    def tri_vertex(i: int, k: int, sign: str) -> str:
        pair = triangles[i - 1][k]
        return pair[0] if sign == PLUS else pair[1]

    facets: list[frozenset[str]] = []
    provenance: list[FacetProvenance] = []

    # one list per vector length, not per family
    sign_vectors = functools.cache(_sign_vectors_descending)
    for idx in _all_subsets(m_prime):
        chosen = set(idx)
        slots = [
            (i, k)
            for i in range(1, m_prime + 1)
            if i not in chosen
            for k in range(t_counts[i - 1])
        ]
        base = set(bare_right).union(*leaves, {right[i - 1] for i in chosen})
        for nu in sign_vectors(len(slots)):
            extra = {tri_vertex(i, k, s) for (i, k), s in zip(slots, nu)}
            facets.append(frozenset(base | extra))
            provenance.append(FacetProvenance("F", idx, nu))

    all_slots = [(i, k) for i in range(1, m_prime + 1) for k in range(t_counts[i - 1])]
    for idx in _all_subsets(n)[1:]:
        chosen = set(idx)
        base = {left[j - 1] for j in chosen}
        for j in range(1, n + 1):
            if j not in chosen:
                base.update(leaves[j - 1])
        for nu in sign_vectors(len(all_slots)):
            extra = {tri_vertex(i, k, s) for (i, k), s in zip(all_slots, nu)}
            facets.append(frozenset(base | extra))
            provenance.append(FacetProvenance("G", idx, nu))

    if len(facets) != total:
        raise LengthMismatch(f"shelling lists {len(facets)} facets, the count is {total}")
    return ShellingOrder(tuple(facets), tuple(provenance))


def _all_subsets(ubound: int) -> list[tuple[int, ...]]:
    """Every subset of 1..ubound, by size and then lexicographically."""
    out = []
    for r in range(ubound + 1):
        out.extend(itertools.combinations(range(1, ubound + 1), r))
    return out
