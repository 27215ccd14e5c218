"""Reference checks, run after the timed region.

Each check returns None for a correct output and a short reason for a
wrong one.  Expected values come from the construction of the input
(the decomposition a Cameron-Walker graph was built from, or the known
tag of a control), from the package's brute-force ``oracle`` module, or
from the small independent helpers below; none of them is timed.
"""

from __future__ import annotations

from workloads import CAMERON_WALKER, OTHER, STAR, STAR_TRIANGLE

# Graphs up to this size also get their facets checked by the oracle's
# sweep over all vertex subsets.
ORACLE_VERTICES = 14


def _adjacency(g) -> dict:
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _connected(adj) -> bool:
    start = next(iter(adj))
    seen, todo = {start}, [start]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(adj)


def _is_star(adj) -> bool:
    return any(len(ns) == len(adj) - 1 and all(len(adj[w]) == 1 for w in ns)
               for ns in adj.values()) or len(adj) == 1


def _is_star_triangle(adj) -> bool:
    for c, ns in adj.items():
        rest = [v for v in adj if v != c]
        if len(ns) != len(rest) or len(rest) < 2:
            continue
        if all(len(adj[v]) == 2 and len(adj[v] - {c}) == 1 for v in rest):
            return True
    return False


def oracle_tag(cw, g) -> str:
    """Classification from the definition: connected with im = m (by the
    oracle's edge-subset sweep), then star / star triangle / the rest."""
    adj = _adjacency(g)
    if not _connected(adj):
        return OTHER
    m, im = cw.oracle.oracle_matchings(g)
    if m != im:
        return OTHER
    if _is_star(adj):
        return STAR
    if _is_star_triangle(adj):
        return STAR_TRIANGLE
    return CAMERON_WALKER


def _oracle_facets(cw, g):
    return cw.oracle.oracle_max_independent_sets(g, cw.oracle.OracleBudget(max_vertices=ORACLE_VERTICES))


def check_report(cw, case, rep):
    """full_report of a graph built from a known decomposition."""
    e = case.expect
    n, m = e["n"], e["m"]
    f, t = sum(e["f_counts"]), sum(e["t_counts"])
    cm = all(x == 1 for x in e["f_counts"]) and all(x == 1 for x in e["t_counts"])
    m_prime = sum(1 for x in e["t_counts"] if x)
    if rep.partial:
        return "partial report under the cap"
    if rep.classification is None or rep.classification.tag != CAMERON_WALKER:
        return "not classified as Cameron-Walker"
    if not rep.m == rep.im == rep.reg == n + t:
        return f"m, im, reg = {rep.m}, {rep.im}, {rep.reg}; expected n + t = {n + t}"
    if rep.vertex_decomposable is not True or rep.sequentially_cm is not True:
        return "not vertex decomposable / sequentially CM"
    if rep.cm is not cm or rep.unmixed is not cm:
        return f"cm, unmixed = {rep.cm}, {rep.unmixed}; expected {cm}"
    if rep.cm_type != (2**m if cm else None):
        return f"cm_type {rep.cm_type}"
    if rep.gorenstein is not False:
        return "Gorenstein"
    witness = {n + 2 * t, m + f + t, n + m_prime + t}
    if not witness <= set(rep.cover_cardinalities):
        return f"cover cardinalities {rep.cover_cardinalities} miss {sorted(witness)}"
    if rep.pd != case.nv - rep.i_g:
        return "pd != |V| - i(G)"
    if case.nv <= ORACLE_VERTICES:
        if rep.i_g != min(len(s) for s in _oracle_facets(cw, case.graph)):
            return "i(G) disagrees with the oracle"
    return None


def check_tag(cw, case, cls):
    want = case.expect.get("tag") or oracle_tag(cw, case.graph)
    return None if cls.tag == want else f"tag {cls.tag}, expected {want}"


def check_certificate(cw, case, out):
    ok, vd, shelling_facets, complex_facets = out
    if not ok:
        return "shelling order fails verify_shelling"
    if not vd:
        return "complex not vertex decomposable"
    if shelling_facets != complex_facets:
        return "shelling does not list every facet"
    if case.nv <= ORACLE_VERTICES and complex_facets != len(_oracle_facets(cw, case.graph)):
        return "facet count disagrees with the oracle"
    return None


def check_cli(cw, case, out):
    """``cwgraphs analyze`` output against the in-process report."""
    code, stdout = out
    rep = cw.full_report(case.graph)
    if stdout != rep.to_json() + "\n":
        return "stdout differs from full_report(g).to_json()"
    if code != (2 if rep.partial else 0):
        return f"exit code {code}"
    return None
