"""Edge-ideal invariants through their combinatorial characterizations.

Everything here reduces to exact combinatorics: minimal vertex covers
are complements of maximal independent sets, Cohen-Macaulayness of a
Cameron-Walker graph is the one-leaf/one-triangle shape, the
Cohen-Macaulay type is 2^m (certified by counting maximal independent
sets of a derived subgraph), and regularity comes from im = m.
"""

from __future__ import annotations

import json

from .complexes import (
    COMPLEX_VERTEX_CAP,
    _maximal_independent_masks,
    independence_complex,
    is_vertex_decomposable_graph,
)
from .errors import (
    InvalidDecomposition,
    NotCameronWalker,
    NotCohenMacaulay,
    NotInFamily,
    SizeGuard,
)
from .graph import Graph
from .matchings import induced_matching_number, matching_number
from .records import Record
from .structure import (
    TAG_CAMERON_WALKER,
    TAG_STAR,
    TAG_STAR_TRIANGLE,
    Classification,
    CWDecomposition,
    build_cw,
    classify,
)

# The im = m family.  Every member is vertex decomposable: a Cameron-Walker
# graph sheds each left vertex x, whose leaf z has N[z] inside N[x], and
# stars and star triangles are chordal (Woodroofe 2009).
_IM_EQUALS_M = (TAG_STAR, TAG_STAR_TRIANGLE, TAG_CAMERON_WALKER)


def minimal_vertex_covers(g: Graph):
    """All minimal vertex covers: complements of the independence facets."""
    cx = independence_complex(g)
    covers = [tuple(v for v in g.vertices if v not in f) for f in cx.facets]
    return tuple(sorted(covers, key=lambda c: [g._rank[v] for v in c]))


def is_unmixed(g: Graph) -> bool:
    """True iff all minimal vertex covers share one cardinality, i.e. the
    independence complex is pure."""
    return independence_complex(g).is_pure()


def _is_vertex_cover(g: Graph, cover: set) -> bool:
    return all(u in cover or v in cover for u, v in g.edges)


def _is_minimal_vertex_cover(g: Graph, cover: set) -> bool:
    if not _is_vertex_cover(g, cover):
        return False
    return all(not _is_vertex_cover(g, cover - {v}) for v in cover)


def cw_witness_covers(dec: CWDecomposition):
    """The three minimal vertex covers of a Cameron-Walker graph, in the
    canonical labels of build_cw:

    (i)   all left vertices plus both degree-2 vertices of every triangle;
    (ii)  all right vertices, all leaves, one degree-2 vertex per triangle;
    (iii) all left vertices, the triangle-bearing right vertices, and one
          degree-2 vertex per triangle.
    """
    # each view decodes the certificate, so each is read once
    cmap = dec.canonical_map()
    right, triangles = dec.right, dec.triangles
    xs = {cmap[x] for x in dec.left}
    ys = {cmap[y] for y in right}
    zs = {cmap[z] for leaves in dec.leaves for z in leaves}
    pairs = [pair for at_y in triangles for pair in at_y]
    w_both = {cmap[a] for pair in pairs for a in pair}
    w_first = {cmap[a] for a, _ in pairs}
    bearing = {cmap[y] for y, at_y in zip(right, triangles) if at_y}
    return (
        frozenset(xs | w_both),
        frozenset(ys | zs | w_first),
        frozenset(xs | bearing | w_first),
    )


def cw_cover_cardinalities(dec: CWDecomposition) -> tuple[int, int, int]:
    """(n + 2t, m + f + t, n + m' + t); the witness covers are checked to
    be minimal vertex covers of the built graph."""
    g = build_cw(dec)
    covers = cw_witness_covers(dec)
    triple = (
        dec.n + 2 * dec.t,
        dec.m + dec.f + dec.t,
        dec.n + dec.m_prime + dec.t,
    )
    for cover, size in zip(covers, triple):
        if len(cover) != size or not _is_minimal_vertex_cover(g, set(cover)):
            raise InvalidDecomposition("witness cover failed its minimality check")
    return triple


def is_cm_cw(dec: CWDecomposition) -> bool:
    """Cohen-Macaulay iff exactly one leaf per left vertex and exactly one
    pendant triangle per right vertex."""
    return all(c == 1 for c in (*dec.f_counts, *dec.t_counts))


def g_prime(dec: CWDecomposition) -> Graph:
    """Induced subgraph of the built graph on the left vertices, the right
    vertices, and one fixed triangle vertex (the '+') per right vertex:
    the support plus the edges y_j - w_{j,1}+, in canonical labels.

    Only defined for Cohen-Macaulay decompositions.
    """
    if not is_cm_cw(dec):
        raise NotCohenMacaulay("the derived subgraph needs a Cohen-Macaulay shape")
    # each view decodes the certificate, so each is read once
    cmap = dec.canonical_map()
    right = dec.right
    plus = [(cmap[y], cmap[a]) for y, ((a, _),) in zip(right, dec.triangles)]
    return Graph(
        [cmap[v] for v in dec.left + right] + [w for _, w in plus],
        [(cmap[u], cmap[v]) for u, v in dec.support_edges] + plus,
    )


def _counts_g_prime(dec: CWDecomposition) -> bool:
    """Whether the n + 2m vertices of G' fit the complex cap, so that its
    complex can be enumerated."""
    return dec.n + 2 * dec.m <= COMPLEX_VERTEX_CAP


def cm_type_cw(dec: CWDecomposition) -> int:
    """Cohen-Macaulay type 2^m, certified by counting the maximal
    independent sets of the derived subgraph.

    The count runs when the derived graph fits the complex cap; beyond it
    the bare formula is returned.
    """
    if not is_cm_cw(dec):
        raise NotCohenMacaulay("Cohen-Macaulay type needs a Cohen-Macaulay graph")
    value = 2**dec.m
    if _counts_g_prime(dec):
        count = len(_maximal_independent_masks(g_prime(dec)))
        if count != value:
            raise InvalidDecomposition(
                f"derived graph has {count} maximal independent sets, 2^m = {value}"
            )
    return value


def is_gorenstein_cw(dec: CWDecomposition) -> bool:
    """Always False, by the paper's theorem: Gorenstein means
    Cohen-Macaulay of type 1, a Cohen-Macaulay Cameron-Walker graph has
    type 2^m, and every decomposition has m >= 1 right vertices.  Builds
    neither G' nor a complex."""
    return False


def independence_domination_number(g: Graph):
    """Minimum size of an independent set whose closed neighbourhood covers
    the graph; equals the minimum facet size of the independence complex.
    Returns (value, canonical witness)."""
    # facets come in canonical order, so the first of least size wins
    best = min(independence_complex(g).facets, key=len)
    return len(best), tuple(v for v in g.vertices if v in best)


def projective_dimension_cw(g: Graph) -> int:
    """|V| minus the independence domination number, for Cameron-Walker graphs."""
    cls = classify(g)
    if cls.tag != TAG_CAMERON_WALKER:
        raise NotCameronWalker(f"projective dimension formula needs a Cameron-Walker graph, got {cls.tag}")
    i_g, _ = independence_domination_number(g)
    return g.vertex_count - i_g


def _family_matching_number(g: Graph, cls: Classification) -> int:
    """The common value m = im of an im = m family member, read off its
    recognition without a search.

    - Cameron-Walker: n + t, which ``certify_cw`` proves with an induced
      matching of that size and an odd-set cover of the same size.
    - Star K_{1,k}: every edge meets the centre, so m = im = min(1, |E|).
    - Star triangle: the non-centre vertices have degree 2, so they pair
      off into t = (|V| - 1)/2 disjoint edges.  Their only other
      neighbour is the centre, so those edges form an induced matching,
      and with |V| = 2t + 1 no matching is larger: m = im = |V| // 2.
    """
    dec = cls.decomposition
    if dec is not None:
        return dec.n + dec.t
    if cls.tag == TAG_STAR:
        return min(1, g.edge_count)
    return g.vertex_count // 2


def regularity_cw(g: Graph) -> int:
    """Regularity for the im = m family, where the sandwich
    im <= reg <= m pins it to the common value, read off the recognition
    at any size: n + t on a Cameron-Walker graph, 1 on a star with an
    edge, t on t triangles glued at a centre."""
    cls = classify(g)
    if cls.tag not in _IM_EQUALS_M:
        raise NotInFamily(f"regularity is only pinned down for im = m graphs, got {cls.tag}")
    return _family_matching_number(g, cls)


# The report's fields in JSON order; cover_size_counts is written out
# expanded, as cover_cardinalities.
_REPORT_FIELDS = (
    "im",
    "m",
    "classification",
    "unmixed",
    "cover_size_counts",
    "cm",
    "cm_type",
    "gorenstein",
    "vertex_decomposable",
    "sequentially_cm",
    "i_g",
    "pd",
    "reg",
)


class InvariantReport(Record):
    """All invariants of one graph; inapplicable fields are None with a
    reason recorded under the same name.  A field with a value may carry
    a reason too, as a note on how the value was obtained.

    ``cover_size_counts`` holds the minimal vertex covers as ascending
    ``(cover_size, count)`` pairs, one per size rather than one entry
    per cover; its reason is recorded, and its JSON written, under
    ``cover_cardinalities``.
    """

    __slots__ = (*_REPORT_FIELDS, "reasons", "partial")

    def __init__(
        self,
        im: int | None = None,
        m: int | None = None,
        classification: Classification | None = None,
        unmixed: bool | None = None,
        cover_size_counts: tuple[tuple[int, int], ...] | None = None,
        cm: bool | None = None,
        cm_type: int | None = None,
        gorenstein: bool | None = None,
        vertex_decomposable: bool | None = None,
        sequentially_cm: bool | None = None,
        i_g: int | None = None,
        pd: int | None = None,
        reg: int | None = None,
        reasons: dict[str, str] | None = None,
        partial: bool = False,
    ):
        self.im = im
        self.m = m
        self.classification = classification
        self.unmixed = unmixed
        self.cover_size_counts = cover_size_counts
        self.cm = cm
        self.cm_type = cm_type
        self.gorenstein = gorenstein
        self.vertex_decomposable = vertex_decomposable
        self.sequentially_cm = sequentially_cm
        self.i_g = i_g
        self.pd = pd
        self.reg = reg
        self.reasons = {} if reasons is None else reasons
        self.partial = partial

    @property
    def cover_cardinalities(self) -> tuple[int, ...] | None:
        """The size of every minimal vertex cover, ascending."""
        if self.cover_size_counts is None:
            return None
        return tuple(size for size, count in self.cover_size_counts for _ in range(count))

    def to_dict(self) -> dict:
        """The payload that ``to_json`` writes."""
        payload: dict = {}
        for name in _REPORT_FIELDS:
            value = getattr(self, name)
            if name == "classification" and value is not None:
                value = value.to_dict()
            elif name == "cover_size_counts":
                name = "cover_cardinalities"
                if value is not None:
                    value = list(self.cover_cardinalities)
            payload[name] = value
            if name in self.reasons:
                payload[f"{name}_reason"] = self.reasons[name]
        payload["partial"] = self.partial
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def full_report(g: Graph) -> InvariantReport:
    """Aggregate every invariant; size-guarded fields degrade to None.

    Each artifact is computed once.  On the im = m family (Cameron-Walker,
    star, star triangle) m = im = reg come from the recognition at any
    size, and the theorems give the rest: every member is vertex
    decomposable, hence sequentially Cohen-Macaulay, a Cameron-Walker
    graph is unmixed iff Cohen-Macaulay, a star iff it has at most two
    vertices and a star triangle iff it is one triangle.  Where the
    complex fits the cap its purity must agree with that closed form, or
    InvalidDecomposition (Cameron-Walker) or NotInFamily (star, star
    triangle) is raised.  Only ``Other`` graphs run the matching and
    vertex-decomposability searches; where they find im = m, the
    sandwich im <= reg <= m gives reg.  The cover size counts and i(G) are
    counted from the facet sizes of one independence complex.
    """
    rep = InvariantReport()

    def guarded(name, fn):
        try:
            setattr(rep, name, fn())
        except SizeGuard as exc:
            rep.reasons[name] = str(exc)
            rep.partial = True

    cls = rep.classification = classify(g)
    dec = cls.decomposition

    try:
        facets = independence_complex(g).facets
    except SizeGuard as exc:
        for name in ("unmixed", "cover_cardinalities", "i_g"):
            rep.reasons[name] = str(exc)
        rep.partial = True
    else:
        counts: dict[int, int] = {}
        for f in facets:
            counts[len(f)] = counts.get(len(f), 0) + 1
        rep.unmixed = len(counts) <= 1
        rep.cover_size_counts = tuple(sorted((g.vertex_count - s, c) for s, c in counts.items()))
        rep.i_g = min(counts)

    if cls.tag in _IM_EQUALS_M:
        rep.m = rep.im = rep.reg = _family_matching_number(g, cls)
        # Unmixed iff CM on a Cameron-Walker graph.  K_{1,k} has the covers
        # {centre} and the k leaves; t triangles at a centre have covers of
        # sizes 2t and t + 1.
        if dec is not None:
            unmixed = is_cm_cw(dec)
        else:
            unmixed = g.vertex_count <= 2 if cls.tag == TAG_STAR else g.vertex_count == 3
        if rep.unmixed is not None and rep.unmixed != unmixed:
            error = NotInFamily if dec is None else InvalidDecomposition
            raise error(
                f"independence complex purity {rep.unmixed} contradicts the closed form"
                f" unmixed = {unmixed} of a {cls.tag} on {g.vertex_count} vertices"
            )
        rep.unmixed = unmixed
        rep.reasons.pop("unmixed", None)
        rep.vertex_decomposable = rep.sequentially_cm = True
    else:
        guarded("m", lambda: matching_number(g)[0])
        guarded("im", lambda: induced_matching_number(g)[0])
        guarded("vertex_decomposable", lambda: is_vertex_decomposable_graph(g)[0])
        if rep.vertex_decomposable:
            rep.sequentially_cm = True
        else:
            rep.reasons["sequentially_cm"] = "no vertex-decomposability certificate"
        # im <= reg <= m holds for every graph; a search past its cap
        # keeps reg open for that search's reason, m's first
        if rep.m is not None and rep.m == rep.im:
            rep.reg = rep.im
        else:
            rep.reasons["reg"] = rep.reasons.get(
                "m", rep.reasons.get("im", "regularity is only pinned down when im = m")
            )

    if dec is not None:
        rep.cm = rep.unmixed
        if rep.cm:
            rep.cm_type = cm_type_cw(dec)
            if not _counts_g_prime(dec):
                rep.reasons["cm_type"] = "formula only; derived graph exceeds the cap"
            rep.gorenstein = rep.cm_type == 1
        else:
            rep.reasons["cm_type"] = "not Cohen-Macaulay"
            rep.gorenstein = False
        if rep.i_g is not None:
            rep.pd = g.vertex_count - rep.i_g
        else:
            rep.reasons["pd"] = rep.reasons["i_g"]
    else:
        for name in ("cm", "cm_type", "gorenstein", "pd"):
            rep.reasons[name] = "only computed for Cameron-Walker graphs"

    return rep
