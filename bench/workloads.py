"""Seeded inputs for the four benchmark workloads.

Every generator takes the workload seed and the freshly imported
``cwgraphs`` package and returns a list of ``Case`` objects.  The
program only ever sees ``Case.text``, an edge list with neutral vertex
labels in shuffled line order; ``Case.expect`` holds the facts known by
construction, which the reference checks use.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import statistics
from dataclasses import dataclass, field

# Tags of the classification, as the program spells them.
STAR = "Star"
STAR_TRIANGLE = "StarTriangle"
CAMERON_WALKER = "CameronWalker"
OTHER = "Other"


# Support densities cycle with the vertex count.  Fixing the density of
# each size keeps the facet count, and with it the cost, close across
# seeds; random densities double the spread of the ladder's total time.
DENSITIES = (0.2, 0.5, 0.8)


@dataclass
class Case:
    id: int
    kind: str
    text: str
    nv: int
    ne: int
    expect: dict = field(default_factory=dict)
    draw: tuple = None  # random_cw arguments of a Cameron-Walker case
    graph: object = None  # parsed at set-up
    path: object = None  # edge-list file, for the command line


def _edge_text(rng, vertices, edges) -> str:
    """Edge-list text, vertices renamed v1..vN, edge lines shuffled.

    The renaming keeps the order of the original labels.  The exact
    searches branch on vertices in label order, and a random order
    spreads the cost of one graph over a factor of three or more.
    """
    name = {v: f"v{i}" for i, v in enumerate(vertices, start=1)}
    lines = []
    for u, v in edges:
        a, b = name[u], name[v]
        lines.append(f"{a} {b}" if rng.random() < 0.5 else f"{b} {a}")
    rng.shuffle(lines)
    touched = {w for e in edges for w in e}
    lines += [f"vertex {name[v]}" for v in vertices if v not in touched]
    return "\n".join(lines) + "\n"


def _case(rng, cases, kind, vertices, edges, **expect) -> None:
    vertices = list(vertices)
    edges = list(edges)
    text = _edge_text(rng, vertices, edges)
    cases.append(Case(len(cases), kind, text, len(vertices), len(edges), expect))


def _cw_case(rng, cases, cw, found, kind) -> None:
    draw, dec = found
    g = cw.build_cw(dec)
    _case(
        rng, cases, kind, g.vertices, g.edges,
        tag=CAMERON_WALKER,
        n=dec.n, m=dec.m, f_counts=dec.f_counts, t_counts=dec.t_counts,
    )
    cases[-1].draw = draw


def _cm_shape(nv: int) -> tuple[int, int, int, int]:
    """(n, m, f, t) of the most balanced Cohen-Macaulay shape with nv =
    2n + 3m vertices: one leaf per left and one triangle per right vertex."""
    shapes = [(n, (nv - 2 * n) // 3) for n in range(1, nv) if (nv - 2 * n) % 3 == 0]
    n, m = min(((n, m) for n, m in shapes if m >= 1), key=lambda s: (abs(s[0] - s[1]), s))
    return n, m, n, m


def _mixed_shape(nv: int, n: int, m: int, max_f: int, max_t: int) -> tuple[int, int, int, int]:
    """(n, m, f, t) with nv = n + m + f + 2t and the leaf count f as close
    to its mean under random_cw as the vertex count allows, so that few
    draws are rejected."""
    r = nv - n - m
    fs = [f for f in range(n, max_f * n + 1) if (r - f) % 2 == 0 and 0 <= (r - f) // 2 <= max_t * m]
    f = min(fs, key=lambda f: (abs(2 * f - n * (1 + max_f)), f))
    return n, m, f, (r - f) // 2


def _even(total: int, parts: int) -> tuple[int, ...]:
    """total split over parts as evenly as possible, ascending."""
    base, extra = divmod(total, parts)
    return (base,) * (parts - extra) + (base + 1,) * extra


def _random_cw(rng, cw, shape, *, density, caps=None):
    """(arguments, decomposition) of a random_cw draw with the (n, m, f, t)
    of ``shape``, redrawn until it fits.  density=1.0 gives a complete
    bipartite support.  The redraws are the benchmark's, not the
    program's: set-up time replays only the accepted draw.

    Without ``caps`` the leaves and the triangles must be spread as evenly
    as possible over their vertices, drawn with the smallest caps that
    allow it; the seed still draws the support edges and which vertex
    carries which multiplicity.  Fixing the multiplicities keeps the
    facet count, and with it the cost of a slot, close across seeds.
    With ``caps`` = (max_f, max_t) only the totals f and t are fixed:
    on the larger supports of classify_stream an even spread is a rare
    draw.
    """
    n, m, f, t = shape
    if caps is None:
        want = (_even(f, n), _even(t, m))
        max_f, max_t = max(want[0]), max(1, max(want[1]))
    else:
        want = (f, t)
        max_f, max_t = caps
    for _ in range(50_000):
        draw = (n, m, max_f, max_t, density, rng.randrange(2**31))
        dec = cw.random_cw(*draw)
        got = (dec.f, dec.t) if caps else (tuple(sorted(dec.f_counts)), tuple(sorted(dec.t_counts)))
        if got == want:
            return draw, dec
    raise RuntimeError(f"no random_cw draw with shape {shape}")


def _random_graph(rng, nv: int, density: float, max_edges: int):
    verts = [f"r{i}" for i in range(nv)]
    for _ in range(1000):
        edges = [p for p in itertools.combinations(verts, 2) if rng.random() < density]
        if 1 <= len(edges) <= max_edges:
            return verts, edges
    raise RuntimeError("no random graph within the edge budget")


def _complete(k):
    verts = [f"k{i}" for i in range(k)]
    return verts, list(itertools.combinations(verts, 2))


def _complete_bipartite(a, b):
    left = [f"a{i}" for i in range(a)]
    right = [f"b{j}" for j in range(b)]
    return left + right, [(u, v) for u in left for v in right]


def _cycle(k):
    verts = [f"c{i}" for i in range(k)]
    return verts, [(verts[i], verts[(i + 1) % k]) for i in range(k)]


def _star(k):
    verts = ["s"] + [f"s{i}" for i in range(k)]
    return verts, [("s", v) for v in verts[1:]]


def _star_triangle(t):
    verts = ["h"]
    edges = []
    for i in range(t):
        a, b = f"p{i}", f"q{i}"
        verts += [a, b]
        edges += [("h", a), ("h", b), (a, b)]
    return verts, edges


def _petersen():
    outer = [f"o{i}" for i in range(5)]
    inner = [f"i{i}" for i in range(5)]
    edges = [(outer[i], outer[(i + 1) % 5]) for i in range(5)]
    edges += [(inner[i], inner[(i + 2) % 5]) for i in range(5)]
    edges += [(outer[i], inner[i]) for i in range(5)]
    return outer + inner, edges


def _controls(rng, cases, *, max_nv: int, count_random: int) -> None:
    """Non-Cameron-Walker controls of fixed sizes whose tag is known by
    construction, plus small random graphs whose tag the oracle decides."""
    _case(rng, cases, "petersen", *_petersen(), tag=OTHER)
    for k in range(4, min(8, max_nv) + 1):
        _case(rng, cases, "complete", *_complete(k), tag=OTHER)
    for a in range(2, 5):
        for b in range(a, a + 3):
            _case(rng, cases, "complete_bipartite", *_complete_bipartite(a, b), tag=OTHER)
    for k in range(4, max_nv + 1):
        _case(rng, cases, "cycle", *_cycle(k), tag=OTHER)
    for k in range(2, max_nv, 2):
        _case(rng, cases, "star", *_star(k), tag=STAR)
    for t in range(1, (max_nv - 1) // 2 + 1):
        _case(rng, cases, "star_triangle", *_star_triangle(t), tag=STAR_TRIANGLE)
    for _ in range(count_random):
        nv = rng.randint(5, 8)
        _case(rng, cases, "random", *_random_graph(rng, nv, rng.uniform(0.25, 0.5), 14))


# Each workload is a ramp over its size range plus dense bands of one
# size where the median and the tail (the input with ten beyond it)
# fall, so both are order statistics of many graphs of one shape and
# move little from seed to seed.  Slots are (|V|, copies), and for the
# ladder also the support density: its bands sit on a complete bipartite
# support, because on a random support one size still splits into a
# cheap and a dear group of graphs and the median landed on either.  The
# ladder's median band (16 vertices) is Cohen-Macaulay and its tail band
# (19 vertices) has mixed multiplicities, so 22 of its 49 graphs are
# Cohen-Macaulay.
LADDER = [(nv, 2 if nv < 16 else 1, DENSITIES[nv % 3]) for nv in range(8, 27)] \
    + [(16, 11, 1.0), (19, 11, 1.0)]
STREAM = [(nv, 10 if nv == 27 else 1) for nv in range(20, 35)]
KMN = [(nv, 2) for nv in range(8, 14)] + [(14, 10)] + [(nv, 1) for nv in range(15, 19)] \
    + [(19, 12), (20, 1), (21, 1)]
CLI = [(nv, 1) for nv in range(5, 19)]


def report_ladder(seed: int, cw) -> list[Case]:
    """random_cw graphs ramping from 8 to 26 vertices, Cohen-Macaulay
    (f = t = 1) at even sizes up to 20 and with mixed leaf and triangle
    multiplicities at the other sizes.  Cohen-Macaulay graphs above 20
    vertices take up to 1.5 s each and would stretch a pass to the point
    where a run holds only two."""
    rng = random.Random(seed)
    cases: list[Case] = []
    for nv, copies, density in LADDER:
        for _ in range(copies):
            _ladder_case(rng, cases, cw, nv, density)
    return cases


def _ladder_case(rng, cases, cw, nv: int, density: float) -> None:
    if nv % 2 == 0 and nv <= 20:
        found = _random_cw(rng, cw, _cm_shape(nv), density=density)
        _cw_case(rng, cases, cw, found, "cm")
    else:
        side = max(1, round(nv / 5))
        found = _random_cw(rng, cw, _mixed_shape(nv, side, side, 2, 2), density=density)
        _cw_case(rng, cases, cw, found, "cw")


def classify_stream(seed: int, cw) -> list[Case]:
    """Cameron-Walker graphs above the complex cap, 20 to 34 vertices,
    mixed with controls of known or oracle-checked tag."""
    rng = random.Random(seed)
    cases: list[Case] = []
    for nv, copies in STREAM:
        for _ in range(copies):
            shape = _mixed_shape(nv, 4, 4, 3, 3)
            found = _random_cw(rng, cw, shape, density=DENSITIES[nv % 3], caps=(3, 3))
            _cw_case(rng, cases, cw, found, "cw")
    _controls(rng, cases, max_nv=18, count_random=6)
    rng.shuffle(cases)
    for i, c in enumerate(cases):
        c.id = i
    return cases


def certify_kmn(seed: int, cw) -> list[Case]:
    """Cameron-Walker graphs over complete bipartite support, 8 to 21
    vertices, for the explicit shelling and the complex-level VD test."""
    rng = random.Random(seed)
    cases: list[Case] = []
    for nv, copies in KMN:
        side = 2 if nv < 13 else 3
        for _ in range(copies):
            found = _random_cw(rng, cw, _mixed_shape(nv, side, side, 2, 2), density=1.0)
            _cw_case(rng, cases, cw, found, "kmn")
    return cases


def cli_analyze(seed: int, cw) -> list[Case]:
    """Small-to-mid graphs for the command line, 5 to 18 vertices."""
    rng = random.Random(seed)
    cases: list[Case] = []
    for nv, copies in CLI:
        side = max(1, round(nv / 5))
        for _ in range(copies):
            shape = _mixed_shape(nv, side, side, 2, 2)
            found = _random_cw(rng, cw, shape, density=DENSITIES[nv % 3])
            _cw_case(rng, cases, cw, found, "cw")
    _controls(rng, cases, max_nv=12, count_random=6)
    rng.shuffle(cases)
    for i, c in enumerate(cases):
        c.id = i
    return cases


def fingerprint(cases: list[Case]) -> dict:
    """Digest of the generated inputs with their size distribution."""
    digest = hashlib.sha256()
    for c in cases:
        digest.update(c.text.encode())
        digest.update(b"\0")
    nvs = [c.nv for c in cases]
    nes = [c.ne for c in cases]
    cw_count = sum(1 for c in cases if c.expect.get("tag") == CAMERON_WALKER)
    return {
        "sha256": digest.hexdigest(),
        "cases": len(cases),
        "vertices": {"min": min(nvs), "median": statistics.median(nvs), "max": max(nvs)},
        "edges": {"min": min(nes), "median": statistics.median(nes), "max": max(nes)},
        "cw_share": cw_count / len(cases),
    }
