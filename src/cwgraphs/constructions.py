"""Graph constructions: the seeded Cameron-Walker generator, clique
attachments, whisker partitions and decompositions read back from JSON.

Only ``cwgraphs generate`` and library callers use this module, so the
command line's start-up path does not import it.  ``build_cw`` stays in
``structure``, where ``invariants.cw_cover_cardinalities`` uses it.
"""

from __future__ import annotations

import json
import random
from collections.abc import Mapping
from types import MappingProxyType

from .errors import InvalidParams, InvalidSize, NotAClique, NotAPartition, ParseError, SizeGuard
from .graph import Graph
from .records import FrozenRecord, set_field
from .structure import CWDecomposition

# Bound on the work of building a decomposition: its support pairs plus
# the most vertices it can name.  Checked before any draw or label.
GENERATOR_WORK_CAP = 60_000


def _refuse_past_work_cap(work: int) -> None:
    if work > GENERATOR_WORK_CAP:
        raise SizeGuard(
            f"decomposition would take {work} units of work (support pairs plus"
            f" vertices), cap is {GENERATOR_WORK_CAP}"
        )


def _with_attachments(support: Graph, left, right, leaves, triangles) -> CWDecomposition:
    """The decomposition with attachments named by position, z{i}_{l} and
    w{j}_{k}+/-, for leaf and triangle counts given in side order."""
    leaf_map = {
        x: tuple(f"z{i}_{l}" for l in range(1, f + 1))
        for i, (x, f) in enumerate(zip(left, leaves), start=1)
    }
    triangle_map = {
        y: tuple((f"w{j}_{k}+", f"w{j}_{k}-") for k in range(1, t + 1))
        for j, (y, t) in enumerate(zip(right, triangles), start=1)
    }
    return CWDecomposition(support, left, right, leaf_map, triangle_map)


def decomposition_from_json(text: str) -> CWDecomposition:
    """Rebuild a decomposition from its JSON form.

    The schema carries leaf/triangle counts only, so attachment vertices
    get canonical names keyed by position (z{i}_{l}, w{j}_{k}+/-).  Each
    side must be a list of nonempty strings, each support edge a list of
    two, each count a JSON integer >= 0 (not a fraction or a boolean), and
    the support edges plus n + m + f + 2t must not pass GENERATOR_WORK_CAP.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc

    def listed(key: str, what: str, ok) -> tuple:
        items = payload[key]
        if type(items) is not list or not all(map(ok, items)):
            raise ValueError(f"{key} is not a list of {what}")
        return tuple(items)

    def is_label(v) -> bool:
        return type(v) is str and v != ""

    def count(kind: str, v: str) -> int:
        k = payload[kind][v]
        if type(k) is not int or k < 0:  # bool is a subclass of int
            raise ValueError(f"{kind} count {k!r} at {v!r} is not an integer >= 0")
        return k

    try:
        left = listed("left", "nonempty strings", is_label)
        right = listed("right", "nonempty strings", is_label)
        edges = listed("support_edges", "pairs", lambda e: type(e) is list and len(e) == 2)
        support = Graph(left + right, edges)
        leaves = [count("leaves", x) for x in left]
        triangles = [count("triangles", y) for y in right]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed decomposition JSON: {exc}") from exc
    _refuse_past_work_cap(
        support.edge_count + len(left) + len(right) + sum(leaves) + 2 * sum(triangles)
    )
    return _with_attachments(support, left, right, leaves, triangles)


class CliqueAttachmentSpec(FrozenRecord):
    """Base graph plus one clique size k_i >= 2 per vertex, checked by
    the constructor; ``sizes`` is a read-only view of its own copy."""

    __slots__ = ("base", "sizes")

    def __init__(self, base: Graph, sizes: Mapping[str, int]):
        set_field(self, "base", base)
        set_field(self, "sizes", MappingProxyType(dict(sizes)))
        self.validate()

    def validate(self) -> None:
        if set(self.sizes) != set(self.base.vertices):
            raise InvalidSize("need exactly one clique size per base vertex")
        for v, k in self.sizes.items():
            if k < 2:
                raise InvalidSize(f"clique size at {v!r} must be at least 2, got {k}")


def attach_cliques(spec: CliqueAttachmentSpec) -> Graph:
    """Attach a complete graph K_{k_i} at each base vertex x_i.

    Adds k_i - 1 fresh vertices per base vertex, labelled "{v}@{j}" (with
    extra '@' appended on the unlikely name clash), forming a complete
    graph together with x_i; base edges are preserved.
    """
    used = set(spec.base.vertices)
    vertices = list(spec.base.vertices)
    edges = list(spec.base.edges)
    for v in spec.base.vertices:
        fresh = []
        for j in range(1, spec.sizes[v]):
            name = f"{v}@{j}"
            while name in used:
                name += "@"
            used.add(name)
            fresh.append(name)
        vertices.extend(fresh)
        block = [v, *fresh]
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                edges.append((block[i], block[j]))
    return Graph(vertices, edges)


class CliquePartition(FrozenRecord):
    """Disjoint (possibly empty) cliques covering the vertex set, checked
    by the constructor."""

    __slots__ = ("base", "parts")

    def __init__(self, base: Graph, parts: tuple[frozenset[str], ...]):
        set_field(self, "base", base)
        set_field(self, "parts", parts)
        self.validate()

    def validate(self) -> None:
        union: set[str] = set()
        total = 0
        for part in self.parts:
            total += len(part)
            union |= set(part)
            for u in part:
                for v in part:
                    if u != v and not self.base.has_edge(u, v):
                        raise NotAClique(f"part {sorted(part)} is not a clique")
        if total != len(union) or union != set(self.base.vertices):
            raise NotAPartition("parts must be disjoint and cover every vertex")


def whisker_partition(p: CliquePartition) -> Graph:
    """Add one fresh vertex per part, joined to everything in that part.

    Fresh vertices are labelled w1, w2, ... (with '@' appended on a name
    clash); an empty part contributes an isolated new vertex.
    """
    used = set(p.base.vertices)
    vertices = list(p.base.vertices)
    edges = list(p.base.edges)
    for i, part in enumerate(p.parts, start=1):
        name = f"w{i}"
        while name in used:
            name += "@"
        used.add(name)
        vertices.append(name)
        edges.extend((name, v) for v in part)
    return Graph(vertices, edges)


def random_cw(
    n: int,
    m: int,
    max_f: int,
    max_t: int,
    edge_density: float,
    seed: int,
) -> CWDecomposition:
    """Seeded random Cameron-Walker decomposition in canonical labels.

    The support is a random bipartite spanning tree on n + m vertices
    plus density-controlled extra edges; f_i is uniform in [1, max_f] and
    t_j uniform in [0, max_t].  Draws are adjusted so the built graph is
    a genuine Cameron-Walker graph: a right vertex of support degree 1
    must carry a triangle (otherwise it would read as a leaf), which with
    n = 1 forces at least one triangle in total.  SizeGuard refuses, before
    any draw, when n * m + n + m + n * max_f + 2 * m * max_t passes
    ``GENERATOR_WORK_CAP``.
    """
    if n < 1 or m < 1:
        raise InvalidParams("need n >= 1 and m >= 1")
    if max_f < 1 or max_t < 0:
        raise InvalidParams("need max_f >= 1 and max_t >= 0")
    if not 0.0 <= edge_density <= 1.0:
        raise InvalidParams("edge_density must lie in [0, 1]")
    if n == 1 and max_t == 0:
        raise InvalidParams(
            "n = 1 with max_t = 0 can only produce stars; allow triangles"
        )
    _refuse_past_work_cap(n * m + n + m + n * max_f + 2 * m * max_t)
    rng = random.Random(seed)

    # Random spanning tree of the bipartite support, then extra edges.
    tree: set[tuple[int, int]] = {(0, 0)}
    left_in, right_in = [0], [0]
    pool = [("L", i) for i in range(1, n)] + [("R", j) for j in range(1, m)]
    rng.shuffle(pool)
    for side, idx in pool:
        if side == "L":
            tree.add((idx, rng.choice(right_in)))
            left_in.append(idx)
        else:
            tree.add((rng.choice(left_in), idx))
            right_in.append(idx)
    support_pairs = set(tree)
    for i in range(n):
        for j in range(m):
            if (i, j) not in support_pairs and rng.random() < edge_density:
                support_pairs.add((i, j))

    if max_t == 0:
        # Right vertices of support degree 1 would degenerate into leaves.
        for j in range(m):
            deg = sum(1 for i in range(n) if (i, j) in support_pairs)
            if deg == 1:
                (i0,) = [i for i in range(n) if (i, j) in support_pairs]
                others = [i for i in range(n) if i != i0]
                support_pairs.add((rng.choice(others), j))

    f_counts = [rng.randint(1, max_f) for _ in range(n)]
    t_counts = []
    for j in range(m):
        deg = sum(1 for i in range(n) if (i, j) in support_pairs)
        t = rng.randint(0, max_t)
        if deg == 1 and t == 0:
            t = rng.randint(1, max_t)
        t_counts.append(t)

    # Canonical right order: triangle-bearing vertices first.
    right_order = sorted(range(m), key=lambda j: (0 if t_counts[j] else 1, j))
    rank = {j: pos for pos, j in enumerate(right_order)}

    left = tuple(f"x{i + 1}" for i in range(n))
    right = tuple(f"y{pos + 1}" for pos in range(m))
    support = Graph(left + right, [(left[i], right[rank[j]]) for i, j in support_pairs])
    return _with_attachments(support, left, right, f_counts, [t_counts[j] for j in right_order])
