"""Pinned report output: the sha256 of ``full_report(g).to_json()`` on a
fixed set of graphs, recorded in ``tests/data/report_pins.json``.

The set is every bundled ``*.edges`` graph, seeded ``random_cw`` graphs
within the complex cap, stars, star triangles and graphs tagged Other,
all at the default cap, plus ten of the Cameron-Walker graphs and the
Other graphs again at cap 4, where most of their reports are partial.
Regenerate the file with ``python tests/test_report_pins.py`` only when
a report is meant to change.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from cwgraphs import build_cw, full_report, parse_edge_list, random_cw
from cwgraphs.complexes import COMPLEX_VERTEX_CAP
from cwgraphs.graph import Graph

sys.path.insert(0, str(Path(__file__).resolve().parent))
from corpus import complete_bipartite, complete_graph, star_triangle  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"
PINS = DATA / "report_pins.json"
PIN_SEED = 9001
SMALL_CAP = 4


def _path(k: int) -> Graph:
    verts = [f"p{i}" for i in range(1, k + 1)]
    return Graph(verts, zip(verts, verts[1:]))


def _cycle(k: int) -> Graph:
    verts = [f"c{i}" for i in range(1, k + 1)]
    return Graph(verts, zip(verts, verts[1:] + verts[:1]))


def pinned_inputs():
    """(name, graph, cap) for every pinned report."""
    cases = [(p.name, parse_edge_list(p.read_text()), COMPLEX_VERTEX_CAP)
             for p in sorted(DATA.glob("*.edges"))]
    rng = random.Random(PIN_SEED)
    cw = []
    while len(cw) < 30:
        args = (rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3), rng.randint(0, 2),
                round(rng.random(), 3), rng.randrange(2**20))
        if args[0] == 1 and args[3] == 0:
            continue
        dec = random_cw(*args)
        if dec.vertex_count() <= COMPLEX_VERTEX_CAP:
            cw.append((f"random_cw{args!r}", build_cw(dec)))
    for k in range(0, 7):
        leaves = [f"l{i}" for i in range(1, k + 1)]
        star = Graph(["c", *leaves], [("c", v) for v in leaves])
        cases.append((f"star K_1,{k}", star, COMPLEX_VERTEX_CAP))
    for t in range(1, 5):
        cases.append((f"star triangle t={t}", star_triangle(t), COMPLEX_VERTEX_CAP))
    other = [
        ("path P6", _path(6)),
        ("cycle C5", _cycle(5)),
        ("cycle C6", _cycle(6)),
        ("complete K4", complete_graph(4)),
        ("complete bipartite K3,3", complete_bipartite(3, 3)),
        ("two edges", Graph("abcd", [("a", "b"), ("c", "d")])),
        ("triangle with a tail", Graph("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])),
    ]
    for name, g in cw + other:
        cases.append((name, g, COMPLEX_VERTEX_CAP))
    for name, g in cw[:10] + other:
        cases.append((f"{name} @cap {SMALL_CAP}", g, SMALL_CAP))
    return cases


def digests() -> dict[str, str]:
    return {
        name: hashlib.sha256(full_report(g, cap=cap).to_json().encode()).hexdigest()
        for name, g, cap in pinned_inputs()
    }


def test_reports_are_pinned():
    expected = json.loads(PINS.read_text())
    got = digests()
    assert sorted(got) == sorted(expected)
    changed = [name for name in got if got[name] != expected[name]]
    assert not changed, f"{len(changed)} reports changed: {changed}"


if __name__ == "__main__":
    PINS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
