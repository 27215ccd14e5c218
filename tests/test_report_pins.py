"""Pinned report output: the sha256 of ``full_report(g).to_json()`` on a
fixed set of graphs, recorded in ``tests/data/report_pins.json``.

The set is every bundled ``*.edges`` graph, seeded ``random_cw`` graphs
within the complex cap, stars, star triangles and graphs tagged Other,
plus graphs just past the cap, where the complex is refused and the
report is partial: ten seeded ``random_cw`` graphs of 27 to 40
vertices, a path and a cycle on 27 vertices, K_{1,30} and 14 triangles
at a centre.  Regenerate the file with ``python tests/test_report_pins.py``
only when a report is meant to change.
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
PAST_CAP_SEED = 9002


def _path(k: int) -> Graph:
    verts = [f"p{i}" for i in range(1, k + 1)]
    return Graph(verts, zip(verts, verts[1:]))


def _cycle(k: int) -> Graph:
    verts = [f"c{i}" for i in range(1, k + 1)]
    return Graph(verts, zip(verts, verts[1:] + verts[:1]))


def _star(k: int) -> Graph:
    leaves = [f"l{i}" for i in range(1, k + 1)]
    return Graph(["c", *leaves], [("c", v) for v in leaves])


def pinned_inputs():
    """(name, graph) for every pinned report."""
    cases = [(p.name, parse_edge_list(p.read_text())) for p in sorted(DATA.glob("*.edges"))]
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
    rng = random.Random(PAST_CAP_SEED)
    past = []
    while len(past) < 10:
        args = (rng.randint(1, 6), rng.randint(1, 8), rng.randint(1, 2), rng.randint(1, 2),
                round(rng.random(), 3), rng.randrange(2**20))
        dec = random_cw(*args)
        if COMPLEX_VERTEX_CAP < dec.vertex_count() <= 40:
            past.append((f"random_cw{args!r}", build_cw(dec)))
    for k in range(0, 7):
        cases.append((f"star K_1,{k}", _star(k)))
    for t in range(1, 5):
        cases.append((f"star triangle t={t}", star_triangle(t)))
    other = [
        ("path P6", _path(6)),
        ("cycle C5", _cycle(5)),
        ("cycle C6", _cycle(6)),
        ("complete K4", complete_graph(4)),
        ("complete bipartite K3,3", complete_bipartite(3, 3)),
        ("two edges", Graph("abcd", [("a", "b"), ("c", "d")])),
        ("triangle with a tail", Graph("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])),
    ]
    past += [
        ("path P27", _path(27)),
        ("cycle C27", _cycle(27)),
        ("star K_1,30", _star(30)),
        ("star triangle t=14", star_triangle(14)),
    ]
    return cases + cw + other + past


def digests() -> dict[str, str]:
    return {
        name: hashlib.sha256(full_report(g).to_json().encode()).hexdigest()
        for name, g in pinned_inputs()
    }


def test_reports_are_pinned():
    expected = json.loads(PINS.read_text())
    got = digests()
    assert sorted(got) == sorted(expected)
    changed = [name for name in got if got[name] != expected[name]]
    assert not changed, f"{len(changed)} reports changed: {changed}"


if __name__ == "__main__":
    PINS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
