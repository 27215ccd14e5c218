"""Pinned matching output: the sha256 of ``(m, witness_m, im, witness_im)``
on a seeded corpus of about 200 graphs, recorded in
``tests/data/matching_pins.json``.

The corpus holds random graphs on plain labels, random graphs on labels
whose label order differs from string order (digit runs, leading zeros,
a non-ASCII digit), seeded ``random_cw`` graphs, and paths, cycles,
complete and complete bipartite graphs, stars and star triangles.
Regenerate the file with ``python tests/test_matching_pins.py`` only
when a size or a witness is meant to change.
"""

import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

from cwgraphs import build_cw, induced_matching_number, matching_number, random_cw
from cwgraphs.graph import Graph

sys.path.insert(0, str(Path(__file__).resolve().parent))
from corpus import complete_bipartite, complete_graph, petersen, star_triangle  # noqa: E402

PINS = Path(__file__).resolve().parent / "data" / "matching_pins.json"
PIN_SEED = 4242
ODD_LABELS = ["x1", "x01", "x2", "x10", "x9", "x٣", "10", "9", "a", "é", "b2c3", "b2c10"]


def _random_graph(rng: random.Random, labels, density: float) -> Graph:
    return Graph(labels, [p for p in itertools.combinations(labels, 2) if rng.random() < density])


def pinned_graphs():
    """(name, graph) for every pinned result."""
    rng = random.Random(PIN_SEED)
    cases = []
    for i in range(100):
        nv = rng.randint(1, 16)
        density = round(rng.uniform(0.1, 0.6), 2)
        g = _random_graph(rng, [f"v{k}" for k in range(1, nv + 1)], density)
        cases.append((f"gnp {i} n={nv} p={density}", g))
    for i in range(30):
        labels = rng.sample(ODD_LABELS, rng.randint(2, len(ODD_LABELS)))
        density = round(rng.uniform(0.2, 0.6), 2)
        cases.append((f"odd labels {i} p={density}", _random_graph(rng, labels, density)))
    made = 0
    while made < 40:
        args = (rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3), rng.randint(0, 2),
                round(rng.random(), 3), rng.randrange(2**20))
        if args[0] == 1 and args[3] == 0:
            continue
        dec = random_cw(*args)
        if dec.vertex_count() <= 26:
            cases.append((f"random_cw{args!r}", build_cw(dec)))
            made += 1
    for k in range(1, 9):
        verts = [f"p{i}" for i in range(1, k + 1)]
        cases.append((f"path P{k}", Graph(verts, zip(verts, verts[1:]))))
    for k in range(3, 10):
        verts = [f"c{i}" for i in range(1, k + 1)]
        cases.append((f"cycle C{k}", Graph(verts, zip(verts, verts[1:] + verts[:1]))))
    for k in range(1, 7):
        cases.append((f"complete K{k}", complete_graph(k)))
    for a, b in ((1, 1), (2, 3), (3, 3), (2, 5)):
        cases.append((f"complete bipartite K{a},{b}", complete_bipartite(a, b)))
    for k in range(0, 5):
        leaves = [f"l{i}" for i in range(1, k + 1)]
        cases.append((f"star K_1,{k}", Graph(["c", *leaves], [("c", v) for v in leaves])))
    for t in range(1, 4):
        cases.append((f"star triangle t={t}", star_triangle(t)))
    cases.append(("petersen", petersen()))
    return cases


def digests() -> dict[str, str]:
    out = {}
    for name, g in pinned_graphs():
        m, wm = matching_number(g)
        im, wim = induced_matching_number(g)
        text = json.dumps([m, wm, im, wim], ensure_ascii=False)
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_matchings_are_pinned():
    expected = json.loads(PINS.read_text())
    got = digests()
    assert sorted(got) == sorted(expected)
    changed = [name for name in got if got[name] != expected[name]]
    assert not changed, f"{len(changed)} results changed: {changed}"


if __name__ == "__main__":
    PINS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
