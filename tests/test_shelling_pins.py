"""Pinned shelling output: the sha256 of ``cw_shelling(dec).to_json()`` on
a fixed set of decompositions over complete bipartite support, recorded
in ``tests/data/shelling_pins.json``.

The set is the 60 small decompositions of acceptance criterion 7 and 40
seeded ``random_cw`` decompositions of density 1.0 within the shelling's
facet cap.  Regenerate the file with ``python tests/test_shelling_pins.py``
only when a shelling is meant to change.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from cwgraphs import random_cw
from cwgraphs.errors import SizeGuard
from cwgraphs.shelling import cw_shelling

sys.path.insert(0, str(Path(__file__).resolve().parent))
from corpus import small_complete_support_decs  # noqa: E402

PINS = Path(__file__).resolve().parent / "data" / "shelling_pins.json"
PIN_SEED = 9003


def pinned_inputs():
    """(name, decomposition) for every pinned shelling."""
    cases = [(f"criterion 7 #{i}", dec) for i, dec in enumerate(small_complete_support_decs())]
    rng = random.Random(PIN_SEED)
    drawn = []
    while len(drawn) < 40:
        args = (rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3), rng.randint(0, 2),
                1.0, rng.randrange(2**20))
        if args[0] == 1 and args[3] == 0:
            continue
        dec = random_cw(*args)
        try:
            cw_shelling(dec)
        except SizeGuard:
            continue
        drawn.append((f"random_cw{args!r}", dec))
    return cases + drawn


def digests() -> dict[str, str]:
    return {
        name: hashlib.sha256(cw_shelling(dec).to_json().encode()).hexdigest()
        for name, dec in pinned_inputs()
    }


def test_shellings_are_pinned():
    expected = json.loads(PINS.read_text())
    got = digests()
    assert sorted(got) == sorted(expected)
    changed = [name for name in got if got[name] != expected[name]]
    assert not changed, f"{len(changed)} shellings changed: {changed}"


if __name__ == "__main__":
    PINS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
