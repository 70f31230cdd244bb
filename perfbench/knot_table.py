"""The table of braid closures that the knot workload draws its diagrams from.

A knot request's cost is set by the skein recursion of its diagram, which
varies about tenfold between braids of the same size.  Fresh random braids
per run would let the luck of the draw move every end-to-end metric by
more than a real change does.  So the workload serves a fixed table of
seeded random braid closures, ranked by the number of crossing switches and
smoothings one ``homfly`` call makes on them, and every cycle takes one
diagram from each rank stratum.  The run's seed picks which diagram of each
stratum comes when, the Wilson levels and the repeats.

The table is ``knot_table.json`` beside this file.  It holds, per diagram,
the braid (strands and word) and its edit count under the library as it was
when the table was written.  Rebuild it, from the root of a checkout, with::

    python3 perfbench/knot_table.py

The words come from ``TABLE_SEED`` alone, so a rebuild changes only the edit
counts, and those only if the skein recursion changed.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import generators as gen

TABLE_PATH = Path(__file__).resolve().parent / "knot_table.json"
TABLE_SEED = "knot-table"
CELLS = [(s, c) for s in (3, 4, 5) for c in range(8, 13)]
PER_CELL = 40
STRATA = 15


def braid_words(per_cell: int = PER_CELL) -> list[tuple[int, list[int]]]:
    """``per_cell`` random braids for every (strands, crossings) cell."""
    rng = random.Random(TABLE_SEED)
    return [
        (strands, gen.random_braid(rng, strands, crossings))
        for _ in range(per_cell)
        for strands, crossings in CELLS
    ]


def edit_count(kch, text: str) -> int:
    """Crossing switches and smoothings one ``homfly`` call makes on ``text``."""
    module = sys.modules["kch.homfly"]
    originals = module.switch_crossing, module.smooth_crossing
    count = 0

    def counted(function):
        def wrapper(*args, **kwargs):
            nonlocal count
            count += 1
            return function(*args, **kwargs)

        return wrapper

    module.switch_crossing, module.smooth_crossing = map(counted, originals)
    try:
        kch.homfly(kch.parse_pd(text))
    finally:
        module.switch_crossing, module.smooth_crossing = originals
    return count


def load() -> list[list[str]]:
    """The table's PD texts in ``STRATA`` strata of equal size, cheapest first."""
    entries = json.loads(TABLE_PATH.read_text())["diagrams"]
    texts = [gen.braid_closure_pd(e["strands"], e["word"]) for e in entries]
    size = len(texts) // STRATA
    return [texts[k * size : (k + 1) * size] for k in range(STRATA)]


def main() -> int:
    source = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(source))
    import kch

    entries = []
    for strands, word in braid_words():
        text = gen.braid_closure_pd(strands, word)
        entries.append({"strands": strands, "word": word, "edits": edit_count(kch, text)})
    # stable: equal counts keep the order the seed drew them in
    entries.sort(key=lambda e: e["edits"])
    document = {"table_seed": TABLE_SEED, "strata": STRATA, "diagrams": entries}
    TABLE_PATH.write_text(
        "{\n"
        f' "table_seed": {json.dumps(TABLE_SEED)},\n'
        f' "strata": {STRATA},\n'
        ' "diagrams": [\n'
        + ",\n".join("  " + json.dumps(e, separators=(",", ":")) for e in document["diagrams"])
        + "\n ]\n}\n"
    )
    print(f"wrote {len(entries)} diagrams to {TABLE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
