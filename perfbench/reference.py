"""Regenerate ``psg_nodes.json``, the reference summarize-sd checks against.

For every input summarize-sd can draw — each generator seed of the pool,
crossed with every (α, Rk k) cell — record the node count of its Psg. The
check then pins PgSum's output size exactly, so a change to the merge
that alters any summary shows as a failed operation. Run from the
repository root (about five minutes for the full pool)::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.summarize_sd import (
        CELLS, REFERENCE, SIZES, make_set, reference_key, summarize,
    )

    table: dict[str, dict[str, int]] = {}
    for size, spec in SIZES.items():
        table[size] = {}
        for sd_seed in range(spec["pool"]):
            for alpha, k in CELLS:
                segments = make_set(size, sd_seed, alpha).segments
                nodes = summarize(segments, k).node_count
                table[size][reference_key(sd_seed, alpha, k)] = nodes
            print(f"{size} seed {sd_seed} done", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as out:
        json.dump(table, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
