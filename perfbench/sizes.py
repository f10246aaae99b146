#!/usr/bin/env python3
"""Per-size median span time of each layer, as a markdown table.

Reads the perfbench/out/trace-*.json files that traced runs write
(python3 perfbench/run.py --workload W --seed N --seconds S --trace 1) and
prints, for each layer and each algebra size m<sites>k<block dim>, the
median span duration in milliseconds.  Where several traces saw a layer at
one size, the trace with the most calls there is used.
"""

import glob
import json
import os
import sys

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
TAGS = [f"m{m}k{k}" for m in (6, 24, 120) for k in (1, 2, 4)]


def main():
    best = {}  # (layer, tag) -> (calls, median seconds)
    for path in sorted(glob.glob(os.path.join(OUT, "trace-*.json"))):
        with open(path) as fh:
            sizes = json.load(fh)["sizes"]
        for layer, by_tag in sizes.items():
            for tag, (calls, median) in by_tag.items():
                if calls > best.get((layer, tag), (0, 0.0))[0]:
                    best[(layer, tag)] = (calls, median)
    if not best:
        print("no traces under perfbench/out/", file=sys.stderr)
        return 1
    print("| layer | " + " | ".join(TAGS) + " |")
    print("|---|" + "---:|" * len(TAGS))
    for layer in sorted({layer for layer, _ in best}):
        cells = [f"{best[(layer, t)][1] * 1e3:.3g}" if (layer, t) in best
                 else "" for t in TAGS]
        if any(cells):
            print(f"| {layer} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
