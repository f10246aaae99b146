#!/usr/bin/env python3
"""Trace entropy decay curves along the built-in semigroups.

For each walk the script samples a handful of states, follows the
f-entropy to the fixed subalgebra along the semigroup, and writes one CSV
per walk with columns (t, state, entropy, exp_bound).  The bound column
is d(rho) * exp(-lambda t) at the tabulated decay rate.

Usage:
    python3 scripts/decay_curves.py --out-dir curves [--n-states 5]
"""

import argparse
import csv
import os
import sys

import numpy as np

from sobolev_lab import (bernoulli_laplace, decay_check, random_positive,
                         random_transposition)
from sobolev_lab.algebra import make_rng
from sobolev_lab.functions import power, xlogx

WALKS = [
    ("rt3_power15", lambda: random_transposition(3), power(1.5), 1.5),
    ("rt3_xlogx", lambda: random_transposition(3), xlogx(), 1.0),
    ("bl42_power15", lambda: bernoulli_laplace(4, 2), power(1.5), 0.75),
]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="curves")
    ap.add_argument("--n-states", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    t_grid = np.concatenate([[0.0], np.geomspace(0.01, 6.0, 25)])
    for tag, build, f, lam in WALKS:
        A = build()
        states = [random_positive(A.algebra, floor=1e-3,
                                  seed=make_rng(args.seed, s))
                  for s in range(args.n_states)]
        report = decay_check(A, f, lam, states, t_grid=t_grid)
        path = os.path.join(args.out_dir, f"{tag}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "state", "entropy", "exp_bound"])
            for r in report.records:
                writer.writerow([f"{r['t']:.6g}", r["seed"],
                                 f"{r['value']:.12g}", f"{r['bound']:.12g}"])
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
