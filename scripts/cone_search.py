#!/usr/bin/env python3
"""Search for order violations of two-variable kernels under compression.

Runs the randomized membership test for the catalog kernels plus a known
non-member (the sum kernel F(x, y) = x + y) so the output shows both a
clean pass and what a genuine violation looks like.

Usage:
    python3 scripts/cone_search.py [--trials 300] [--seed 0]
"""

import argparse
import json
import sys

from sobolev_lab import TwoVariableKernel, cone_test, log_difference, power_difference


def sum_kernel():
    return TwoVariableKernel(
        label="sum",
        gram_fn=lambda xs, ys: xs[:, None] + ys[None, :])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    kernels = [log_difference(), power_difference(0.25),
               power_difference(0.5), power_difference(0.75), sum_kernel()]
    worst = {}
    for F in kernels:
        rep = cone_test(F, side="plus", trials=args.trials, seed=args.seed)
        worst[F.label] = rep.worst_min_eig
        print(json.dumps(rep.to_json(), indent=2))
    print()
    for label, eig in worst.items():
        print(f"{label:>12}: worst min eigenvalue {eig: .3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
