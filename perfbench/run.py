#!/usr/bin/env python3
"""sobolev-lab benchmark: run one workload and print its metrics as JSON.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload {search,decay,cli} --seed N \
        --seconds S --trace {0,1}

Each workload runs in a fresh interpreter (perfbench/worker.py).  With
--trace 0 the last line holds the end-to-end metrics; set-up is repeated in
two more fresh interpreters first and setup_s is the median of the three.
With --trace 1 the last line holds the per-layer metrics, and the per-size
span medians and the traced wall_s go to perfbench/out/.  The exit code is
0 only when the workload ran and a result was printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPEATS = 2
TIMEOUT_S = 170.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
             "peak_rss_mb": "MB", "estimate_rel": "ratio"}


def _worker(args, deadline, setup_only=False):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(cmd + ["--started", repr(started)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["search", "decay", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sobolev_lab",
                                       "__init__.py")):
        print("perfbench: src/sobolev_lab not found next to perfbench/",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                setups.append(_worker(args, deadline, True)["setup_s"])
        res = _worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = res["per_layer"]
        os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
        path = os.path.join(BENCH_DIR, "out",
                            f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"wall_s": res["wall_s"], "op_p50_s": res["op_p50_s"],
                       "rounds": res["rounds"], "sizes": res["sizes"]},
                      fh, indent=1, sort_keys=True)
    else:
        res["setup_s"] = statistics.median(setups + [res["setup_s"]])
        metrics = {name: {"value": res[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
