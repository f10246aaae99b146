"""One benchmark process: set up a workload, run whole rounds, check outputs.

Run through perfbench/run.py, which starts this file in a fresh interpreter
and passes the moment it started it, so that set-up time counts interpreter
start and imports.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import glob
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import reference as ref  # noqa: E402


class Op:
    """One timed call into the program and what is needed to check it."""

    __slots__ = ("name", "seconds", "valid", "failed", "data")

    def __init__(self, name, seconds, data, valid=True, failed=""):
        self.name = name
        self.seconds = seconds
        self.data = data
        self.valid = valid
        self.failed = failed


class Checker:
    """Collects correctness problems; any problem makes the run incorrect."""

    def __init__(self):
        self.problems = []

    def expect(self, cond, what):
        if not cond:
            self.problems.append(what)
        return bool(cond)

    def near(self, a, b, tol, what):
        return self.expect(abs(float(a) - float(b)) <= tol,
                           f"{what}: {a!r} vs {b!r} (tol {tol:.1e})")


def timed(name, call, data):
    """Time one call into the program; an exception fails the operation."""
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # the run goes on and reports the failure
        return Op(name, time.perf_counter() - t0, None,
                  failed=f"raised {type(exc).__name__}: {exc}")
    return Op(name, time.perf_counter() - t0, data + (out,))


def _walk_of(spec):
    """('rt' | 'bl', n, r, k) from a model spec, unwrapping ampliation."""
    k = 1
    while spec.get("model") == "ampliation":
        k *= int(spec["factor"])
        spec = spec["base"]
    k *= int(spec.get("matrix_dim", 1))
    params = spec["params"]
    walk = "rt" if spec["model"] == "random_transposition" else "bl"
    return walk, int(params["n"]), params.get("r"), k


def _reference_L(walk, n, labels):
    return ref.site_matrix(walk, [tuple(lab) for lab in labels], n)


def witness_array(payload):
    """(labels, (m, k, k) array) from an element_to_json payload."""
    labels = [ast.literal_eval(s["label"]) for s in payload["sites"]]
    blocks = np.array([[[complex(c[0], c[1]) for c in row] for row in b]
                       for b in payload["blocks"]])
    return labels, blocks


def check_estimate(chk, res_json, tag, p, what):
    """Check the bracket; return (estimate / tabulated upper bound, whether
    the witness reproduces the estimate under the reference ratio)."""
    walk, n, _, _ = _walk_of(res_json["model"])
    low, high = ref.bracket(walk, tag, p)
    est = float(res_json["estimated_lambda"])
    chk.expect(low - 1e-6 <= est <= high + 1e-6,
               f"{what}: estimate {est} outside [{low}, {high}]")
    labels, rho = witness_array(res_json["witness"])
    again = ref.ratio(tag, p, _reference_L(walk, n, labels), rho)
    return est / high, abs(again - est) <= 1e-8 * (1.0 + abs(est))


# -- search ---------------------------------------------------------------------

class Search:
    """Constant searches at the quick budget; k=2 must not lose to k=1."""

    PAIRS = [("rt", 3, None), ("rt", 4, None), ("bl", 4, 2)]
    FUNCS = [("power", 1.5), ("xlogx", None)]

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        import sobolev_lab as sl
        from sobolev_lab.functions import power, xlogx
        self.sl = sl
        self.models = {}
        for walk, n, r in self.PAIRS:
            A = (sl.random_transposition(n) if walk == "rt"
                 else sl.bernoulli_laplace(n, r))
            self.models[(walk, n)] = (A, A.gap())
        self.fns = {"power": power(1.5), "xlogx": xlogx()}
        sl.estimate_constant(self.models[("rt", 3)][0], self.fns["power"], 1,
                             sl.OptimizerBudget(restarts=2, iterations=20))

    def budgets(self):
        """(k, budget seed) of the searches of one (walk, f) pair.

        k=1 runs at two budget seeds, 2*seed and 2*seed + 1, so a run
        averages more searches and no two seeds share an input.  Every k=2
        search loses to its k=1 partners (ampliation monotonicity fault), so
        k=2 runs at budget seed 0: the failing operations sit on inputs that
        do not depend on --seed.
        """
        return [(1, 2 * self.seed), (1, 2 * self.seed + 1), (2, 0)]

    def round(self, index):
        ops = []
        for walk, n, r in self.PAIRS:
            A = self.models[(walk, n)][0]
            for tag, p in self.FUNCS:
                for k, bseed in self.budgets():
                    budget = self.sl.OptimizerBudget(restarts=8,
                                                     iterations=500,
                                                     seed=bseed)
                    ops.append(timed(
                        f"{walk}{n}{r or ''}/{tag}/k{k}/s{bseed}",
                        lambda: self.sl.estimate_constant(
                            A, self.fns[tag], k, budget),
                        (walk, n, tag, p, k)))
        return ops

    def verify(self, chk, rounds):
        for (walk, n), (A, g) in self.models.items():
            chk.near(g, ref.EXACT_GAP[walk], 1e-9, f"{walk}{n} gap")
            L = _reference_L(walk, n, A.algebra.labels)
            chk.near(ref.gap(L), ref.EXACT_GAP[walk], 1e-9,
                      f"{walk}{n} reference gap")
        rels = []
        for ops in rounds:
            partner = {}
            for op in (op for op in ops if op.data):
                walk, n, tag, p, k, res = op.data
                rel, reproduced = check_estimate(chk, res.to_json(), tag, p,
                                                 op.name)
                rels.append(rel)
                est = res.estimated_lambda
                chk.near(res.witness_ratio, est, 1e-8 * (1.0 + abs(est)),
                          f"{op.name}: witness_ratio")
                chk.expect(tuple(res.bracket) == ref.bracket(walk, tag, p),
                           f"{op.name}: bracket {res.bracket}")
                reasons = []
                if not reproduced:
                    reasons.append("witness does not reproduce the estimate")
                if k == 1:
                    partner[(walk, n, tag)] = min(
                        est, partner.get((walk, n, tag), est))
                elif est > partner.get((walk, n, tag), est) * (1.0 + 1e-9):
                    # a lifted k=1 witness has its k=1 ratio at k=2
                    reasons.append("k=2 estimate above a k=1 partner")
                op.failed = "; ".join(reasons)
        return statistics.fmean(rels)


# -- decay ----------------------------------------------------------------------

class Decay:
    """Entropy and Fisher decay along the semigroup, one op per state."""

    WALKS = [("rt", 4, None), ("bl", 4, 2), ("rt", 5, None)]
    DIMS = (1, 2, 4)
    FUNCS = [("power", 1.5), ("xlogx", None)]

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        import sobolev_lab as sl
        from sobolev_lab.functions import power, xlogx
        self.sl = sl
        self.fns = {"power": power(1.5), "xlogx": xlogx()}
        self.cases = []
        for walk, n, r in self.WALKS:
            for k in self.DIMS:
                A = (sl.random_transposition(n, k) if walk == "rt"
                     else sl.bernoulli_laplace(n, r, k))
                self.cases.append((walk, n, r, k, A, A.gap()))
        self._op(0, 0, 0)

    def _op(self, index, case_idx, f_idx):
        walk, n, r, k, A, _ = self.cases[case_idx]
        tag, p = self.FUNCS[f_idx]
        lam = ref.bracket(walk, tag, p)[0]
        rng = np.random.default_rng([self.seed, index, case_idx, f_idx])
        rho = ref.random_state(rng, A.algebra.n_sites, k)
        state = self.sl.AlgebraElement(A.algebra, list(rho))
        f = self.fns[tag]
        return timed(f"{walk}{n}{r or ''}/k{k}/{tag}",
                     lambda: (self.sl.decay_check(A, f, lam, [state]),
                              self.sl.fisher_decay_check(A, f, lam, [state])),
                     (case_idx, tag, p, lam, rho))

    def round(self, index):
        # every round holds the same (case, f) mix, so op_p50_s and the
        # median round do not depend on how many rounds a run makes
        return [self._op(index + 1, c, fi) for c in range(len(self.cases))
                for fi in range(len(self.FUNCS))]

    def verify(self, chk, rounds):
        Ls = {}
        for walk, n, _, k, A, g in self.cases:
            if (walk, n) not in Ls:
                Ls[(walk, n)] = _reference_L(walk, n, A.algebra.labels)
                chk.near(ref.gap(Ls[(walk, n)]), ref.EXACT_GAP[walk], 1e-9,
                          f"{walk}{n} reference gap")
            chk.near(g, ref.EXACT_GAP[walk], 1e-9, f"{walk}{n}/k{k} gap")
        props = {}
        for ops in rounds:
            for op in (op for op in ops if op.data):
                case_idx, tag, p, lam, rho, (dec, fis) = op.data
                walk, n = self.cases[case_idx][:2]
                L = Ls[(walk, n)]
                chk.expect(dec.verdict == "pass",
                           f"{op.name}: decay verdict {dec.verdict}")
                d0 = ref.entropy(tag, p, rho)
                i0 = ref.fisher(tag, p, L, rho)
                for rec_d, rec_i in zip(dec.records, fis.records):
                    t = rec_d["t"]
                    if (walk, n, t) not in props:
                        props[(walk, n, t)] = ref.propagator(L, t)
                    rt = ref.semigroup(L, t, rho, props[(walk, n, t)])
                    d_t = ref.entropy(tag, p, rt)
                    chk.near(rec_d["value"], d_t, 1e-9 * (1.0 + d0),
                              f"{op.name} t={t}: entropy")
                    chk.expect(d_t <= math.exp(-lam * t) * d0 * (1 + 1e-9),
                               f"{op.name} t={t}: reference decay bound")
                    chk.near(rec_i["value"], ref.fisher(tag, p, L, rt),
                              1e-8 * (1.0 + i0), f"{op.name} t={t}: fisher")
        return 1.0


# -- cli ------------------------------------------------------------------------

RT3 = {"model": "random_transposition", "params": {"n": 3}, "matrix_dim": 1}

# each must exit 2; the first four end in a traceback instead, because the
# model and function specs are not validated
MALFORMED = [
    ("params_empty", {"command": "gap", "model": {
        "model": "random_transposition", "params": {}}}),
    ("n_not_int", {"command": "gap", "model": {
        "model": "random_transposition", "params": {"n": "x"}}}),
    ("power_without_p", {"command": "estimate", "model": RT3,
                         "f": {"tag": "power"}}),
    ("tensor_one_factor", {"command": "gap", "model": {
        "model": "tensor", "factors": [RT3]}}),
    ("model_without_tag", {"command": "gap", "model": {"params": {}}}),
    ("model_string", {"command": "gap", "model": "rt3"}),
]

ARTIFACTS = {"gap": ["gap.json", "gap.csv"],
             "estimate": ["estimate.json", "estimate.csv"],
             "decay": ["decay.json", "decay.csv", "decay_curve.csv"],
             "pnorm": ["pnorm.json", "pnorm.csv"],
             "cone-test": ["cone_test.json", "cone_test.csv"],
             "dpi-test": ["dpi_test.json", "dpi_test.csv"],
             "suite": ["suite.json", "suite.csv"]}

# checks that fail on some seeds only, so they cannot sit in whole rounds
# with a fixed failure share: gradient_identity's central difference
# (h = 1e-4) misses its 1e-5 relative tolerance for about one seed in five
SEED_DEPENDENT_FAILURES = ("gradient_identity",)

# Every invocation that does not run the optimizer is made twice per round:
# its latency is then sampled twice, which steadies op_p50_s against the
# host's short slow phases, and the repeat must write identical bytes.  The
# optimizer-driven ones (the estimate config and the estimate_bracket check)
# run once.
REPEATS = 2
OPTIMIZER_DRIVEN = ("estimate", "estimate_bracket")


class Cli:
    """Every shipped config through cli.main, plus malformed configs."""

    def __init__(self, seed):
        self.seed = seed
        self.work = os.path.join(BENCH_DIR, "out", f"cli-{os.getpid()}")

    def setup(self):
        from sobolev_lab import cli
        from sobolev_lab.suite import CHECKS
        self.cli = cli
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        entries = []  # (name, argv, config, check id or None, kind)
        for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
            with open(path) as fh:
                config = json.load(fh)
            stem = os.path.splitext(os.path.basename(path))[0]
            argv = ["--config", path, "--seed", str(self.seed), "--quiet"]
            if config["command"] != "suite":
                entries.append((stem, argv, config, None, config["command"]))
                continue
            for entry in config.get("checks", list(CHECKS)):
                cid = entry if isinstance(entry, str) else entry["id"]
                if cid not in SEED_DEPENDENT_FAILURES:
                    entries.append((f"{stem}/{cid}", argv + ["--check", cid],
                                    config, cid, cid))
        # passes over the whole list spread each invocation's samples
        # across the round
        self.plan = []  # (name, argv, config, check id, expected rc)
        for i in range(REPEATS):
            for name, argv, config, cid, kind in entries:
                if i == 0 or kind not in OPTIMIZER_DRIVEN:
                    self.plan.append((f"{name}#{i}", argv, config, cid, 0))
        for name, config in MALFORMED:
            path = os.path.join(self.work, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            self.plan.append((f"malformed/{name}",
                              ["--config", path, "--quiet"], config, None, 2))
        gap = next(p for p in self.plan if p[2]["command"] == "gap")
        self._call(gap[1] + ["--out", os.path.join(self.work, "warmup")])

    def _call(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                return self.cli.main(argv), err.getvalue()
            except Exception as exc:  # a traceback is an outcome to record
                return f"{type(exc).__name__}: {exc}", err.getvalue()

    def round(self, index):
        ops = []
        for name, argv, config, cid, expect in self.plan:
            out = os.path.join(self.work, f"r{index}", name)
            t0 = time.perf_counter()
            rc, err = self._call(argv + ["--out", out])
            dt = time.perf_counter() - t0
            ops.append(Op(name, dt, (out, config, cid, expect, rc, err),
                          valid=expect == 0))
        return ops

    def verify(self, chk, rounds):
        rels = []
        first = {}
        for ops in rounds:
            for op in ops:
                out, config, cid, expect, rc, err = op.data
                if rc != expect:
                    op.failed = f"ends in {rc} {err.strip()}"
                if not op.valid:
                    chk.expect(not os.path.exists(out),
                               f"{op.name}: artifacts written")
                if op.failed or not op.valid:
                    continue
                files = ARTIFACTS.get(config["command"])
                if not chk.expect(files is not None,
                                  f"{op.name}: unknown command"):
                    continue
                data = {}
                for fname in files:
                    with open(os.path.join(out, fname), "rb") as fh:
                        data[fname] = fh.read()
                key = op.name.rsplit("#", 1)[0]
                if key in first:
                    chk.expect(first[key] == data,
                               f"{op.name}: artifacts differ on repeat")
                else:
                    first[key] = data
                rels.extend(self._check(chk, op, config, cid, data))
        return statistics.fmean(rels) if rels else 1.0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def _check(self, chk, op, config, cid, data):
        name = op.name
        command = config["command"]
        payload = json.loads(data[ARTIFACTS[command][0]])
        rows = list(csv.reader(io.StringIO(data[ARTIFACTS[command][1]]
                                           .decode())))
        chk.expect(rows and rows[0][:2] == ["check_id", "model"],
                   f"{name}: csv header")
        if command == "gap":
            walk, n, _, _ = _walk_of(config["model"])
            L = ref.site_matrix(walk, ref.walk_labels(walk, n,
                                config["model"]["params"].get("r")), n)
            chk.near(payload["gap"], ref.gap(L), 1e-9, f"{name}: gap")
            chk.expect(payload["verdict"] == "pass", f"{name}: verdict")
            return []
        if command == "estimate":
            f = config["f"]
            chk.expect(payload["verdict"] == "pass", f"{name}: verdict")
            chk.expect(len(rows) == 1 + payload["n_restarts"],
                       f"{name}: one csv row per restart")
            rel, reproduced = check_estimate(chk, payload, f["tag"],
                                             f.get("p"), name)
            if not reproduced:
                op.failed = "witness does not reproduce the estimate"
            return [rel]
        if command == "decay":
            self._check_decay(chk, name, config, payload, data)
            return []
        if command == "suite":
            reports = payload["reports"]
            ok = chk.expect(len(reports) == 1 and reports[0]["check"] == cid,
                            f"{name}: one report for {cid}")
            chk.expect(payload["verdict"] == "pass", f"{name}: suite verdict")
            chk.expect(all(r[0] == cid for r in rows[1:]), f"{name}: csv ids")
            if ok and cid == "estimate_bracket":
                vals = {}
                for r in reports[0]["records"]:
                    walk = "rt" if r["model"] == "random_transposition" else "bl"
                    vals[r["seed"]] = r["value"] / (2.0 * ref.EXACT_GAP[walk])
                return list(vals.values())
            return []
        verdict = payload.get("verdict")
        chk.expect(verdict == "pass", f"{name}: verdict {verdict}")
        return []

    def _check_decay(self, chk, name, config, payload, data):
        chk.expect(payload["verdict"] == "pass", f"{name}: verdict")
        walk, n, r, k = _walk_of(config["model"])
        labels = ref.walk_labels(walk, n, r)
        L = ref.site_matrix(walk, labels, n)
        f = config["f"]
        rhos = {}
        for rec in payload["records"]:
            s = rec["seed"]
            if s not in rhos:
                rhos[s] = program_state(self.seed, s, len(labels), k)
            d_t = ref.entropy(f["tag"], f.get("p"),
                              ref.semigroup(L, rec["t"], rhos[s]))
            chk.near(rec["value"], d_t, 1e-9 * (1.0 + rec["scale"]),
                      f"{name} state {s} t={rec['t']}: entropy")
        curve = list(csv.reader(io.StringIO(data["decay_curve.csv"].decode())))
        for t, value, _ in curve[1:]:
            d_t = ref.entropy(f["tag"], f.get("p"),
                              ref.semigroup(L, float(t), rhos[0]))
            chk.near(float(value), d_t, 1e-9 * (1.0 + abs(d_t)),
                      f"{name} curve t={t}")


def program_state(seed, index, m, k, floor=1e-3):
    """The CLI's input state: per site, real then imaginary k x k Gaussians
    from the seed stream (seed, 3, index), then G G* + floor I."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(3, int(index)))
    rng = np.random.default_rng(ss)
    blocks = []
    for _ in range(m):
        g = (rng.standard_normal((k, k))
             + 1j * rng.standard_normal((k, k))) / math.sqrt(2.0)
        blocks.append(g @ g.conj().T + floor * np.eye(k))
    return np.array(blocks)


WORKLOADS = {"search": Search, "decay": Decay, "cli": Cli}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() when the launcher started us")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    work = WORKLOADS[args.workload](args.seed)
    try:
        result = run(work, args)
    finally:
        if hasattr(work, "close"):
            work.close()
    if tracer is not None and "attempted" in result:
        result["per_layer"] = tracer.metrics()
        result["sizes"] = tracer.size_medians()
    print(json.dumps(result))
    return 0


def run(work, args):
    work.setup()
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        return {"setup_s": setup_s}

    # whole rounds: start another only while it should end within the run
    rounds, round_s = [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(work.round(len(rounds)))
        round_s.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(round_s) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    chk = Checker()
    estimate_rel = work.verify(chk, rounds)
    ops = [op for ops in rounds for op in ops]
    for problem in chk.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for op in ops:
        if op.failed:
            print(f"failed operation {op.name}: {op.failed}", file=sys.stderr)
    return {
        "correct": not chk.problems,
        "attempted": len(ops),
        "failed": sum(bool(op.failed) for op in ops),
        "rounds": len(rounds),
        "wall_s": statistics.median(round_s),
        "op_p50_s": statistics.median(op.seconds for op in ops if op.valid),
        "peak_rss_mb": peak_rss_mb,
        "estimate_rel": estimate_rel,
        "setup_s": setup_s,
    }


if __name__ == "__main__":
    sys.exit(main())
