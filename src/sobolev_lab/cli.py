"""Command line driver: JSON config in, deterministic artifacts out.

Each invocation reads one config file, runs a single command, writes a JSON
report plus a CSV table under the output directory, and signals success only
through the exit code: 0 pass or informational; 2 invalid config, including a
malformed model or function spec; 3 numerical failure, that is a failed check
or a broken numerical contract (a witness that does not reproduce its
estimate, a generator with a negative mode or one that is not self-adjoint).
Identical (config, seed) pairs produce identical bytes; all floats are
printed with 12 significant digits and files are written atomically.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import tempfile

from .algebra import check_spec
from .certify import (OptimizerBudget, decay_check, estimate_constant,
                      pnorm_decay_check)
from .doi import cone_test, log_difference, power_difference
from .errors import (ContractViolationError, DegenerateStateError, DomainError,
                     NumericalContractError)
from .functions import function_from_spec
from .models import MAX_DENSE_COEFF_DIM, ampliate_generator, model_from_spec
from .suite import (CHECKS, _model_label, _seeded_states, check_dpi,
                    csv_text, reports_to_csv, suite_run, suite_verdict)

# the fields of each command's config (see algebra.check_spec); the model
# and f objects are checked by model_from_spec and function_from_spec
_COMMON = {"command": "string", "seed?": "integer >= 0", "out?": "string"}
_BUDGET = {"restarts?": "integer >= 1", "iterations?": "integer >= 1"}
_CONFIG_SPECS = {
    "gap": {**_COMMON, "model": "object"},
    "estimate": {**_COMMON, "model": "object", "f": "object",
                 "budget?": _BUDGET, "ampliation?": "integer >= 1"},
    "decay": {**_COMMON, "model": "object", "f": "object",
              "lambda": "number > 0", "ampliation?": "integer >= 1",
              "n_states?": "integer >= 1", "t_grid?": "nonempty numbers"},
    "pnorm": {**_COMMON, "model": "object", "p": "number in (1, 2)",
              "lambda": "number > 0", "n_states?": "integer >= 1",
              "t_grid?": "nonempty numbers"},
    "cone-test": {**_COMMON, "kernel": {"tag": ("log", "power"), "p?": "number"},
                  "side?": ("plus", "minus"), "trials?": "integer >= 1",
                  "dims?": "nonempty integers >= 2",
                  "env_dims?": "nonempty integers >= 1"},
    "dpi-test": {**_COMMON, "trials?": "integer >= 1"},
    "suite": {**_COMMON, "checks?": "check ids"},
}
# estimate, decay and pnorm refuse, before building one, a model whose elements
# hold more coefficients (rt5 at k = 6 holds 4,320; gap builds no element)
MAX_ELEMENT_COEFF_DIM = 1 << 16
# the kind of a suite check parameter, by the type of its default
_KIND_OF_DEFAULT = {int: "integer >= 1", float: "number",
                    tuple: "nonempty numbers", str: "string"}


def _check_entry_fields(check_id):
    """check_spec fields of a suite entry {"id": check_id, params...}, from
    the defaults in the check's signature."""
    fields = {"id": "string"}
    for param in inspect.signature(CHECKS[check_id]).parameters.values():
        fields[param.name + "?"] = ("integer >= 0" if param.name == "seed"
                                    else _KIND_OF_DEFAULT[type(param.default)])
    return fields


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, payload):
    _atomic_write(path, json.dumps(_round12(payload), indent=2,
                                   sort_keys=True) + "\n")


def _build_model(config):
    return ampliate_generator(model_from_spec(config["model"]),
                              int(config.get("ampliation", 1)))


def _report_artifacts(out, stem, report, extra=None):
    payload = dict(report.to_json())
    if extra:
        payload.update(extra)
    _write_json(os.path.join(out, f"{stem}.json"), payload)
    reports_to_csv([report], os.path.join(out, f"{stem}.csv"))
    return payload


def _run_gap(config, out, seed, quiet):
    A = model_from_spec(config["model"])
    g = A.gap()
    exact = A.exact_gap
    verdict = "pass"
    slack = None
    if exact is not None:
        slack = -abs(g - float(exact))
        verdict = "pass" if abs(g - float(exact)) <= 1e-9 else "fail"
    _write_json(os.path.join(out, "gap.json"),
                {"command": "gap", "model": A.spec, "gap": g,
                 "exact": exact, "verdict": verdict, "seed": seed})
    rows = [["gap", _model_label(A.spec), "", "", "", seed, g, slack, verdict]]
    _atomic_write(os.path.join(out, "gap.csv"), csv_text(rows))
    if not quiet:
        print(f"{g:.9f}")
    return 0 if verdict == "pass" else 3


def _run_estimate(config, out, seed, quiet):
    f = function_from_spec(config["f"])
    budget_cfg = config.get("budget", {})
    budget = OptimizerBudget(
        restarts=int(budget_cfg.get("restarts", 32)),
        iterations=int(budget_cfg.get("iterations", 2000)),
        seed=seed)
    base = model_from_spec(config["model"])
    res = estimate_constant(base, f, ampliation=int(config.get("ampliation", 1)),
                            budget=budget)
    est = res.estimated_lambda
    verdict = "informational"
    if res.bracket is not None:
        low, high = res.bracket
        verdict = ("pass" if low - 1e-6 <= est <= high + 1e-6 else "fail")
    payload = dict(res.to_json(), command="estimate", verdict=verdict)
    _write_json(os.path.join(out, "estimate.json"), payload)
    f_spec = f.to_spec()
    rows = [["estimate", _model_label(res.model), f_spec["tag"],
             f_spec.get("p"), res.ampliation, i, val,
             None if val is None else val - est, verdict]
            for i, val in enumerate(res.restart_values)]
    _atomic_write(os.path.join(out, "estimate.csv"), csv_text(rows))
    if not quiet:
        print(f"estimate {est:.12g} verdict {verdict}")
    return 0 if verdict in ("pass", "informational") else 3


def _run_decay(config, out, seed, quiet):
    A = _build_model(config)
    f = function_from_spec(config["f"])
    lam = float(config["lambda"])
    t_grid = tuple(float(t) for t in config.get("t_grid") or ()) or None
    states = _seeded_states(A, int(config.get("n_states", 20)), seed, 3)
    report = decay_check(A, f, lam, states, t_grid=t_grid)
    _report_artifacts(out, "decay", report,
                      {"command": "decay", "model": A.spec, "seed": seed})
    # the entropy of the first state along the semigroup against its bound
    curve = [[r["t"], r["value"], r["bound"]] for r in report.records
             if r["seed"] == 0]
    _atomic_write(os.path.join(out, "decay_curve.csv"), csv_text(
        curve, header=("t", "entropy", "bound_e_minus_lambda_t")))
    if not quiet:
        print(f"decay verdict {report.verdict}")
    return 0 if report.verdict == "pass" else 3


def _run_pnorm(config, out, seed, quiet):
    A = _build_model(config)
    p = float(config["p"])
    lam = float(config["lambda"])
    t_grid = tuple(float(t) for t in config.get("t_grid") or ()) or None
    states = _seeded_states(A, int(config.get("n_states", 20)), seed, 3)
    report = pnorm_decay_check(A, p, lam, states, t_grid=t_grid)
    _report_artifacts(out, "pnorm", report,
                      {"command": "pnorm", "model": A.spec, "seed": seed})
    if not quiet:
        print(f"pnorm verdict {report.verdict}")
    return 0 if report.verdict == "pass" else 3


def _run_cone_test(config, out, seed, quiet):
    spec = config["kernel"]
    if spec["tag"] == "log":
        F = log_difference()
    else:
        F = power_difference(float(spec.get("p", 0.5)))
    kwargs = {"side": config.get("side", "plus"),
              "trials": int(config.get("trials", 100)), "seed": seed}
    if "dims" in config:
        kwargs["dims"] = tuple(int(d) for d in config["dims"])
    if "env_dims" in config:
        kwargs["env_dims"] = tuple(int(d) for d in config["env_dims"])
    rep = cone_test(F, **kwargs)
    _write_json(os.path.join(out, "cone_test.json"),
                dict(rep.to_json(), command="cone-test"))
    rows = [["cone_membership", "", rep.kernel, spec.get("p"), "", seed,
             rep.worst_min_eig, rep.worst_margin, rep.verdict]]
    for v in rep.violations:
        rows.append(["cone_membership", "", rep.kernel, spec.get("p"),
                     v["dim"], v["seed"], v["min_eig"],
                     v["min_eig"] + v["tolerance"], rep.verdict])
    _atomic_write(os.path.join(out, "cone_test.csv"), csv_text(rows))
    if not quiet:
        print(f"cone-test verdict {rep.verdict}")
    return 0 if rep.verdict == "pass" else 3


def _run_dpi_test(config, out, seed, quiet):
    report = check_dpi(seed=seed, trials=int(config.get("trials", 40)))
    _report_artifacts(out, "dpi_test", report,
                      {"command": "dpi-test", "seed": seed})
    if not quiet:
        print(f"dpi-test verdict {report.verdict}")
    return 0 if report.verdict == "pass" else 3


def _run_suite(config, out, seed, quiet, check_filter=None):
    suite_cfg = {"seed": seed}
    checks = config.get("checks")
    if checks is not None:
        suite_cfg["checks"] = checks
    if check_filter is not None:
        entries = suite_cfg.get("checks", list(CHECKS))
        keep = []
        for entry in entries:
            cid = entry if isinstance(entry, str) else entry.get("id")
            if cid == check_filter:
                keep.append(entry)
        if not keep:
            raise ContractViolationError(
                f"--check {check_filter!r} names no check of this config")
        suite_cfg["checks"] = keep
    reports = suite_run(suite_cfg)
    verdict = suite_verdict(reports)
    _write_json(os.path.join(out, "suite.json"),
                {"command": "suite", "seed": seed, "verdict": verdict,
                 "reports": [rep.to_json() for rep in reports]})
    reports_to_csv(reports, os.path.join(out, "suite.csv"))
    if not quiet:
        for rep in reports:
            tag = " (informational)" if rep.informational else ""
            print(f"{rep.check_id}: {rep.verdict}{tag}")
        print(f"suite verdict {verdict}")
    return 0 if verdict == "pass" else 3


_RUNNERS = {
    "gap": _run_gap,
    "estimate": _run_estimate,
    "decay": _run_decay,
    "pnorm": _run_pnorm,
    "cone-test": _run_cone_test,
    "dpi-test": _run_dpi_test,
    "suite": _run_suite,
}


def validate_config(config, seed=None, check_filter=None):
    """Check a config, with its --seed and --check overrides, against the
    fields of its command, build its model, and check the ampliated model of
    every command but gap against the element budget; return the command
    name."""
    if not isinstance(config, dict):
        raise ContractViolationError("config must be a JSON object")
    command = config.get("command")
    if not isinstance(command, str) or command not in _CONFIG_SPECS:
        raise ContractViolationError(
            f"unknown command {command!r}; expected one of {sorted(_CONFIG_SPECS)}")
    check_spec(config if seed is None else dict(config, seed=seed),
               _CONFIG_SPECS[command])
    if command == "suite":
        # unknown ids are left to suite_run, which also refuses them before
        # any check runs
        for entry in config.get("checks", ()):
            if isinstance(entry, dict) and entry["id"] in CHECKS:
                check_spec(entry, _check_entry_fields(entry["id"]))
    if "model" in config:
        k = config.get("ampliation", 1)
        dim = model_from_spec(config["model"]).algebra.coeff_dim * k * k
        if command != "gap" and dim > MAX_ELEMENT_COEFF_DIM:
            raise ContractViolationError(
                f"elements of {dim} coefficients exceed {MAX_ELEMENT_COEFF_DIM}")
    if command == "cone-test":
        # cone_test builds d^2 x d^2 superoperators: the dense budget applies
        if max(config.get("dims", ()), default=0) ** 2 > MAX_DENSE_COEFF_DIM:
            raise ContractViolationError(
                f"cone-test dims must satisfy d^2 <= {MAX_DENSE_COEFF_DIM}")
    if check_filter is not None and command != "suite":
        raise ContractViolationError(
            f"--check selects suite checks; a {command!r} config has none")
    return command


def run(config, out_dir=None, seed=None, check_filter=None, quiet=False):
    """Execute one validated config; returns the process exit code."""
    try:
        command = validate_config(config, seed, check_filter)
    except ContractViolationError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    out = out_dir or config.get("out") or "."
    run_seed = int(seed if seed is not None else config.get("seed", 0))
    try:
        if command == "suite":
            return _run_suite(config, out, run_seed, quiet,
                              check_filter=check_filter)
        return _RUNNERS[command](config, out, run_seed, quiet)
    except (NumericalContractError, DegenerateStateError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ContractViolationError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2


def _finite_float(text):
    """A JSON number as a float; NaN, Infinity and overflowing literals are
    refused, as no config field takes a non-finite value."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in config")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sobolev-lab",
        description="Estimate decay constants and verify entropy inequalities "
                    "for tracial block-matrix models.",
        epilog="Set SOBOLEV_LAB_THREADS to cap the optimizer worker count.")
    parser.add_argument("--config", required=True,
                        help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None,
                        help="artifact directory (default: config 'out' or .)")
    parser.add_argument("--check", default=None,
                        help="run only this check id (suite command)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress prints")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh, parse_float=_finite_float,
                               parse_constant=_finite_float)
    except (OSError, ValueError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    return run(config, out_dir=args.out, seed=args.seed,
               check_filter=args.check, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
