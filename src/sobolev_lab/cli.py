"""Command line driver: JSON config in, deterministic artifacts out.

Each invocation reads one config file and runs a single command, which
computes its verdict, its artifacts (a JSON report plus one or two CSV
tables) and its summary lines.  Only after the command has finished does run
write every artifact under the output directory, each by atomic replace,
print the summary and map the verdict to the exit code, in that one place; a
run that fails writes no file.  Success is signalled only through the exit
code: 0 pass or informational; 2 invalid config, including a malformed model
or function spec and a suite entry that its check refuses, or an unusable
output path (one that cannot be created or written, an artifact path that is
a directory, an OS error while writing);
3 numerical failure, that is a failed check or a broken numerical contract
(a witness that does not reproduce its estimate, a generator with a negative
mode or one that is not self-adjoint).  Identical (config, seed) pairs
produce identical bytes; all floats are printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys

from .algebra import check_spec
from .certify import (OptimizerBudget, decay_check, estimate_constant,
                      pnorm_decay_check)
from .doi import (CONE_DIMS, CONE_ENV_DIMS, cone_test, log_difference,
                  power_difference)
from .errors import (ContractViolationError, DegenerateStateError, DomainError,
                     NumericalContractError)
from .functions import function_from_spec
from .models import (MAX_DENSE_COEFF_DIM, MAX_ELEMENT_COEFF_DIM,
                     ampliate_generator, model_from_spec)
from .suite import (CHECKS, _atomic_write, _model_label, _report_rows,
                    _seeded_states, check_dpi, csv_text, suite_run,
                    suite_verdict)

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


def _json_text(payload):
    return json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n"


def _report_files(stem, report, **extra):
    """{stem.json: the report with extra fields, stem.csv: its rows}."""
    return {f"{stem}.json": _json_text(dict(report.to_json(), **extra)),
            f"{stem}.csv": csv_text(_report_rows([report]))}


# Each runner takes (config, model, seed), with the model validate_config
# built (None for a command without one), and returns (verdict, {file name:
# text}, summary lines); run writes, prints and maps the verdict.

def _run_gap(config, A, seed):
    g = A.gap()
    exact = A.exact_gap
    verdict = "pass"
    slack = None
    if exact is not None:
        slack = -abs(g - float(exact))
        verdict = "pass" if abs(g - float(exact)) <= 1e-9 else "fail"
    rows = [["gap", _model_label(A.spec), "", "", "", seed, g, slack, verdict]]
    files = {"gap.json": _json_text({"command": "gap", "model": A.spec,
                                     "gap": g, "exact": exact,
                                     "verdict": verdict, "seed": seed}),
             "gap.csv": csv_text(rows)}
    return verdict, files, [f"{g:.9f}"]


def _run_estimate(config, A, seed):
    f = function_from_spec(config["f"])
    budget = OptimizerBudget(seed=seed, **{
        key: int(value) for key, value in config.get("budget", {}).items()})
    res = estimate_constant(A, f, ampliation=int(config.get("ampliation", 1)),
                            budget=budget)
    est = res.estimated_lambda
    verdict = "informational"
    if res.bracket is not None:
        low, high = res.bracket
        verdict = ("pass" if low - 1e-6 <= est <= high + 1e-6 else "fail")
    f_spec = f.to_spec()
    rows = [["estimate", _model_label(res.model), f_spec["tag"],
             f_spec.get("p"), res.ampliation, i, val,
             None if val is None else val - est, verdict]
            for i, val in enumerate(res.restart_values)]
    files = {"estimate.json": _json_text(dict(res.to_json(),
                                              command="estimate",
                                              verdict=verdict)),
             "estimate.csv": csv_text(rows)}
    return verdict, files, [f"estimate {est:.12g} verdict {verdict}"]


def _run_decay(config, A, seed):
    A = ampliate_generator(A, int(config.get("ampliation", 1)))
    f = function_from_spec(config["f"])
    states = _seeded_states(A, int(config.get("n_states", 20)), seed, 3)
    report = decay_check(A, f, float(config["lambda"]), states,
                         t_grid=config.get("t_grid"))
    files = _report_files("decay", report, command="decay", model=A.spec,
                          seed=seed)
    # the entropy of the first state along the semigroup against its bound
    curve = [[r["t"], r["value"], r["bound"]] for r in report.records
             if r["seed"] == 0]
    files["decay_curve.csv"] = csv_text(
        curve, header=("t", "entropy", "bound_e_minus_lambda_t"))
    return report.verdict, files, [f"decay verdict {report.verdict}"]


def _run_pnorm(config, A, seed):
    states = _seeded_states(A, int(config.get("n_states", 20)), seed, 3)
    report = pnorm_decay_check(A, float(config["p"]), float(config["lambda"]),
                               states, t_grid=config.get("t_grid"))
    files = _report_files("pnorm", report, command="pnorm", model=A.spec,
                          seed=seed)
    return report.verdict, files, [f"pnorm verdict {report.verdict}"]


def _run_cone_test(config, model, seed):
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
    rows = [["cone_membership", "", rep.kernel, spec.get("p"), "", seed,
             rep.worst_min_eig, rep.worst_margin, rep.verdict]]
    for v in rep.violations:
        rows.append(["cone_membership", "", rep.kernel, spec.get("p"),
                     v["dim"], v["seed"], v["min_eig"],
                     v["min_eig"] + v["tolerance"], rep.verdict])
    files = {"cone_test.json": _json_text(dict(rep.to_json(),
                                               command="cone-test")),
             "cone_test.csv": csv_text(rows)}
    return rep.verdict, files, [f"cone-test verdict {rep.verdict}"]


def _run_dpi_test(config, model, seed):
    report = check_dpi(seed=seed, trials=int(config.get("trials", 40)))
    files = _report_files("dpi_test", report, command="dpi-test", seed=seed)
    return report.verdict, files, [f"dpi-test verdict {report.verdict}"]


def _run_suite(config, model, seed):
    reports = suite_run({"seed": seed, "checks": config.get("checks")})
    verdict = suite_verdict(reports)
    files = {"suite.json": _json_text({"command": "suite", "seed": seed,
                                       "verdict": verdict,
                                       "reports": [rep.to_json()
                                                   for rep in reports]}),
             "suite.csv": csv_text(_report_rows(reports))}
    lines = [f"{rep.check_id}: {rep.verdict}"
             + (" (informational)" if rep.informational else "")
             for rep in reports]
    return verdict, files, lines + [f"suite verdict {verdict}"]


def _only_check(config, check_id):
    """A suite config narrowed to its entries of check_id (--check)."""
    keep = [entry for entry in config.get("checks", list(CHECKS))
            if (entry if isinstance(entry, str) else entry.get("id")) == check_id]
    if not keep:
        raise ContractViolationError(
            f"--check {check_id!r} names no check of this config")
    return dict(config, checks=keep)


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
    name and the model (None for a command without one)."""
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
    model = None
    if "model" in config:
        model = model_from_spec(config["model"])
        k = config.get("ampliation", 1)
        dim = model.algebra.coeff_dim * k * k
        if command != "gap" and dim > MAX_ELEMENT_COEFF_DIM:
            raise ContractViolationError(
                f"elements of {dim} coefficients exceed {MAX_ELEMENT_COEFF_DIM}")
    if command == "cone-test":
        # cone_test builds d^2 x d^2 superoperators, within the dense budget,
        # and channels of env_dim d x d unitaries, within the element budget
        d = max(config.get("dims", CONE_DIMS))
        if d * d > MAX_DENSE_COEFF_DIM:
            raise ContractViolationError(
                f"cone-test dims must satisfy d^2 <= {MAX_DENSE_COEFF_DIM}")
        e = max(config.get("env_dims", CONE_ENV_DIMS))
        if e * d * d > MAX_ELEMENT_COEFF_DIM:
            raise ContractViolationError(
                f"cone-test channels of {e} unitaries of dim {d} exceed "
                f"{MAX_ELEMENT_COEFF_DIM} coefficients")
    if check_filter is not None and command != "suite":
        raise ContractViolationError(
            f"--check selects suite checks; a {command!r} config has none")
    return command, model


def _check_output(out, names=()):
    """Raise OSError, creating nothing, unless out or its nearest existing
    ancestor is a writable directory and no artifact path is a directory."""
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise NotADirectoryError(f"{path} is not a writable directory")
    for name in names:
        if os.path.isdir(os.path.join(out, name)):
            raise IsADirectoryError(f"{os.path.join(out, name)} is a directory")


def run(config, out_dir=None, seed=None, check_filter=None, quiet=False):
    """Execute one validated config: once its command has finished, write
    every artifact, print the summary lines and return the exit code."""
    try:
        command, model = validate_config(config, seed, check_filter)
    except ContractViolationError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    out = out_dir or config.get("out") or "."
    run_seed = int(seed if seed is not None else config.get("seed", 0))
    try:
        _check_output(out)
        if check_filter is not None:
            config = _only_check(config, check_filter)
        verdict, files, lines = _RUNNERS[command](config, model, run_seed)
        _check_output(out, files)
        for name, text in files.items():
            _atomic_write(os.path.join(out, name), text)
    except (NumericalContractError, DegenerateStateError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ContractViolationError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # runners do no I/O: this is the output path
        print(f"unusable output path: {exc}", file=sys.stderr)
        return 2
    if not quiet:
        print("\n".join(lines))
    return 0 if verdict in ("pass", "informational") else 3


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
                    "for tracial block-matrix models.")
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
