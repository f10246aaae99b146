"""End-to-end command line runs against temp artifact directories."""

import csv
import json
from pathlib import Path

import pytest

from sobolev_lab.cli import _RUNNERS, main, run, validate_config
from sobolev_lab.errors import DomainError

RT3 = {"model": "random_transposition", "params": {"n": 3}, "matrix_dim": 1}
TINY_BUDGET = {"restarts": 3, "iterations": 200}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_gap_prints_nine_digits(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "gap", "model": RT3,
                                  "out": str(tmp_path / "art")})
    assert main(["--config", cfg]) == 0
    assert capsys.readouterr().out == "2.000000000\n"
    payload = json.loads((tmp_path / "art" / "gap.json").read_text())
    assert payload["verdict"] == "pass"
    assert payload["gap"] == pytest.approx(2.0, abs=1e-9)
    rows = list(csv.reader((tmp_path / "art" / "gap.csv").open()))
    assert rows[0] == ["check_id", "model", "f", "p", "k", "seed",
                       "value", "slack", "verdict"]
    assert rows[1][0] == "gap" and rows[1][-1] == "pass"


def test_gap_json_model_spec_round_trips(tmp_path):
    from sobolev_lab import model_from_spec
    out = tmp_path / "art"
    cfg = write_config(tmp_path, {"command": "gap", "model": RT3})
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    stored = json.loads((out / "gap.json").read_text())["model"]
    assert model_from_spec(stored).spec == stored


def test_unknown_key_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "gap", "model": RT3, "mode": "x"})
    assert main(["--config", cfg]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_unknown_command_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "solve", "model": RT3})
    assert main(["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "solve" in err


def test_command_that_is_not_a_string_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": ["gap"], "model": RT3})
    assert main(["--config", cfg, "--out", str(tmp_path / "art")]) == 2
    assert "unknown command ['gap']" in capsys.readouterr().err
    assert not (tmp_path / "art").exists()


def test_missing_config_file_exits_two(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json")]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_unparseable_config_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--config", str(path)]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_estimate_same_seed_identical_bytes(tmp_path):
    payload = {"command": "estimate", "model": RT3,
               "f": {"tag": "power", "p": 1.5}, "budget": TINY_BUDGET,
               "seed": 7}
    cfg = write_config(tmp_path, payload)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out_a), "--quiet"]) == 0
    assert main(["--config", cfg, "--out", str(out_b), "--quiet"]) == 0
    assert ((out_a / "estimate.json").read_bytes()
            == (out_b / "estimate.json").read_bytes())
    assert ((out_a / "estimate.csv").read_bytes()
            == (out_b / "estimate.csv").read_bytes())
    payload = json.loads((out_a / "estimate.json").read_text())
    assert payload["verdict"] == "pass"
    assert 1.5 - 1e-6 <= payload["estimated_lambda"] <= 4.0 + 1e-6


def test_seed_flag_overrides_config(tmp_path):
    payload = {"command": "estimate", "model": RT3,
               "f": {"tag": "power", "p": 1.5}, "budget": TINY_BUDGET,
               "seed": 7}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "--seed", "9",
                 "--quiet"]) == 0
    assert json.loads((out / "estimate.json").read_text())["seed"] == 9


def test_decay_run_and_curve(tmp_path, capsys):
    out = tmp_path / "art"
    cfg = write_config(tmp_path, {
        "command": "decay", "model": RT3, "f": {"tag": "power", "p": 1.5},
        "lambda": 1.5, "n_states": 4, "t_grid": [0.0, 0.2, 0.5, 1.0, 2.0]})
    assert main(["--config", cfg, "--out", str(out)]) == 0
    assert "decay verdict pass" in capsys.readouterr().out
    rows = list(csv.reader((out / "decay_curve.csv").open()))
    assert rows[0] == ["t", "entropy", "bound_e_minus_lambda_t"]
    ts = [float(r[0]) for r in rows[1:]]
    ent = [float(r[1]) for r in rows[1:]]
    bound = [float(r[2]) for r in rows[1:]]
    assert ts[0] == 0.0
    assert ent[0] == pytest.approx(bound[0], rel=1e-12)
    assert all(later <= earlier + 1e-12
               for earlier, later in zip(ent, ent[1:]))
    assert all(e <= b + 1e-9 * (1 + abs(b)) for e, b in zip(ent, bound))


def test_pnorm_run(tmp_path):
    out = tmp_path / "art"
    cfg = write_config(tmp_path, {
        "command": "pnorm", "model": RT3, "p": 1.5, "lambda": 0.75,
        "n_states": 5, "t_grid": [0.0, 0.5, 1.5]})
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    payload = json.loads((out / "pnorm.json").read_text())
    assert payload["verdict"] == "pass"
    assert payload["command"] == "pnorm"


def test_pnorm_bad_lambda_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "command": "pnorm", "model": RT3, "p": 1.5, "lambda": 1.0,
        "n_states": 2})
    assert main(["--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "contract violation" in capsys.readouterr().err


def test_cone_test_smoke(tmp_path):
    out = tmp_path / "art"
    cfg = write_config(tmp_path, {
        "command": "cone-test", "kernel": {"tag": "log"}, "trials": 20,
        "dims": [2, 3], "env_dims": [1, 2]})
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    payload = json.loads((out / "cone_test.json").read_text())
    assert payload["verdict"] == "pass"
    assert payload["trials"] == 20
    rows = list(csv.reader((out / "cone_test.csv").open()))
    assert rows[0][0] == "check_id"
    assert rows[1][0] == "cone_membership"


def test_dpi_test_smoke(tmp_path):
    out = tmp_path / "art"
    cfg = write_config(tmp_path, {"command": "dpi-test", "trials": 10})
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
    payload = json.loads((out / "dpi_test.json").read_text())
    assert payload["verdict"] == "pass"


def test_empty_suite_header_only_csv(tmp_path, capsys):
    out = tmp_path / "art"
    cfg = write_config(tmp_path, {"command": "suite", "checks": []})
    assert main(["--config", cfg, "--out", str(out)]) == 0
    assert "suite verdict pass" in capsys.readouterr().out
    text = (out / "suite.csv").read_text().strip()
    assert text == "check_id,model,f,p,k,seed,value,slack,verdict"
    payload = json.loads((out / "suite.json").read_text())
    assert payload["reports"] == [] and payload["verdict"] == "pass"


def test_suite_check_filter(tmp_path):
    out = tmp_path / "art"
    cfg = write_config(tmp_path, {"command": "suite"})
    assert main(["--config", cfg, "--out", str(out), "--check", "gap",
                 "--quiet"]) == 0
    payload = json.loads((out / "suite.json").read_text())
    assert len(payload["reports"]) == 1
    assert payload["reports"][0]["check"] == "gap"


def test_suite_unknown_check_id_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "suite", "checks": ["nope"]})
    assert main(["--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "contract violation" in capsys.readouterr().err


def test_suite_check_filter_naming_no_check_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "suite", "checks": ["gap"]})
    out = tmp_path / "art"
    assert main(["--config", cfg, "--out", str(out), "--check",
                 "gradient_identity"]) == 2
    assert "names no check" in capsys.readouterr().err
    assert not out.exists()


def test_validate_config_accepts_each_command():
    assert validate_config({"command": "gap", "model": RT3})[0] == "gap"
    assert validate_config({"command": "suite"}) == ("suite", None)
    with pytest.raises(Exception):
        validate_config(["not", "a", "dict"])


def test_run_callable_directly(tmp_path):
    code = run({"command": "gap", "model": RT3}, out_dir=str(tmp_path),
               quiet=True)
    assert code == 0
    assert (tmp_path / "gap.json").exists()


BL42 = {"model": "bernoulli_laplace", "params": {"n": 4, "r": 2}}


@pytest.mark.parametrize("config", [
    {"command": "gap", "model": {"model": "random_transposition",
                                 "params": {}}},
    {"command": "gap", "model": {"model": "random_transposition",
                                 "params": {"n": "x"}}},
    {"command": "estimate", "model": RT3, "f": {"tag": "power"}},
    {"command": "gap", "model": {"model": "tensor", "factors": [RT3]}},
    {"command": "gap", "model": {"model": "bernoulli_laplace",
                                 "params": {"n": 4}}},
    {"command": "gap", "model": {"model": "ampliation", "factor": 2}},
    {"command": "gap", "model": {"model": "depolarizing", "params": {}}},
    {"command": "gap", "model": {"model": "graph", "params": {}}},
    {"command": "gap", "model": {"model": "random_transposition",
                                 "params": {"n": 3.7}}},
    {"command": "gap", "model": dict(BL42, tag="x")},
    {"command": "decay", "model": BL42, "lambda": 0.5,
     "f": {"tag": "xlogx", "p": 1.5}},
    {"command": "gap", "model": {"model": "graph", "params": {
        "adjacency": [[0, 1], [1]]}}},
], ids=["params_empty", "n_not_int", "power_without_p", "tensor_one_factor",
        "bl_without_r", "ampliation_without_base", "depolarizing_without_sites",
        "graph_without_adjacency", "n_fractional", "model_unknown_key",
        "f_unknown_key", "adjacency_ragged"])
def test_malformed_spec_exits_two_without_artifacts(tmp_path, capsys, config):
    out = tmp_path / "art"
    assert run(config, out_dir=str(out), quiet=True) == 2
    assert "malformed spec" in capsys.readouterr().err
    assert not out.exists()


def test_witness_mismatch_exits_three(tmp_path, capsys, monkeypatch):
    import sobolev_lab.certify as certify
    exact = certify.sobolev_ratio
    calls = []

    def drifting(*args, **kwargs):
        calls.append(None)
        return exact(*args, **kwargs) + 1e-6 * len(calls)

    monkeypatch.setattr(certify, "sobolev_ratio", drifting)
    out = tmp_path / "art"
    config = {"command": "estimate", "model": RT3,
              "f": {"tag": "power", "p": 1.5}, "budget": TINY_BUDGET}
    assert run(config, out_dir=str(out), quiet=True) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "does not reproduce" in err
    assert not out.exists()


@pytest.mark.parametrize("site_matrix,message", [
    ([[-1.0, 1.0], [1.0, -1.0]], "negative mode"),
    ([[1.0, -1.0], [0.0, 0.0]], "not self-adjoint"),
], ids=["negative_mode", "not_self_adjoint"])
def test_broken_generator_exits_three(tmp_path, capsys, monkeypatch,
                                      site_matrix, message):
    from sobolev_lab import GeneratorHandle, WeightedAlgebra
    A = GeneratorHandle(WeightedAlgebra.commutative(2), site_matrix=site_matrix)
    monkeypatch.setattr("sobolev_lab.cli.model_from_spec", lambda spec: A)
    out = tmp_path / "art"
    assert run({"command": "gap", "model": RT3}, out_dir=str(out),
               quiet=True) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"command": "gap"},
    {"command": "decay", "f": {"tag": "xlogx"}, "lambda": 1.0, "n_states": 3},
    {"command": "pnorm", "p": 1.5, "lambda": 0.75, "n_states": 3},
    {"command": "estimate", "f": {"tag": "power", "p": 1.5},
     "budget": TINY_BUDGET},
], ids=["gap", "decay", "pnorm", "estimate"])
def test_rt5_k6_runs_past_the_dense_budget(tmp_path, config):
    # 120 * 6^2 = 4320 coefficients: the walk's gap, semigroup and gap
    # directions use its 120 x 120 site spectrum and need no dense matrix
    model = {"model": "random_transposition", "params": {"n": 5}, "matrix_dim": 6}
    out = tmp_path / "art"
    assert run(dict(config, model=model), out_dir=str(out), quiet=True) == 0
    payload = json.loads((out / f"{config['command']}.json").read_text())
    assert payload["verdict"] == "pass"


def test_gap_runs_past_the_element_budget(tmp_path):
    # the gap comes from the 6 x 6 site spectrum; no element is built
    out = tmp_path / "art"
    assert run({"command": "gap", "model": RT3_HUGE}, out_dir=str(out),
               quiet=True) == 0
    assert json.loads((out / "gap.json").read_text())["verdict"] == "pass"


def test_depolarizer_past_the_dense_budget_decays_and_is_searched(tmp_path):
    # 2 * 50^2 = 5000 coefficients: id - E decays in closed form, and the
    # search takes its gap directions from the depolarizer's own form
    model = {"model": "depolarizing", "params": {"sites": 2}, "matrix_dim": 50}
    decay = {"command": "decay", "model": model, "f": {"tag": "xlogx"},
             "lambda": 1.0, "n_states": 2}
    assert run(decay, out_dir=str(tmp_path / "decay"), quiet=True) == 0
    estimate = {"command": "estimate", "model": model, "f": {"tag": "xlogx"},
                "budget": TINY_BUDGET}
    assert run(estimate, out_dir=str(tmp_path / "estimate"), quiet=True) == 0
    assert {p.name for p in (tmp_path / "estimate").iterdir()} == {
        "estimate.json", "estimate.csv"}


DEP1 = {"model": "depolarizing", "params": {"sites": 1}, "matrix_dim": 1}


@pytest.mark.parametrize("model", [
    DEP1,
    {"model": "tensor", "factors": [
        {"model": "random_transposition", "params": {"n": 2}}, DEP1]},
], ids=["alone", "tensor_with_rt2"])
def test_identity_depolarizer_exits_two(tmp_path, capsys, model):
    out = tmp_path / "art"
    assert run({"command": "gap", "model": model}, out_dir=str(out),
               quiet=True) == 2
    assert "identity" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    '{"command": "decay", "model": %s, "f": {"tag": "xlogx"}, '
    '"lambda": 1.0, "t_grid": [NaN]}',
    '{"command": "decay", "model": %s, "f": {"tag": "xlogx"}, '
    '"lambda": NaN}',
    '{"command": "pnorm", "model": %s, "p": 1.5, "lambda": 0.75, '
    '"t_grid": [NaN]}',
], ids=["decay_t_grid", "decay_lambda", "pnorm_t_grid"])
def test_non_finite_literal_exits_two(tmp_path, capsys, text):
    cfg = tmp_path / "config.json"
    cfg.write_text(text % json.dumps(RT3))
    out = tmp_path / "art"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"command": "cone-test", "kernel": {"tag": "log"}, "dims": []},
    {"command": "cone-test", "kernel": {"tag": "log"}, "env_dims": []},
    {"command": "suite", "checks": [{"id": "change_of_measure",
                                     "ratio_caps": []}]},
    {"command": "suite", "checks": [{"id": "gradient_identity", "h": 0}]},
], ids=["cone_dims", "cone_env_dims", "ratio_caps", "gradient_h"])
def test_empty_or_zero_parameters_exit_two(tmp_path, config):
    out = tmp_path / "art"
    assert run(config, out_dir=str(out), quiet=True) == 2
    assert not out.exists()


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
DECAY = {"command": "decay", "model": RT3, "f": {"tag": "xlogx"},
         "lambda": 1.0, "n_states": 2}
PNORM = {"command": "pnorm", "model": RT3, "p": 1.5, "lambda": 0.75,
         "n_states": 2}
ESTIMATE = {"command": "estimate", "model": RT3, "f": {"tag": "xlogx"},
            "budget": TINY_BUDGET}
CONE = {"command": "cone-test", "kernel": {"tag": "log"}, "trials": 2}
# 6 * 100000^2 coefficients an element, far past the element budget
RT3_HUGE = dict(RT3, matrix_dim=100000)


def suite_entry(**entry):
    return {"command": "suite", "checks": [entry]}


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_configs_are_accepted(path):
    config = json.loads(path.read_text())
    assert validate_config(config)[0] == config["command"]


@pytest.mark.parametrize("config", [
    dict(CONE, trials=0), dict(DECAY, n_states=0),
    dict(ESTIMATE, ampliation=0),
    dict(DECAY, **{"lambda": 0}), dict(PNORM, p=1), dict(PNORM, p=2),
    dict(CONE, side="x"),
    dict(CONE, dims=[]), dict(CONE, dims=[1]), dict(CONE, env_dims=[0]),
    dict(ESTIMATE, budget={"restarts": 0}), dict(ESTIMATE, budget={"foo": 1}),
    dict(DECAY, t_grid=[]), dict(DECAY, t_grid=["a"]),
    dict(CONE, kernel={"tag": "exp"}), dict(CONE, kernel={"p": 0.5}),
    dict(DECAY, mode="x"),
    dict(DECAY, seed=1.5), dict(DECAY, seed=True),
    {"command": "suite", "checks": [3]},
    [DECAY],
    dict(CONE, dims=[65]),
    suite_entry(id="dpi", seed=-3), suite_entry(id="tensorization", lower="x"),
    suite_entry(id="dpi", trials=0), suite_entry(id="entropy_decay", n_states=0),
    suite_entry(id="gradient_identity", t_grid=[]),
    suite_entry(id="dpi", trials=2.5), suite_entry(id="fisher_decay", n_states="3"),
    dict(ESTIMATE, model=RT3_HUGE), dict(DECAY, model=RT3_HUGE),
    dict(PNORM, model=RT3_HUGE), dict(DECAY, ampliation=100000),
    {"command": "gap", "model": {"model": "random_transposition", "params": {}}},
], ids=["trials_0", "n_states_0", "ampliation_0", "lambda_0", "p_1", "p_2",
        "side_x", "dims_empty", "dims_1", "env_dims_0", "restarts_0",
        "budget_unknown_key", "t_grid_empty", "t_grid_string", "kernel_exp",
        "kernel_without_tag", "unknown_key", "seed_fractional", "seed_bool",
        "check_not_id", "config_list", "dims_65", "check_seed_negative",
        "check_lower_string", "check_trials_0", "check_n_states_0",
        "check_t_grid_empty", "check_trials_fractional",
        "check_n_states_string", "estimate_huge", "decay_huge", "pnorm_huge",
        "decay_ampliation_huge", "gap_malformed_spec"])
def test_invalid_config_exits_two_without_artifacts(tmp_path, capsys, config):
    out = tmp_path / "art"
    cfg = write_config(tmp_path, config)
    assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "invalid config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [DECAY, ESTIMATE], ids=["decay", "estimate"])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_negative_seed_exits_two_without_artifacts(tmp_path, capsys, config,
                                                    where):
    out = tmp_path / "art"
    if where == "config":
        argv = ["--config", write_config(tmp_path, dict(config, seed=-1))]
    else:
        argv = ["--config", write_config(tmp_path, config), "--seed", "-1"]
    assert main(argv + ["--out", str(out), "--quiet"]) == 2
    assert "invalid config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [{"command": "gap", "model": RT3}, DECAY],
                         ids=["gap", "decay"])
def test_check_filter_outside_suite_exits_two(tmp_path, capsys, config):
    out = tmp_path / "art"
    cfg = write_config(tmp_path, config)
    assert main(["--config", cfg, "--out", str(out), "--check", "nosuch",
                 "--quiet"]) == 2
    assert "--check" in capsys.readouterr().err
    assert not out.exists()


def test_failed_decay_curve_leaves_no_file(tmp_path, capsys, monkeypatch):
    # the report and its table are done when the curve fails; every artifact
    # is written only after the whole command has finished
    from sobolev_lab.suite import csv_text

    def failing(rows, **header):
        if header:  # only the curve has a header of its own
            raise DomainError("curve failed")
        return csv_text(rows)

    monkeypatch.setattr("sobolev_lab.cli.csv_text", failing)
    out = tmp_path / "art"
    assert run(DECAY, out_dir=str(out)) == 3
    captured = capsys.readouterr()
    assert "numerical failure: curve failed" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"command": "gap", "model": RT3}, dict(ESTIMATE, ampliation=2), DECAY,
    PNORM,
], ids=["gap", "estimate", "decay", "pnorm"])
def test_run_builds_its_model_once(tmp_path, monkeypatch, config):
    from sobolev_lab import model_from_spec
    specs = []

    def counting(spec):
        specs.append(spec)
        return model_from_spec(spec)

    monkeypatch.setattr("sobolev_lab.cli.model_from_spec", counting)
    assert run(config, out_dir=str(tmp_path), quiet=True) == 0
    assert specs == [config["model"]]


def test_artifacts_get_the_mode_of_a_plain_open(tmp_path):
    # the atomic writer's temporary file starts at 0600
    import os
    umask = os.umask(0)
    os.umask(umask)
    out = tmp_path / "art"
    assert run(DECAY, out_dir=str(out), quiet=True) == 0
    assert {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()} == {
        name: 0o666 & ~umask
        for name in ("decay.json", "decay.csv", "decay_curve.csv")}


def _refuse_to_run(*args):
    raise AssertionError("the command ran")


def test_output_path_under_a_file_exits_two_before_the_command(
        tmp_path, monkeypatch, capsys):
    # as --out /dev/null/x: the directory cannot be created
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setitem(_RUNNERS, "gap", _refuse_to_run)
    cfg = write_config(tmp_path, {"command": "gap", "model": RT3})
    assert main(["--config", cfg, "--out", str(blocker / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"unusable output path: {blocker} is not a writable directory\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "file"]


def test_artifact_path_that_is_a_directory_exits_two_and_writes_nothing(
        tmp_path, capsys):
    out = tmp_path / "art"
    (out / "gap.csv").mkdir(parents=True)
    assert run({"command": "gap", "model": RT3}, out_dir=str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"unusable output path: {out / 'gap.csv'} is a directory\n"
    assert captured.out == ""
    assert [p.name for p in out.iterdir()] == ["gap.csv"]


def test_os_error_while_writing_exits_two(tmp_path, monkeypatch, capsys):
    def disk_full(path, text):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("sobolev_lab.cli._atomic_write", disk_full)
    assert run({"command": "gap", "model": RT3}, out_dir=str(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err == "unusable output path: [Errno 28] No space left on device\n"
    assert captured.out == ""
