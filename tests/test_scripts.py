"""The scripts under scripts/ run end to end at their smallest arguments."""

import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def test_estimate_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    assert load("estimate_sweep").main(
        ["--out", str(out), "--restarts", "1", "--iterations", "5"]) == 0
    rows = read_csv(out)
    assert rows[0] == ["model", "f", "p", "k", "estimate", "bracket_low",
                       "bracket_high", "in_bracket", "n_restarts", "seconds"]
    assert len(rows) == 1 + 22


def test_decay_curves(tmp_path):
    assert load("decay_curves").main(
        ["--out-dir", str(tmp_path), "--n-states", "1"]) == 0
    tags = ["bl42_power15", "rt3_power15", "rt3_xlogx"]
    assert sorted(p.stem for p in tmp_path.glob("*.csv")) == tags
    for tag in tags:
        rows = read_csv(tmp_path / f"{tag}.csv")
        assert rows[0] == ["t", "state", "entropy", "exp_bound"]
        # t = 0 and 25 geometric steps
        assert len(rows) == 1 + 26


def test_cone_search(capsys):
    assert load("cone_search").main(["--trials", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # five JSON reports, then one summary line per kernel
    summary = lines[lines.index("") + 1:]
    assert [line.split(":")[0].strip() for line in summary] == [
        "diffquot1[log]", "diffquot1[power(0.25)]", "diffquot1[power(0.5)]",
        "diffquot1[power(0.75)]", "sum"]
    assert all("worst min eigenvalue" in line for line in summary)
