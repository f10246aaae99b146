"""Start-up footprint: only the constant search loads scipy, and nothing
loads jsonschema.

Each footprint check runs in a fresh interpreter, since this process has
long since imported scipy for the other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sobolev_lab
from sobolev_lab import certify

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(sobolev_lab.__file__).resolve().parents[1])

FOOTPRINT = """
import sys
{body}
print(sorted({{m.split(".")[0] for m in sys.modules}} & {{"scipy", "jsonschema"}}),
      "scipy.optimize" in sys.modules)
"""


def loaded_after(body, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT.format(body=body)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["sobolev_lab", "sobolev_lab.cli"])
def test_import_loads_no_scipy_and_no_jsonschema(tmp_path, module):
    assert loaded_after(f"import {module}", tmp_path) == "[] False"


def test_commands_without_search_load_no_scipy(tmp_path):
    runs = [["--config", str(ROOT / "configs" / name), "--out",
             str(tmp_path / name), "--quiet"]
            for name in ("gap_transposition.json", "decay_occupancy.json",
                         "pnorm_transposition.json")]
    body = ("from sobolev_lab.cli import main\n"
            f"assert [main(argv) for argv in {runs!r}] == [0, 0, 0]")
    assert loaded_after(body, tmp_path) == "[] False"


def test_estimate_loads_scipy_optimize(tmp_path):
    config = tmp_path / "estimate.json"
    config.write_text(json.dumps({
        "command": "estimate", "f": {"tag": "power", "p": 1.5},
        "model": {"model": "random_transposition", "params": {"n": 3}},
        "budget": {"restarts": 2, "iterations": 50}}))
    argv = ["--config", str(config), "--out", str(tmp_path / "art"), "--quiet"]
    body = ("from sobolev_lab.cli import main\n"
            f"assert main({argv!r}) == 0")
    assert loaded_after(body, tmp_path) == "['scipy'] True"


def quadratic(x):
    return float(x @ x), 2.0 * x


def test_minimize_forwards_its_options(monkeypatch):
    import scipy.optimize
    seen = []

    def spy(fun, x0, **options):
        seen.append((fun, x0, options))
        return "result"

    monkeypatch.setattr(scipy.optimize, "minimize", spy)
    x0 = np.ones(3)
    options = {"maxiter": 7, "gtol": 1e-9}
    assert certify.minimize(quadratic, x0, method="L-BFGS-B", jac=True,
                            options=options) == "result"
    [(fun, x, forwarded)] = seen
    assert fun is quadratic and x is x0
    assert forwarded == {"method": "L-BFGS-B", "jac": True, "options": options}


def test_minimize_result_carries_what_the_tracer_reads():
    res = certify.minimize(quadratic, np.ones(3), method="L-BFGS-B", jac=True,
                           options={"maxiter": 50})
    assert np.allclose(res.x, 0.0, atol=1e-6)
    assert res.nfev >= 1 and res.nit >= 1 and bool(res.success)
    capped = certify.minimize(lambda x: (float(np.sum(x ** 4)), 4 * x ** 3),
                              np.ones(3), method="L-BFGS-B", jac=True,
                              options={"maxiter": 1})
    assert capped.nit == 1 and not capped.success
