"""Suite runner: config validation, determinism, CSV export."""

import pytest

from sobolev_lab import ContractViolationError, suite_run, suite_verdict
from sobolev_lab.suite import (CHECKS, check_gap, check_gradient_identity,
                               reports_to_csv)


def test_registry_is_complete_and_callable():
    assert len(CHECKS) == 21
    assert all(callable(fn) for fn in CHECKS.values())


def test_empty_suite_passes():
    reports = suite_run({"checks": []})
    assert reports == []
    assert suite_verdict(reports) == "pass"


def test_unknown_check_id_rejected():
    with pytest.raises(ContractViolationError):
        suite_run({"checks": ["spectral_oracle"]})


def test_unknown_config_key_rejected():
    with pytest.raises(ContractViolationError):
        suite_run({"checks": [], "threads": 4})


def test_bad_check_params_rejected():
    with pytest.raises(ContractViolationError):
        suite_run({"checks": [{"id": "gap", "bogus": 1}]})


def test_malformed_entry_rejected():
    with pytest.raises(ContractViolationError):
        suite_run({"checks": [17]})


def test_single_check_run_is_deterministic():
    cfg = {"seed": 3, "checks": [{"id": "lemma_rtl", "trials": 10}]}
    a = suite_run(cfg)
    b = suite_run(cfg)
    assert len(a) == 1
    assert a[0].to_json() == b[0].to_json()


def test_seed_is_threaded_to_checks():
    reports = suite_run({"seed": 11, "checks": ["gap"]})
    assert reports[0].meta["seed"] == 11


def test_informational_fail_does_not_sink_verdict():
    ok = check_gap()
    forced = ok.__class__(check_id=ok.check_id, trials=ok.trials,
                          tolerance=ok.tolerance, records=ok.records,
                          verdict="fail", informational=True, meta=ok.meta)
    assert suite_verdict([ok, forced]) == "pass"
    hard = forced.__class__(check_id=forced.check_id, trials=forced.trials,
                            tolerance=forced.tolerance, records=forced.records,
                            verdict="fail", informational=False,
                            meta=forced.meta)
    assert suite_verdict([ok, hard]) == "fail"


def test_csv_header_and_rows(tmp_path):
    out = tmp_path / "reports.csv"
    reports = suite_run({"checks": [{"id": "gap"},
                                    {"id": "lemma_rtl", "trials": 5}]})
    reports_to_csv(reports, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "check_id,model,f,p,k,seed,value,slack,verdict"
    assert len(lines) == 1 + sum(len(r.records) for r in reports)
    assert lines[1].startswith("gap,")


def test_csv_empty_suite_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    reports_to_csv([], out)
    assert out.read_text().strip() == "check_id,model,f,p,k,seed,value,slack,verdict"


@pytest.mark.parametrize("seed", [1, 9, 17, 28, 36, 37, 41, 42, 44, 47, 49, 57,
                                  64, 74, 78, 85, 88, 90, 92, 93, 99])
def test_gradient_identity_passes_where_the_central_difference_failed(seed):
    # the plain central difference (h = 1e-4) missed the 1e-5 relative
    # tolerance on these seeds by its O(h^2) truncation error
    assert check_gradient_identity(seed=seed).verdict == "pass"
