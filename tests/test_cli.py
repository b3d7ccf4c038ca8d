"""Command-line interface: run / sweep, artifacts, exit codes, determinism."""

import json
import os

from pathfk.cli import main


def write_config(tmp_path, **overrides):
    cfg = {
        "model": "heat",
        "grid": {"T": 1.0, "N": 8},
        "mc": {"seed": 11, "n_scenarios": 2000},
        "checks": {"closed_form": {"tol_rel": 0.02},
                   "z_growth": {}},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_writes_artifacts_and_passes(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--output", out]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["all_passed"] is True
    assert summary["model"] == "heat"
    assert set(summary["checks"]) == {"closed_form", "z_growth_envelope"}
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["config_sha256"] == summary["config_sha256"]
    checks = os.listdir(tmp_path / "out" / "checks")
    assert sorted(checks) == ["closed_form.csv", "z_growth_envelope.csv"]
    head = (tmp_path / "out" / "checks" / "closed_form.csv").read_text()
    assert head.splitlines()[0] == "sample,value"


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    main(["run", cfg, "--output", str(tmp_path / "a")])
    main(["run", cfg, "--output", str(tmp_path / "b")])
    assert ((tmp_path / "a" / "summary.json").read_bytes()
            == (tmp_path / "b" / "summary.json").read_bytes())


def test_workers_do_not_change_results(tmp_path):
    cfg = write_config(tmp_path)
    main(["run", cfg, "--output", str(tmp_path / "w1"), "--workers", "1"])
    main(["run", cfg, "--output", str(tmp_path / "w3"), "--workers", "3"])
    assert ((tmp_path / "w1" / "summary.json").read_bytes()
            == (tmp_path / "w3" / "summary.json").read_bytes())


def test_failing_check_exits_2(tmp_path):
    cfg = write_config(tmp_path, checks={"closed_form": {"tol_rel": 1e-9}})
    assert main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["all_passed"] is False


def test_error_exits_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = write_config(tmp_path, engine="magic")
    assert main(["run", bad]) == 1


def test_seed_env_override_recorded(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, checks={})
    monkeypatch.setenv("PATHFK_SEED", "77")
    main(["run", cfg, "--output", str(tmp_path / "out")])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == 77
    assert manifest["seed_overridden"] is True


def test_sweep_long_format_csv(tmp_path):
    cfg = write_config(tmp_path, checks={"closed_form": {"tol_rel": 0.05}})
    out = str(tmp_path / "sw")
    assert main(["sweep", cfg, "--axis", "grid.N", "--values", "4,8",
                 "--output", out]) == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "axis,value,check,statistic"
    rows = [ln.split(",") for ln in lines[1:]]
    assert {r[1] for r in rows} == {"4", "8"}
    assert all(r[0] == "grid.N" for r in rows)
    assert {r[2] for r in rows} == {"u_estimate", "closed_form"}
    # each value also got its own full run directory
    assert (tmp_path / "sw" / "grid_N=4" / "summary.json").exists()


def test_sweep_empty_values_is_noop(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "sw-empty")
    assert main(["sweep", cfg, "--axis", "grid.N", "--values", "",
                 "--output", out]) == 0
    assert not os.path.exists(out)


def test_sweep_propagates_failure(tmp_path):
    cfg = write_config(tmp_path, checks={"closed_form": {"tol_rel": 1e-9}})
    out = str(tmp_path / "sw-fail")
    assert main(["sweep", cfg, "--axis", "grid.N", "--values", "8",
                 "--output", out]) == 2


def test_moments_check_scores_every_order_from_one_probe_set():
    # one probe set scored per order must give the reports of one
    # moment_envelope_check call per order, field for field and sample for
    # sample
    from pathfk import load_config, moment_envelope_check
    from pathfk.cli import _check_seed, run_check
    spec = {"n_probes": 12, "n_scenarios": 300}
    cfg = load_config({"model": "heat", "grid": {"T": 1.0, "N": 4},
                       "mc": {"seed": 5, "n_scenarios": 300},
                       "checks": {"moments": spec}})
    reports = run_check(cfg, "moments")
    assert [r.name for r in reports] == ["moment_envelope_p2", "moment_envelope_p4"]
    for p, rep in zip((2.0, 4.0), reports):
        alone = moment_envelope_check(cfg.model, cfg.grid_times, p,
                                      seed=_check_seed(cfg.seed, "moments"),
                                      basis=cfg.basis, **spec)
        assert rep == alone
        assert rep.samples_csv() == alone.samples_csv()
