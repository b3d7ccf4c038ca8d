"""Command-line interface: run / sweep, artifacts, exit codes, determinism."""

import concurrent.futures
import json
import os
import tempfile
from importlib.metadata import PackageNotFoundError, version

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathfk import cli, load_config, simulation, solver, verification
from pathfk.cli import _solve, main, run_check
from pathfk.config import _check_seed


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
    try:
        installed = version("pathfk")
    except PackageNotFoundError:
        installed = "unknown"
    assert manifest["package_version"] == installed
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


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces ProcessPoolExecutor with a stand-in that records the pool
    size asked for and maps in this process, so no worker is started."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


def test_check_pool_is_sized_to_the_checks(tmp_path, pool_sizes):
    # fork starts every worker of the pool at once, so a pool wider than
    # the number of pooled checks would start idle processes; the headline's
    # checks run in this process and take no worker
    others = {"field_equation": {"n_paths": 2}, "regularity": {}}
    cfg = write_config(tmp_path, checks={"z_growth": {}, **others})
    codes = {workers: main(["run", cfg, "--output", str(tmp_path / workers),
                            "--workers", workers])
             for workers in ("64", "2", "1")}
    # one pool per parallel run, of one worker per other check; none when serial
    assert pool_sizes == [2, 2]
    assert codes["64"] == codes["2"] == codes["1"]
    assert ((tmp_path / "64" / "summary.json").read_bytes()
            == (tmp_path / "1" / "summary.json").read_bytes())
    # a lone other check runs in this process at any worker count
    lone = write_config(tmp_path, checks={"closed_form": {}, "z_growth": {},
                                          "field_equation": {"n_paths": 2}})
    assert main(["run", lone, "--output", str(tmp_path / "lone"),
                 "--workers", "3"]) == 0
    assert pool_sizes == [2, 2]


def test_headline_is_solved_once_at_any_worker_count(tmp_path, monkeypatch):
    # the headline's checks run in this process on its one solve, and only
    # the other checks go to the forked workers, which inherit both wrappers
    log = tmp_path / "calls.log"

    def logged(fn, what):
        def wrapper(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {what(args)}\n")
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cli, "_solve", logged(cli._solve, lambda a: "_solve"))
    monkeypatch.setattr(cli, "run_check", logged(cli.run_check, lambda a: a[1]))
    cfg = write_config(tmp_path, checks={
        "closed_form": {}, "z_growth": {},
        "z_representation": {"n_sub": 20, "tol": 0.1},
        "field_equation": {"n_paths": 2}, "regularity": {}})
    assert main(["run", cfg, "--output", str(tmp_path / "out"), "--workers", "3"]) == 0
    calls = [line.split() for line in log.read_text().splitlines()]
    here = [what for pid, what in calls if pid == str(os.getpid())]
    assert here == ["_solve", "closed_form", "z_growth", "z_representation"]
    pooled = sorted(what for pid, what in calls if pid != str(os.getpid()))
    assert pooled == ["field_equation", "regularity"]


def test_workers_below_one_is_an_error(tmp_path, pool_sizes, capsys):
    cfg = write_config(tmp_path)
    for workers in ("0", "-2"):
        out = tmp_path / f"w{workers}"
        assert main(["run", cfg, "--output", str(out), "--workers", workers]) == 1
        assert f"error: need at least one worker, got {workers}" in capsys.readouterr().err
        assert not out.exists()
    assert pool_sizes == []


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


@pytest.mark.parametrize("seed", ["abc", "1.5", ""])
def test_seed_env_that_is_no_integer_exits_1_before_any_output(tmp_path, monkeypatch,
                                                               capsys, seed):
    # int() raised before the error boundary, so main ended in a traceback
    cfg = write_config(tmp_path, checks={})
    monkeypatch.setenv("PATHFK_SEED", seed)
    out = tmp_path / "out"
    for command in (["run", cfg], ["sweep", cfg, "--axis", "grid.N", "--values", "4"]):
        assert main(command + ["--output", str(out)]) == 1
        assert f"PATHFK_SEED must be an integer, got {seed!r}" in capsys.readouterr().err
        assert not out.exists()


def test_seed_sweep_under_a_seed_override_exits_1(tmp_path, monkeypatch, capsys, solves):
    # the override replaced every swept seed: three rows labelled 1, 2, 3
    # carried one run's u, and every manifest said seed 9
    cfg = write_config(tmp_path, checks={})
    monkeypatch.setenv("PATHFK_SEED", "9")
    out = tmp_path / "sw-seed"
    assert main(["sweep", cfg, "--axis", "mc.seed", "--values", "1,2,3",
                 "--output", str(out)]) == 1
    assert "PATHFK_SEED overrides every mc.seed" in capsys.readouterr().err
    assert not out.exists() and solves == []
    monkeypatch.delenv("PATHFK_SEED")
    assert main(["sweep", cfg, "--axis", "mc.seed", "--values", "1,2",
                 "--output", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len({row.split(",")[-1] for row in rows}) == 2


def test_run_prints_each_checks_details_under_its_line(tmp_path, capsys):
    # the reasons behind a statistic, such as z_growth's envelope constant,
    # reached only the reports; summary.json and the CSVs stay as they were
    cfg = write_config(tmp_path, checks={"closed_form": {"tol_rel": 0.05},
                                         "z_growth": {}, "z_representation": {}})
    assert main(["run", cfg, "--output", str(tmp_path / "out")]) in (0, 2)
    printed = capsys.readouterr().out.splitlines()
    headline = _solve(load_config(cfg))
    reports = sorted((r for n in ("closed_form", "z_growth", "z_representation")
                      for r in run_check(load_config(cfg), n, headline)),
                     key=lambda r: r.name)
    want = [line for r in reports
            for line in [r.one_line()] + [f"    {d}" for d in r.details]]
    assert printed[:len(want)] == want
    assert any("excluded for unreliable derivatives" in line for line in want)
    assert len(want) > len(reports)
    for r in reports:
        assert (tmp_path / "out" / "checks" / f"{r.name}.csv").read_text() == r.samples_csv()


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


def test_sweep_over_an_unknown_key_exits_1(tmp_path, capsys):
    # grid.n is not grid.N: every value would run the same config; the
    # sweep stops in load_config, before any solve
    cfg = write_config(tmp_path)
    out = tmp_path / "sw-typo"
    assert main(["sweep", cfg, "--axis", "grid.n", "--values", "4,16",
                 "--output", str(out)]) == 1
    assert "not ['n']" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_loads_every_value_before_the_first_run(tmp_path, capsys):
    # N = 1 is refused when the configs load, so N = 8 is never solved
    cfg = write_config(tmp_path)
    out = tmp_path / "sw-late"
    assert main(["sweep", cfg, "--axis", "grid.N", "--values", "8,1",
                 "--output", str(out)]) == 1
    assert "grid.N must be at least 2" in capsys.readouterr().err
    assert not (out / "grid_N=8").exists() and not (out / "sweep.csv").exists()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_field_equation_passes_on_linear_g_away_from_zero(tmp_path, seed):
    # the field equation reads the nested field conditioned on each path's
    # own second-driver increments, so the -g dB term cancels to round-off;
    # the field averaged over the outer samples scored 0.022, 0.168 and 0.134
    cfg = write_config(tmp_path, model="linear-g", grid={"T": 1.0, "N": 8},
                       mc={"seed": seed, "n_scenarios": 4000},
                       initial_path={"values": [[1.0]]},
                       engine_options={"branching": 4},
                       checks={"field_equation": {"n_paths": 4}})
    assert main(["run", cfg, "--output", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["checks"]["field_equation_residual"]["statistic"] < 1e-8


@pytest.fixture
def solves(monkeypatch):
    """Records every regression solve (its step iterations), nested solve
    and forward simulation of a run in this process."""
    calls = []

    def wrap(module, name, record):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(record(out))
            return out

        monkeypatch.setattr(module, name, counted)

    for module in (cli, verification):
        wrap(module, "solve_regression",
             lambda sol: ("regression", sol.scheme_params["step_iterations"]))
    wrap(cli, "solve_nested", lambda sol: ("nested", None))
    wrap(simulation, "simulate_forward", lambda ens: ("forward", None))
    return calls


def test_scenario_path_checks_read_the_headline_solve(tmp_path, solves):
    # closed_form, z_growth and z_representation score the one headline
    # solve, at the configured picard_iters
    cfg = write_config(tmp_path, checks={"closed_form": {}, "z_growth": {},
                                         "z_representation": {"n_sub": 20}})
    main(["run", cfg, "--output", str(tmp_path / "heat")])
    assert solves == [("forward", None), ("regression", 0)]
    solves.clear()
    cfg = write_config(tmp_path, model="nonlinear-f", grid={"T": 1.0, "N": 4},
                       mc={"seed": 3, "n_scenarios": 500},
                       engine_options={"picard_iters": 5, "branching": 4},
                       checks={"z_growth": {}, "z_representation": {"n_sub": 3}})
    main(["run", cfg, "--output", str(tmp_path / "nonlinear-f")])
    assert solves == [("forward", None), ("regression", 5)]


@pytest.mark.parametrize("overrides", [
    pytest.param({"checks": {"z_growth": {"q": "x"}}}, id="z_growth.q"),
    pytest.param({"checks": {"moments": {"p": 3}}}, id="moments.p"),
    pytest.param({"checks": {"moments": {"p": [1, 2]}}}, id="moments.p-below-2"),
    pytest.param({"checks": {"moments": {"p": []}}}, id="moments.p-empty"),
    pytest.param({"checks": {"discretization": {"node_counts": [2, 4],
                                                "noise_only": "false"}}}, id="noise_only"),
    pytest.param({"checks": {"flow": {"s": 0.5, "n_resolve": 2.5}}}, id="n_resolve"),
    pytest.param({"model": "path-f", "mc": {"seed": 3, "n_scenarios": 250},
                  "checks": {"z_growth": {}}}, id="floor"),
    pytest.param({"model": "nonlinear-f", "checks": {"regularity": {}}}, id="tree"),
    pytest.param({"engine": "nested", "checks": {"z_growth": {}}}, id="nested-z"),
    # least values: each of these failed only after the headline solve
    pytest.param({"checks": {"z_representation": {"n_sub": 0}}}, id="n_sub-0"),
    pytest.param({"checks": {"flow": {"s": 0.5, "n_resolve": 0}}}, id="n_resolve-0"),
    pytest.param({"checks": {"field_equation": {"n_paths": 0}}}, id="n_paths-0"),
    pytest.param({"checks": {"moments": {"n_probes": 0}}}, id="moments.n_probes-0"),
    pytest.param({"checks": {"regularity": {"n_probes": 5}}}, id="regularity.n_probes-5"),
    pytest.param({"checks": {"discretization": {"node_counts": []}}}, id="node_counts-empty"),
    # each of these made the output directory, then failed or passed with
    # nothing to score
    pytest.param({"checks": {"closed_form": {"tol_rel": 0}}}, id="tol_rel-0"),
    pytest.param({"checks": {"comparison": {"shift_phi": -0.5}}}, id="shift_phi-negative"),
    pytest.param({"engine": "nested", "grid": {"T": 1.0, "N": 4},
                  "mc": {"seed": 3, "n_scenarios": 0}, "checks": {}}, id="nested-0-scenarios"),
    pytest.param({"grid": {"T": 1.0, "N": 4}, "initial_path": {"values": [[0.0]] * 5},
                  "checks": {"z_representation": {}}}, id="initial-path-at-horizon"),
    pytest.param({"checks": {"moments": {"p": [2, 2.5, 2]}}}, id="moments.p-twice"),
])
def test_config_errors_exit_1_before_any_solve(tmp_path, solves, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main(["run", cfg, "--output", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert solves == [] and not out.exists()


def test_sweep_over_the_scenario_floor_exits_1_before_any_run(tmp_path, solves, capsys):
    # 250 scenarios are below path-f's floor of 300, so 1,000 never runs
    cfg = write_config(tmp_path, model="path-f", checks={})
    out = tmp_path / "sw-floor"
    assert main(["sweep", cfg, "--axis", "mc.n_scenarios", "--values", "1000,250",
                 "--output", str(out)]) == 1
    assert "at least 300 scenarios" in capsys.readouterr().err
    assert solves == [] and not out.exists()


# every key each check's spec takes, set to the default the README gives
SPELLED_DEFAULTS = {
    "z_representation": {"n_sub": 100, "tol": 0.05},
    "z_growth": {"q": 1},
    "flow": {"s": 0.5, "n_resolve": 20},
    "field_equation": {"n_paths": 10, "tol": 0.05},
    "comparison": {"shift_phi": 0.1, "shift_f": 0},
    "discretization": {"node_counts": [2, 4, 8, 16], "noise_only": False},
    "regularity": {"q": 2, "n_probes": 100},
    "moments": {"n_probes": 100, "n_scenarios": 500, "p": [2, 4]},
}


@pytest.mark.parametrize("name", sorted(SPELLED_DEFAULTS))
def test_spelled_out_defaults_give_the_default_reports(name):
    # heat: growth_m = 1, so regularity's default q is 2
    base = {"model": "heat", "grid": {"T": 1.0, "N": 16},
            "mc": {"seed": 3, "n_scenarios": 300}}
    bare = {"s": 0.5} if name == "flow" else {}
    cfgs = [load_config(dict(base, checks={name: spec}))
            for spec in (bare, SPELLED_DEFAULTS[name])]
    reports = [run_check(cfg, name, _solve(cfg)) for cfg in cfgs]
    assert reports[0] == reports[1]
    csvs = [[r.samples_csv() for r in reps] for reps in reports]
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("engine, model", [("regression", "nonlinear-f"),
                                           ("nested", "linear-g")])
def test_spelled_out_engine_defaults_give_the_default_run(tmp_path, engine, model):
    # only the engine options a config sets are passed, so spelling out the
    # engines' own defaults (branching 8, picard_iters 2) changes no bit
    summaries = []
    for options in ({}, {"branching": 8, "picard_iters": 2}):
        cfg = write_config(tmp_path, model=model, engine=engine,
                           grid={"T": 1.0, "N": 4}, engine_options=options,
                           mc={"seed": 5, "n_scenarios": 500 if engine == "regression" else 3},
                           checks={"field_equation": {"n_paths": 2}})
        out = tmp_path / f"{engine}-{len(options)}"
        main(["run", cfg, "--output", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        summaries.append({k: v for k, v in summary.items() if k != "config_sha256"})
    assert summaries[0] == summaries[1]


def test_moments_check_scores_every_order_from_one_probe_set():
    # one probe set scored per order must give the reports of one
    # moment_envelope_check call per order, field for field and sample for
    # sample
    from pathfk import moment_envelope_check
    spec = {"n_probes": 12, "n_scenarios": 300}
    cfg = load_config({"model": "heat", "grid": {"T": 1.0, "N": 4},
                       "mc": {"seed": 5, "n_scenarios": 300},
                       "checks": {"moments": spec}})
    reports = run_check(cfg, "moments")
    assert [r.name for r in reports] == ["moment_envelope_p2", "moment_envelope_p4"]
    for p, rep in zip((2.0, 4.0), reports):
        alone = moment_envelope_check(cfg.model, cfg.grid_times, p,
                                      seed=_check_seed(cfg.seed, "moments"),
                                      **spec)
        assert rep == alone
        assert rep.samples_csv() == alone.samples_csv()


def test_nested_field_reads_picard_iters(tmp_path, monkeypatch):
    # the candidate field is the configured nested engine's: on nonlinear-f
    # with picard_iters 5 each of its sweeps iterates y 5 times, as the
    # headline solve does, where it iterated the default 2
    iters, real = [], solver._step_iterations

    def counted(model, picard_iters):
        iters.append(real(model, picard_iters))
        return iters[-1]

    monkeypatch.setattr(solver, "_step_iterations", counted)
    cfg = write_config(tmp_path, model="nonlinear-f", grid={"T": 1.0, "N": 4},
                       mc={"seed": 3, "n_scenarios": 500},
                       engine_options={"picard_iters": 5, "branching": 4},
                       checks={"field_equation": {"n_paths": 2}})
    main(["run", cfg, "--output", str(tmp_path / "out")])
    assert len(iters) > 2 and set(iters) == {5}


def test_summary_counts_excluded_scenarios(tmp_path, monkeypatch):
    # a drift that explodes once a path leaves [-1.5, 1.5] overflows a
    # share of the scenarios; summary.json says how many the headline solve
    # left out, the same on a rerun and at any worker count
    from dataclasses import replace

    from pathfk import config, get_model
    from pathfk.models import ModelRegistryEntry

    killed = replace(get_model("heat"), name="killed",
                     b=lambda x: np.where(np.abs(x[:, -1, :]) > 1.5, np.inf, 0.0))
    known = config.get_entry
    # with two checks besides the headline's, --workers 3 forks one worker
    # per such check, and the forked workers load the same patched registry
    monkeypatch.setattr(config, "get_entry", lambda name: (
        ModelRegistryEntry("killed", killed) if name == "killed" else known(name)))
    cfg = write_config(tmp_path, model="killed", checks={
        "z_growth": {}, "flow": {"s": 0.5, "n_resolve": 2},
        "discretization": {"node_counts": [2, 4]}})
    runs = {}
    for out, workers in (("a", "1"), ("b", "1"), ("w3", "3")):
        main(["run", cfg, "--output", str(tmp_path / out), "--workers", workers])
        runs[out] = (tmp_path / out / "summary.json").read_bytes()
    assert runs["a"] == runs["b"] == runs["w3"]
    excluded = json.loads(runs["a"])["excluded_scenarios"]
    assert 0 < excluded < 2000

    for out, engine in (("heat", {}), ("nested", {
            "engine": "nested", "grid": {"T": 1.0, "N": 4},
            "mc": {"seed": 11, "n_scenarios": 4},
            "engine_options": {"branching": 4}})):
        main(["run", write_config(tmp_path, checks={}, **engine),
              "--output", str(tmp_path / out)])
        summary = json.loads((tmp_path / out / "summary.json").read_text())
        assert summary["excluded_scenarios"] == 0


def _stream_keys(raw):
    """(seed, spawn key, inside frozen_noise_increments) of every key derived
    in one `pathfk run` of raw: each SeedSequence of the package's streams
    and hashes, and each seed given to np.random.default_rng.  Every driver
    pair's second driver is read, so its key is derived too."""
    keys, frozen = [], []
    real_seq, real_rng = simulation._seed_sequence, np.random.default_rng
    real_frozen, real_sample = solver.frozen_noise_increments, simulation.sample_drivers

    def seq(seed, *key):
        keys.append((int(seed) & simulation._MASK64, key, bool(frozen)))
        return real_seq(seed, *key)

    def rng(seed):
        keys.append((int(seed), (), bool(frozen)))
        return real_rng(seed)

    def frozen_noise(*args):
        frozen.append(True)
        try:
            return real_frozen(*args)
        finally:
            frozen.pop()

    def sample(*args, **kwargs):
        pair = real_sample(*args, **kwargs)
        pair.dB
        return pair

    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        mp.setattr(simulation, "_seed_sequence", seq)
        mp.setattr(np.random, "default_rng", rng)
        mp.setattr(solver, "frozen_noise_increments", frozen_noise)
        mp.setattr(simulation, "sample_drivers", sample)
        cli.run_experiment(raw, out)
    return keys


@settings(max_examples=8, deadline=None)
@given(st.integers(-2 ** 63, 2 ** 64 - 1))
def test_no_two_streams_of_a_run_share_a_key(seed):
    # every stream and hash of a seven-check run on heat is keyed once: W and
    # B of each pair, each check's seed, each role and each index; on
    # linear-g the field equation reads the field conditioned on each path's
    # own B and derives no frozen B key, while the averaged field of the
    # regularity probes draws its frozen B stream once per depth with a step
    # remaining (N = 4 of them; 100 probes miss a depth with odds 4 (3/4)^100)
    # and no other stream takes that key
    heat = {"model": "heat", "grid": {"T": 1.0, "N": 4},
            "mc": {"seed": seed, "n_scenarios": 300},
            "checks": {"closed_form": {}, "z_representation": {},
                       "z_growth": {}, "flow": {"s": 0.5}, "comparison": {},
                       "discretization": {"node_counts": [2, 4]},
                       "moments": {"n_probes": 10, "n_scenarios": 200}}}
    nested = {"model": "linear-g", "grid": {"T": 1.0, "N": 4},
              "mc": {"seed": seed, "n_scenarios": 300},
              "engine_options": {"branching": 3},
              "checks": {"field_equation": {"n_paths": 2}, "regularity": {}}}
    heat_keys, nested_keys = _stream_keys(heat), _stream_keys(nested)
    for keys, n_frozen in ((heat_keys, 0), (nested_keys, 1)):
        outside = [k[:2] for k in keys if not k[2]]
        inside = {k[:2] for k in keys if k[2]}
        assert len(outside) == len(set(outside))
        assert len(inside) == n_frozen and not inside & set(outside)
    assert sum(k[2] for k in nested_keys) == 4
    roles = {key[0] for _, key, _ in heat_keys + nested_keys if key}
    assert {simulation._TAG_W, simulation._TAG_B, solver._TAG_FROZEN_B,
            verification._FLOW_RESTARTS, verification._COMPARISON_PATHS,
            verification._COMPARISON_DRIVERS,
            verification._MOMENT_DRIVERS} <= roles
