"""Command-line entry point.

    pathfk run config.json [--output DIR] [--workers K]
    pathfk sweep config.json --axis grid.N --values 8,16,32 [--output DIR]

`run` solves the configured problem once, runs the configured checks
(closed_form, z_growth and z_representation on that headline solve, in
this process), and writes summary.json (byte-stable across reruns and
worker counts), manifest.json, and one CSV of per-sample statistics per
check, and prints each check's line with its details indented below it.
Exit code 0 means every check passed, 2 that one failed, 1 that the run
errored.
The environment variable PATHFK_SEED overrides the configured seed and is
recorded in the manifest.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys

from .config import HEADLINE_CHECKS, ExperimentConfig, load_config
from .errors import ConfigError
from .simulation import _simulate
from .solver import solve_nested, solve_regression


def _package_version() -> str:
    from importlib.metadata import PackageNotFoundError, version
    try:
        return version("pathfk")
    except PackageNotFoundError:
        return "unknown"


def _solve(cfg: ExperimentConfig):
    """The headline (solution, ensemble), with no ensemble when nested."""
    if cfg.engine == "nested":
        return solve_nested(
            cfg.model, cfg.initial,
            n_outer=cfg.engine_options.get("n_outer", cfg.n_scenarios),
            seed=cfg.seed, **cfg.options("branching", "picard_iters")), None
    ens = _simulate(cfg.model, cfg.initial, cfg.n_scenarios, cfg.seed)
    return solve_regression(cfg.model, ens, **cfg.options("picard_iters")), ens


def run_check(cfg: ExperimentConfig, name: str, headline=None):
    """A list of CheckReport from one named check: the call load_config
    built for it, given the headline (solution, ensemble) of _solve, which
    only the checks of config.HEADLINE_CHECKS read."""
    return cfg.checks[name](headline)


def _check_worker(args):
    raw, seed_override, name = args
    cfg = load_config(raw, seed_override=seed_override)
    return name, run_check(cfg, name)


def _config_hash(raw: dict) -> str:
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True).encode()
    ).hexdigest()


def run_experiment(raw: dict, output_dir: str, workers: int = 1,
                   seed_override=None) -> int:
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    cfg = load_config(raw, seed_override=seed_override)
    os.makedirs(output_dir, exist_ok=True)
    headline = _solve(cfg)
    sol = headline[0]

    # the headline's own checks run here, so that its ensemble goes before
    # the rest; a lone other check or worker runs here too, and fork starts
    # every pool worker at once
    reports = {n: run_check(cfg, n, headline) for n in HEADLINE_CHECKS
               if n in cfg.checks}
    del headline
    names = sorted(cfg.checks.keys() - set(HEADLINE_CHECKS))
    if min(workers, len(names)) > 1:
        from concurrent.futures import ProcessPoolExecutor
        tasks = [(cfg.raw, seed_override, n) for n in names]
        with ProcessPoolExecutor(max_workers=min(workers, len(names))) as pool:
            for name, reps in pool.map(_check_worker, tasks):
                reports[name] = reps
    else:
        for name in names:
            reports[name] = run_check(cfg, name)
    flat = sorted((r for reps in reports.values() for r in reps),
                  key=lambda r: r.name)

    checks_dir = os.path.join(output_dir, "checks")
    if flat:
        os.makedirs(checks_dir, exist_ok=True)
    for rep in flat:
        print(rep.one_line())
        for line in rep.details:
            print(f"    {line}")
        with open(os.path.join(checks_dir, f"{rep.name}.csv"), "w") as fh:
            fh.write(rep.samples_csv())

    all_passed = all(r.passed for r in flat)
    summary = {
        "config_sha256": _config_hash(cfg.raw),
        "model": cfg.model.name,
        "engine": cfg.engine,
        "t": float(cfg.initial.current_time),
        "u_estimate": sol.u_estimate.tolist(),
        "u_stderr": sol.u_stderr.tolist(),
        "excluded_scenarios": sol.scheme_params.get("excluded_scenarios", 0),
        "checks": {
            r.name: {"statistic": r.statistic, "threshold": r.threshold,
                     "passed": r.passed, "n_samples": r.n_samples}
            for r in flat
        },
        "all_passed": all_passed,
    }
    with open(os.path.join(output_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    manifest = {
        "config_sha256": summary["config_sha256"],
        "package_version": _package_version(),
        "seed": cfg.seed,
        "seed_overridden": seed_override is not None,
    }
    with open(os.path.join(output_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"u({cfg.model.name}, t={cfg.initial.current_time}) = "
          f"{sol.u_estimate.tolist()} +/- {sol.u_stderr.tolist()}")
    return 0 if all_passed else 2


def _set_dotted(d: dict, dotted: str, value):
    keys = dotted.split(".")
    for k in keys[:-1]:
        d = d.setdefault(k, {})
    d[keys[-1]] = value


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def run_sweep(raw: dict, output_dir: str, axis: str, values, workers: int,
              seed_override=None) -> int:
    """Run the base config once per axis value; emits a long-format CSV
    axis,value,check,statistic for convergence plots.  Every value's config
    loads before the first run, so a bad value fails the sweep before any
    solve.  An empty value list is a no-op; a seed sweep under a seed
    override, whose runs would all take the one overridden seed, is refused."""
    if not values:
        return 0
    if axis == "mc.seed" and seed_override is not None:
        raise ConfigError("PATHFK_SEED overrides every mc.seed of a seed sweep; "
                          "unset it to sweep mc.seed")
    sub_raws = [copy.deepcopy(raw) for _ in values]
    for sub_raw, v in zip(sub_raws, values):
        _set_dotted(sub_raw, axis, v)
        load_config(sub_raw, seed_override=seed_override)
    os.makedirs(output_dir, exist_ok=True)
    rows = ["axis,value,check,statistic"]
    worst = 0
    for sub_raw, v in zip(sub_raws, values):
        sub_dir = os.path.join(output_dir, f"{axis.replace('.', '_')}={v}")
        code = run_experiment(sub_raw, sub_dir, workers=workers,
                              seed_override=seed_override)
        worst = max(worst, code)
        with open(os.path.join(sub_dir, "summary.json")) as fh:
            summary = json.load(fh)
        rows.append(f"{axis},{v},u_estimate,{summary['u_estimate'][0]!r}")
        for cname, c in sorted(summary["checks"].items()):
            rows.append(f"{axis},{v},{cname},{c['statistic']!r}")
    with open(os.path.join(output_dir, "sweep.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pathfk",
        description="Simulate coupled forward-backward two-driver systems "
                    "and verify the path-field identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configuration with its checks")
    p_run.add_argument("config", help="JSON configuration file")
    p_run.add_argument("--output", default=None, help="output directory")
    p_run.add_argument("--workers", type=int, default=1,
                       help="parallel workers for the checks")

    p_sweep = sub.add_parser("sweep", help="run a configuration over a range "
                                           "of one parameter")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True,
                         help="dotted config key, e.g. grid.N")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values for the parameter")
    p_sweep.add_argument("--output", default=None)
    p_sweep.add_argument("--workers", type=int, default=1)

    args = parser.parse_args(argv)
    try:
        seed = os.environ.get("PATHFK_SEED")
        try:
            seed_override = None if seed is None else int(seed)
        except ValueError:
            raise ConfigError(f"PATHFK_SEED must be an integer, got {seed!r}") from None
        with open(args.config) as fh:
            raw = json.load(fh)
        out = args.output or raw.get("output_dir", "pathfk-out")
        if args.command == "run":
            return run_experiment(raw, out, workers=args.workers,
                                  seed_override=seed_override)
        values = [_parse_value(v) for v in args.values.split(",") if v != ""]
        return run_sweep(raw, out, args.axis, values, workers=args.workers,
                         seed_override=seed_override)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
