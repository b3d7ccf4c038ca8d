"""pathfk benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the run warms up with one op, then
runs ops back to back for S seconds and reports the end-to-end metrics;
set-up time is measured in fresh interpreters spread over the same S
seconds.  With ``--trace 1`` it alternates untraced and traced executions
of the same ops for S seconds and reports per-layer metrics from the
traced ones.  Every op passes the
correctness gate in ``workloads.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
(prefixed ``#``) are the human-readable report.  A JSON record of the run
is written to ``.bench_out/`` in the checkout.  ``--size smoke`` shrinks
every workload to toy size for the smoke test.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads: a single-threaded baseline
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7
SETUP_TIMEOUT_S = 120
MIN_OPS = 2
TAIL_BEYOND = 10

CHECK_FUNCTIONS = ("z_representation_check", "z_growth_check", "flow_check",
                   "comparison_check", "discretization_convergence_check",
                   "moment_envelope_check", "spde_residual_check")
CLI_CHECK_NAMES = ("closed_form", "z_representation", "z_growth", "flow",
                   "comparison", "discretization", "moments")
LAYERS = ("simulation", "solver", "calculus", "verification", "cli", "config")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import pathfk from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "pathfk", "__init__.py")):
        raise SystemExit(f"error: no pathfk sources under {SRC}; run from the "
                         "root of a pathfk checkout")
    sys.path.insert(0, SRC)
    import pathfk
    if not os.path.abspath(pathfk.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported pathfk from {pathfk.__file__}, "
                         f"not from {SRC}")
    import workloads
    return workloads


# -- environment ------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


# -- measurement --------------------------------------------------------


def setup_probe(args) -> float:
    """Wall time of one fresh interpreter that imports pathfk and builds
    the workload's inputs.  The wait blocks in waitpid, which returns as the
    probe exits (subprocess's timeout wait polls in steps of up to 50 ms);
    a timer kills a probe that hangs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def tail(times):
    """(value, percentile) at the highest nearest rank with TAIL_BEYOND
    samples beyond it, never below the median rank."""
    s = sorted(times)
    n = len(s)
    rank = max(n - TAIL_BEYOND, math.ceil(n / 2))
    return s[rank - 1], 100.0 * rank / n


class Run:
    """Op bookkeeping shared by both modes."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.missed = 0
        self.log = []
        self.stderrs = []
        self.z = {}

    def op(self, index):
        """Run and gate one op; returns its wall time, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            outputs = self.wl.run_op(index)
        except Exception:   # noqa: BLE001 - a raising op is a gate failure
            self.failed += 1
            msg = traceback.format_exc().strip().splitlines()[-1]
            self.log.append({"op": index, "wrong": [f"raised {msg}"]})
            print(f"# WRONG op {index}: raised {msg}")
            return None
        wall = time.perf_counter() - t0
        res = self.wl.gate(outputs)
        self.stderrs += res.stderrs
        for label, z in res.z:
            self.z.setdefault(label, []).append(z)
        self.failed += bool(res.wrong)
        self.missed += bool(res.misses)
        self.log.append({"op": index, "wall_s": wall, "misses": res.misses,
                         "wrong": res.wrong, "values": res.values})
        for msg in res.wrong:
            print(f"# WRONG op {index}: {msg}")
        for msg in res.misses:
            print(f"# MISS op {index}: {msg}")
        return wall

    def gate_summary(self) -> dict:
        """Figures of the gate printed beside the metrics: misses and the
        calibration of the reported stderr (|z| max and rms per model; an
        rms near 1 means the stderr matches the spread)."""
        out = {"fail_frac": self.failed / self.attempted,
               "miss_frac": self.missed / self.attempted}
        zs = [abs(z) for v in self.z.values() for z in v]
        out["u_err_se"] = max(zs) if zs else None
        for label, v in sorted(self.z.items()):
            out[f"u_z_rms.{label}"] = math.sqrt(statistics.fmean(z * z for z in v))
        return out


class NoOps(RuntimeError):
    """Every op raised, so there is nothing to measure."""


def more_ops(start, seconds, last_op, done, minimum):
    """Start another op while at least half of it fits in the window, so a
    run ends within half an op of `seconds` on average."""
    return done < minimum or time.perf_counter() - start + 0.5 * last_op < seconds


def timed_loop(run, seconds, probe):
    """Ops back to back for `seconds` after one warm-up op.  The
    SETUP_PROBES calls of probe() are spread evenly over the window (the
    first before the warm-up), so the set-up median samples the machine over
    the same stretch of time as the op median."""
    setup = [probe()]
    last = run.op("warmup") or 0.0
    times = []
    start = time.perf_counter()
    i = 0
    while more_ops(start, seconds, last, i, MIN_OPS):
        wall = run.op(i)
        if wall is not None:
            times.append(wall)
            last = wall
        i += 1
        if (len(setup) < SETUP_PROBES and time.perf_counter() - start
                >= len(setup) * seconds / SETUP_PROBES):
            setup.append(probe())
    if not times:
        raise NoOps("every op raised; see the WRONG lines above")
    while len(setup) < SETUP_PROBES:
        setup.append(probe())
    return times, setup


def traced_loop(run, seconds):
    """Pairs of untraced and traced executions of op i, alternating which
    goes first; then op 0 traced once more to check that counts repeat."""
    from layertrace import Tracer

    def traced(index):
        with Tracer() as tracer:
            wall = run.op(index)
        return None if wall is None else tracer.op_record(wall)

    last = 2.0 * (run.op("warmup") or 0.0)
    plain, records = [], []
    start = time.perf_counter()
    i = 0
    while more_ops(start, seconds, last, i, 1):
        if i % 2:
            rec = traced(i)
            wall = run.op(i)
        else:
            wall = run.op(i)
            rec = traced(i)
        if wall is not None and rec is not None:
            plain.append(wall)
            records.append(rec)
            last = wall + rec["wall_s"]
        i += 1
    if not records:
        raise NoOps("every op raised; see the WRONG lines above")
    repeat = traced(0)
    return plain, records, repeat


def repeatable_counts(rec) -> dict:
    counts = dict(rec["counts"])
    counts.update({f"{k}.calls": v["calls"] for k, v in rec["spans"].items()})
    return counts


def layer_metrics(plain, records, repeat) -> tuple:
    """Per-layer metrics: times are means per traced op, counts are those
    of op 0, which the repeat execution must reproduce exactly."""
    first = records[0]
    problems = []
    if repeat is None or repeatable_counts(repeat) != repeatable_counts(first):
        problems.append("trace counts of op 0 differ between two traced runs")

    def mean_span(name, key="s"):
        return statistics.fmean(r["spans"].get(name, {}).get(key, 0.0)
                                for r in records)

    def calls(name):
        return first["spans"].get(name, {}).get("calls", 0)

    counts = first["counts"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for span in ("solver.lstsq", "solver.features", "solver.solve_regression",
                 "solver.solve_nested", "simulation.sample_drivers",
                 "simulation.simulate_forward"):
        put(f"{span}.s", mean_span(span), "s")
        put(f"{span}.calls", calls(span), "count")
    put("calculus.field_eval.s", mean_span("calculus.field_eval"), "s")
    put("calculus.field_evals", calls("calculus.field_eval"), "count")
    put("solver.solve_regression.self_s",
        mean_span("solver.solve_regression", "self_s"), "s")
    put("solver.solve_nested.self_s",
        mean_span("solver.solve_nested", "self_s"), "s")
    put("solver.lstsq.flops_computed",
        counts.get("solver.lstsq.flops_computed", 0), "flop")
    projections = counts.get("solver.projections", 0)
    fallbacks = counts.get("solver.ridge_fallbacks", 0)
    put("solver.projections", projections, "count")
    put("solver.ridge_fallbacks", fallbacks, "count")
    put("solver.ridge_fallback_ratio",
        fallbacks / projections if projections else 0.0, "ratio")
    put("solver.tree_leaves", counts.get("solver.tree_leaves", 0), "count")
    solves = counts.get("solver.solve_calls", 0)
    put("solver.distinct_solve_ratio",
        counts["solver.distinct_solves"] / solves if solves else 0.0, "ratio")
    put("simulation.excluded_scenarios",
        counts.get("simulation.excluded_scenarios", 0), "count")
    derivatives = (calls("calculus.vertical_derivative")
                   + calls("calculus.vertical_hessian"))
    put("calculus.derivatives", derivatives, "count")
    put("calculus.evals_per_derivative",
        counts.get("calculus.evals_in_derivatives", 0) / derivatives
        if derivatives else 0.0, "ratio")
    for fn in CHECK_FUNCTIONS:
        put(f"verification.{fn}.s", mean_span(f"verification.{fn}"), "s")
    for name in CLI_CHECK_NAMES:
        put(f"cli.check.{name}.s", mean_span(f"cli.check.{name}"), "s")
    put("cli.run_experiment.s", mean_span("cli.run_experiment"), "s")
    put("config.load_config.s", mean_span("config.load_config"), "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", statistics.fmean(
            r["layer_self_s"].get(layer, 0.0) for r in records), "s")
    put("op.traced_s", statistics.fmean(r["wall_s"] for r in records), "s")
    put("op.unattributed_s",
        statistics.fmean(r["unattributed_s"] for r in records), "s")
    put("trace.overhead_frac",
        sum(r["wall_s"] for r in records) / sum(plain) - 1.0, "ratio")
    return m, problems


# -- main ---------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    t_import = time.perf_counter()
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{workloads.WORKLOADS}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    wl = workloads.make_workload(args.workload, args.seed, args.size, workdir)
    if args.setup_probe:
        return 0
    in_process_setup = time.perf_counter() - t_import
    os.makedirs(workdir, exist_ok=True)

    env = environment()
    print(f"# pathfk benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    record = {"args": vars(args), "environment": env,
              "in_process_setup_s": in_process_setup}
    run = Run(wl)
    try:
        if args.trace == 0:
            times, setup = timed_loop(run, args.seconds,
                                      lambda: setup_probe(args))
            p50 = statistics.median(times)
            tail_s, tail_pct = tail(times)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "op_s_p50": {"value": p50, "unit": "s"},
                "op_s_tail": {"value": tail_s, "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
            extra = {
                "op_s_tail_percentile": tail_pct,
                "op_samples": len(times),
                **run.gate_summary(),
                "time_to_se_1e-3_s": (p50 * (statistics.median(run.stderrs) / 1e-3) ** 2
                                      if run.stderrs else None),
            }
            record.update(setup_probes_s=setup, op_times_s=times, **extra)
            problems = []
        else:
            plain, records, repeat = traced_loop(run, args.seconds)
            metrics, problems = layer_metrics(plain, records, repeat)
            extra = {"traced_ops": len(records), **run.gate_summary()}
            record.update(untraced_op_s=plain, traced_ops=records,
                          repeat_op0=repeat)
    except NoOps as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in problems:
        print(f"# WRONG: {msg}")
    for name, mv in metrics.items():
        print(f"# metric {name} = {mv['value']:.6g} {mv['unit']}")
    for name, value in extra.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"# {name} = {shown}")
    correct = run.failed == 0 and not problems
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record.update(result=result, gate_log=run.log, problems=problems)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
