"""The four benchmark workloads: inputs from a hashed seed, one op each, and
the per-op correctness gate.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned.  An op runs the workload's chain once on
each of its models in turn, so consecutive ops have the same cost profile
and the op-time median does not fall between two models' costs.

Per-op inputs (driver seed, initial value) are pure functions of
(workload seed, workload name, op index, model, role) through BLAKE2b, so
two ops never share a stream and any op can be regenerated alone.  The
program only ever receives these generated inputs.

The gate has two tiers.  An op *fails* (counted in ``failed``; ``correct``
becomes false) when its output is wrong: it raises, returns a non-finite
value, lands more than 6 standard errors from its reference, or writes a
``summary.json`` that differs from the first op's or whose exit code
disagrees with its check verdicts.  An op *misses* when it
is outside the acceptance tolerances but not wrong: relative error 0.02 or
3 standard errors against the closed form or the stored reference, or a
``pathfk run`` that exits 2 because a statistical check raised an alarm.
A correct program misses by chance (a 3-standard-error miss in about 0.3%
of solves; the CLI's checks alarm on some config seeds), so misses are
reported and counted beside ``failed`` but are not proof of a wrong
program, and a run's ``failed`` does not depend on how many ops fitted in
its window.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

import pathfk
from pathfk import cli, simulation, solver, verification

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")

REL_TOL = 0.02          # acceptance tolerance, relative to 1 + |reference|
SE_TOL = 3.0            # acceptance tolerance, in standard errors
SE_WRONG = 6.0          # beyond this many standard errors the output is wrong

CLI_CHECKS = {
    "closed_form": {},
    "z_representation": {},
    "z_growth": {},
    "flow": {"s": 0.5},
    "comparison": {},
    "discretization": {"noise_only": True},
    "moments": {},
}

# sizes per workload; "smoke" keeps every code path at toy size for the test
SIZES = {
    "full": {
        "pathdep-solve": {"N": 64, "n": 10_000},
        "markov-large": {"N": 16, "n": 100_000},
        "nested-field": {"N": 6, "n_outer": 8, "branching": 6},
        "cli-run": {"N": 16, "n": 10_000},
    },
    "smoke": {
        "pathdep-solve": {"N": 4, "n": 600},
        "markov-large": {"N": 4, "n": 1_000},
        "nested-field": {"N": 2, "n_outer": 2, "branching": 3},
        "cli-run": {"N": 16, "n": 500},
    },
}
WORKLOADS = tuple(SIZES["full"])


def derive(*parts) -> int:
    """63-bit integer hashed from the parts; distinct parts give
    independent streams (no additive offsets)."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def derive_unit(*parts) -> float:
    """Uniform value in [-1, 1) hashed from the parts."""
    return 2.0 * (derive(*parts) >> 10) / 2.0 ** 53 - 1.0


def start_path(grid, x0: float) -> pathfk.Path:
    return pathfk.Path(grid, np.array([[x0]]))


@dataclass
class OpResult:
    """Outputs of one op and its gate verdict."""

    misses: list = field(default_factory=list)      # acceptance misses
    wrong: list = field(default_factory=list)       # wrong outputs
    stderrs: list = field(default_factory=list)
    z: list = field(default_factory=list)           # (label, (u - ref) / stderr)
    values: list = field(default_factory=list)      # (label, u, stderr, ref)


def _gate_value(res: OpResult, label, u, se, ref, ref_se, rel_tol=REL_TOL,
                acceptance=True):
    """Compare one field estimate with its reference; with acceptance off
    only the hard tier applies, and rel_tol=None drops the relative test."""
    if not (math.isfinite(u) and math.isfinite(se) and se > 0):
        res.wrong.append(f"{label}: non-finite estimate u={u} stderr={se}")
        return
    res.stderrs.append(se)
    res.values.append((label, u, se, ref))
    if ref is None:
        return
    err = abs(u - ref)
    combined = math.sqrt(se ** 2 + ref_se ** 2)
    res.z.append((label, (u - ref) / combined))
    rel = err / (1.0 + abs(ref))
    if err > SE_WRONG * combined:
        res.wrong.append(f"{label}: u={u:.6g} is {err / combined:.2f} stderr "
                         f"from reference {ref:.6g}")
    elif acceptance and ((rel_tol is not None and rel > rel_tol)
                         or err > SE_TOL * combined):
        res.misses.append(f"{label}: u={u:.6g} vs reference {ref:.6g} "
                          f"(rel {rel:.4f}, {err / combined:.2f} stderr)")


class Workload:
    """Fixed inputs of a workload and the op that runs on them."""

    models: tuple = ()

    def __init__(self, name: str, seed: int, size: str, workdir: str):
        self.name = name
        self.seed = seed
        self.sizes = SIZES[size][name]
        self.workdir = workdir
        self.grid = pathfk.make_grid(1.0, self.sizes["N"])
        self.entries = {m: pathfk.get_entry(m) for m in self.models}

    def op_input(self, index, model):
        """(driver seed, initial path) of one solve of op `index`."""
        key = (self.seed, self.name, index, model)
        return derive(*key, "drivers"), start_path(self.grid, derive_unit(*key, "x0"))

    def run_op(self, index):
        """Run op `index`; returns outputs for gate() (timed by the caller)."""
        raise NotImplementedError

    def gate(self, outputs) -> OpResult:
        raise NotImplementedError


class RegressionWorkload(Workload):
    """sample_drivers -> simulate_forward -> solve_regression per model."""

    feature_set = "endpoint"

    def __init__(self, name, seed, size, workdir):
        super().__init__(name, seed, size, workdir)
        self.basis = pathfk.RegressionBasis(feature_set=self.feature_set)
        self.references = {}
        if size == "full":
            with open(REFERENCE_FILE) as fh:
                table = json.load(fh)[name]
            self.references = {m: table[m] for m in self.models if m in table}

    def reference(self, model, initial):
        """(reference u, its stderr, relative tolerance) at the initial
        path: the closed form where one exists (rel 0.02 and 3 stderr), else
        the stored reference line (3 combined stderr), else None."""
        entry = self.entries[model]
        if entry.closed_form_u is not None:
            return float(entry.closed_form_u(initial)[0]), 0.0, REL_TOL
        ref = self.references.get(model)
        if ref is None:
            return None, 0.0, None
        x0 = float(initial.endpoint[0])
        return (ref["slope"] * x0 + ref["intercept"],
                math.hypot(x0 * ref["slope_se"], ref["intercept_se"]), None)

    def run_op(self, index):
        outputs = []
        for model in self.models:
            drv_seed, initial = self.op_input(index, model)
            m = self.entries[model].model
            drivers = simulation.sample_drivers(self.grid, self.sizes["n"], drv_seed)
            ens = simulation.simulate_forward(m, initial, drivers)
            sol = solver.solve_regression(m, ens, basis=self.basis)
            outputs.append((model, initial, sol.u_estimate[0], sol.u_stderr[0]))
        return outputs

    def gate(self, outputs) -> OpResult:
        res = OpResult()
        for model, initial, u, se in outputs:
            ref, ref_se, rel_tol = self.reference(model, initial)
            _gate_value(res, model, float(u), float(se), ref, ref_se, rel_tol)
        return res


class PathDependentSolve(RegressionWorkload):
    models = ("path-f", "asian")
    feature_set = "endpoint+runmax+runint"


class MarkovLarge(RegressionWorkload):
    models = ("heat", "linear-g")


class NestedField(Workload):
    """spde_residual_check along one seeded path, nested-engine field."""

    models = ("linear-g", "path-f")

    def run_op(self, index):
        outputs = []
        for model in self.models:
            drv_seed, initial = self.op_input(index, model)
            m = self.entries[model].model
            u = verification.field_from_engine(
                m, "nested", n_scenarios=self.sizes["n_outer"],
                branching=self.sizes["branching"],
                seed=derive(self.seed, self.name, index, model, "field"))
            drivers = simulation.sample_drivers(self.grid, 1, drv_seed)
            ens = simulation.simulate_forward(m, initial, drivers)
            rep = verification.spde_residual_check(u, m, ens, tol=0.05)
            outputs.append((model, rep.statistic))
        return outputs

    def gate(self, outputs):
        res = OpResult()
        for model, stat in outputs:
            if not math.isfinite(stat):
                res.wrong.append(f"{model}: residual statistic {stat}")
        return res


class CliRun(Workload):
    """``pathfk run`` on heat with seven checks into a fresh directory.

    Every op uses one config seed derived from the workload seed, so the
    summary.json files of one run must be byte-identical.
    """

    models = ("heat",)

    def __init__(self, name, seed, size, workdir):
        super().__init__(name, seed, size, workdir)
        self.raw = {
            "model": "heat",
            "grid": {"T": 1.0, "N": self.sizes["N"]},
            "mc": {"seed": derive(seed, name, "config"),
                   "n_scenarios": self.sizes["n"]},
            "engine": "regression",
            "checks": CLI_CHECKS,
        }
        self.first_summary = None
        self.target = float(self.entries["heat"].closed_form_u(
            start_path(self.grid, 0.0))[0])

    def run_op(self, index):
        out = tempfile.mkdtemp(prefix=f"op{index}-", dir=self.workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run_experiment(self.raw, out, workers=1)
            with open(os.path.join(out, "summary.json"), "rb") as fh:
                summary = fh.read()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return code, summary

    def gate(self, outputs):
        code, summary = outputs
        res = OpResult()
        if self.first_summary is None:
            self.first_summary = summary
        elif summary != self.first_summary:
            res.wrong.append("summary.json differs from the first op of this run")
        doc = json.loads(summary)
        failing = [k for k, v in doc["checks"].items() if not v["passed"]]
        if code not in (0, 2) or (code == 2) != bool(failing):
            res.wrong.append(f"pathfk run exit code {code} with failing checks "
                             f"{failing}")
        elif code == 2:
            res.misses.append("pathfk run exit code 2; failing checks: "
                              + ", ".join(failing))
        for k, v in doc["checks"].items():
            if not math.isfinite(v["statistic"]):
                res.wrong.append(f"check {k}: statistic {v['statistic']}")
        # the CLI's own closed_form check gives the acceptance verdict
        _gate_value(res, "heat", doc["u_estimate"][0], doc["u_stderr"][0],
                    self.target, 0.0, acceptance=False)
        return res


CLASSES = {"pathdep-solve": PathDependentSolve, "markov-large": MarkovLarge,
           "nested-field": NestedField, "cli-run": CliRun}


def make_workload(name: str, seed: int, size: str, workdir: str) -> Workload:
    return CLASSES[name](name, seed, size, workdir)
