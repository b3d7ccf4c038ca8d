"""Outside-in layer tracing for the benchmark.

The tracer wraps the public entry points of each pathfk layer from the
benchmark's side: it rebinds every module-level name in the ``pathfk``
package that refers to a wrapped function (``from .solver import
solve_regression`` makes copies of the name), patches two methods on their
classes, and wraps ``numpy.linalg.lstsq``/``solve`` only while a regression
projection is running.  Every patch is undone on exit, so untraced ops run
the program exactly as shipped.

A span records perf_counter start and end; a span's self time is its
duration minus the time its child spans cover.  Spans are aggregated per
name for the current op, which keeps memory flat however many calls an op
makes; ``op_record`` returns the aggregate and resets it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# Public entry points traced as spans named `<layer>.<function>`.
_SPAN_FUNCTIONS = {
    "simulation": ("sample_drivers", "simulate_forward"),
    "solver": ("solve_regression", "solve_nested"),
    "calculus": ("vertical_derivative", "vertical_hessian"),
    "config": ("load_config",),
    "cli": ("run_experiment",),
}
_VERIFICATION_EXTRA = ("spde_residual",)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def lstsq_flops(a_shape, b_shape) -> int:
    """Leading-order flops of a Householder-QR least-squares solve,
    2 n p^2 + 4 n p q, computed from the operand shapes (not measured)."""
    n, p = a_shape
    q = 1 if len(b_shape) == 1 else b_shape[1]
    return 2 * n * p * p + 4 * n * p * q


class Tracer:
    """Spans and counters around pathfk's layer entry points.

    Use as a context manager; ``op_record()`` after each op returns that op's
    span aggregates and counters and starts a fresh aggregate.
    """

    def __init__(self):
        self._stack = []            # open spans: [start, child_time]
        self._patches = []          # (owner, attribute, original)
        self._in_project = 0
        self._in_derivative = 0
        self._reset()

    def _reset(self):
        self.spans = {}             # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self._solve_keys = set()

    # -- wrapping -------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if before is not None:
                before(args, kwargs)
            frame = [perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dur
                rec = self.spans.setdefault(span_name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if after is not None:
                after(result)
            return result

        return wrapper

    def _rebind(self, original, wrapper):
        """Point every pathfk module-level name bound to `original` at
        `wrapper`."""
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pathfk" or mod_name.startswith("pathfk.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"no pathfk module binds {original!r}")

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _flagged(self, fn, flag):
        """Wrap fn so that the counter attribute `flag` is positive while it
        runs."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            setattr(self, flag, getattr(self, flag) + 1)
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(self, flag, getattr(self, flag) - 1)

        return wrapper

    # -- install / remove -----------------------------------------------

    def __enter__(self):
        import pathfk
        from pathfk import calculus, cli, solver, verification

        modules = {"simulation": pathfk.simulation, "solver": solver,
                   "calculus": calculus, "config": pathfk.config, "cli": cli}
        for layer, names in _SPAN_FUNCTIONS.items():
            for fname in names:
                fn = getattr(modules[layer], fname)
                before = after = None
                if fname in ("solve_regression", "solve_nested"):
                    before = self._solve_key_hook(fn)
                elif fname == "simulate_forward":
                    after = self._count_excluded
                wrapped = self._span(f"{layer}.{fname}", fn, before, after)
                if layer == "calculus":
                    wrapped = self._flagged(wrapped, "_in_derivative")
                self._rebind(fn, wrapped)

        check_names = [n for n in vars(verification)
                       if n.endswith("_check") and inspect.isfunction(getattr(verification, n))
                       and getattr(verification, n).__module__ == verification.__name__]
        for fname in sorted(check_names) + list(_VERIFICATION_EXTRA):
            fn = getattr(verification, fname)
            self._rebind(fn, self._span(f"verification.{fname}", fn))

        run_check = cli.run_check
        self._rebind(run_check, self._span(
            lambda a, k: f"cli.check.{a[1] if len(a) > 1 else k['name']}",
            run_check))

        # regression internals: projections flag the lstsq/solve calls
        # that belong to them; the feature matrix is a method
        self._rebind(solver._project, self._flagged(self._count(
            solver._project, "solver.projections"), "_in_project"))
        self._rebind(solver._tree_forward, self._count(
            solver._tree_forward, "solver.tree_expansions",
            after=self._count_leaves))
        self._set(solver.RegressionBasis, "matrix", self._span(
            "solver.features", solver.RegressionBasis.matrix))
        self._set(calculus.PathFunctional, "__call__", self._span(
            "calculus.field_eval", calculus.PathFunctional.__call__,
            before=self._count_eval))
        self._set(np.linalg, "lstsq", self._project_only(
            np.linalg.lstsq, self._span("solver.lstsq", np.linalg.lstsq,
                                        before=self._count_flops)))
        self._set(np.linalg, "solve", self._project_only(
            np.linalg.solve, self._count(np.linalg.solve, "solver.ridge_fallbacks")))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
        return False

    # -- counters -------------------------------------------------------

    def _count(self, fn, key, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _project_only(self, original, traced):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._in_project:
                return traced(*args, **kwargs)
            return original(*args, **kwargs)

        return wrapper

    def _count_flops(self, args, kwargs):
        a = np.shape(args[0])
        b = np.shape(args[1] if len(args) > 1 else kwargs["b"])
        self.counts["solver.lstsq.flops_computed"] += lstsq_flops(a, b)

    def _count_eval(self, args, kwargs):
        if self._in_derivative:
            self.counts["calculus.evals_in_derivatives"] += 1

    def _count_excluded(self, ensemble):
        self.counts["simulation.excluded_scenarios"] += ensemble.excluded_count

    def _count_leaves(self, tree):
        self.counts["solver.tree_leaves"] += int(tree[0][-1].shape[0])

    def _solve_key_hook(self, fn):
        sig = inspect.signature(fn)

        def hook(args, kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            model = bound["model"]
            if "ensemble" in bound:
                ens = bound["ensemble"]
                key = ("regression", model.name, ens.drivers.seed, ens.n_scenarios,
                       ens.initial.grid_times.tobytes(), ens.initial.values.tobytes())
            else:
                frozen = bound.get("frozen_B")
                initial = bound["initial"]
                key = ("nested", model.name, bound["seed"], bound["n_outer"],
                       initial.grid_times.tobytes(), initial.values.tobytes(),
                       None if frozen is None else np.asarray(frozen).tobytes())
            self._solve_keys.add(key)
            self.counts["solver.solve_calls"] += 1

        return hook

    # -- per-op records -------------------------------------------------

    def op_record(self, wall_s: float) -> dict:
        """This op's spans and counters; resets the aggregate."""
        spans = {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                 for k, v in sorted(self.spans.items())}
        counts = dict(self.counts)
        counts["solver.distinct_solves"] = len(self._solve_keys)
        layer_self = Counter()
        for name, rec in spans.items():
            layer_self[layer_of(name)] += rec["self_s"]
        record = {
            "wall_s": wall_s,
            "spans": spans,
            "counts": dict(sorted(counts.items())),
            "layer_self_s": dict(sorted(layer_self.items())),
            "unattributed_s": wall_s - sum(layer_self.values()),
        }
        self._reset()
        return record
