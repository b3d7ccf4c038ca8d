"""The benchmark's layer tracer (bench/layertrace.py) finds the functions it
times by name.  Entering it around a small field-equation check and a
regression solve here pins those names, so renaming one fails this suite
and not only the benchmark's traced smoke run."""

import importlib.util
import os
from time import perf_counter

import numpy as np

import pathfk
from pathfk import (Path, calculus, field_from_closed_form, field_from_engine,
                    get_entry, make_grid, sample_drivers, simulate_forward,
                    solver)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", os.path.join(ROOT, "bench", "layertrace.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_and_restores_every_traced_name():
    traced = (solver.solve_nested, solver._tree_forward,
              calculus.vertical_derivative, calculus.vertical_hessian,
              calculus.PathFunctional.__call__)
    init = Path(make_grid(1.0, 3), np.zeros((1, 1)))
    heat, path_f = get_entry("heat"), get_entry("path-f")
    ens = simulate_forward(path_f.model, init, sample_drivers(init.grid_times, 2, 1))
    big = simulate_forward(heat.model, init, sample_drivers(init.grid_times, 300, 2))
    engine = field_from_engine(path_f.model, "nested", n_scenarios=1, branching=3)
    closed = field_from_closed_form(heat)
    with _layertrace().Tracer() as tracer:
        # through the package namespace, which the tracer rebinds
        start = perf_counter()
        pathfk.spde_residual_check(engine, path_f.model, ens, tol=0.05)
        pathfk.spde_residual_check(closed, heat.model, ens, tol=0.05)
        engine(init)
        # a field value is a batch of one; the one-root solve is its own call
        pathfk.solve_nested(path_f.model, init, n_outer=1, seed=0, branching=3)
        pathfk.vertical_derivative(closed, init)
        pathfk.vertical_hessian(closed, init)
        pathfk.solve_regression(heat.model, big)
        record = tracer.op_record(perf_counter() - start)
    spans, counts = record["spans"], record["counts"]
    for name in ("verification.spde_residual_check", "verification.spde_residual",
                 "solver.solve_nested", "solver.solve_regression", "solver.features",
                 "calculus.field_eval", "calculus.vertical_derivative",
                 "calculus.vertical_hessian"):
        assert spans[name]["calls"] > 0, name
    # one tree per residual jet: the shared initial prefix's, then the two
    # later prefixes and the horizon of each of two scenarios; one for the
    # single evaluation and one for the one-root solve
    assert counts["solver.tree_expansions"] == 1 + 2 * 3 + 1 + 1
    assert counts["solver.projections"] > 0
    assert (solver.solve_nested, solver._tree_forward, calculus.vertical_derivative,
            calculus.vertical_hessian, calculus.PathFunctional.__call__) == traced
