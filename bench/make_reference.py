"""Recompute bench/reference.json, the stored references for the two
registry models without a closed form.

    python3 bench/make_reference.py [--solves K]

Run from the root of a source checkout.  Each reference is the mean of K
independent solves made exactly as the benchmark op makes them (same grid,
scenario count, basis and Picard passes), with driver seeds hashed from
("reference", workload, model, k) so they never coincide with op seeds.
The reference therefore pins the mean of the benchmark's own estimator,
discretization and projection bias included.

The benchmark starts every solve from a constant initial path x0 at t = 0,
and the scheme's structure turns one reference value into a line in x0:

* path-f (Phi = endpoint, f = running max - y, zero drift, unit diffusion)
  is translation-equivariant: shifting x0 shifts the endpoint, the running
  max and y by the same amount, leaves f unchanged, and maps the degree-2
  feature span onto itself, so u(x0) = x0 + u(0).  Stored: slope 1,
  intercept = mean of K solves at x0 = 0.
* linear-g (Phi = endpoint, g = 0.3 y) is linear in the terminal value and
  the features contain the constant, so u(x0) = x0 * u_const + u(0) with
  E[u(0)] = 0 by the W -> -W symmetry.  Stored: intercept 0, slope = mean
  of K solves at x0 = 1.
"""

from __future__ import annotations

import os
import sys

import run  # noqa: F401  (fixes BLAS threads before numpy loads)

import argparse
import json
import statistics
import time


def reference_line(workloads, wl_name, model, x0, solves):
    import pathfk
    sizes = workloads.SIZES["full"][wl_name]
    grid = pathfk.make_grid(1.0, sizes["N"])
    basis = pathfk.RegressionBasis(workloads.CLASSES[wl_name].feature_set)
    m = pathfk.get_model(model)
    initial = workloads.start_path(grid, x0)
    values = []
    for k in range(solves):
        seed = workloads.derive("reference", wl_name, model, k)
        drivers = pathfk.sample_drivers(grid, sizes["n"], seed)
        ens = pathfk.simulate_forward(m, initial, drivers)
        sol = pathfk.solve_regression(m, ens, basis=basis)
        values.append(float(sol.u_estimate[0]))
    mean = statistics.fmean(values)
    se = statistics.stdev(values) / len(values) ** 0.5
    return mean, se, values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--solves", type=int, default=40)
    args = p.parse_args(argv)
    workloads = run.import_program()

    started = time.time()
    table = {"method": __doc__.split("\n\n", 2)[2].strip(),
             "command": f"python3 bench/make_reference.py --solves {args.solves}",
             "environment": run.environment()}
    mean, se, values = reference_line(workloads, "pathdep-solve", "path-f", 0.0,
                                      args.solves)
    table["pathdep-solve"] = {"path-f": {
        "slope": 1.0, "slope_se": 0.0, "intercept": mean, "intercept_se": se,
        "solves": args.solves, "x0": 0.0, "values": values}}
    mean, se, values = reference_line(workloads, "markov-large", "linear-g", 1.0,
                                      args.solves)
    table["markov-large"] = {"linear-g": {
        "slope": mean, "slope_se": se, "intercept": 0.0, "intercept_se": 0.0,
        "solves": args.solves, "x0": 1.0, "values": values}}
    table["elapsed_s"] = time.time() - started
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "reference.json"), "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print(json.dumps({k: table[k] for k in ("pathdep-solve", "markov-large")}
                     ), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
