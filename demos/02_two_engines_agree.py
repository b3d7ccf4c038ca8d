"""The regression engine (many random scenarios, projected conditional
expectations) and the nested engine (a deterministic quadrature tree per
frozen second driver) approximate the same backward pair.

At desk scale (N=4 steps, Gauss-Hermite branching 8) the two estimates
agree within Monte Carlo noise on every registry model.
"""

import numpy as np

from pathfk import (Path, make_grid, registry, sample_drivers,
                    simulate_forward, solve_nested, solve_regression)

T, N = 1.0, 4
grid = make_grid(T, N)
init = Path(grid, np.zeros((1, 1)))

print(f"{'model':<12} {'regression':>12} {'nested':>12} {'gap/3se':>8}")
for entry in registry():
    m = entry.model
    ens = simulate_forward(m, init, sample_drivers(grid, 10_000, 1))
    sol_r = solve_regression(m, ens)
    sol_n = solve_nested(m, init, n_outer=200, seed=2, branching=8)
    gap = abs(sol_r.u_estimate[0] - sol_n.u_estimate[0])
    budget = 3.0 * np.sqrt(sol_r.u_stderr[0] ** 2 + sol_n.u_stderr[0] ** 2)
    print(f"{m.name:<12} {sol_r.u_estimate[0]:>12.4f} "
          f"{sol_n.u_estimate[0]:>12.4f} {gap / max(budget, 1e-12):>8.2f}")
