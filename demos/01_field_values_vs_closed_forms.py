"""Estimate the path field u at the tip of a stopped path and compare it
against the two closed-form references.

The field is u(path) = Y(t), the time-t value of the backward pair started
from that path; the regression engine estimates it from a scenario ensemble
that continues the path forward.
"""

import numpy as np

from pathfk import (Path, get_entry, make_grid, sample_drivers,
                    simulate_forward, solve_regression)

T, N, N_SCEN = 1.0, 16, 10_000
grid = make_grid(T, N)

for name in ("heat", "asian"):
    entry = get_entry(name)
    print(f"\n-- {name}: {entry.notes}")
    for t_index in (0, 4, 8):
        # a stopped path: here simply held at 1.0 up to time t
        init = Path(grid, np.ones((t_index + 1, 1)))
        drivers = sample_drivers(grid, N_SCEN, seed=t_index)
        ens = simulate_forward(entry.model, init, drivers)
        sol = solve_regression(entry.model, ens)
        target = entry.closed_form_u(init)[0]
        print(f"  t={grid[t_index]:.2f}: estimate {sol.u_estimate[0]:+.4f} "
              f"+/- {sol.u_stderr[0]:.4f}, closed form {target:+.4f}")
