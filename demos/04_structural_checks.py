"""Structural identities of the field, verified statistically.

Three of the package's checks in one pass: restarting the solve from a
realized path prefix reproduces the original midpoint values (flow),
ordered data give ordered fields (comparison), and freezing path-dependent
coefficients at ever more nodes converges to the unfrozen field
(discretization).
"""

import numpy as np

from pathfk import (Path, comparison_check, discretization_convergence_check,
                    flow_check, get_model, make_grid, shifted_model)

grid = make_grid(1.0, 16)
init = Path(grid, np.zeros((1, 1)))

print("flow: re-solve from 20 realized midpoints (statistic <= 1 passes)")
for name in ("heat", "path-f"):
    rep = flow_check(get_model(name), init, s=0.5, n_scenarios=10_000,
                     n_resolve=20, seed=0)
    print(" ", rep.one_line())

print("\ncomparison: terminal data shifted up by 1 must raise the field")
base = get_model("heat")
rep = comparison_check(shifted_model(base, shift_phi=1.0), base, init,
                       n_scenarios=10_000, seed=1, n_initials=5)
print(" ", rep.one_line())

print("\ndiscretization: node-frozen running-max driver, 2 to 16 nodes")
rep = discretization_convergence_check(get_model("path-f"), init,
                                       node_counts=(2, 4, 8, 16),
                                       n_scenarios=10_000, seed=2)
for line in rep.details:
    print(" ", line)
print(" ", rep.one_line())
