"""Experiment configuration: a small JSON schema naming a model (from the
registry or from a restricted inline grammar), the grid, the sampling
budget, the engine, the initial path, and the checks to run.

Any key that load_config, model_from_spec or CHECK_KEYS does not list, and
a section that is neither an object nor null, raises ConfigError before
the headline solve.

The inline model grammar and its builder, models.model_from_spec, live
with the registry in models.py, whose entries are specs of that grammar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, _only_keys
from .models import Model, get_entry, model_from_spec
from .paths import Path, make_grid
from .solver import RegressionBasis
from .verification import NODE_COUNTS

_ENGINES = ("regression", "nested")
# the engine options and the least value of each
_ENGINE_OPTIONS = {"n_outer": 1, "branching": 2, "picard_iters": 1}
# each check and the keys its spec takes, with the type each is read as
CHECK_KEYS = {
    "closed_form": {"tol_rel": float},
    "z_representation": {"n_sub": int, "tol": float},
    "z_growth": {"q": float},
    "flow": {"s": float, "n_resolve": int},
    "field_equation": {"n_paths": int, "tol": float},
    "comparison": {"shift_phi": float, "shift_f": float},
    "discretization": {"node_counts": tuple, "noise_only": bool},
    "regularity": {"q": float, "n_probes": int},
    "moments": {"n_probes": int, "n_scenarios": int, "p": tuple},
}


@dataclass
class ExperimentConfig:
    model_name: str
    model: Model
    closed_form_u: Optional[callable]
    closed_form_Z: Optional[callable]
    n_scenarios: int
    seed: int
    engine: str
    engine_options: dict
    initial: Path
    basis: Optional[RegressionBasis]
    checks: dict
    raw: dict

    @property
    def grid_times(self) -> np.ndarray:
        return self.initial.grid_times


def _check_restart_and_nodes(checks: dict, initial: Path) -> None:
    """Reject, before any solve, a flow restart time and discretization
    node counts that the checks would refuse only after the headline solve:
    flow.s must be a grid time strictly between the initial time and the
    horizon, and every node count must divide the grid steps left after
    the initial path."""
    N = len(initial.grid_times) - 1
    if "flow" in checks:
        s = (checks["flow"] or {}).get("s")
        try:
            s_idx = initial.time_to_index(float(s))
        except (TypeError, ValueError, OverflowError):
            s_idx = None
        if s_idx is None or not initial.t_index < s_idx < N:
            raise ConfigError(
                "flow.s must be a grid time strictly between the initial time "
                f"{initial.current_time:g} and the horizon {initial.horizon:g}, "
                f"got {s!r}")
    if "discretization" in checks:
        counts = (checks["discretization"] or {}).get("node_counts", NODE_COUNTS)
        remaining = N - initial.t_index
        bad = [n for n in counts
               if type(n) is not int or n < 1 or remaining % n]
        if bad:
            raise ConfigError(
                f"discretization.node_counts {bad} do not divide the {remaining} "
                "grid steps left after the initial path")


def load_config(source, seed_override: Optional[int] = None) -> ExperimentConfig:
    """Parse and validate a configuration from a JSON string, dict, or file
    path; seed_override (e.g. from the environment) replaces the configured
    seed."""
    if isinstance(source, dict):
        raw = source
    else:
        text = source
        if "\n" not in str(source) and str(source).endswith(".json"):
            with open(source) as fh:
                text = fh.read()
        raw = json.loads(text)

    raw = _only_keys("config", raw, ("model", "grid", "mc", "engine",
                                     "engine_options", "initial_path",
                                     "checks", "output_dir"))
    grid_spec = _only_keys("grid", raw.get("grid"), ("T", "N"))
    if "T" not in grid_spec or "N" not in grid_spec:
        raise ConfigError("config needs grid.T and grid.N")
    T = float(grid_spec["T"])
    N = int(grid_spec["N"])
    if N < 2:
        raise ConfigError(f"grid.N must be at least 2, got {N}")
    if T <= 0:
        raise ConfigError(f"grid.T must be positive, got {T}")

    model_spec = raw.get("model")
    closed_u = closed_Z = None
    if isinstance(model_spec, str):
        entry = get_entry(model_spec)
        model = entry.model
        closed_u, closed_Z = entry.closed_form_u, entry.closed_form_Z
    elif isinstance(model_spec, dict):
        model = model_from_spec(model_spec)
    else:
        raise ConfigError("config needs a model name or an inline model spec")

    mc = _only_keys("mc", raw.get("mc"), ("seed", "n_scenarios"))
    if "seed" not in mc:
        raise ConfigError("mc.seed is required for reproducibility")
    seed = int(mc["seed"]) if seed_override is None else int(seed_override)
    engine = raw.get("engine", "regression")
    if engine not in _ENGINES:
        raise ConfigError(f"engine must be one of {_ENGINES}, got {engine!r}")
    options = _only_keys("engine_options", raw.get("engine_options"),
                         _ENGINE_OPTIONS)
    if not all(type(v) is int and v >= _ENGINE_OPTIONS[key]
               for key, v in options.items()):
        raise ConfigError("engine_options takes the integers n_outer >= 1, "
                          f"branching >= 2 and picard_iters >= 1, got {options!r}")
    n_scenarios = int(mc.get("n_scenarios", 10_000 if engine == "regression" else 32))
    if engine == "regression" and n_scenarios < 100:
        raise ConfigError(
            f"the regression engine needs at least 100 scenarios, got {n_scenarios}"
        )

    grid = make_grid(T, N)
    init_spec = _only_keys("initial_path", raw.get("initial_path"),
                           ("file", "values"))
    if not init_spec:
        initial = Path(grid, np.zeros((1, model.dims[0])))
    elif "file" in init_spec:
        # a header line, then one row per grid time from 0: time, x_1..x_d
        rows = np.loadtxt(init_spec["file"], delimiter=",", skiprows=1, ndmin=2)
        if not 1 <= rows.shape[0] <= N + 1 or not np.allclose(
                rows[:, 0], grid[: rows.shape[0]], rtol=0.0, atol=1e-9 * T / N):
            raise ConfigError(f"the times in {init_spec['file']} are not the "
                              f"grid times 0, {T / N:g}, ... of grid.N = {N}")
        initial = Path(grid, rows[:, 1:])
    else:
        vals = np.asarray(init_spec["values"], dtype=np.float64)
        initial = Path(grid, vals)

    basis = None
    if not model.markovian_flag:
        basis = RegressionBasis(feature_set="endpoint+runmax+runint")

    checks = _only_keys("checks", raw.get("checks"), CHECK_KEYS)
    for cname, spec in checks.items():
        _only_keys(f"check {cname!r}", spec, CHECK_KEYS[cname])
    if "closed_form" in checks and closed_u is None:
        raise ConfigError(f"model {model.name!r} has no closed form to check against")
    _check_restart_and_nodes(checks, initial)

    return ExperimentConfig(
        model_name=model.name,
        model=model,
        closed_form_u=closed_u,
        closed_form_Z=closed_Z,
        n_scenarios=n_scenarios,
        seed=seed,
        engine=engine,
        engine_options=dict(options),
        initial=initial,
        basis=basis,
        checks=checks,
        raw=raw,
    )
