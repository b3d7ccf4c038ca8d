"""Experiment configuration: a small JSON schema naming a model (from the
registry or from a restricted inline grammar), the grid, the sampling
budget, the engine, the initial path, and the checks to run.

Any key that load_config, model_from_spec or CHECK_KEYS does not list, a
section that is neither an object nor null, a check value that its
CHECK_KEYS type does not take, and a config whose regression solves or
quadrature trees the solver's budgets would refuse raise ConfigError
before the headline solve.

The inline model grammar and its builder, models.model_from_spec, live
with the registry in models.py, whose entries are specs of that grammar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetError, ConfigError, _only_keys
from .models import Model, get_entry, model_from_spec
from .paths import Path, make_grid
from .solver import min_scenarios, tree_step
from .verification import MOMENT_SCENARIOS, NODE_COUNTS

_ENGINES = ("regression", "nested")
# the engine options and the least value of each
_ENGINE_OPTIONS = {"n_outer": 1, "branching": 2, "picard_iters": 1}
# each check and the keys its spec takes, with the type each is read as; a
# list is (entry type,)
CHECK_KEYS = {
    "closed_form": {"tol_rel": float},
    "z_representation": {"n_sub": int, "tol": float},
    "z_growth": {"q": float},
    "flow": {"s": float, "n_resolve": int},
    "field_equation": {"n_paths": int, "tol": float},
    "comparison": {"shift_phi": float, "shift_f": float},
    "discretization": {"node_counts": (int,), "noise_only": bool},
    "regularity": {"q": float, "n_probes": int},
    "moments": {"n_probes": int, "n_scenarios": int, "p": (float,)},
}
# what each CHECK_KEYS type takes: a bool is no number, a float no integer
_TAKES = {bool: ("true or false", lambda v: type(v) is bool),
          int: ("an integer", lambda v: type(v) is int),
          float: ("a number", lambda v: type(v) in (int, float))}
# the checks whose regression solves run on mc.n_scenarios scenarios
_SIZED_CHECKS = {"flow", "comparison", "discretization"}


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
    checks: dict                 # each check's spec, typed
    raw: dict

    @property
    def grid_times(self) -> np.ndarray:
        return self.initial.grid_times

    @property
    def nested_field(self) -> bool:
        """Whether the checks' candidate field is the nested engine's: with g
        the closed forms give E_B u, not the random field the checks read."""
        return self.closed_form_u is None or self.model.g is not None

    def options(self, *keys) -> dict:
        """The engine options among keys that the config sets."""
        return {key: v for key, v in self.engine_options.items() if key in keys}


def _typed(where: str, value, kind):
    """value read as kind, a CHECK_KEYS type, or ConfigError naming where."""
    if isinstance(kind, tuple):
        if type(value) is not list:
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return tuple(_typed(f"{where} entry", v, kind[0]) for v in value)
    name, takes = _TAKES[kind]
    if not takes(value):
        raise ConfigError(f"{where} must be {name}, got {value!r}")
    return kind(value)


def _check_specs(checks: dict, initial: Path) -> None:
    """Reject, before any solve, typed check values that the checks would
    refuse only after the headline solve: flow.s must be a grid time
    strictly between the initial time and the horizon, every node count
    must divide the grid steps left after the initial path, and every
    moment order must be at least 2."""
    N = len(initial.grid_times) - 1
    if "flow" in checks:
        s = checks["flow"].get("s")
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
        counts = checks["discretization"].get("node_counts", NODE_COUNTS)
        remaining = N - initial.t_index
        bad = [n for n in counts if n < 1 or remaining % n]
        if bad:
            raise ConfigError(
                f"discretization.node_counts {bad} do not divide the {remaining} "
                "grid steps left after the initial path")
    orders = checks.get("moments", {}).get("p", ())
    if any(p < 2 for p in orders):
        raise ConfigError(f"moments.p orders must be at least 2, got {list(orders)}")


def _check_trees(cfg: ExperimentConfig) -> None:
    """Reject, before any solve, a tree over solver.tree_step's budget: the
    nested headline's, N - t_index deep, and a nested candidate field's, as
    deep for field_equation and for z_representation without a closed-form
    Z, and N deep for the regularity probes, which start at any time."""
    N, t = len(cfg.grid_times) - 1, cfg.initial.t_index
    trees = {"the nested headline": N - t} if cfg.engine == "nested" else {}
    if cfg.nested_field:
        if "field_equation" in cfg.checks or (
                "z_representation" in cfg.checks and cfg.closed_form_Z is None):
            trees["the candidate field"] = N - t
        if "regularity" in cfg.checks:
            trees["the candidate field of the regularity probes"] = N
    for what, depth in trees.items():
        try:
            tree_step(cfg.model.dims[0], depth, **cfg.options("branching"))
        except BudgetError as exc:
            raise ConfigError(f"{what}: {exc}") from None


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

    checks = {}
    for cname, spec in _only_keys("checks", raw.get("checks"), CHECK_KEYS).items():
        types = CHECK_KEYS[cname]
        checks[cname] = {key: _typed(f"{cname}.{key}", v, types[key]) for key, v
                         in _only_keys(f"check {cname!r}", spec, types).items()}
    if "closed_form" in checks and closed_u is None:
        raise ConfigError(f"model {model.name!r} has no closed form to check against")
    if engine == "nested" and checks.keys() & {"z_growth", "z_representation"}:
        raise ConfigError("z_growth and z_representation need the regression engine")
    _check_specs(checks, initial)
    # every regression solve must clear its design's floor (solver.min_scenarios)
    floor = min_scenarios(model)
    moment_n = checks.get("moments", {}).get("n_scenarios", MOMENT_SCENARIOS)
    for key, n, read in (
            ("mc.n_scenarios", n_scenarios,
             engine == "regression" or bool(checks.keys() & _SIZED_CHECKS)),
            ("moments.n_scenarios", moment_n, "moments" in checks)):
        if read and n < floor:
            raise ConfigError(f"{key} is {n}, but the regression design of model "
                              f"{model.name!r} needs at least {floor} scenarios")

    cfg = ExperimentConfig(
        model_name=model.name,
        model=model,
        closed_form_u=closed_u,
        closed_form_Z=closed_Z,
        n_scenarios=n_scenarios,
        seed=seed,
        engine=engine,
        engine_options=dict(options),
        initial=initial,
        checks=checks,
        raw=raw,
    )
    _check_trees(cfg)
    return cfg
