"""Experiment configuration: a small JSON schema naming a model (from the
registry or from a restricted inline grammar), the grid, the sampling
budget, the engine, the initial path, and the checks to run.

Any key that load_config, model_from_spec or CHECK_KEYS does not list, a
section that is neither an object nor null, a value that its type does not
take or that lies below its least value (errors._typed, whose numbers are
finite reals: the grid, mc, engine option, grammar and check values and the
rows of initial_path.values; each least value is one _LEAST entry), and a
config whose regression solves or quadrature trees the solver's budgets
would refuse raise ConfigError before the headline solve.  load_config
builds each check's call with the one function that knows what the check
reads, _bind: it refuses every other value the check would refuse after
the headline solve, or score as a pass with nothing to score, then binds
the call.

The inline model grammar and its builder, models.model_from_spec, live
with the registry in models.py, whose entries are specs of that grammar.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetError, ConfigError, _only_keys, _typed
from .models import (Model, ModelRegistryEntry, get_entry, model_from_spec,
                     shifted_model)
from .paths import Path, make_grid
from .reports import CheckReport
from .simulation import _simulate, stream_seed
from .solver import min_scenarios, tree_step
from .verification import (MOMENT_SCENARIOS, NODE_COUNTS, comparison_check,
                           discretization_convergence_check,
                           field_from_closed_form, field_from_engine, flow_check,
                           moment_envelope_score, moment_probes,
                           regularity_check, spde_residual_check,
                           z_growth_check, z_representation_check)

_ENGINES = ("regression", "nested")
_ENGINE_OPTIONS = ("n_outer", "branching", "picard_iters")
# each check and the keys its spec takes, with the type each is read as; a
# list is (entry type,); _bind checks the values and builds the check's call
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
# each config number's least value, which _read holds a number or each list entry to;
# shifted_model dominates only with nonnegative shifts, and moments holds out 1 of 3 probes
_LEAST = {"grid.N": 2, "mc.n_scenarios": 1, "engine_options.n_outer": 1,
          "engine_options.branching": 2, "engine_options.picard_iters": 1,
          "z_representation.n_sub": 1, "flow.n_resolve": 1, "field_equation.n_paths": 1,
          "comparison.shift_phi": 0, "comparison.shift_f": 0, "discretization.node_counts": 1,
          "regularity.n_probes": 10, "moments.n_probes": 3, "moments.p": 2}
# the checks whose call scores the headline (solution, ensemble)
HEADLINE_CHECKS = ("closed_form", "z_growth", "z_representation")


@dataclass
class ExperimentConfig:
    entry: ModelRegistryEntry    # an inline spec's has no closed forms
    n_scenarios: int
    seed: int
    engine: str
    engine_options: dict
    initial: Path
    checks: dict                 # each check's call, headline -> [CheckReport]
    raw: dict

    @property
    def model(self) -> Model:
        return self.entry.model

    @property
    def grid_times(self) -> np.ndarray:
        return self.initial.grid_times

    def options(self, *keys) -> dict:
        """The engine options among keys that the config sets."""
        return {key: v for key, v in self.engine_options.items() if key in keys}


# -- each check's call --------------------------------------------------


def _check_seed(base_seed: int, name: str) -> int:
    return stream_seed(base_seed, zlib.crc32(name.encode()))


def _read(key: str, value, kind):
    return _typed(key, value, kind, _LEAST.get(key))


def _floor(cfg: ExperimentConfig, key: str, n: int) -> None:
    """ConfigError unless n clears the floor of solver.min_scenarios."""
    floor = min_scenarios(cfg.model)
    if n < floor:
        raise ConfigError(f"{key} is {n}, but the regression design of model "
                          f"{cfg.model.name!r} needs at least {floor} scenarios")


def _tree(cfg: ExperimentConfig, what: str, depth: int) -> None:
    """ConfigError for a tree depth steps deep over solver.tree_step's budget."""
    try:
        tree_step(cfg.model.dims[0], depth, **cfg.options("branching"))
    except BudgetError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _candidate_field(cfg: ExperimentConfig, what: str, depth: int):
    """The field the checks read: the registry closed form when the model
    has one and no g (with g the closed forms give E_B u, not the random
    field), otherwise the nested engine's, whose trees are depth steps deep."""
    if cfg.entry.closed_form_u is not None and cfg.model.g is None:
        return field_from_closed_form(cfg.entry)
    _tree(cfg, what, depth)
    return field_from_engine(
        cfg.model, engine="nested",
        n_scenarios=cfg.engine_options.get("n_outer", 8),
        seed=cfg.seed, **cfg.options("branching", "picard_iters"))


def _closed_form_report(cfg: ExperimentConfig, sol, tol_rel=0.02) -> CheckReport:
    """The headline estimate against the registry closed form."""
    target = np.asarray(cfg.entry.closed_form_u(cfg.initial), dtype=np.float64)
    err = np.abs(sol.u_estimate - target)
    rel = float(np.max(err / (1.0 + np.abs(target))))
    zsc = float(np.max(err / (3.0 * sol.u_stderr + 1e-12)))
    return CheckReport.make(
        "closed_form", max(rel / tol_rel, zsc), 1.0, sol.n_samples,
        details=[f"estimate {sol.u_estimate.tolist()} vs closed form "
                 f"{target.tolist()} (rel {rel:.4g}, z/3 {zsc:.3g})"],
        samples=[("estimate", float(sol.u_estimate[0])),
                 ("closed_form", float(target[0])),
                 ("stderr", float(sol.u_stderr[0]))])


def _bind(cfg: ExperimentConfig, name: str, spec: dict):
    """Check name's call, headline -> [CheckReport], once every value it
    reads is checked: ConfigError for each value the check would refuse
    only after the headline solve.  Only the keys the spec sets are passed,
    so a key left out takes the check function's default or, for the keys
    that only the call reads, the one written here.  The call derives the
    check's seed when it runs."""
    model, initial, n = cfg.model, cfg.initial, cfg.n_scenarios
    steps = len(cfg.grid_times) - 1 - initial.t_index
    seed = lambda: _check_seed(cfg.seed, name)
    if steps == 0 and name in ("z_growth", "z_representation", "field_equation",
                               "discretization"):
        raise ConfigError(f"{name} reads the grid steps after the initial path, "
                          f"but it ends at the horizon {initial.horizon:g}")

    if name == "closed_form":
        if cfg.entry.closed_form_u is None:
            raise ConfigError(f"model {model.name!r} has no closed form to check against")
        if spec.get("tol_rel", 1.0) <= 0:
            raise ConfigError(f"closed_form.tol_rel must be positive, got {spec['tol_rel']}")
        return lambda headline: [_closed_form_report(cfg, headline[0], **spec)]

    if name in ("z_growth", "z_representation") and cfg.engine == "nested":
        raise ConfigError("z_growth and z_representation need the regression engine")
    if name == "z_growth":
        return lambda headline: [z_growth_check(*headline, **spec)]
    if name == "z_representation":
        u = None if cfg.entry.closed_form_Z is not None else _candidate_field(
            cfg, "the candidate field", steps)
        return lambda headline: [z_representation_check(
            model, *headline, z_reference=cfg.entry.closed_form_Z, u=u, **spec)]

    if name == "flow":
        try:
            s_idx = initial.time_to_index(float(spec.get("s")))
        except (TypeError, ValueError, OverflowError):
            s_idx = None
        if s_idx is None or not initial.t_index < s_idx < len(cfg.grid_times) - 1:
            raise ConfigError(
                "flow.s must be a grid time strictly between the initial time "
                f"{initial.current_time:g} and the horizon {initial.horizon:g}, "
                f"got {spec.get('s')!r}")
        _floor(cfg, "mc.n_scenarios", n)
        return lambda _: [flow_check(model, initial, n_scenarios=n, seed=seed(), **spec)]

    if name == "field_equation":
        u = _candidate_field(cfg, "the candidate field", steps)
        return lambda _: [spde_residual_check(
            u, model, _simulate(model, initial, spec.get("n_paths", 10), seed()),
            tol=spec.get("tol", 0.05))]

    if name == "comparison":
        _floor(cfg, "mc.n_scenarios", n)
        upper = shifted_model(model, **{"shift_phi": 0.1, **spec})
        return lambda _: [comparison_check(upper, model, initial, n_scenarios=n,
                                           seed=seed())]

    if name == "discretization":
        counts = spec.get("node_counts", NODE_COUNTS)
        bad = [c for c in counts if steps % c]
        if bad:
            raise ConfigError(f"discretization.node_counts {bad} do not divide the "
                              f"{steps} grid steps left after the initial path")
        if len(counts) < (1 if spec.get("noise_only") else 2):
            raise ConfigError("discretization.node_counts needs two counts to "
                              f"compare, or one with noise_only, got {list(counts)}")
        _floor(cfg, "mc.n_scenarios", n)
        return lambda _: [discretization_convergence_check(
            model, initial, n_scenarios=n, seed=seed(), **spec)]

    spec = dict(spec)
    if name == "regularity":
        growth_q = spec.pop("q", model.growth_m + 1.0)
        # the probes start at any time, so their trees are N deep
        u = _candidate_field(cfg, "the candidate field of the regularity probes",
                             len(cfg.grid_times) - 1)
        return lambda _: [regularity_check(u, cfg.grid_times, model.dims[0],
                                           growth_q=growth_q, seed=seed(), **spec)]

    orders = spec.pop("p", (2.0, 4.0))      # moments
    if not orders or len(set(orders)) < len(orders):
        raise ConfigError(f"moments.p needs one or more orders, none twice, got {list(orders)}")
    _floor(cfg, "moments.n_scenarios", spec.get("n_scenarios", MOMENT_SCENARIOS))

    def moments(_):
        probes = moment_probes(model, cfg.grid_times, seed=seed(), **spec)
        return [moment_envelope_score(probes, p=p) for p in orders]

    return moments


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
    T, N = _read("grid.T", grid_spec["T"], float), _read("grid.N", grid_spec["N"], int)
    if T <= 0:
        raise ConfigError(f"grid.T must be positive, got {T}")

    model_spec = raw.get("model")
    if isinstance(model_spec, str):
        entry = get_entry(model_spec)
    elif isinstance(model_spec, dict):
        model = model_from_spec(model_spec)
        entry = ModelRegistryEntry(model.name, model)
    else:
        raise ConfigError("config needs a model name or an inline model spec")

    mc = _only_keys("mc", raw.get("mc"), ("seed", "n_scenarios"))
    if "seed" not in mc:
        raise ConfigError("mc.seed is required for reproducibility")
    seed = (_read("mc.seed", mc["seed"], int) if seed_override is None
            else int(seed_override))
    engine = raw.get("engine", "regression")
    if engine not in _ENGINES:
        raise ConfigError(f"engine must be one of {_ENGINES}, got {engine!r}")
    options = {key: _read(f"engine_options.{key}", v, int) for key, v in _only_keys(
        "engine_options", raw.get("engine_options"), _ENGINE_OPTIONS).items()}
    n_scenarios = _read("mc.n_scenarios", mc.get(
        "n_scenarios", 10_000 if engine == "regression" else 32), int)

    grid = make_grid(T, N)
    init_spec = _only_keys("initial_path", raw.get("initial_path"),
                           ("file", "values"))
    d = entry.model.dims[0]
    if "file" in init_spec:
        # a header line, then one row per grid time from 0: time, x_1..x_d,
        # every cell a finite number
        where = f"initial_path.file {init_spec['file']}"
        try:
            rows = np.loadtxt(init_spec["file"], delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if not np.isfinite(rows).all():
            raise ConfigError(f"{where} must hold finite numbers, got "
                              f"{rows[~np.isfinite(rows)][0]}")
        if not 1 <= rows.shape[0] <= N + 1 or not np.allclose(
                rows[:, 0], grid[: rows.shape[0]], rtol=0.0, atol=1e-9 * T / N):
            raise ConfigError(f"the times in {init_spec['file']} are not the "
                              f"grid times 0, {T / N:g}, ... of grid.N = {N}")
        values = rows[:, 1:]
    else:
        where = "initial_path.values"
        values = _read(where, init_spec.get("values", [[0.0] * d]), ((float,),))
    if not 1 <= len(values) <= N + 1 or any(len(row) != d for row in values):
        raise ConfigError(f"{where} must hold 1 to grid.N + 1 = {N + 1} rows of the "
                          f"model's d = {d} values, got rows of {[len(r) for r in values]}")
    initial = Path(grid, np.array(values))

    specs = {}
    for cname, spec in _only_keys("checks", raw.get("checks"), CHECK_KEYS).items():
        types = CHECK_KEYS[cname]
        specs[cname] = {key: _read(f"{cname}.{key}", v, types[key]) for key, v
                        in _only_keys(f"check {cname!r}", spec, types).items()}
    cfg = ExperimentConfig(
        entry=entry, n_scenarios=n_scenarios, seed=seed, engine=engine,
        engine_options=options, initial=initial, checks={}, raw=raw)
    # the headline solve's own budget; each check's call checks its own
    if engine == "regression":
        _floor(cfg, "mc.n_scenarios", n_scenarios)
    else:
        _tree(cfg, "the nested headline", N - initial.t_index)
    cfg.checks.update((name, _bind(cfg, name, spec)) for name, spec in specs.items())
    return cfg
