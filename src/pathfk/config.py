"""Experiment configuration: a small JSON schema naming a model (from the
registry or from a restricted inline grammar), the grid, the sampling
budget, the engine, the initial path, and the checks to run.

Inline model grammar (all optional, defaults are zero drift / unit
diffusion / zero drivers):

    "model": {
      "name":  "custom",
      "b":     {"const": v} | {"affine": {"intercept": a, "slope": c}},
      "sigma": {"const": v} | {"affine": {"intercept": a, "slope": c}},
      "Phi":   {"kind": "endpoint" | "endpoint_square" | "endpoint_sin"
                        | "running_integral", "shift": s},
      "f":     {"kind": "zero" | "linear" | "cos_y_plus_half_z"
                        | "runmax_minus_y",
                "coef_y": a, "coef_z": b, "const": c, "shift": s},
      "g":     {"kind": "zero" | "linear_y" | "linear_z", "coef": c},
      "lip_C": C, "growth_m": m, "alpha": a
    }

Affine coefficients read the current endpoint, so the grammar stays within
Lipschitz territory by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import Model, get_entry
from .paths import Path, make_grid
from .solver import RegressionBasis

_ENGINES = ("regression", "nested")
_KNOWN_CHECKS = (
    "closed_form", "z_representation", "z_growth", "flow", "field_equation",
    "comparison", "discretization", "regularity", "moments",
)


class ConfigError(ValueError):
    pass


def _affine_coeff(spec, default_const):
    if spec is None:
        return float(default_const), 0.0
    if "const" in spec:
        return float(spec["const"]), 0.0
    if "affine" in spec:
        return (float(spec["affine"].get("intercept", 0.0)),
                float(spec["affine"].get("slope", 0.0)))
    raise ConfigError(f"coefficient spec must be 'const' or 'affine', got {spec}")


def _build_inline_model(spec: dict) -> Model:
    name = spec.get("name", "custom")
    b0, b1 = _affine_coeff(spec.get("b"), 0.0)
    s0, s1 = _affine_coeff(spec.get("sigma"), 1.0)

    phi_spec = spec.get("Phi", {"kind": "endpoint"})
    phi_kind = phi_spec.get("kind", "endpoint")
    shift = float(phi_spec.get("shift", 0.0))
    if phi_kind == "endpoint":
        Phi = lambda x, dt: x[:, -1, :1] + shift
    elif phi_kind == "endpoint_square":
        Phi = lambda x, dt: x[:, -1, :1] ** 2 + shift
    elif phi_kind == "endpoint_sin":
        Phi = lambda x, dt: np.sin(x[:, -1, :1]) + shift
    elif phi_kind == "running_integral":
        Phi = lambda x, dt: x[:, :-1, :1].sum(axis=1) * dt + shift
    else:
        raise ConfigError(f"unknown terminal kind {phi_kind!r}")

    f_spec = spec.get("f", {"kind": "zero"})
    f_kind = f_spec.get("kind", "zero")
    if f_kind == "zero":
        f = None
    elif f_kind == "linear":
        ay = float(f_spec.get("coef_y", 0.0))
        az = float(f_spec.get("coef_z", 0.0))
        c0 = float(f_spec.get("const", 0.0))
        f = lambda x, y, z: c0 + ay * y + az * z[:, :, 0]
    elif f_kind == "cos_y_plus_half_z":
        fs = float(f_spec.get("shift", 0.0))
        f = lambda x, y, z: fs + np.cos(y) + z[:, :, 0] / 2.0
    elif f_kind == "runmax_minus_y":
        fs = float(f_spec.get("shift", 0.0))
        f = lambda x, y, z: fs + x[:, :, :1].max(axis=1) - y
    else:
        raise ConfigError(f"unknown time-driver kind {f_kind!r}")

    g_spec = spec.get("g", {"kind": "zero"})
    g_kind = g_spec.get("kind", "zero")
    coef = float(g_spec.get("coef", 0.0))
    if g_kind == "zero":
        g = None
    elif g_kind == "linear_y":
        g = lambda x, y, z: coef * y[:, :, None]
    elif g_kind == "linear_z":
        if not abs(coef) < 1.0:
            raise ConfigError(
                f"a z-linear backward driver needs |coef| < 1, got {coef}"
            )
        g = lambda x, y, z: coef * z[:, :, :1]
    else:
        raise ConfigError(f"unknown backward-driver kind {g_kind!r}")

    return Model(
        b=lambda x: b0 + b1 * x[:, -1, :],
        sigma=lambda x: (s0 + s1 * x[:, -1, :1])[:, :, None],
        Phi=Phi, f=f, g=g,
        lip_C=float(spec.get("lip_C", max(2.0, abs(b1) + abs(s1)))),
        growth_m=float(spec.get("growth_m", 1.0)),
        alpha=float(spec.get("alpha", max(abs(coef), 0.5) if g_kind == "linear_z" else 0.5)),
        dims=(1, 1, 1),
        name=name,
        markovian_flag=f_kind != "runmax_minus_y" and phi_kind != "running_integral",
    )


@dataclass
class ExperimentConfig:
    model_name: str
    model: Model
    closed_form_u: Optional[callable]
    closed_form_Z: Optional[callable]
    T: float
    N: int
    n_scenarios: int
    seed: int
    engine: str
    engine_options: dict
    initial: Path
    basis: Optional[RegressionBasis]
    checks: dict
    output_dir: str
    raw: dict

    @property
    def grid_times(self) -> np.ndarray:
        return self.initial.grid_times


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

    grid_spec = raw.get("grid")
    if not grid_spec or "T" not in grid_spec or "N" not in grid_spec:
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
        model, model_name = entry.model, entry.name
        closed_u, closed_Z = entry.closed_form_u, entry.closed_form_Z
    elif isinstance(model_spec, dict):
        model = _build_inline_model(model_spec)
        model_name = model.name
    else:
        raise ConfigError("config needs a model name or an inline model spec")

    mc = raw.get("mc", {})
    if "seed" not in mc:
        raise ConfigError("mc.seed is required for reproducibility")
    seed = int(mc["seed"]) if seed_override is None else int(seed_override)
    engine = raw.get("engine", "regression")
    if engine not in _ENGINES:
        raise ConfigError(f"engine must be one of {_ENGINES}, got {engine!r}")
    n_scenarios = int(mc.get("n_scenarios", 10_000 if engine == "regression" else 32))
    if engine == "regression" and n_scenarios < 100:
        raise ConfigError(
            f"the regression engine needs at least 100 scenarios, got {n_scenarios}"
        )

    grid = make_grid(T, N)
    init_spec = raw.get("initial_path")
    if init_spec is None:
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

    basis_spec = raw.get("basis")
    basis = None
    if basis_spec is not None:
        degree = basis_spec.get("degree", 2)
        future_noise = basis_spec.get("include_future_noise")
        if type(degree) is not int or type(future_noise) not in (bool, type(None)):
            raise ConfigError("basis.degree must be an integer and basis."
                              "include_future_noise true, false or null, got "
                              f"{degree!r} and {future_noise!r}")
        basis = RegressionBasis(
            feature_set=basis_spec.get("feature_set", "endpoint"),
            degree=degree,
            include_future_noise=future_noise,
        )
    elif not model.markovian_flag:
        basis = RegressionBasis(feature_set="endpoint+runmax+runint")

    checks = raw.get("checks", {})
    for cname in checks:
        if cname not in _KNOWN_CHECKS:
            raise ConfigError(
                f"unknown check {cname!r}; known checks: {_KNOWN_CHECKS}"
            )
    if "closed_form" in checks and closed_u is None:
        raise ConfigError(f"model {model_name!r} has no closed form to check against")

    return ExperimentConfig(
        model_name=model_name,
        model=model,
        closed_form_u=closed_u,
        closed_form_Z=closed_Z,
        T=T, N=N,
        n_scenarios=n_scenarios,
        seed=seed,
        engine=engine,
        engine_options=dict(raw.get("engine_options", {})),
        initial=initial,
        basis=basis,
        checks=checks,
        output_dir=raw.get("output_dir", "pathfk-out"),
        raw=raw,
    )
