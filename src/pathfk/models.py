"""Coefficient bundles with growth/contraction metadata, structural probes,
the inline model grammar, and the registry of its specs used as oracles.

A model carries the forward drift b and diffusion sigma, the terminal
functional Phi, and the two drivers f (time integral) and g (backward
integral).  Each is one callable over a block of stopped histories
x of shape (n, m, d), the value arrays of n paths up to a common time:

    b(x) -> (n, d)                  sigma(x) -> (n, d, d)
    Phi(x, dt) -> (n, k)            on full paths
    f(x, y, z) -> (n, k)            g(x, y, z) -> (n, k, l)

with y of shape (n, k) and z of shape (n, k, d).  f=None or g=None means
the driver is zero; eval_f/eval_g apply that rule.  A single Path is
evaluated as a block of one through on_path.

The simulator and both engines store histories time-major and pass x as a
read-only, possibly non-contiguous view: a coefficient must not write into
x (copy it first).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, _only_keys
from .paths import Path, make_grid, path_dist, sup_norm
from .simulation import random_initial_path


def running_integral(path: Path) -> np.ndarray:
    """Left-endpoint integral of the path over [0, t] (exact for the
    piecewise-constant representation)."""
    if path.t_index == 0:
        return np.zeros(path.dimension)
    return path.values[:-1].sum(axis=0) * path.dt


@dataclass
class Model:
    b: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    Phi: Callable[[np.ndarray, float], np.ndarray]
    lip_C: float
    growth_m: float
    alpha: float
    f: Optional[Callable] = None
    g: Optional[Callable] = None
    dims: tuple = (1, 1, 1)   # (d, k, l)
    markovian_flag: bool = True
    name: str = ""

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"contraction constant must be in (0,1), got {self.alpha}")
        if self.lip_C < 0 or self.growth_m < 0:
            raise ValueError("lip_C and growth_m must be nonnegative")

    def eval_f(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Time driver on a block, (n, k); zero when f is None."""
        if self.f is None:
            return np.zeros((x.shape[0], self.dims[1]))
        return self.f(x, y, z)

    def eval_g(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Backward driver on a block, (n, k, l); zero when g is None."""
        if self.g is None:
            return np.zeros((x.shape[0], *self.dims[1:]))
        return self.g(x, y, z)


def on_path(fn: Callable, path: Path, *args):
    """Evaluate a block coefficient on one path: the path values and every
    array argument gain a leading batch axis, which the result loses;
    scalar arguments (such as dt) pass through."""
    batched = [np.asarray(a)[None] if np.ndim(a) else a for a in args]
    return fn(path.values[None], *batched)[0]


@dataclass
class ModelRegistryEntry:
    name: str
    model: Model
    closed_form_u: Optional[Callable[[Path], np.ndarray]] = None
    closed_form_Z: Optional[Callable[[Path], np.ndarray]] = None
    notes: str = ""


@dataclass
class AssumptionProbe:
    assumption: str
    passed: bool
    witness: str = ""


@dataclass
class ValidationReport:
    probes: list

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.probes)

    def failures(self):
        return [p for p in self.probes if not p.passed]


def _lip_bound(C, m, pa, pb):
    return C * (1.0 + sup_norm(pa) ** m + sup_norm(pb) ** m) * path_dist(pa, pb).sup_component


def validate(model: Model, n_probes: int = 100, seed: int = 0) -> ValidationReport:
    """Sampled falsification of the structural assumptions, on probe paths
    of an 8-step grid on [0, 1].

    Probes are randomized, not exhaustive; a pass means no witness was found,
    a fail carries the witnessing inputs.
    """
    if n_probes < 1:
        raise ValueError("need at least one probe")
    d, k, l = model.dims
    rng = np.random.default_rng(seed)
    grid = make_grid(1.0, 8)
    probes = []

    alpha_ok = 0.0 < model.alpha < 1.0
    probes.append(AssumptionProbe("alpha_in_(0,1)", alpha_ok, f"alpha={model.alpha}"))

    C, m, a = model.lip_C, model.growth_m, model.alpha
    slack = 1e-9
    bad_f = bad_g = bad_bs = bad_gg = None
    for _ in range(n_probes):
        ti = int(rng.integers(1, len(grid)))
        pa = random_initial_path(grid, ti, d, rng)
        pb = random_initial_path(grid, ti, d, rng)
        y1, y2 = rng.normal(size=(2, k))
        z1, z2 = rng.normal(size=(2, k, d))
        base = _lip_bound(C, m, pa, pb)
        lhs_f = np.linalg.norm(on_path(model.eval_f, pa, y1, z1)
                               - on_path(model.eval_f, pb, y2, z2))
        rhs_f = base + C * (np.linalg.norm(y1 - y2) + np.linalg.norm(z1 - z2))
        if lhs_f > rhs_f + slack and bad_f is None:
            bad_f = f"|df|={lhs_f:.4g} > bound {rhs_f:.4g} at t_index={ti}"
        gv = on_path(model.eval_g, pa, y1, z1)
        lhs_g = np.linalg.norm(gv - on_path(model.eval_g, pb, y2, z2))
        rhs_g = base + C * np.linalg.norm(y1 - y2) + a * np.linalg.norm(z1 - z2)
        if lhs_g > rhs_g + slack and bad_g is None:
            bad_g = f"|dg|={lhs_g:.4g} > bound {rhs_g:.4g} at t_index={ti}"
        lhs_bs = (np.linalg.norm(on_path(model.b, pa) - on_path(model.b, pb))
                  + np.linalg.norm(on_path(model.sigma, pa) - on_path(model.sigma, pb)))
        if lhs_bs > base + slack and bad_bs is None:
            bad_bs = f"|db|+|dsigma|={lhs_bs:.4g} > bound {base:.4g}"
        # gg^T <= alpha zz^T + C (|g(.,0,0)|^2 + |y|^2) I, as symmetric matrices
        g00 = on_path(model.eval_g, pa, np.zeros(k), np.zeros((k, d)))
        mat = (gv @ gv.T - a * (z1 @ z1.T)
               - C * (np.sum(g00 ** 2) + np.sum(y1 ** 2)) * np.eye(k))
        if np.max(np.linalg.eigvalsh(mat)) > slack and bad_gg is None:
            bad_gg = f"gg^T bound violated by {np.max(np.linalg.eigvalsh(mat)):.4g}"

    probes.append(AssumptionProbe("f_lipschitz", bad_f is None, bad_f or ""))
    probes.append(AssumptionProbe("g_lipschitz_contraction", bad_g is None, bad_g or ""))
    probes.append(AssumptionProbe("b_sigma_lipschitz", bad_bs is None, bad_bs or ""))
    probes.append(AssumptionProbe("gg_transpose_bound", bad_gg is None, bad_gg or ""))
    return ValidationReport(probes)


# -- inline grammar ------------------------------------------------------

def _affine_coeff(where, spec, default_const):
    if spec is None:
        return float(default_const), 0.0
    if isinstance(spec, dict) and list(spec) == ["const"]:
        return float(spec["const"]), 0.0
    if isinstance(spec, dict) and list(spec) == ["affine"]:
        affine = _only_keys(f"{where}.affine", spec["affine"], ("intercept", "slope"))
        return (float(affine.get("intercept", 0.0)),
                float(affine.get("slope", 0.0)))
    raise ConfigError(f"{where} must be 'const' or 'affine' alone, got {spec!r}")


def model_from_spec(spec: dict) -> Model:
    """A scalar model (d = k = l = 1) from the inline grammar; unset keys
    give zero drift, unit diffusion, zero drivers, growth_m 1, alpha 0.5
    (|coef| if larger for linear_z) and lip_C max(2, |b slope| + |sigma slope|):

        {
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

    Any other key, at the top or in a section, raises ConfigError, as does
    a section that is neither an object nor null.  Affine coefficients read
    the current endpoint, so the model is Lipschitz by construction; a
    constant b or sigma ignores x and stays finite on an overflowed
    scenario.  Running integrals and maxima are non-Markovian.
    """
    spec = _only_keys("model", spec, ("name", "b", "sigma", "Phi", "f", "g",
                                      "lip_C", "growth_m", "alpha"))
    name = spec.get("name", "custom")
    b0, b1 = _affine_coeff("b", spec.get("b"), 0.0)
    s0, s1 = _affine_coeff("sigma", spec.get("sigma"), 1.0)
    b = ((lambda x: b0 + b1 * x[:, -1, :]) if b1
         else lambda x: np.full((x.shape[0], 1), b0))
    sigma = ((lambda x: (s0 + s1 * x[:, -1, :1])[:, :, None]) if s1
             else lambda x: np.broadcast_to(s0 * np.eye(1), (x.shape[0], 1, 1)))

    phi_spec = _only_keys("Phi", spec.get("Phi"), ("kind", "shift"))
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

    f_spec = _only_keys("f", spec.get("f"),
                        ("kind", "coef_y", "coef_z", "const", "shift"))
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

    g_spec = _only_keys("g", spec.get("g"), ("kind", "coef"))
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
        b=b, sigma=sigma, Phi=Phi, f=f, g=g,
        lip_C=float(spec.get("lip_C", max(2.0, abs(b1) + abs(s1)))),
        growth_m=float(spec.get("growth_m", 1.0)),
        alpha=float(spec.get("alpha", max(abs(coef), 0.5) if g_kind == "linear_z" else 0.5)),
        name=name,
        markovian_flag=f_kind != "runmax_minus_y" and phi_kind != "running_integral",
    )


# -- registry ------------------------------------------------------------

def registry() -> list[ModelRegistryEntry]:
    """Reference models, each an inline-grammar spec over the grammar's
    defaults; closed forms, where present, are exact oracles.

    The closed forms were re-derived by hand from the Gaussian transition
    law of the driverless forward state (zero drift, unit diffusion):
    conditionally on the path up to t, X(s) = gamma(t) + (W(s) - W(t)).
    """
    def entry(spec, **kw):
        return ModelRegistryEntry(spec["name"], model_from_spec(spec), **kw)

    def _u_asian(p):
        return np.array([running_integral(p)[0] + p.endpoint[0] * (p.horizon - p.current_time)])

    endpoint = lambda p: np.array([p.endpoint[0]])
    return [
        # heat: terminal square of the endpoint.
        # u(gamma_t) = E[(gamma(t) + W_{T-t})^2] = gamma(t)^2 + (T - t).
        entry({"name": "heat", "Phi": {"kind": "endpoint_square"}},
              closed_form_u=lambda p: np.array([p.endpoint[0] ** 2
                                                + (p.horizon - p.current_time)]),
              closed_form_Z=lambda p: np.array([[2.0 * p.endpoint[0]]]),
              notes="second moment of a shifted Brownian endpoint"),
        # asian: integral of the path over the full horizon.
        # u(gamma_t) = int_0^t gamma + gamma(t) (T - t) since E[X(s)] = gamma(t),
        # exact for the left-endpoint integral convention.
        entry({"name": "asian", "Phi": {"kind": "running_integral"}, "growth_m": 0.0},
              closed_form_u=_u_asian,
              closed_form_Z=lambda p: np.array([[p.horizon - p.current_time]]),
              notes="conditional expectation of integrated Brownian motion"),
        # linear-g: backward-integral driver proportional to y.
        entry({"name": "linear-g", "g": {"kind": "linear_y", "coef": 0.3},
               "lip_C": 1.0, "growth_m": 0.0},
              closed_form_u=endpoint,
              notes="E_B of the field gamma(t) prod_j (1 + 0.3 dB_j)"),
        # nonlinear-f: classical-BSDE reduction.
        entry({"name": "nonlinear-f", "Phi": {"kind": "endpoint_sin"},
               "f": {"kind": "cos_y_plus_half_z"}, "lip_C": 1.0, "growth_m": 0.0},
              notes="oracle: nested engine"),
        # z-in-g: exercises the z-contraction channel of the backward driver.
        entry({"name": "z-in-g", "g": {"kind": "linear_z", "coef": 0.5},
               "lip_C": 1.0, "growth_m": 0.0},
              closed_form_u=endpoint, closed_form_Z=lambda p: np.array([[1.0]]),
              notes="E_B of the field gamma(t) + 0.5 (B_T - B_t); Z = 1"),
        # path-f: genuinely non-Markovian time driver via the running maximum.
        entry({"name": "path-f", "f": {"kind": "runmax_minus_y"},
               "lip_C": 1.0, "growth_m": 0.0},
              notes="oracle: nested engine"),
    ]


def shifted_model(model: Model, shift_phi: float = 0.0, shift_f: float = 0.0) -> Model:
    """The same model with constants added to the terminal functional and the
    time driver; with nonnegative shifts the result dominates the original.
    A zero shift_f keeps the original time driver, absent or not."""
    return replace(
        model,
        name=f"{model.name}+shift",
        Phi=lambda x, dt: model.Phi(x, dt) + shift_phi,
        f=(model.f if shift_f == 0.0
           else lambda x, y, z: model.eval_f(x, y, z) + shift_f),
    )


def get_entry(name: str) -> ModelRegistryEntry:
    for e in registry():
        if e.name == name:
            return e
    raise KeyError(f"unknown model {name!r}; known: {[e.name for e in registry()]}")


def get_model(name: str) -> Model:
    return get_entry(name).model
