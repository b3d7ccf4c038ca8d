"""Coefficient bundles with growth/contraction constants, the inline model
grammar that derives them, and the registry of its specs used as oracles.

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

The path enters the coefficients only through the running statistics they
read (running_stats): each grammar kind names its own (_Kind.reads), and
the model's reads holds their union (none: Markovian), which the regression
design adds to the endpoint (RegressionBasis.for_model).  A time driver
names those it reads in f_reads too: f(x, y, z, *rows) then takes each
one's row at the block's last time, (n, d), after y and z.  Of the kinds
only runmax_minus_y does so (f_reads ("runmax",)); the regression sweep
hands f the rows it carries, and every other caller derives them from the
block (f_rows: eval_f on a single path, the nested tree once per level).
Hand-built models declare reads; with f_reads empty f is called as (x, y, z).

The simulator and both engines store histories time-major and pass x as a
read-only, possibly non-contiguous view: a coefficient must not write into
x (copy it first).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, _only_keys, _typed
from .paths import Path


_STATS = ("runmax", "runint")


def running_stats(X: np.ndarray, dt: float, names=_STATS) -> dict:
    """The running statistics among names of a time-major buffer X (T, n, d),
    by name, each (T, n, d) and carried forward one row at a time: row j of
    "runmax" is the maximum of X[:j+1], and row j of "runint" the left-endpoint
    integral dt * (X[0] + ... + X[j-1]), exact for the piecewise-constant path."""
    stats = {}
    if "runmax" in names:
        stats["runmax"] = runmax = np.empty(X.shape)
        runmax[0] = X[0]
        # row by row: numpy's accumulate along the time axis takes 3x as long
        for j in range(1, X.shape[0]):
            np.maximum(runmax[j - 1], X[j], out=runmax[j])
    if "runint" in names:
        stats["runint"] = runint = np.zeros(X.shape)
        for j in range(1, X.shape[0]):
            if j == 1:
                runint[1] = X[0]        # not 0.0 + X[0], so -0.0 keeps its sign
            else:
                np.add(runint[j - 1], X[j - 1], out=runint[j])
        runint *= dt
    return stats


# the row a driver reads of each statistic, at a block's (n, m, d) last
# time: the last row of running_stats over the block, bit for bit
_BLOCK_ROWS = {"runmax": lambda x: x.max(axis=1)}


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
    reads: tuple = ()         # the running statistics the coefficients read
    name: str = ""
    f_reads: tuple = ()       # those f reads

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError(f"contraction constant must be in [0,1), got {self.alpha}")
        if self.lip_C < 0 or self.growth_m < 0:
            raise ValueError("lip_C and growth_m must be nonnegative")
        if (self.reads != tuple(name for name in _STATS if name in self.reads)
                or not set(self.f_reads) <= set(self.reads) & set(_BLOCK_ROWS)):
            raise ValueError(f"reads names statistics in the order {_STATS}, and f can read "
                             f"the running statistics {tuple(_BLOCK_ROWS)} among them; got "
                             f"reads {self.reads}, f_reads {self.f_reads}")

    @property
    def markovian_flag(self) -> bool:
        return not self.reads

    def f_rows(self, x: np.ndarray) -> list:
        """The row at the block's last time of each statistic f reads."""
        return [_BLOCK_ROWS[name](x) for name in self.f_reads]

    def eval_f(self, x: np.ndarray, y: np.ndarray, z: np.ndarray, *rows) -> np.ndarray:
        """Time driver on a block, (n, k); zero when f is None.  An f that
        reads running statistics takes rows, one per name in f_reads, or
        when none is given f_rows(x)."""
        if self.f is None:
            return np.zeros((x.shape[0], self.dims[1]))
        return self.f(x, y, z, *(rows or self.f_rows(x)))

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


# -- inline grammar ------------------------------------------------------

def _affine_coeff(where, spec, default_const):
    if spec is None:
        return float(default_const), 0.0
    if isinstance(spec, dict) and list(spec) == ["const"]:
        return _typed(f"{where}.const", spec["const"], float), 0.0
    if isinstance(spec, dict) and list(spec) == ["affine"]:
        affine = _only_keys(f"{where}.affine", spec["affine"], ("intercept", "slope"))
        return tuple(_typed(f"{where}.affine.{key}", affine.get(key, 0.0), float)
                     for key in ("intercept", "slope"))
    raise ConfigError(f"{where} must be 'const' or 'affine' alone, got {spec!r}")


class _Kind(NamedTuple):   # a kind's coefficient and its share of the constants
    coeff: Optional[Callable]     # None for a zero driver
    lip_C: float = 0.0
    growth_m: float = 0.0
    alpha: float = 0.0
    reads: tuple = ()             # the running statistics it reads


def _linear_z(coef=0.0):
    if not abs(coef) < 1.0:
        raise ConfigError(f"a z-linear backward driver needs |coef| < 1, got {coef}")
    return _Kind(lambda x, y, z: coef * z[:, :, :1], alpha=abs(coef))


# section -> kind -> builder; a builder's keyword parameters are the keys
# its kind reads, with their defaults, and a section's first kind is its default
_KINDS = {
    "Phi": {
        "endpoint": lambda shift=0.0: _Kind(lambda x, dt: x[:, -1, :1] + shift),
        "endpoint_square": lambda shift=0.0: _Kind(
            lambda x, dt: x[:, -1, :1] ** 2 + shift, growth_m=1.0),
        "endpoint_sin": lambda shift=0.0: _Kind(
            lambda x, dt: np.sin(x[:, -1, :1]) + shift),
        "running_integral": lambda shift=0.0: _Kind(
            lambda x, dt: x[:, :-1, :1].sum(axis=1) * dt + shift, reads=("runint",)),
    },
    "f": {
        "zero": lambda: _Kind(None),
        "linear": lambda coef_y=0.0, coef_z=0.0, const=0.0: _Kind(
            lambda x, y, z: const + coef_y * y + coef_z * z[:, :, 0],
            lip_C=abs(coef_y) + abs(coef_z)),
        "cos_y_plus_half_z": lambda shift=0.0: _Kind(
            lambda x, y, z: shift + np.cos(y) + z[:, :, 0] / 2.0, lip_C=1.0),
        "runmax_minus_y": lambda shift=0.0: _Kind(
            lambda x, y, z, runmax: shift + runmax[:, :1] - y,
            lip_C=1.0, reads=("runmax",)),
    },
    "g": {
        "zero": lambda: _Kind(None),
        # gg^T <= alpha zz^T + C (|g(., 0, 0)|^2 + |y|^2) needs coef^2 once |coef| > 1
        "linear_y": lambda coef=0.0: _Kind(lambda x, y, z: coef * y[:, :, None],
                                           lip_C=max(abs(coef), coef ** 2)),
        "linear_z": _linear_z,
    },
}


def _build_kind(spec: dict, section: str, noun: str) -> _Kind:
    """What the section's kind builds, once the section is null (the default
    kind) or an object of a known kind that sets only its builder's keywords,
    each to a number."""
    sub = spec.get(section)
    sub = sub if isinstance(sub, dict) else _only_keys(section, sub, ())
    kind = sub.get("kind", next(iter(_KINDS[section])))
    if not isinstance(kind, str) or kind not in _KINDS[section]:
        raise ConfigError(f"unknown {noun} kind {kind!r}")
    build = _KINDS[section][kind]
    keys = build.__code__.co_varnames[:build.__code__.co_argcount]
    sub = _only_keys(f"{section} of kind {kind!r}", sub, ("kind", *keys))
    return build(**{key: _typed(f"{section}.{key}", v, float)
                    for key, v in sub.items() if key != "kind"})


def model_from_spec(spec: dict) -> Model:
    """A scalar model (d = k = l = 1) from the inline grammar; unset keys
    give zero drift, unit diffusion and zero drivers:

        {
          "name":  "custom",
          "b":     {"const": v} | {"affine": {"intercept": a, "slope": c}},
          "sigma": {"const": v} | {"affine": {"intercept": a, "slope": c}},
          "Phi" | "f" | "g":  {"kind": k, key: v, ...}  with k and its keys from _KINDS
        }

    Any other key, one the section's kind does not read, a value that is no
    number, and a section that is neither an object nor null raise
    ConfigError.  Affine coefficients read the current endpoint; a constant
    b or sigma ignores x and stays finite on an overflowed scenario.  lip_C
    is the largest of |b slope| + |sigma slope| and each kind's constant,
    growth_m and alpha the largest of the kinds', reads the statistics any
    kind reads and f_reads those f reads.
    """
    spec = _only_keys("model", spec, ("name", "b", "sigma", "Phi", "f", "g"))
    b0, b1 = _affine_coeff("b", spec.get("b"), 0.0)
    s0, s1 = _affine_coeff("sigma", spec.get("sigma"), 1.0)
    b = ((lambda x: b0 + b1 * x[:, -1, :]) if b1
         else lambda x: np.full((x.shape[0], 1), b0))
    sigma = ((lambda x: (s0 + s1 * x[:, -1, :1])[:, :, None]) if s1
             else lambda x: np.broadcast_to(s0 * np.eye(1), (x.shape[0], 1, 1)))
    kinds = [_build_kind(spec, section, noun) for section, noun in (
        ("Phi", "terminal"), ("f", "time-driver"), ("g", "backward-driver"))]
    Phi, f, g = (k.coeff for k in kinds)
    return Model(b=b, sigma=sigma, Phi=Phi, f=f, g=g, name=spec.get("name", "custom"),
                 lip_C=max(abs(b1) + abs(s1), *(k.lip_C for k in kinds)),
                 growth_m=max(k.growth_m for k in kinds),
                 alpha=max(k.alpha for k in kinds),
                 reads=tuple(name for name in _STATS if any(name in k.reads for k in kinds)),
                 f_reads=kinds[1].reads)


# -- registry ------------------------------------------------------------

_endpoint = lambda p: np.array([p.endpoint[0]])

# each reference model's inline spec and the rest of its registry entry
_REGISTRY = [
    # heat: terminal square of the endpoint.
    # u(gamma_t) = E[(gamma(t) + W_{T-t})^2] = gamma(t)^2 + (T - t).
    ({"name": "heat", "Phi": {"kind": "endpoint_square"}},
     dict(closed_form_u=lambda p: np.array([p.endpoint[0] ** 2
                                            + (p.horizon - p.current_time)]),
          closed_form_Z=lambda p: np.array([[2.0 * p.endpoint[0]]]),
          notes="second moment of a shifted Brownian endpoint")),
    # asian: integral of the path over the full horizon.
    # u(gamma_t) = int_0^t gamma + gamma(t) (T - t) since E[X(s)] = gamma(t),
    # exact for the left-endpoint integral convention.
    ({"name": "asian", "Phi": {"kind": "running_integral"}},
     dict(closed_form_u=lambda p: np.array([running_integral(p)[0] + p.endpoint[0]
                                            * (p.horizon - p.current_time)]),
          closed_form_Z=lambda p: np.array([[p.horizon - p.current_time]]),
          notes="conditional expectation of integrated Brownian motion")),
    # linear-g: backward-integral driver proportional to y.
    ({"name": "linear-g", "g": {"kind": "linear_y", "coef": 0.3}},
     dict(closed_form_u=_endpoint,
          notes="E_B of the field gamma(t) prod_j (1 + 0.3 dB_j)")),
    # nonlinear-f: classical-BSDE reduction.
    ({"name": "nonlinear-f", "Phi": {"kind": "endpoint_sin"},
      "f": {"kind": "cos_y_plus_half_z"}},
     dict(notes="oracle: nested engine")),
    # z-in-g: exercises the z-contraction channel of the backward driver.
    ({"name": "z-in-g", "g": {"kind": "linear_z", "coef": 0.5}},
     dict(closed_form_u=_endpoint, closed_form_Z=lambda p: np.array([[1.0]]),
          notes="E_B of the field gamma(t) + 0.5 (B_T - B_t); Z = 1")),
    # path-f: genuinely non-Markovian time driver via the running maximum.
    ({"name": "path-f", "f": {"kind": "runmax_minus_y"}},
     dict(notes="oracle: nested engine")),
]


def registry() -> list[ModelRegistryEntry]:
    """Reference models, each an inline-grammar spec over the grammar's
    defaults; closed forms, where present, are exact oracles.

    The closed forms were re-derived by hand from the Gaussian transition
    law of the driverless forward state (zero drift, unit diffusion):
    conditionally on the path up to t, X(s) = gamma(t) + (W(s) - W(t)).
    """
    return [get_entry(spec["name"]) for spec, _ in _REGISTRY]


def shifted_model(model: Model, shift_phi: float = 0.0, shift_f: float = 0.0) -> Model:
    """The same model with constants added to the terminal functional and the
    time driver; with nonnegative shifts the result dominates the original.
    A zero shift_f keeps the original time driver, absent or not; a shifted
    one reads the running statistics the original reads."""
    return replace(
        model,
        name=f"{model.name}+shift",
        Phi=lambda x, dt: model.Phi(x, dt) + shift_phi,
        f=(model.f if shift_f == 0.0
           else lambda x, y, z, *rows: model.eval_f(x, y, z, *rows) + shift_f),
    )


def get_entry(name: str) -> ModelRegistryEntry:
    """The registry entry of that name, building no other model."""
    for spec, rest in _REGISTRY:
        if spec["name"] == name:
            return ModelRegistryEntry(name, model_from_spec(spec), **rest)
    raise KeyError(f"unknown model {name!r}; known: {[spec['name'] for spec, _ in _REGISTRY]}")


def get_model(name: str) -> Model:
    return get_entry(name).model
