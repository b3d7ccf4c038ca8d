"""Finite-difference path derivatives and discrete Ito-formula residuals.

Vertical derivatives bump the path endpoint; the horizontal derivative
extends the path flat in time (one-sided, as the definition itself is).
Every estimator returns a DerivativeEstimate carrying a halved-bump
re-estimate, so that a large gap between the two flags likely
non-differentiability instead of silently returning garbage.  The
residuals take one value per prefix from _jet: the attached derivative,
else the estimator's value without the re-estimate.  Every vertical
estimate sends its whole set of bumped paths to PathFunctional.batch in
one call, so a field that can share work across paths of one depth does.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .paths import Path, restrict, vertical_bump, horizontal_extend


@dataclass
class PathFunctional:
    """A functional of a path: deterministic here, random in a subclass
    that overrides given.

    eval maps Path -> array of shape output_shape.  Implementations must be
    re-entrant: the estimators below may call eval concurrently.  Analytic
    derivatives can be attached (d_t, d_x, d_xx); harnesses use them when
    present and fall back to finite differences otherwise.
    """

    eval: Callable[[Path], np.ndarray]
    output_shape: tuple = (1,)
    regularity_tag: str = "C0"  # C0 | C02 | C12
    d_t: Optional[Callable[[Path], np.ndarray]] = None
    d_x: Optional[Callable[[Path], np.ndarray]] = None
    d_xx: Optional[Callable[[Path], np.ndarray]] = None

    def __call__(self, p: Path) -> np.ndarray:
        return self._checked(self.eval(p), self.output_shape)

    def batch(self, paths: Sequence[Path]) -> np.ndarray:
        """Values at several paths, (len(paths),) + output_shape: one call
        per path here; a field that shares work across paths overrides it."""
        return np.array([self(p) for p in paths]).reshape(
            (len(paths),) + self.output_shape)

    def given(self, dB: np.ndarray) -> "PathFunctional":
        """The functional conditioned on the second driver's increments dB
        after the path's tip, (N - t_index, l); a random field given a stack
        of S samples, (S, N - t_index, l), returns one value per sample, its
        output_shape gaining a leading S.  A deterministic functional does
        not read dB and returns itself."""
        return self

    @staticmethod
    def _checked(values, shape: tuple) -> np.ndarray:
        out = np.asarray(values, dtype=np.float64).reshape(shape)
        if not np.all(np.isfinite(out)):
            raise ValueError("functional returned a non-finite value")
        return out


@dataclass
class DerivativeEstimate:
    value: np.ndarray
    bump_size: float
    richardson_pair: Optional[np.ndarray] = None
    est_error: float = 0.0

    def is_reliable(self, tol: float) -> bool:
        return self.est_error <= tol


def default_bump(p: Path) -> float:
    # scale-aware bump controls cancellation error
    return 1e-4 * (1.0 + float(np.max(np.abs(p.endpoint))))


def _stencil(d: int, h: float, second: bool) -> np.ndarray:
    """Endpoint bumps of one central-difference stencil, (n, d): +h e_i and
    -h e_i for each coordinate i, then, for a second-order stencil, the
    cross bumps h(e_i + e_j), h(e_i - e_j), h(e_j - e_i), -h(e_i + e_j) of
    each pair i < j."""
    eye = np.eye(d)
    rows = [s * eye[i] for i in range(d) for s in (1.0, -1.0)]
    if second:
        for i, j in itertools.combinations(range(d), 2):
            rows += [eye[i] + eye[j], eye[i] - eye[j], eye[j] - eye[i],
                     -(eye[i] + eye[j])]
    return h * np.array(rows)


def _bumped(F: PathFunctional, p: Path, stencils, value: bool):
    """F at p (when value) and at p's endpoint moved by every row of the
    stencils, from one batch call: (F(p) or None, one value block per
    stencil)."""
    bumps = [vertical_bump(p, x) for s in stencils for x in s]
    vals = F.batch(([p] if value else []) + bumps)
    f0, vals = (vals[0], vals[1:]) if value else (None, vals)
    return f0, np.split(vals, np.cumsum([len(s) for s in stencils])[:-1])


def _first(vals: np.ndarray, h: float) -> np.ndarray:
    """Central differences from a stencil's values: output_shape + (d,)."""
    return np.moveaxis((vals[0::2] - vals[1::2]) / (2.0 * h), 0, -1)


def _second(vals: np.ndarray, f0: np.ndarray, h: float, d: int) -> np.ndarray:
    """Second differences from a second-order stencil's values around the
    centre value f0: output_shape + (d, d)."""
    out = np.empty(f0.shape + (d, d))
    diag = (vals[0:2 * d:2] - 2.0 * f0 + vals[1:2 * d:2]) / (h * h)
    for i in range(d):
        out[..., i, i] = diag[i]
    pairs = itertools.combinations(range(d), 2)
    for (i, j), (fpp, fpm, fmp, fmm) in zip(pairs, vals[2 * d:].reshape(
            (-1, 4) + f0.shape)):
        cross = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
        out[..., i, j] = cross
        out[..., j, i] = cross
    return out


def _vertical(F: PathFunctional, p: Path, h: float | None, second: bool) -> DerivativeEstimate:
    """Central differences of F in the endpoint at bump h (default_bump, ten
    times that for the second order) and h/2, the pair's gap its error."""
    h = (10.0 if second else 1.0) * default_bump(p) if h is None else h
    if h <= 0:
        raise ValueError(f"bump size must be positive, got {h}")
    steps, d = (h, h / 2.0), p.dimension
    f0, vals = _bumped(F, p, [_stencil(d, s, second) for s in steps], second)
    est, half = ((_second(v, f0, s, d) if second else _first(v, s)) for v, s in zip(vals, steps))
    return DerivativeEstimate(est, h, half, float(np.max(np.abs(est - half))))


def vertical_derivative(F: PathFunctional, p: Path, h: float | None = None) -> DerivativeEstimate:
    """Central-difference endpoint sensitivity, shape output_shape + (d,)."""
    return _vertical(F, p, h, False)


def vertical_hessian(F: PathFunctional, p: Path, h: float | None = None) -> DerivativeEstimate:
    """Symmetrized second-order endpoint sensitivity, output_shape + (d, d)."""
    return _vertical(F, p, h, True)


def horizontal_derivative(F: PathFunctional, p: Path, delta: float | None = None) -> DerivativeEstimate:
    """One-sided flat-extension time sensitivity, shape output_shape."""
    dt = p.dt
    if delta is None:
        delta = dt
    n_steps = int(round(delta / dt))
    if n_steps < 1 or abs(n_steps * dt - delta) > 1e-9 * dt:
        raise ValueError(f"delta={delta} must be a positive multiple of the grid step {dt}")
    if p.current_time + delta > p.horizon + 1e-9 * dt:
        raise ValueError(
            f"no room to extend: t={p.current_time}, delta={delta}, horizon={p.horizon}"
        )
    f0 = F(p)
    est = _flat_quotient(F, p, delta, f0)
    pair = None
    err = 0.0
    if n_steps % 2 == 0:
        pair = _flat_quotient(F, p, delta / 2.0, f0)
        err = float(np.max(np.abs(est - pair)))
    return DerivativeEstimate(est, delta, pair, err)


def _flat_quotient(F: PathFunctional, p: Path, delta: float, f0: np.ndarray) -> np.ndarray:
    """Forward quotient of F along the flat extension by delta, around the
    base value f0 = F(p)."""
    return (F(horizontal_extend(p, p.current_time + delta)) - f0) / delta


def _jet(F: PathFunctional, p: Path, value: bool = True, hessian: bool = True):
    """F at p with its vertical gradient and, when hessian, its vertical
    Hessian, from one batch call: the value, the gradient bumps +-h and the
    Hessian bumps +-10h (with the cross bumps when d > 1), h =
    default_bump(p), i.e. vertical_derivative's and vertical_hessian's
    values without the re-estimate.  An attached d_x or d_xx replaces its
    bumps; the value is evaluated when asked for or when the Hessian
    difference needs it.  Returns (value or None, gradient, Hessian or None).
    """
    d = p.dimension
    h = default_bump(p)
    grad_fd = F.d_x is None
    hess_fd = hessian and F.d_xx is None
    stencils = (([_stencil(d, h, False)] if grad_fd else [])
                + ([_stencil(d, 10.0 * h, True)] if hess_fd else []))
    f0, vals = _bumped(F, p, stencils, value or hess_fd)
    dx = _first(vals[0], h) if grad_fd else np.asarray(F.d_x(p), dtype=np.float64)
    dxx = None
    if hess_fd:
        dxx = _second(vals[-1], f0, 10.0 * h, d)
    elif hessian:
        dxx = np.asarray(F.d_xx(p), dtype=np.float64)
    return f0, dx, dxx


def functional_ito_residual(F: PathFunctional, x_path: Path, qv: np.ndarray) -> float:
    """Discrete residual of the pathwise chain rule for F along x_path.

    qv holds one quadratic-variation increment matrix (d x d) per grid step
    up to the path's current time.  Scalar-output F only.
    """
    if F.regularity_tag != "C12":
        raise ValueError("residual requires a functional tagged C12")
    m = x_path.t_index
    qv = np.asarray(qv, dtype=np.float64).reshape(m, x_path.dimension, x_path.dimension)
    dt = x_path.dt
    total = F(x_path)
    if m == 0:
        return 0.0      # the path is its own start
    for i in range(m):
        pi = restrict(x_path, x_path.grid_times[i])
        # the start term is prefix 0's value; later prefixes evaluate
        # theirs only when a finite difference needs it
        f0, dx, dxx = _jet(F, pi, value=i == 0 or F.d_t is None)
        if i == 0:
            total = total - f0
        ds = (np.asarray(F.d_t(pi), dtype=np.float64) if F.d_t is not None
              else _flat_quotient(F, pi, dt, f0))
        dX = x_path.values[i + 1] - x_path.values[i]
        total = total - ds * dt
        total = total - dx.reshape(x_path.dimension) @ dX
        total = total - 0.5 * np.trace(dxx.reshape(x_path.dimension, x_path.dimension) @ qv[i])
    return float(np.abs(total).max())


@dataclass
class SmoothMap:
    """A smooth map on R^k with first and second derivatives supplied."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]      # -> (k,)
    hess: Callable[[np.ndarray], np.ndarray]      # -> (k, k)


def backward_ito_residual(
    phi: SmoothMap,
    alpha0: np.ndarray,
    beta: np.ndarray,     # (N, k), left endpoints
    gamma: np.ndarray,    # (N+1, k, l), evaluated at grid times
    delta: np.ndarray,    # (N+1, k, d)
    dW: np.ndarray,       # (N, d)
    dB: np.ndarray,       # (N, l)
    dt: float,
) -> float:
    """Discrete residual of the two-driver Ito formula for phi(alpha).

    alpha is accumulated as the discrete integral of (beta, gamma, delta):
    forward increments use left-endpoint gamma-free terms, the dB terms use
    right endpoints.  The residual of the formula for phi(alpha) then tests
    the sign convention of the two quadratic-variation corrections.
    """
    N = len(dW)
    k = len(np.atleast_1d(alpha0))
    alpha = np.zeros((N + 1, k))
    alpha[0] = alpha0
    for i in range(N):
        alpha[i + 1] = (
            alpha[i] + beta[i] * dt + gamma[i + 1] @ dB[i] + delta[i] @ dW[i]
        )
    total = phi.value(alpha[N]) - phi.value(alpha[0])
    for i in range(N):
        g_left = phi.grad(alpha[i])
        g_right = phi.grad(alpha[i + 1])
        h_left = phi.hess(alpha[i])
        h_right = phi.hess(alpha[i + 1])
        total -= g_left @ beta[i] * dt
        total -= g_right @ (gamma[i + 1] @ dB[i])
        total -= g_left @ (delta[i] @ dW[i])
        total += 0.5 * np.trace(h_right @ gamma[i + 1] @ gamma[i + 1].T) * dt
        total -= 0.5 * np.trace(h_left @ delta[i] @ delta[i].T) * dt
    return float(abs(total))


def residual_convergence_csv(rows) -> str:
    """Format (N, rms) pairs as the two-column convergence table."""
    buf = io.StringIO()
    buf.write("N,rms_residual\n")
    for N, rms in rows:
        buf.write(f"{N},{repr(float(rms))}\n")
    return buf.getvalue()
