"""Finite-difference path derivatives and discrete Ito-formula residuals.

Vertical derivatives bump the path endpoint; the horizontal derivative
extends the path flat in time (one-sided, as the definition itself is).
Every estimator returns a DerivativeEstimate carrying a halved-bump
re-estimate, so that a large gap between the two flags likely
non-differentiability instead of silently returning garbage.  The
residuals take one value per prefix from _gradient and _hessian: the
attached derivative, else the estimator's value without the re-estimate.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .paths import Path, restrict, vertical_bump, horizontal_extend


@dataclass
class PathFunctional:
    """A deterministic functional of a path.

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
        out = np.asarray(self.eval(p), dtype=np.float64)
        out = out.reshape(self.output_shape)
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


def _central_vertical(F: PathFunctional, p: Path, h: float) -> np.ndarray:
    d = p.dimension
    out = np.empty(F.output_shape + (d,))
    eye = np.eye(d)
    for i in range(d):
        fp = F(vertical_bump(p, h * eye[i]))
        fm = F(vertical_bump(p, -h * eye[i]))
        out[..., i] = (fp - fm) / (2.0 * h)
    return out


def vertical_derivative(F: PathFunctional, p: Path, h: float | None = None) -> DerivativeEstimate:
    """Central-difference endpoint sensitivity, shape output_shape + (d,)."""
    if h is None:
        h = default_bump(p)
    if h <= 0:
        raise ValueError(f"bump size must be positive, got {h}")
    est = _central_vertical(F, p, h)
    est_half = _central_vertical(F, p, h / 2.0)
    err = float(np.max(np.abs(est - est_half)))
    return DerivativeEstimate(est, h, est_half, err)


def _hessian_once(F: PathFunctional, p: Path, h: float, f0: np.ndarray) -> np.ndarray:
    d = p.dimension
    eye = np.eye(d)
    out = np.empty(F.output_shape + (d, d))
    for i in range(d):
        fp = F(vertical_bump(p, h * eye[i]))
        fm = F(vertical_bump(p, -h * eye[i]))
        out[..., i, i] = (fp - 2.0 * f0 + fm) / (h * h)
    for i in range(d):
        for j in range(i + 1, d):
            fpp = F(vertical_bump(p, h * (eye[i] + eye[j])))
            fpm = F(vertical_bump(p, h * (eye[i] - eye[j])))
            fmp = F(vertical_bump(p, h * (eye[j] - eye[i])))
            fmm = F(vertical_bump(p, -h * (eye[i] + eye[j])))
            cross = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
            out[..., i, j] = cross
            out[..., j, i] = cross
    return out


def vertical_hessian(F: PathFunctional, p: Path, h: float | None = None) -> DerivativeEstimate:
    """Symmetrized second-order endpoint sensitivity, output_shape + (d, d)."""
    if h is None:
        h = 10.0 * default_bump(p)
    if h <= 0:
        raise ValueError(f"bump size must be positive, got {h}")
    f0 = F(p)
    est = _hessian_once(F, p, h, f0)
    est_half = _hessian_once(F, p, h / 2.0, f0)
    err = float(np.max(np.abs(est - est_half)))
    return DerivativeEstimate(est, h, est_half, err)


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


def _gradient(F: PathFunctional, p: Path) -> np.ndarray:
    """The attached d_x, else vertical_derivative's value (no re-estimate)."""
    if F.d_x is not None:
        return np.asarray(F.d_x(p), dtype=np.float64)
    return _central_vertical(F, p, default_bump(p))


def _hessian(F: PathFunctional, p: Path, f0: np.ndarray | None = None) -> np.ndarray:
    """The attached d_xx, else vertical_hessian's value (no re-estimate)
    around the centre value f0 = F(p), evaluated here when not passed."""
    if F.d_xx is not None:
        return np.asarray(F.d_xx(p), dtype=np.float64)
    return _hessian_once(F, p, 10.0 * default_bump(p), F(p) if f0 is None else f0)


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
    # the start term is prefix 0's base value; later prefixes evaluate
    # theirs only when a finite difference needs it
    f0 = F(restrict(x_path, 0.0))
    total = F(x_path) - f0
    needs_value = F.d_t is None or F.d_xx is None
    for i in range(m):
        pi = restrict(x_path, x_path.grid_times[i])
        if i > 0:
            f0 = F(pi) if needs_value else None
        ds = (np.asarray(F.d_t(pi), dtype=np.float64) if F.d_t is not None
              else _flat_quotient(F, pi, dt, f0))
        dx = _gradient(F, pi)
        dxx = _hessian(F, pi, f0)
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
