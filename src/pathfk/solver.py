"""Backward solvers for the coupled two-driver system.

Two engines estimate the same discrete backward scheme:

* a regression Monte Carlo engine, projecting conditional expectations onto
  polynomial features of the forward history (plus the remaining increments
  of the second driver when the backward-integral driver is active), and
* a nested quadrature engine, expanding a non-recombining Gauss-Hermite tree
  over the first driver while the second driver's increments are frozen per
  outer sample.

Both engines share one discretization: time and backward integrands are
evaluated at the right endpoint of each step (with the terminal z taken as
zero), and optional refinement passes move the y/z arguments of the drivers
from the right endpoint to the current step, iterating toward the implicit
scheme.  The refinement is a fixed-point iteration whose contraction rests
on the driver's z-coefficient being strictly below one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BudgetError, SolverError
from .models import Model
from .paths import Path
from .simulation import (ScenarioEnsemble, sample_drivers, simulate_forward,
                         _history_view, _keyed_normals)

_MAX_TREE_NODES = 1_000_000
_MAX_TREE_DEPTH = 8
_TAG_FROZEN_B = 3
_MIN_SCENARIOS_PER_FEATURE = 50


# -- regression features -------------------------------------------------


@dataclass
class RegressionBasis:
    """Polynomial features of the forward history used by the projections.

    feature_set names the raw coordinates extracted from the history at the
    projection time: "endpoint" uses the current state only;
    "endpoint+runmax+runint" adds the running maximum and the running
    integral, for path-dependent problems.  All monomials in the raw
    coordinates up to the given total degree are used.  include_future_noise
    adds the remaining-horizon increment sum of the second driver as extra
    degree-one features; left unset, it switches on exactly when the model
    has a nonzero backward driver.
    """

    feature_set: str = "endpoint"
    degree: int = 2
    include_future_noise: Optional[bool] = None

    _SETS = ("endpoint", "endpoint+runmax+runint")

    def __post_init__(self):
        if self.feature_set not in self._SETS:
            raise ValueError(
                f"unknown feature set {self.feature_set!r}; choose from {self._SETS}"
            )
        if not (1 <= self.degree <= 2):
            raise ValueError(f"degree must be 1 or 2, got {self.degree}")

    def matrix(self, raw: np.ndarray,
               noise: Optional[np.ndarray] = None) -> np.ndarray:
        """Column-major design matrix of one step from its raw coordinates
        (n, r): the constant, every monomial up to the degree, and the
        remaining noise sums (n, l) when given."""
        n, r = raw.shape
        l = 0 if noise is None else noise.shape[1]
        A = np.empty((n, math.comb(r + self.degree, r) + l), order="F")
        A[:, 0] = 1.0
        j = 1
        for deg in range(1, self.degree + 1):
            for combo in itertools.combinations_with_replacement(range(r), deg):
                A[:, j] = raw[:, combo[0]]
                for c in combo[1:]:
                    A[:, j] *= raw[:, c]
                j += 1
        if l:
            A[:, j:] = noise
        return A

    def designs(self, X: np.ndarray, t_index: int, dt: float,
                dB: Optional[np.ndarray] = None):
        """Yield (i, design matrix) for the steps i = t_index..N-1 in order.

        X holds the histories time-major, (N+1, n, d); dB, when given, the
        second driver's increments time-major, (N, n, l), for the
        future-noise features.  One forward pass carries the running
        maximum of X[:i+1], the running sum of X[:i] and the remaining
        noise sum of dB[i:] from step to step, so a step costs the same
        however long the history is.
        """
        N = X.shape[0] - 1
        path = self.feature_set == "endpoint+runmax+runint"
        if path:
            runmax = X[: t_index + 1].max(axis=0)
            runsum = X[:t_index].sum(axis=0)
        rest = None if dB is None else dB[t_index:].sum(axis=0)
        for i in range(t_index, N):
            raw = np.concatenate([X[i], runmax, runsum * dt], axis=1) if path else X[i]
            yield i, self.matrix(raw, rest)
            if path:
                runmax = np.maximum(runmax, X[i + 1])
                runsum = runsum + X[i]
            if rest is not None:
                rest = rest - dB[i]


def _column_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of a design matrix, (n, rank).

    Householder QR factors A = QR in place (a column-major float64 A is
    overwritten), and only the p x p triangle R takes an SVD: A shares R's
    singular values, and its left singular vectors are Q times R's.  Those
    that clear the least-squares rank cutoff s[0] * max(n, p) * eps (the
    rule of lstsq and of a full SVD of A) are kept, so collinear columns
    drop out (at the initial time every history coincides and the history
    monomials collapse onto the constant).  Needs n >= p; a non-finite
    design raises SolverError.
    """
    if not np.isfinite(A).all():
        raise SolverError("the design matrix has non-finite entries")
    # imported on first use: scipy.linalg adds about 50 ms to `import pathfk`
    from scipy.linalg import lapack
    qr, tau, _, _ = lapack.dgeqrf(A, overwrite_a=True)
    Ur, s, _ = np.linalg.svd(np.triu(qr[: A.shape[1]]))
    keep = s > s[0] * max(A.shape) * np.finfo(A.dtype).eps
    Q, _, _ = lapack.dorgqr(qr, tau, overwrite_a=True)
    # column-major U: the projections U (U^T T) read it faster
    return np.matmul(Q, Ur[:, keep], order="F")


def _project(U: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Least-squares fitted values: the orthogonal projection of the targets
    onto the column space spanned by the orthonormal basis U."""
    return U @ (U.T @ targets)


# -- solutions -----------------------------------------------------------


@dataclass
class BackwardSolution:
    """Sampled backward pair on the grid, plus the field value at the
    initial time.

    y has shape (n, N+1, k) and z has shape (n, N, k, d); entries before the
    initial time index repeat the initial-time value (y) or are zero (z).
    The regression engine returns them (and fit_se) as views of time-major
    arrays.
    For the nested engine n counts outer frozen-noise samples and the rows
    hold quadrature means over the tree.
    """

    grid_times: np.ndarray
    t_index: int
    y: np.ndarray
    z: np.ndarray
    u_estimate: np.ndarray       # (k,)
    u_stderr: np.ndarray         # (k,)
    engine_tag: str
    scheme_params: dict = field(default_factory=dict)
    rollout: Optional[np.ndarray] = field(default=None, repr=False)   # (n, k)
    fit_se: Optional[np.ndarray] = field(default=None, repr=False)    # (n, N+1, k)

    @property
    def n_samples(self) -> int:
        return self.y.shape[0]


# -- regression engine ---------------------------------------------------


def _refinement_passes(model: Model, picard_iters: int) -> int:
    """Passes an engine runs: the drivers are the only terms that read
    (y, z), so without either a second pass would repeat the first."""
    return picard_iters if model.f is not None or model.g is not None else 1


def _time_major(a: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """The valid scenarios of a scenario-major (n, time, .) array as a
    contiguous time-major (time, n_valid, .) array, so every step reads
    contiguous rows; no copy when every scenario is valid and the array is
    already a view of time-major storage (as simulate_forward's x_values
    and sample_drivers' dW and dB)."""
    a = a.transpose(1, 0, 2)
    return np.ascontiguousarray(a) if valid.all() else np.compress(valid, a, axis=1)


def solve_regression(model: Model, ensemble: ScenarioEnsemble,
                     basis: Optional[RegressionBasis] = None,
                     picard_iters: int = 2,
                     record_fit_se: bool = False) -> BackwardSolution:
    """Backward regression sweep over a simulated ensemble.

    Each step's design matrix is built column-major and factored once, in
    place, by Householder QR and an SVD of the p x p triangle, into an
    orthonormal basis of its column space (_column_basis; a non-finite
    design raises SolverError); every conditional expectation on that step
    (the centring term, z, y, and the rollout behind fit_se) in every pass
    is the projection onto that basis, and with f absent y is the centring term.

    Pass 0 is the explicit scheme (drivers read the right-endpoint y/z);
    each further pass re-evaluates the drivers at the previous pass's
    current-step y/z; without drivers one pass runs whatever picard_iters
    asks (scheme_params["picard_passes"]).  If the pass-to-pass update norm
    grows on two consecutive passes the fixed point is diverging and a
    SolverError is raised.

    With record_fit_se, fit_se holds the pointwise standard error of the
    last pass's fitted y: the leverage of each scenario times the rollout's
    residual variance over n - rank degrees of freedom.
    """
    if picard_iters < 1:
        raise ValueError(f"need at least one pass, got picard_iters={picard_iters}")
    basis = basis or RegressionBasis()
    d, k, l = model.dims
    drivers = ensemble.drivers
    valid = ensemble.valid_mask
    X = _time_major(ensemble.x_values, valid)
    dW = _time_major(drivers.dW, valid)
    history = _history_view(X)
    Np1, n, _ = X.shape
    N = Np1 - 1
    i_t = ensemble.initial.t_index
    dt = ensemble.initial.dt

    use_noise = basis.include_future_noise
    if use_noise is None:
        use_noise = model.g is not None
    # with g = None the g dB term is zero, so dB is read only by the features
    dB = _time_major(drivers.dB, valid) if use_noise or model.g is not None else None

    features = {}
    for i, A in basis.designs(X, i_t, dt, dB if use_noise else None):
        # budget: every projection must stay overdetermined by a wide margin
        if A.shape[1] * _MIN_SCENARIOS_PER_FEATURE > n:
            raise BudgetError(
                f"{A.shape[1]} features need at least "
                f"{A.shape[1] * _MIN_SCENARIOS_PER_FEATURE} scenarios, got {n}"
            )
        try:
            features[i] = _column_basis(A)
        except SolverError as exc:
            raise SolverError(f"step {i}: {exc} (a feature overflowed, or the "
                              "second driver's increments are not finite)") from None
    phi = model.Phi(history, dt)

    Y = np.zeros((N + 1, n, k))
    Z = np.zeros((N + 1, n, k, d))
    Y[N] = phi
    # the passes alternate between two buffer pairs; a sweep writes rows
    # t_index..N-1, so the rows it leaves keep the values set here, which
    # the update norm reads
    Y_new = np.empty_like(Y)
    Z_new = np.empty_like(Z)
    Y_new[:i_t] = 0.0
    Y_new[N] = phi
    Z_new[:i_t] = 0.0
    Z_new[N] = 0.0
    update_norms = []
    rollout = None
    fit_se = np.zeros((N + 1, n, k)) if record_fit_se else None

    passes = _refinement_passes(model, picard_iters)
    for p in range(passes):
        # pathwise accumulation of the drivers; its mean equals the field
        # estimate and its spread carries the full sampling error
        rollout = phi.copy()
        for i in range(N - 1, i_t - 1, -1):
            if p == 0:
                fy, fz = Y_new[i + 1], Z_new[i + 1]
            else:
                fy, fz = Y[i], Z[i]
            U = features[i]
            # center the z-target with the fitted continuation value; the
            # centering term is a function of the features, so it leaves the
            # conditional expectation unchanged while removing the dominant
            # 1/dt variance of the raw product
            cont = Y_new[i + 1]
            if model.g is not None:
                gdB = np.einsum("nkl,nl->nk", model.g(history[:, : i + 2], fy, fz), dB[i])
                cont = cont + gdB
            center = _project(U, cont)
            z_target = (cont - center)[:, :, None] * dW[i][:, None, :] / dt
            Z_new[i] = _project(U, z_target.reshape(n, k * d)).reshape(n, k, d)
            if model.f is None:
                Y_new[i] = center   # the y target is cont itself
            else:
                fdt = model.f(history[:, : i + 2], fy, fz) * dt
                rollout = rollout + fdt
                y_target = Y_new[i + 1] + fdt
                Y_new[i] = _project(U, y_target if model.g is None else y_target + gdB)
            if model.g is not None:
                rollout = rollout + gdB
            if record_fit_se and p == passes - 1:
                # hat-matrix diagonal times the residual variance of the
                # rollout: the step target understates the noise carried by
                # a backward-recursed fit, the accumulated value-to-go does not
                resid = rollout - _project(U, rollout)
                resid_var = np.sum(resid ** 2, axis=0) / max(n - U.shape[1], 1)
                leverage = np.sum(U ** 2, axis=1)
                fit_se[i] = np.sqrt(leverage[:, None] * resid_var[None, :])
        if p > 0:
            diff = (np.sqrt(np.mean((Y_new - Y) ** 2))
                    + np.sqrt(np.mean((Z_new - Z) ** 2)))
            update_norms.append(diff)
            if len(update_norms) >= 3 and update_norms[-1] > update_norms[-2] > update_norms[-3]:
                raise SolverError(
                    "refinement passes are diverging (update norms "
                    f"{update_norms}); the scheme's fixed point requires the "
                    f"backward driver's z-coefficient {model.alpha} to act as "
                    "a contraction at this step size"
                )
        Y, Z, Y_new, Z_new = Y_new, Z_new, Y, Z

    Y[:i_t] = Y[i_t]
    u_estimate = Y[i_t].mean(axis=0)
    u_stderr = rollout.std(axis=0, ddof=1) / np.sqrt(n)
    return BackwardSolution(
        grid_times=ensemble.initial.grid_times,
        t_index=i_t,
        y=Y.transpose(1, 0, 2),
        z=Z[:N].transpose(1, 0, 2, 3),
        u_estimate=u_estimate,
        u_stderr=u_stderr,
        engine_tag="regression",
        scheme_params={
            "picard_iters": picard_iters,
            "picard_passes": passes,
            "feature_set": basis.feature_set,
            "degree": basis.degree,
            "future_noise_features": bool(use_noise),
            "n_scenarios": int(n),
            "seed": int(drivers.seed),
            "update_norms": [float(v) for v in update_norms],
        },
        rollout=rollout,
        fit_se=None if fit_se is None else fit_se.transpose(1, 0, 2),
    )


# -- nested quadrature engine -------------------------------------------


@functools.lru_cache(maxsize=None)
def _gauss_hermite(branching: int):
    """Gauss-Hermite nodes and normalised weights, read-only, once per branching."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(branching)
    weights = weights / weights.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _tree_forward(model: Model, initial: Path, branching: int):
    """Expand the non-recombining quadrature tree of forward histories.

    Returns (levels, dw_nodes, w_nodes, level_w): per-level histories
    (nodes, time, d), the per-step increment abscissae and weights, and
    cumulative per-level weights.  The expansion is independent of the
    frozen second driver, so one tree serves every outer sample.
    """
    d = model.dims[0]
    dt = initial.dt
    n_rem = len(initial.grid_times) - 1 - initial.t_index
    if n_rem > _MAX_TREE_DEPTH:
        raise BudgetError(
            f"{n_rem} remaining steps exceed the tree depth limit {_MAX_TREE_DEPTH}"
        )
    per_step = branching ** d
    if per_step ** max(n_rem, 1) > _MAX_TREE_NODES:
        raise BudgetError(
            f"tree would hold {per_step ** n_rem} leaves, over the "
            f"{_MAX_TREE_NODES} budget; lower the branching or the depth"
        )
    nodes1, weights1 = _gauss_hermite(branching)
    if d == 1:
        dw_nodes = nodes1[:, None] * np.sqrt(dt)       # (per_step, d)
        w_nodes = weights1
    else:
        combos = list(itertools.product(range(branching), repeat=d))
        dw_nodes = np.array([[nodes1[c] for c in combo] for combo in combos]) * np.sqrt(dt)
        w_nodes = np.array([np.prod([weights1[c] for c in combo]) for combo in combos])

    # forward expansion, level j holds per_step**j full histories; each
    # level is stored time-major and handed out as its (nodes, time, d) view
    buf = initial.values[:, None, :]                       # (i_t+1, 1, d)
    levels = [_history_view(buf)]
    for j in range(n_rem):
        X = levels[-1]
        m = X.shape[0]
        step = (model.b(X)[:, None, :] * dt
                + np.einsum("mij,qj->mqi", model.sigma(X), dw_nodes))
        new_end = (buf[-1][:, None, :] + step).reshape(m * per_step, d)
        buf = np.concatenate([np.repeat(buf, per_step, axis=1), new_end[None]])
        levels.append(_history_view(buf))

    # level weights for quadrature means
    level_w = [np.ones(1)]
    for j in range(n_rem):
        level_w.append((level_w[-1][:, None] * w_nodes[None, :]).ravel())
    return levels, dw_nodes, w_nodes, level_w


def _by_children(a: np.ndarray, per_step: int) -> np.ndarray:
    """A level's (m * per_step, k) values as an (m * k, per_step) matrix:
    one row per parent node and component, one column per child, so a
    single matrix product takes the quadrature over a whole level."""
    k = a.shape[1]
    return a.reshape(-1, per_step, k).transpose(0, 2, 1).reshape(-1, per_step)


def _tree_backward(model: Model, initial: Path, tree, dB: Optional[np.ndarray],
                   picard_iters: int):
    """Backward sweep on an expanded tree for one frozen second driver.

    dB holds the frozen increments (N_rem, l); it is read only when the
    model has a backward driver.  Returns (y_root (k,), z_root (k,d),
    y_means (N_rem+1, k), z_means (N_rem, k, d)) where the means are
    quadrature-weighted averages over each tree level.
    """
    levels, dw_nodes, w_nodes, level_w = tree
    d, k, l = model.dims
    dt = initial.dt
    n_rem = len(levels) - 1
    per_step = dw_nodes.shape[0]
    z_weights = w_nodes[:, None] * dw_nodes / dt          # (per_step, d)

    phi = model.Phi(levels[-1], dt)                        # (leaves, k)
    y_levels = [None] * (n_rem + 1)
    z_levels = [None] * (n_rem + 1)
    y_levels[n_rem] = phi
    z_levels[n_rem] = np.zeros((phi.shape[0], k, d))

    for p in range(_refinement_passes(model, picard_iters)):
        new_y = [None] * (n_rem + 1)
        new_z = [None] * (n_rem + 1)
        new_y[n_rem] = phi
        new_z[n_rem] = z_levels[n_rem]
        for j in range(n_rem - 1, -1, -1):
            m = levels[j].shape[0]
            if p == 0:
                fy = new_y[j + 1]
                fz = new_z[j + 1]
            else:
                fy = np.repeat(y_levels[j], per_step, axis=0)
                fz = np.repeat(z_levels[j], per_step, axis=0)
            integ = new_y[j + 1]
            if model.g is not None:
                # einsum, not matmul: numpy's stacked matmul and BLAS gemv
                # are several times slower on these one-column products
                gv = model.g(levels[j + 1], fy, fz)
                integ = integ + np.einsum("nkl,l->nk", gv, dB[j])
            integ = _by_children(integ, per_step)
            new_z[j] = (integ @ z_weights).reshape(m, k, d)
            if model.f is not None:
                integ = integ + _by_children(model.f(levels[j + 1], fy, fz), per_step) * dt
            new_y[j] = (integ @ w_nodes).reshape(m, k)
        y_levels, z_levels = new_y, new_z

    y_means = np.array([
        np.einsum("m,mk->k", level_w[j], y_levels[j]) for j in range(n_rem + 1)
    ])
    z_means = np.array([
        np.einsum("m,mkd->kd", level_w[j], z_levels[j]) for j in range(n_rem)
    ]) if n_rem else np.zeros((0, k, d))
    return y_levels[0][0], z_levels[0][0], y_means, z_means


def frozen_noise_increments(grid_times: np.ndarray, t_index: int, l: int,
                            seed: int, n_outer: int) -> np.ndarray:
    """Remaining-horizon increments of the second driver, (n_outer, N-t, l),
    reproducible from (seed, outer index) alone."""
    N = len(grid_times) - 1
    dt = float(grid_times[1] - grid_times[0])
    z = _keyed_normals(seed, _TAG_FROZEN_B, (n_outer, N - t_index, l))
    return z * np.sqrt(dt)


def solve_nested(model: Model, initial: Path, n_outer: int, seed: int,
                 branching: int = 8, picard_iters: int = 2,
                 frozen_B: Optional[np.ndarray] = None) -> BackwardSolution:
    """Nested quadrature estimate averaged over outer frozen-noise samples.

    frozen_B, when given, must be the (N - t_index, l) increment array of the
    second driver; the solve then uses that single outer sample and reports a
    zero spread.  A model without a backward driver never reads the frozen
    noise, so every outer sample poses the same conditional problem: the
    tree is swept once, each of the n_outer rows of y and z repeats that
    sweep and the spread is zero.
    """
    d, k, l = model.dims
    grid = initial.grid_times
    N = len(grid) - 1
    i_t = initial.t_index
    n_rem = N - i_t
    if frozen_B is not None:
        frozen_B = np.asarray(frozen_B, dtype=np.float64).reshape(n_rem, l)
        all_dB = frozen_B[None]
    elif n_outer < 1:
        raise ValueError(f"need at least one outer sample, got {n_outer}")
    elif model.g is None:
        all_dB = [None]
    else:
        all_dB = frozen_noise_increments(grid, i_t, l, seed, n_outer)
    n_rows = n_outer if frozen_B is None else 1
    n_sweeps = len(all_dB)

    tree = _tree_forward(model, initial, branching)
    y = np.zeros((n_sweeps, N + 1, k))
    z = np.zeros((n_sweeps, N, k, d))
    roots = np.zeros((n_sweeps, k))
    for o in range(n_sweeps):
        y_root, z_root, y_means, z_means = _tree_backward(
            model, initial, tree, all_dB[o], picard_iters
        )
        roots[o] = y_root
        y[o, i_t:] = y_means
        y[o, :i_t] = y_means[0]
        if n_rem:
            z[o, i_t:] = z_means
    if n_sweeps < n_rows:
        y = np.repeat(y, n_rows, axis=0)
        z = np.repeat(z, n_rows, axis=0)
    u_estimate = roots.mean(axis=0)
    if n_sweeps > 1:
        u_stderr = roots.std(axis=0, ddof=1) / np.sqrt(n_sweeps)
    else:
        u_stderr = np.zeros(k)
    return BackwardSolution(
        grid_times=grid,
        t_index=i_t,
        y=y,
        z=z,
        u_estimate=u_estimate,
        u_stderr=u_stderr,
        engine_tag="nested",
        scheme_params={
            "picard_iters": picard_iters,
            "picard_passes": _refinement_passes(model, picard_iters),
            "branching": int(branching),
            "n_outer": int(n_rows),
            "outer_sweeps": int(n_sweeps),
            "seed": int(seed),
            "frozen_noise_supplied": frozen_B is not None,
        },
    )


# -- field evaluation ----------------------------------------------------


def evaluate_u(model: Model, initial: Path, engine: str = "regression",
               n_scenarios: int = 4000, seed: int = 0,
               basis: Optional[RegressionBasis] = None,
               branching: int = 8, picard_iters: int = 2,
               frozen_B: Optional[np.ndarray] = None):
    """Field value at the tip of the given path: (estimate (k,), stderr (k,)).

    frozen_B conditions on a fixed remaining second driver and is only
    meaningful for the nested engine.
    """
    if engine == "regression":
        if frozen_B is not None:
            raise ValueError(
                "conditioning on a frozen second driver needs the nested engine"
            )
        d, k, l = model.dims
        drivers = sample_drivers(initial.grid_times, n_scenarios, seed, d=d, l=l)
        ens = simulate_forward(model, initial, drivers)
        sol = solve_regression(model, ens, basis=basis, picard_iters=picard_iters)
    elif engine == "nested":
        sol = solve_nested(model, initial, n_scenarios, seed, branching=branching,
                           picard_iters=picard_iters, frozen_B=frozen_B)
    else:
        raise ValueError(f"unknown engine {engine!r}; use 'regression' or 'nested'")
    return sol.u_estimate, sol.u_stderr

