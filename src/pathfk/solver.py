"""Backward solvers for the coupled two-driver system.

Two engines estimate the same discrete backward scheme:

* a regression Monte Carlo engine, projecting conditional expectations onto
  polynomial features of the forward history (plus the remaining increments
  of the second driver when the backward-integral driver is active), and
* a nested quadrature engine, expanding a non-recombining Gauss-Hermite tree
  over the first driver while the second driver's increments are frozen per
  outer sample.

Both engines share one discretization, explicit in z and in the backward
driver g (integrated backward) and implicit in y: each step reads g at its
right endpoint, from a terminal z of D Phi sigma (zero without g), takes the
conditional expectation of the continuation y + g dB once for z, and with f
iterates y toward the step's fixed point (_iterate_y), which contracts while
f's Lipschitz constant times the step is below one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetError, SolverError
from .models import _STATS, Model, running_stats
from .paths import Path
from .simulation import ScenarioEnsemble, _history_view, _keyed_normals

_MAX_TREE_NODES = 1_000_000
# roots stacked into one tree together hold at most this many leaves; a
# root whose own subtree is larger gets a tree to itself
_MAX_STACKED_LEAVES = 6 ** 6
_MAX_TREE_DEPTH = 8
_BRANCHING = 8                  # Gauss-Hermite nodes per coordinate, by default
_TAG_FROZEN_B = 3
_MIN_SCENARIOS_PER_FEATURE = 50
_BUMP_CHUNK = 4096              # histories bumped together for the terminal z


# -- regression features -------------------------------------------------


@dataclass
class RegressionBasis:
    """Polynomial features of the forward history used by the projections.

    feature_set names the raw coordinates extracted from the history at the
    projection time: "endpoint", the current state, followed by "+<name>"
    for each running statistic (models.running_stats) the design reads, in
    running_stats order; for_model's follows the model's reads, e.g.
    "endpoint+runmax" for path-f.  All monomials in the raw coordinates up to
    degree 2 are used.  The remaining-horizon increment sums of the second
    driver join them as degree-one features when the solve passes them,
    which solve_regression does exactly when the model has g.
    """

    feature_set: str = "endpoint"

    def __post_init__(self):
        head, *names = self.feature_set.split("+")
        if head != "endpoint" or names != [s for s in _STATS if s in names]:
            raise ValueError(f"unknown feature set {self.feature_set!r}: 'endpoint', then "
                             f"'+<name>' for each statistic of {_STATS} read, in that order")
        self.stats = tuple(names)        # the running statistics the design reads

    @classmethod
    def for_model(cls, model: Model) -> "RegressionBasis":
        """The endpoint and the running statistics the model reads."""
        return cls("+".join(("endpoint",) + model.reads))

    def width(self, d: int, l: int = 0) -> int:
        """Columns of the design on d history coordinates and l noise sums:
        the constant, the raw coordinates, their pairwise products and the
        noise sums."""
        r = (1 + len(self.stats)) * d
        return math.comb(r + 2, 2) + l

    def matrix(self, raw: np.ndarray,
               noise: Optional[np.ndarray] = None) -> np.ndarray:
        """Column-major design matrix of one step from its raw coordinates
        (n, r): the constant, the raw columns, their pairwise products, and
        the remaining noise sums (n, l) when given."""
        n, r = raw.shape
        l = 0 if noise is None else noise.shape[1]
        A = np.empty((n, self.width(r // (1 + len(self.stats)), l)), order="F")
        A[:, 0], A[:, 1:r + 1] = 1.0, raw
        pairs = itertools.combinations_with_replacement(range(1, r + 1), 2)
        for j, (a, b) in enumerate(pairs, r + 1):
            np.multiply(A[:, a], A[:, b], out=A[:, j])
        if l:
            A[:, -l:] = noise
        return A

    def designs(self, X: np.ndarray, t_index: int, stats: dict,
                dB: Optional[np.ndarray] = None):
        """Yield (i, design matrix) for the steps i = N-1 down to t_index.

        X holds the histories time-major, (N+1, n, d); stats, by name, the
        running statistics over X (running_stats), of which the design reads
        row i of each in self.stats; dB, when given, the second driver's
        increments time-major, (N, n, l), for the future-noise features.
        Each step's raw coordinates fill one reused column-major buffer (the
        endpoint alone is read in place), and the remaining noise sum of
        dB[i:] is carried backward, so a step costs the same however long
        the history is.
        """
        n, d = X.shape[1], X.shape[2]
        sources = [X] + [stats[name] for name in self.stats] if self.stats else []
        raw = np.empty((n, len(sources) * d), order="F")
        rest = None
        for i in range(X.shape[0] - 2, t_index - 1, -1):
            if dB is not None:
                rest = dB[i] if rest is None else rest + dB[i]
            for j, source in enumerate(sources):
                raw[:, j * d:(j + 1) * d] = source[i]
            yield i, self.matrix(raw if sources else X[i], rest)


@functools.lru_cache(maxsize=None)
def _lapack():
    from scipy.linalg import lapack    # on first use: 0.3 s of `import pathfk`
    return lapack


@functools.lru_cache(maxsize=None)
def _strict_lower(p: int) -> np.ndarray:
    mask = np.tri(p, k=-1, dtype=bool)
    mask.flags.writeable = False               # one mask serves every call
    return mask


def _column_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of a design matrix, (n, rank).

    One compact-WY Householder block (dgeqrt) factors A = QR in place (a
    column-major float64 A is overwritten), Q = I - V T V^T, and only the
    p x p triangle R takes an SVD: A shares R's singular values, and its
    left singular vectors are Q times R's.  Those that clear the
    least-squares rank cutoff s[0] * max(n, p) * eps (the rule of lstsq and
    of a full SVD of A) are kept, so collinear columns drop out (at the
    initial time every history coincides and the history monomials
    collapse onto the constant); one product forms Q [U_R; 0] = [U_R; 0] -
    V (T (V_1^T U_R)).  Needs n >= p; a non-finite design raises SolverError.
    """
    if not np.isfinite(A).all():
        raise SolverError("the design matrix has non-finite entries")
    p = A.shape[1]
    V, T, _ = _lapack().dgeqrt(p, A, overwrite_a=True)
    R = np.where(_strict_lower(p), 0.0, V[:p])
    V[:p] -= R                 # V_1, V's top rows: zero above a unit diagonal
    V[:p].flat[:: p + 1] = 1.0
    Ur, s, _, info = _lapack().dgesdd(R, overwrite_a=True)
    if info:
        raise SolverError("the SVD of the design's triangle did not converge")
    Ur = Ur[:, :np.count_nonzero(s > s[0] * max(A.shape) * np.finfo(A.dtype).eps)]
    # column-major U: the projections U (U^T T) read it faster
    U = np.matmul(V, T @ (V[:p].T @ -Ur), order="F")
    U[:p] += Ur
    return U


def _project(U: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Least-squares fitted values: the orthogonal projection of the targets
    onto the column space spanned by the orthonormal basis U."""
    return U @ (U.T @ targets)


def min_scenarios(model: Model, basis: Optional[RegressionBasis] = None) -> int:
    """Finite scenarios a regression solve of the model needs on basis (None:
    RegressionBasis.for_model), _MIN_SCENARIOS_PER_FEATURE per design
    column, so that every projection stays overdetermined by a wide margin;
    the design holds the noise sums exactly when the model has g."""
    d, _, l = model.dims
    basis = basis or RegressionBasis.for_model(model)
    return _MIN_SCENARIOS_PER_FEATURE * basis.width(d, 0 if model.g is None else l)


# -- solutions and the shared backward step ------------------------------


@dataclass
class BackwardSolution:
    """Sampled backward pair on the grid, plus the field value at the
    initial time.

    y has shape (n, N+1, k) and z, without the terminal z, (n, N, k, d);
    entries before the initial time index repeat y's value there or are 0.
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
    scheme_params: dict = field(default_factory=dict)
    rollout: Optional[np.ndarray] = field(default=None, repr=False)   # (n, k)
    fit_se: Optional[np.ndarray] = field(default=None, repr=False)    # (n, N+1, k)

    @property
    def n_samples(self) -> int:
        return self.y.shape[0]


def _step_iterations(model: Model, picard_iters: int) -> int:
    """y-iterations per backward step, none without f (the only reader of
    the step's own y); both engines ask before any work."""
    if picard_iters < 1:
        raise ValueError(f"need at least one iteration, got picard_iters={picard_iters}")
    return picard_iters if model.f is not None else 0


def _iterate_y(model: Model, x: np.ndarray, y: np.ndarray, z: np.ndarray,
               expect, lift, dt: float, iters: int, step: int, rows=None):
    """Iterate y <- expect(f(x, lift(y), lift(z)) dt) iters >= 1 times on one
    backward step from y = E[continuation], where expect(v) = E[continuation
    + v] and lift carries per-node values to the rows of x, and f reads rows
    of the running statistics in model.f_reads (model.f_rows(x), derived
    once, when None); returns the last y, the last f dt and the rms of the
    last update.  While f honours
    model.lip_C each update is at most lip_C * dt times the one before
    (expect cannot lengthen a vector), so one that does not shrink, above a
    round-off floor of 1e-12 (1 + max |y|), raises SolverError naming the step."""
    z, last = lift(z), None
    rows = model.f_rows(x) if rows is None else rows
    for it in range(iters):
        fdt = model.f(x, lift(y), z, *rows) * dt
        new = expect(fdt)
        step_y = new - y
        update = math.sqrt(np.vdot(step_y, step_y) / step_y.size)
        if it and update >= last and update > 1e-12 * (1.0 + np.abs(new).max()):
            raise SolverError(
                f"step {step}: the y-iteration update did not shrink ({last:.3g} "
                f"-> {update:.3g}); the step's fixed point requires f's Lipschitz "
                f"constant times the step, model.lip_C * dt = {model.lip_C * dt:.4g}, "
                "to stay below one")
        y, last = new, update
    return y, fdt, last


def _terminal_z(model: Model, X: np.ndarray, dt: float, copy: bool) -> np.ndarray:
    """Terminal z = D Phi sigma, (n, k, d), of the histories in a time-major
    buffer X (N+1, n, d): one central bump through Phi of each row's last
    value by its own h = 1e-4 (1 + max |x_N|).  The bumps go, _BUMP_CHUNK
    rows at a time, into X's last row, which is restored bit for bit, or
    with copy (X being the caller's) into a copy of each chunk."""
    d = X.shape[2]
    z = np.empty((X.shape[1], model.dims[1], d))
    for s in range(0, X.shape[1], _BUMP_CHUNK):
        C = X[:, s:s + _BUMP_CHUNK].copy() if copy else X[:, s:s + _BUMP_CHUNK]
        history, last = _history_view(C), C[-1].copy()
        h = 1e-4 * (1.0 + np.abs(last).max(axis=1))
        grad = np.empty((C.shape[1], model.dims[1], d))
        for a in range(d):
            np.add(last[:, a], h, out=C[-1, :, a])
            grad[:, :, a] = model.Phi(history, dt)
            np.subtract(last[:, a], h, out=C[-1, :, a])
            grad[:, :, a] -= model.Phi(history, dt)
            C[-1, :, a] = last[:, a]
        grad /= 2.0 * h[:, None, None]
        z[s:s + _BUMP_CHUNK] = np.einsum("nka,nae->nke", grad, model.sigma(history))
    return z


# -- regression engine ---------------------------------------------------


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

    The features follow the model: basis's monomials of the history
    (RegressionBasis.for_model's when basis is None), and with g the
    remaining sums of the second driver's increments; fewer finite
    scenarios than min_scenarios raise BudgetError before the first step.
    One sweep runs from the last step to the initial one.  Each step's
    design matrix is built column-major and factored once, in place, by one
    compact-WY Householder block and an SVD of the p x p triangle, into an
    orthonormal basis formed by one matrix product (_column_basis; a
    non-finite design raises SolverError); every update on that step (the
    centring term, z, each y-iteration, and the rollout behind fit_se) is a
    projection onto that basis, which is dropped before the next step.

    g reads the step's right endpoint, from the terminal z on; z is taken
    from the continuation y_{i+1} + g dB_i, centred by its projection,
    which is also y's start, and with f, y iterates picard_iters times
    (_iterate_y; scheme_params["step_iterations"], 0 without f), raising
    SolverError at the first step whose update does not shrink.  The
    running statistics (models.running_stats) that f or the design reads,
    and only those, are computed once per solve, time-major; at step i, f's
    block is the history up to row i + 1, and it is handed row i + 1 of each
    statistic in model.f_reads, the design row i.
    scheme_params["update_norms"] holds each step's last update, from
    t_index on (empty without f).

    With record_fit_se, fit_se holds the pointwise standard error of the
    fitted y: the leverage of each scenario times the rollout's residual
    variance over n - rank degrees of freedom.
    """
    iters = _step_iterations(model, picard_iters)
    basis = basis or RegressionBasis.for_model(model)
    d, k, l = model.dims
    drivers = ensemble.drivers
    valid = ensemble.valid_mask
    X = _time_major(ensemble.x_values, valid)
    Np1, n, _ = X.shape
    need = min_scenarios(model, basis)
    if need > n:
        raise BudgetError(
            f"{need // _MIN_SCENARIOS_PER_FEATURE} features need at least {need} "
            f"scenarios, got {n} of {ensemble.n_scenarios} "
            f"({ensemble.excluded_count} excluded as non-finite)")
    dW = _time_major(drivers.dW, valid)
    history = _history_view(X)
    N = Np1 - 1
    i_t = ensemble.initial.t_index
    dt = ensemble.initial.dt

    # without g no term and no feature reads dB, so it is never drawn
    dB = None if model.g is None else _time_major(drivers.dB, valid)

    # the running statistics, carried once for f and for the design
    stats = running_stats(X, dt, basis.stats + model.f_reads)

    phi = model.Phi(history, dt)
    # z of the step solved last, which g reads: the terminal z first
    z = (np.zeros((n, k, d)) if model.g is None
         else _terminal_z(model, X, dt, copy=True))
    # rows before t_index are filled at the end
    Y = np.empty((N + 1, n, k))
    Z = np.zeros((N, n, k, d))
    Y[N] = phi
    update_norms = []
    # pathwise accumulation of the drivers; its mean equals the field
    # estimate and its spread carries the full sampling error
    rollout = phi.copy()
    fit_se = np.zeros((N + 1, n, k)) if record_fit_se else None

    for i, A in basis.designs(X, i_t, stats, dB):
        try:
            U = _column_basis(A)
        except SolverError as exc:
            raise SolverError(f"step {i}: {exc} (a feature overflowed, or the "
                              "second driver's increments are not finite)") from None
        x = history[:, : i + 2]
        cont = Y[i + 1]
        if model.g is not None:
            gdB = np.einsum("nkl,nl->nk", model.g(x, Y[i + 1], z), dB[i])
            cont = cont + gdB
        # center the z-target with the fitted continuation value; the
        # centering term is a function of the features, so it leaves the
        # conditional expectation unchanged while removing the dominant
        # 1/dt variance of the raw product
        center = _project(U, cont)
        z_target = (cont - center)[:, :, None] * dW[i][:, None, :] / dt
        Z[i] = z = _project(U, z_target.reshape(n, k * d)).reshape(n, k, d)
        Y[i] = center
        if iters:
            # f's block ends at row i + 1, and so does the row it reads
            Y[i], fdt, update = _iterate_y(
                model, x, center, z, lambda v: _project(U, cont + v), lambda v: v,
                dt, iters, i, [stats[name][i + 1] for name in model.f_reads])
            update_norms.append(update)
            rollout = rollout + fdt
        if model.g is not None:
            rollout = rollout + gdB
        if record_fit_se:
            # hat-matrix diagonal times the residual variance of the
            # rollout: the step target understates the noise carried by
            # a backward-recursed fit, the accumulated value-to-go does not
            resid = rollout - _project(U, rollout)
            resid_var = np.sum(resid ** 2, axis=0) / max(n - U.shape[1], 1)
            leverage = np.sum(U ** 2, axis=1)
            fit_se[i] = np.sqrt(leverage[:, None] * resid_var[None, :])

    Y[:i_t] = Y[i_t]
    u_estimate = Y[i_t].mean(axis=0)
    u_stderr = rollout.std(axis=0, ddof=1) / np.sqrt(n)
    return BackwardSolution(
        grid_times=ensemble.initial.grid_times,
        t_index=i_t,
        y=Y.transpose(1, 0, 2),
        z=Z.transpose(1, 0, 2, 3),
        u_estimate=u_estimate,
        u_stderr=u_stderr,
        scheme_params={
            "picard_iters": picard_iters,
            "step_iterations": iters,
            "feature_set": basis.feature_set,
            "future_noise_features": dB is not None,
            "n_scenarios": int(n),
            "excluded_scenarios": ensemble.excluded_count,
            "seed": int(drivers.seed),
            "update_norms": update_norms[::-1],
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


def tree_step(d: int, depth: int, branching: int = _BRANCHING) -> int:
    """Nodes per step, branching ** d, of a quadrature tree over d
    coordinates with depth steps left, once its budget holds: a branching
    below 2 raises ValueError (one node drops the diffusion), and a depth
    over _MAX_TREE_DEPTH or more than _MAX_TREE_NODES leaves per root
    BudgetError."""
    if branching < 2:
        raise ValueError(
            f"need at least two nodes per coordinate, got branching={branching}")
    if depth > _MAX_TREE_DEPTH:
        raise BudgetError(
            f"{depth} remaining steps exceed the tree depth limit {_MAX_TREE_DEPTH}")
    if branching ** (d * max(depth, 1)) > _MAX_TREE_NODES:
        raise BudgetError(
            f"tree would hold {branching ** (d * depth)} leaves, over the "
            f"{_MAX_TREE_NODES} budget; lower the branching or the depth")
    return branching ** d


def _tree_forward(model: Model, roots: Sequence[Path], branching: int,
                  scratch: Optional[list] = None):
    """Expand one non-recombining quadrature tree of forward histories from
    root paths of equal depth on one grid.

    Returns (levels, dw_nodes, w_nodes): per-level histories (nodes, time,
    d) and the per-step increment abscissae and weights of the d-fold
    Gauss-Hermite product rule, the last coordinate varying fastest, within
    tree_step's budget.  Level 0 holds the roots and level j the R *
    per_step**j descendants, root-major, so every per-node operation acts on each root's subtree as
    it would on a tree of its own.  The expansion is independent of the
    frozen second driver, so one tree serves every outer sample.  Every
    level is a read-only strided view of one time-major (time, leaves, d)
    buffer, levels[-1] all of it; a scratch list keeps that buffer, and a
    later tree no larger overwrites it.
    """
    d = model.dims[0]
    first = roots[0]
    dt = first.dt
    n_rem = len(first.grid_times) - 1 - first.t_index
    per_step = tree_step(d, n_rem, branching)
    nodes1, weights1 = _gauss_hermite(branching)
    dw_nodes = np.stack(np.meshgrid(*[nodes1] * d, indexing="ij"),
                        axis=-1).reshape(per_step, d) * np.sqrt(dt)
    w_nodes = functools.reduce(np.multiply.outer, [weights1] * d).ravel()

    # forward expansion, each row written once over its node's descendants:
    # the first descendant leaf of a level-j node carries its history
    n_leaves, i_t = len(roots) * per_step ** n_rem, first.t_index
    size = len(first.grid_times) * n_leaves * d
    scratch = [] if scratch is None else scratch
    if not scratch or scratch[0].size < size:
        scratch.clear()                  # free the old buffer before the new one
        scratch.append(np.empty(size))
    buf = scratch[0][:size].reshape(-1, n_leaves, d)
    buf[:i_t + 1].reshape(i_t + 1, len(roots), -1, d)[...] = np.stack(
        [p.values for p in roots], axis=1)[:, :, None]
    levels = [_history_view(buf[:i_t + 1, ::per_step ** n_rem])]
    for j in range(n_rem):
        X = levels[-1]
        step = (model.b(X)[:, None, :] * dt
                + np.einsum("mij,qj->mqi", model.sigma(X), dw_nodes))
        ends = (X[:, -1][:, None, :] + step).reshape(-1, 1, d)
        buf[i_t + 1 + j].reshape(ends.shape[0], -1, d)[...] = ends
        levels.append(_history_view(buf[:i_t + 2 + j, ::per_step ** (n_rem - 1 - j)]))
    return levels, dw_nodes, w_nodes


def _by_children(a: np.ndarray, per_step: int) -> np.ndarray:
    """A level's (m * per_step, k) values as an (m * k, per_step) matrix:
    one row per parent node and component, one column per child, so a
    single matrix product takes the quadrature over a whole level."""
    k = a.shape[1]
    return a.reshape(-1, per_step, k).transpose(0, 2, 1).reshape(-1, per_step)


def _tree_backward(model: Model, initial: Path, tree, terminal,
                   dB: Optional[np.ndarray], iters: int):
    """One backward sweep of an expanded tree for one frozen second driver.

    Each level takes the quadrature of its children's continuation y + g dB
    once (g at the children's own (y, z), from the terminal (Phi, z) on); z
    follows, and with f, y iterates iters times (_iterate_y).  dB holds the
    frozen increments (N_rem, l), read only when the model has a backward
    driver.  Returns the per-level values (y_levels, z_levels): y_levels[j]
    (nodes_j, k) and z_levels[j] (nodes_j, k, d), level 0 holding the roots
    and level N_rem the terminal (Phi, z), whose z only g reads.
    """
    levels, dw_nodes, w_nodes = tree
    d, k, l = model.dims
    dt = initial.dt
    n_rem = len(levels) - 1
    per_step = dw_nodes.shape[0]
    z_weights = w_nodes[:, None] * dw_nodes / dt          # (per_step, d)
    lift = lambda v: v.repeat(per_step, axis=0)
    y_levels = [None] * n_rem + [terminal[0]]
    z_levels = [None] * n_rem + [terminal[1]]
    for j in range(n_rem - 1, -1, -1):
        m = levels[j].shape[0]
        cont = y_levels[j + 1]
        if model.g is not None:
            # einsum, not matmul: numpy's stacked matmul and BLAS gemv
            # are several times slower on these one-column products
            gv = model.g(levels[j + 1], y_levels[j + 1], z_levels[j + 1])
            cont = cont + np.einsum("nkl,l->nk", gv, dB[j])
        integ = _by_children(cont, per_step)
        z_levels[j] = (integ @ z_weights).reshape(m, k, d)
        y_levels[j] = y = (integ @ w_nodes).reshape(m, k)
        if iters:       # E[cont + v] = y + E[v], so an iteration contracts v alone
            y_levels[j] = _iterate_y(
                model, levels[j + 1], y, z_levels[j],
                lambda v: y + (_by_children(v, per_step) @ w_nodes).reshape(m, k),
                lift, dt, iters, initial.t_index + j)[0]
    return y_levels, z_levels


def frozen_noise_increments(grid_times: np.ndarray, t_index: int, l: int,
                            seed: int, n_outer: int) -> np.ndarray:
    """Remaining-horizon increments of the second driver, (n_outer, N-t, l),
    from the (seed, frozen B) stream; a larger n_outer keeps the earlier
    outer samples."""
    shape = (n_outer, len(grid_times) - 1 - t_index, l)
    return _keyed_normals(seed, _TAG_FROZEN_B, shape, scale=np.sqrt(grid_times[1] - grid_times[0]))


def _nested_sweeps(model: Model, roots: Sequence[Path], n_outer: int,
                   seed: int, branching: int, picard_iters: int,
                   frozen_B: Optional[np.ndarray], keep, scratch, drawn) -> list:
    """Grow one tree from root paths of equal depth on one grid and sweep it
    once per outer sample; returns keep(tree, y_levels, z_levels) per sweep,
    so each sweep's levels are released before the next one runs.  The
    outer samples are frozen_B when given, one (N - t_index, l) array or a
    stack of them (S, N - t_index, l), one sweep per row, and n_outer, seed
    and drawn are not read; otherwise they depend only on (seed, depth), so
    every root shares them (see solve_nested), and are drawn once per
    (t_index, grid) into drawn.  The tree grows in scratch (see
    _tree_forward)."""
    iters = _step_iterations(model, picard_iters)
    first = roots[0]
    d, k, l = model.dims
    n_rem = len(first.grid_times) - 1 - first.t_index
    if frozen_B is not None:
        all_dB = np.asarray(frozen_B, dtype=np.float64)
        all_dB = all_dB.reshape(math.prod(all_dB.shape[:-2]), n_rem, l)
    elif n_outer < 1:
        raise ValueError(f"need at least one outer sample, got {n_outer}")
    elif model.g is None:
        all_dB = [None]
    else:
        key = (first.t_index, first.grid_times.tobytes())
        if key not in drawn:         # at the horizon no increment is read or drawn
            drawn[key] = (frozen_noise_increments(first.grid_times, first.t_index, l,
                                                  seed, n_outer)
                          if n_rem else np.zeros((n_outer, 0, l)))
        all_dB = drawn[key]
    tree = _tree_forward(model, roots, branching, scratch)
    leaves = tree[0][-1]                                   # (leaves, N+1, d)
    phi, z_end = model.Phi(leaves, first.dt), None      # only g reads the terminal z
    if model.g is not None:        # bumps the tree buffer's last row in place
        X = scratch[0][:leaves.size].reshape(leaves.shape[1], leaves.shape[0], d)
        z_end = _terminal_z(model, X, first.dt, copy=False)
    return [keep(tree, *_tree_backward(model, first, tree, (phi, z_end), dB, iters))
            for dB in all_dB]


def _root_and_means(tree, y_levels, z_levels):
    """The root value of a one-root sweep and the quadrature-weighted mean
    of y and z over each tree level, from the cumulative node weights of
    each level."""
    w_nodes = tree[2]
    level_w = [np.ones(1)]
    for _ in y_levels[1:]:
        level_w.append((level_w[-1][:, None] * w_nodes[None, :]).ravel())
    return (y_levels[0][0],
            [np.einsum("m,mk->k", w, y) for w, y in zip(level_w, y_levels)],
            [np.einsum("m,mkd->kd", w, z) for w, z in zip(level_w, z_levels[:-1])])


def solve_nested(model: Model, initial: Path, n_outer: int, seed: int,
                 branching: int = _BRANCHING, picard_iters: int = 2,
                 frozen_B: Optional[np.ndarray] = None) -> BackwardSolution:
    """Nested quadrature estimate averaged over outer frozen-noise samples.

    frozen_B, when given, must be the (N - t_index, l) increment array of the
    second driver, or ValueError; the solve then uses that single outer
    sample and reports a zero spread.  A model without a backward driver never reads the frozen
    noise, so every outer sample poses the same conditional problem: the
    tree is swept once, each of the n_outer rows of y and z repeats that
    sweep and the spread is zero.  With f, each level's y iterates
    picard_iters times (_iterate_y; scheme_params["step_iterations"]).
    """
    d, k, _ = model.dims
    grid = initial.grid_times
    N = len(grid) - 1
    i_t = initial.t_index
    if frozen_B is not None and np.shape(frozen_B) != (N - i_t, model.dims[2]):
        raise ValueError(f"frozen_B must be one {(N - i_t, model.dims[2])} array of "
                         f"the remaining increments, got shape {np.shape(frozen_B)}")
    roots, y_means, z_means = zip(*_nested_sweeps(
        model, [initial], n_outer, seed, branching, picard_iters, frozen_B,
        _root_and_means, scratch=[], drawn={}))
    n_rows = n_outer if frozen_B is None else 1
    n_sweeps = len(roots)
    y = np.zeros((n_sweeps, N + 1, k))
    z = np.zeros((n_sweeps, N, k, d))
    y[:, i_t:] = y_means
    y[:, :i_t] = y[:, i_t:i_t + 1]
    if i_t < N:
        z[:, i_t:] = z_means
    if n_sweeps < n_rows:
        y = np.repeat(y, n_rows, axis=0)
        z = np.repeat(z, n_rows, axis=0)
    roots = np.array(roots)
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
        scheme_params={
            "picard_iters": picard_iters,
            "step_iterations": _step_iterations(model, picard_iters),
            "branching": int(branching),
            "n_outer": int(n_rows),
            "outer_sweeps": int(n_sweeps),
            "seed": int(seed),
            "frozen_noise_supplied": frozen_B is not None,
        },
    )


def _nested_estimates(model: Model, paths: Sequence[Path],
                     n_scenarios: int = 4000, seed: int = 0,
                     branching: int = _BRANCHING, picard_iters: int = 2,
                     frozen_B: Optional[np.ndarray] = None, drawn=None) -> np.ndarray:
    """solve_nested's u_estimate at the tip of every path, (len(paths), k),
    with n_scenarios outer samples, or, given frozen_B, the field
    conditioned on it: a stack of S samples (S, N - t_index, l) gives one
    value per sample from one sweep each, (len(paths), S, k), the
    averaging skipped.

    Paths of equal depth on one grid grow one tree from their stacked
    histories, in groups of at most _MAX_STACKED_LEAVES leaves (a root with
    more leaves than that alone), and share each outer sweep.  Every value
    equals the path's own solve up to round-off.  The trees grow in turn in
    one history buffer, which lives for the call; drawn keeps the outer samples.
    """
    out = np.empty((len(paths),) + np.shape(frozen_B)[:-2] + (model.dims[1],))
    scratch, groups, drawn = [], {}, {} if drawn is None else drawn
    for r, p in enumerate(paths):
        groups.setdefault((p.t_index, p.grid_times.tobytes()), []).append(r)
    per_step = branching ** model.dims[0]
    for members in groups.values():
        first = paths[members[0]]
        n_rem = len(first.grid_times) - 1 - first.t_index
        size = max(1, _MAX_STACKED_LEAVES // per_step ** n_rem)
        for start in range(0, len(members), size):
            chunk = members[start:start + size]
            tips = np.array(_nested_sweeps(                 # (S, R, k)
                model, [paths[r] for r in chunk], n_scenarios, seed, branching,
                picard_iters, frozen_B, lambda tree, y_levels, z_levels: y_levels[0],
                scratch, drawn))
            # per root, the mean solve_nested takes, so one root reproduces it
            for j, r in enumerate(chunk):
                out[r] = (tips[:, j].mean(axis=0) if frozen_B is None
                          else tips[:, j].reshape(out.shape[1:]))
    return out
