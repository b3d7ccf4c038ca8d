"""Statistical verification of the structural identities tying the backward
pair to the path field: the representation of z through the field gradient,
the discrete field equation along simulated paths, the flow (tower)
consistency, comparison monotonicity, stability under coefficient
discretization, and moment / regularity envelopes.

Every check returns a CheckReport whose statistic is normalized so that the
pass threshold is 1.0 unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .calculus import PathFunctional, _jet, vertical_derivative
from .errors import GridAlignmentError, PreconditionError
from .models import Model, ModelRegistryEntry, on_path
from .paths import (Path, discretize_values, path_dist, restrict, sup_norm,
                    vertical_bump)
from .reports import CheckReport
from .simulation import (ScenarioEnsemble, _simulate, random_initial_path,
                         simulate_forward, stream_seed)
from .solver import (BackwardSolution, RegressionBasis, _nested_estimates,
                     solve_regression)

_EPS = 1e-12
# stream_seed roles under a check's seed, apart from the driver tags 1-3
_FLOW_RESTARTS = 11
_COMPARISON_PATHS = 12
_COMPARISON_DRIVERS = 13
_MOMENT_DRIVERS = 14
# z_growth's envelope quantile, and the multiple of it that flags a sample
_BULK_QUANTILE = 0.99
_OUTLIER_FACTOR = 5.0
# the factor by which an odd-indexed probe may exceed the envelope fitted
# on the even-indexed ones
_HEADROOM = 3.0
NODE_COUNTS = (2, 4, 8, 16)     # discretization's, checked by config too
MOMENT_SCENARIOS = 500          # scenarios per moment probe, checked by config too


def _at_least_count(name: str, value: int, least: int) -> None:
    """ValueError naming a check's count argument below its least value,
    raised before the check's first solve."""
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


# -- field functionals ---------------------------------------------------


def field_from_closed_form(entry: ModelRegistryEntry) -> PathFunctional:
    """Wrap a registry closed form as a path functional; the gradient is
    derived from the closed-form z when present (identity diffusion)."""
    if entry.closed_form_u is None:
        raise ValueError(f"model {entry.name!r} has no closed form")
    d_x = None
    if entry.closed_form_Z is not None:
        d_x = lambda p: np.asarray(entry.closed_form_Z(p), dtype=np.float64)
    k = entry.model.dims[1]
    return PathFunctional(eval=entry.closed_form_u, output_shape=(k,),
                          regularity_tag="C12", d_x=d_x)


@dataclass
class _StackedField(PathFunctional):
    """A field whose batch is one stacked evaluation of all its paths and
    whose conditioning, when set, is condition(dB)."""

    stacked: Optional[Callable[[Sequence[Path]], np.ndarray]] = None
    condition: Optional[Callable[[np.ndarray], PathFunctional]] = None

    def batch(self, paths: Sequence[Path]) -> np.ndarray:
        return self._checked(self.stacked(paths), (len(paths),) + self.output_shape)

    def given(self, dB: np.ndarray) -> PathFunctional:
        return self if self.condition is None else self.condition(dB)


def field_from_engine(model: Model, engine: str = "nested",
                      **engine_kwargs) -> PathFunctional:
    """The nested engine's field as a path functional (estimates only): a
    batch of paths stacks those of equal depth into shared trees
    (solver._nested_estimates), and a single value is its batch of one.

    The field averages over n_scenarios outer frozen-noise samples, drawn
    once per depth: with g it is E_B u, as regularity reads it.  given(dB)
    is the random field itself, u(p; dB), with dB as the frozen noise and
    neither n_scenarios nor the drawn samples read; a stack of S samples
    gives S values per path, each tree grown once and swept once per
    sample.  Any other engine raises ValueError."""
    if engine != "nested":
        raise ValueError(f"only the nested engine defines a field, got {engine!r}")

    def field(shape, **noise):
        stacked = lambda paths: _nested_estimates(model, paths, **noise, **engine_kwargs)
        return _StackedField(eval=lambda p: stacked([p])[0], output_shape=shape,
                             regularity_tag="C12", stacked=stacked, condition=given)

    def given(dB):
        dB = np.asarray(dB, dtype=np.float64)
        return field(dB.shape[:-2] + (model.dims[1],), frozen_B=dB)

    return field((model.dims[1],), drawn={})


# -- field equation residual --------------------------------------------


def spde_residual(u: PathFunctional, model: Model,
                  ensemble: ScenarioEnsemble) -> np.ndarray:
    """Per-scenario residual of the discrete field equation along the
    simulated paths.

    The time-derivative term is eliminated through the pathwise chain rule,
    so each step contributes
        -(L u + f) dt - g dB + D_x u . dX + 0.5 tr(D_xx u dX dX^T),
    where L is the forward generator; the residual is the gap between that
    telescoped sum and the terminal value.  With g the field is random: the
    jet at prefix i of scenario s reads u.given(dB[s, i:]), the field
    conditioned on that scenario's own remaining increments, so the -g dB
    term can cancel.  Scalar fields only.
    """
    if model.dims[1] != 1:
        raise ValueError("residual check supports scalar fields only")
    grid = ensemble.initial.grid_times
    dt = ensemble.initial.dt
    i_t = ensemble.initial.t_index
    N = len(grid) - 1
    X = ensemble.x_values
    if not len(X):               # every scenario excluded: no path to score
        return np.zeros(0)
    # with g = None the g dB term is zero: dB is not read, so not drawn
    dB = None if model.g is None else ensemble.drivers.dB

    def jet(F: PathFunctional, p: Path, hessian: bool = True):
        # a prefix's field values and derivatives from one batch of paths,
        # one jet per conditioning sample (one for a deterministic field)
        y, dx, dxx = _jet(F, p, hessian=hessian)
        d = p.dimension
        dx = dx.reshape(-1, d)
        dxx = dxx.reshape(-1, d, d) if hessian else [None] * len(dx)
        sig = on_path(model.sigma, p)
        return [(p, y_r, dx_r, dxx_r, sig, (sig.T @ dx_r)[None, :])
                for y_r, dx_r, dxx_r in zip(y.reshape(-1, 1), dx, dxx)]

    def at(rows, i: int) -> PathFunctional:
        # with g, the field conditioned on the rows' increments after step i
        return u if dB is None else u.given(dB[rows, i:])

    # simulate_forward copies the initial path into every scenario, so the
    # initial prefix's jet is one batch: one jet for every scenario, or with
    # g and a random field, one per scenario
    first = jet(at(slice(None), i_t), ensemble.initial)
    first = first * X.shape[0] if len(first) == 1 else first
    res = np.zeros(X.shape[0])
    for s in range(X.shape[0]):
        path = Path(grid, X[s])
        jets = ([first[s]]
                + [jet(at(s, i), restrict(path, grid[i]))[0] for i in range(i_t + 1, N)]
                + [jet(at(s, N), path, hessian=False)[0]])
        total = jets[0][1][0] - jets[-1][1][0]   # u at t minus u at the horizon
        for i in range(N - 1, i_t - 1, -1):
            pi, y_i, dx, dxx, sig, z_i = jets[i - i_t]
            p_next, y_next, _, _, _, z_next = jets[i + 1 - i_t]
            gen = float(on_path(model.b, pi) @ dx) + 0.5 * np.trace(sig @ sig.T @ dxx)
            fv = float(on_path(model.eval_f, pi, y_i, z_i)[0])
            g_term = 0.0 if dB is None else float(
                on_path(model.g, p_next, y_next, z_next)[0] @ dB[s, i])
            dX = X[s, i + 1] - X[s, i]
            total += (-(gen + fv) * dt - g_term + dx @ dX
                      + 0.5 * float(dX @ dxx @ dX))
        res[s] = total
    return res


def spde_residual_check(u: PathFunctional, model: Model,
                        ensemble: ScenarioEnsemble, tol: float) -> CheckReport:
    res = spde_residual(u, model, ensemble)
    rms = float(np.sqrt(np.mean(res ** 2)))
    scale = 1.0 + float(np.abs(ensemble.x_values).max())
    return CheckReport.make(
        "field_equation_residual", rms / scale, tol, len(res),
        details=[f"rms residual {rms:.3g} over {len(res)} paths, scale {scale:.3g}"],
        samples=[(f"path_{s}", r) for s, r in enumerate(res[:50])],
    )


# -- z representation ----------------------------------------------------


def z_representation_check(model: Model, solution: BackwardSolution,
                           ensemble: ScenarioEnsemble,
                           z_reference: Optional[Callable[[Path], np.ndarray]] = None,
                           u: Optional[PathFunctional] = None,
                           n_sub: int = 100, tol: float = 0.05) -> CheckReport:
    """RMS relative gap, over a scenario-times-steps subsample, between the
    solver's z and the diffusion-weighted field gradient along each path.

    The gradient side comes from the closed form when supplied, otherwise
    from finite differences of the given field functional, with g of the
    field conditioned on the scenario's own increments after the step,
    u.given(dB[s, i:]); samples whose derivative estimate is flagged
    unreliable are excluded and the exclusion rate is reported.
    """
    if z_reference is None and u is None:
        raise ValueError("need either a closed-form z or a field functional")
    _at_least_count("n_sub", n_sub, 1)
    grid = ensemble.initial.grid_times
    i_t = solution.t_index
    N = len(grid) - 1
    X = ensemble.x_values
    dB = None if model.g is None else ensemble.drivers.dB
    n_sub = min(n_sub, X.shape[0])
    rels = []
    excluded = 0
    for s in range(n_sub):
        path = Path(grid, X[s])
        for i in range(i_t, N):
            pi = restrict(path, grid[i])
            if z_reference is not None:
                z_ref = np.asarray(z_reference(pi), dtype=np.float64)
            else:
                est = vertical_derivative(u if dB is None else u.given(dB[s, i:]), pi)
                if not est.is_reliable(0.05 * (1.0 + float(np.abs(est.value).max()))):
                    excluded += 1
                    continue
                z_ref = (est.value.reshape(model.dims[1], model.dims[0])
                         @ on_path(model.sigma, pi))
            z_est = solution.z[s, i]
            rels.append(np.linalg.norm(z_est - z_ref)
                        / (1.0 + np.linalg.norm(z_ref)))
    rms = float(np.sqrt(np.mean(np.square(rels))))
    return CheckReport.make(
        "z_representation", rms, tol, len(rels),
        details=[f"{len(rels)} scenario-step samples, {excluded} excluded "
                 "for unreliable derivatives"],
        samples=[("rms", rms), ("max", float(np.max(rels))),
                 ("excluded", float(excluded))],
    )


def z_growth_check(solution: BackwardSolution, ensemble: ScenarioEnsemble,
                   q: float = 1.0) -> CheckReport:
    """Fit the envelope constant for |z| against 1 + sup|X|^q at the bulk
    quantile and flag samples exceeding a multiple of it."""
    i_t = solution.t_index
    z = solution.z[:, i_t:]
    sup = 1.0 + np.max(np.linalg.norm(ensemble.x_values, axis=2), axis=1) ** q
    znorm = np.sqrt(np.sum(z ** 2, axis=(1, 2, 3)) / max(z.shape[1], 1))
    ratios = znorm / sup
    C = float(np.quantile(ratios, _BULK_QUANTILE)) + _EPS
    frac_out = float(np.mean(ratios > _OUTLIER_FACTOR * C))
    return CheckReport.make(
        "z_growth_envelope", frac_out, 0.0, len(ratios),
        details=[f"envelope constant {C:.4g} at quantile {_BULK_QUANTILE}",
                 f"outlier fraction beyond {_OUTLIER_FACTOR}x: {frac_out:.4g}"],
        samples=[("envelope_constant", C), ("max_ratio", float(ratios.max()))],
    )


# -- flow (tower) consistency -------------------------------------------


def flow_check(model: Model, initial: Path, s: float,
               n_scenarios: int = 10_000, n_resolve: int = 20, seed: int = 0,
               basis: Optional[RegressionBasis] = None) -> CheckReport:
    """Restart consistency at an intermediate time: the solve-from-t
    estimate of the value at time s along a scenario must agree with a
    fresh solve restarted from that scenario's realized prefix.

    Each of n_resolve scenarios is re-solved on 2,000 scenarios of fresh
    dW and, with g, of its own dB, on which its value at s is conditioned;
    agreement is demanded within three combined standard errors (restart
    stderr plus the fitted-value standard error of the original solve).
    """
    grid = initial.grid_times
    i_t = initial.t_index
    s_idx = initial.time_to_index(s)
    if s_idx <= i_t or s_idx >= len(grid) - 1:
        raise ValueError(
            f"intermediate time {s} must lie strictly between the initial "
            "time and the horizon")
    _at_least_count("n_resolve", n_resolve, 1)
    ens = _simulate(model, initial, n_scenarios, seed)
    sol = solve_regression(model, ens, basis=basis, record_fit_se=True)
    X = ens.x_values
    dB = None if model.g is None else ens.drivers.dB

    samples = []
    for j in range(min(n_resolve, X.shape[0])):
        prefix = Path(grid, X[j, : s_idx + 1])
        own_dB = None if dB is None else np.broadcast_to(dB[j], (2_000, *dB.shape[1:]))
        ens_j = _simulate(model, prefix, 2_000, stream_seed(seed, _FLOW_RESTARTS, j),
                          dB=own_dB)
        sol_j = solve_regression(model, ens_j, basis=basis)
        direct = sol.y[j, s_idx]
        se_direct = sol.fit_se[j, s_idx]
        combined = np.sqrt(se_direct ** 2 + sol_j.u_stderr ** 2) + _EPS
        zstat = float(np.max(np.abs(direct - sol_j.u_estimate)
                             / (3.0 * combined)))
        samples.append((f"scenario_{j}", zstat))
    stat = max(zstat for _, zstat in samples)
    return CheckReport.make(
        "flow_consistency", stat, 1.0, len(samples),
        details=[f"restart at s={s} over {len(samples)} scenarios; worst "
                 f"|direct-restart| at {stat:.3g} of its 3-stderr budget"],
        samples=samples,
    )


# -- comparison ----------------------------------------------------------


def _precondition_probes(m1: Model, m2: Model, grid, n_probes, seed):
    rng = np.random.default_rng(seed)
    d, k, l = m1.dims
    N = len(grid) - 1
    for _ in range(n_probes):
        ti = int(rng.integers(0, N + 1))
        p = random_initial_path(grid, ti, d, rng)
        y = rng.normal(size=k)
        z = rng.normal(size=(k, d))
        if any(np.any(np.abs(on_path(c1, p) - on_path(c2, p)) > _EPS)
               for c1, c2 in ((m1.b, m2.b), (m1.sigma, m2.sigma))):
            raise PreconditionError("comparison requires one forward process")
        if ti == N:
            phi1, phi2 = on_path(m1.Phi, p, p.dt), on_path(m2.Phi, p, p.dt)
            if np.any(phi1 < phi2 - _EPS):
                raise PreconditionError(
                    f"terminal ordering fails at a probe path: {phi1} < {phi2}"
                )
        if np.any(on_path(m1.eval_f, p, y, z) < on_path(m2.eval_f, p, y, z) - _EPS):
            raise PreconditionError("time-driver ordering fails at a probe")
        if np.any(np.abs(on_path(m1.eval_g, p, y, z)
                         - on_path(m2.eval_g, p, y, z)) > _EPS):
            raise PreconditionError(
                "comparison requires identical backward drivers"
            )


def comparison_check(m1: Model, m2: Model, initial: Path,
                     n_scenarios: int = 10_000, seed: int = 0,
                     n_probes: int = 50, n_initials: int = 20,
                     n_initial_scenarios: int = 2_000) -> CheckReport:
    """Ordered data must give ordered solutions.

    Scenario-wise: on the given initial path, with one shared driver sample,
    the pointwise backward values must satisfy the ordering at every grid
    time within a noise margin.  Expectation-level: over n_initials random
    initial paths the field estimates must be ordered within three combined
    standard errors.  The probes require equal b and sigma, so both models
    are solved on one simulated ensemble per driver sample.
    """
    if m1.dims[1] != 1:
        raise ValueError("comparison requires a scalar backward component")
    _at_least_count("n_initials", n_initials, 1)
    _precondition_probes(m1, m2, initial.grid_times, n_probes, seed)
    ens = _simulate(m1, initial, n_scenarios, seed)
    s1 = solve_regression(m1, ens)
    s2 = solve_regression(m2, ens)
    i_t = initial.t_index
    margin = 3.0 * float(np.max(s1.u_stderr + s2.u_stderr)) + 1e-9
    worst = float((s2.y[:, i_t:] - s1.y[:, i_t:]).max())

    rng = np.random.default_rng(stream_seed(seed, _COMPARISON_PATHS))
    mean_stats = []
    for j in range(n_initials):
        p = random_initial_path(initial.grid_times, i_t, m1.dims[0], rng)
        ens_j = _simulate(m1, p, n_initial_scenarios,
                          stream_seed(seed, _COMPARISON_DRIVERS, j))
        r1 = solve_regression(m1, ens_j)
        r2 = solve_regression(m2, ens_j)
        comb = 3.0 * float(np.max(r1.u_stderr + r2.u_stderr)) + 1e-9
        mean_stats.append(float((r2.u_estimate - r1.u_estimate).max()) / comb)
    stat = max(worst / margin, max(mean_stats))
    return CheckReport.make(
        "comparison", stat, 1.0, n_scenarios,
        details=[f"worst scenario-wise violation {worst:.4g} "
                 f"(margin {margin:.4g})",
                 f"worst expectation-level statistic {max(mean_stats):.4g} "
                 f"over {n_initials} initial paths"],
        samples=[("worst_violation", worst), ("margin", margin)]
        + [(f"initial_{j}", v) for j, v in enumerate(mean_stats)],
    )


# -- coefficient discretization -----------------------------------------


def discretized_model(model: Model, n_nodes: int, anchor_t: float,
                      grid_times: np.ndarray) -> Model:
    """The same model with every path argument frozen at n_nodes equally
    spaced nodes between the anchor time and the horizon; f reads the
    running statistics of the frozen block, which eval_f derives from it."""
    N = len(grid_times) - 1
    dt = float(grid_times[1] - grid_times[0])
    anchor_idx = int(round(anchor_t / dt))
    total = N - anchor_idx
    if total % n_nodes != 0:
        raise GridAlignmentError(
            f"{n_nodes} nodes do not divide the {total} remaining grid steps"
        )
    stride = total // n_nodes

    def frozen(fn):
        if fn is None:
            return None
        return lambda x, *args: fn(discretize_values(x, anchor_idx, stride), *args)

    return replace(
        model,
        name=f"{model.name}@{n_nodes}nodes",
        b=frozen(model.b),
        sigma=frozen(model.sigma),
        Phi=frozen(model.Phi),
        f=frozen(model.f and model.eval_f),
        g=frozen(model.g),
        f_reads=(),
    )


def discretization_convergence_check(model: Model, initial: Path,
                                     node_counts: Sequence[int] = NODE_COUNTS,
                                     n_scenarios: int = 10_000, seed: int = 0,
                                     basis: Optional[RegressionBasis] = None,
                                     noise_only: bool = False) -> CheckReport:
    """Field estimates under node-frozen coefficients must approach the
    unfrozen estimate as the node count grows; all solves share one driver
    sample so the gaps are not dominated by sampling noise.

    With noise_only, the coefficients are insensitive to the freezing and
    the gaps must sit at the numerical noise floor instead.
    """
    if min(node_counts, default=0) < 1 or len(node_counts) < (1 if noise_only else 2):
        raise ValueError("node_counts must be two counts of at least 1, or one with "
                         f"noise_only, got {list(node_counts)}")
    grid = initial.grid_times
    ens_full = _simulate(model, initial, n_scenarios, seed)
    sol_full = solve_regression(model, ens_full, basis=basis)
    errors, gap_ses = [], []
    for n_nodes in node_counts:
        dm = discretized_model(model, n_nodes, initial.current_time, grid)
        ens = simulate_forward(dm, initial, ens_full.drivers)
        sol = solve_regression(dm, ens, basis=basis)
        errors.append(float(np.max(np.abs(sol.u_estimate - sol_full.u_estimate))))
        # shared drivers: the gap's own stderr comes from the paired rollouts
        diff = sol.rollout - sol_full.rollout
        gap_ses.append(float(np.max(diff.std(axis=0, ddof=1)))
                       / np.sqrt(diff.shape[0]))
    details = [f"{n} nodes: gap {e:.4g} (se {s:.2g})"
               for n, e, s in zip(node_counts, errors, gap_ses)]
    samples = [(f"nodes_{n}", e) for n, e in zip(node_counts, errors)]
    if noise_only:
        stat = max(e / (3.0 * s + _EPS) for e, s in zip(errors, gap_ses))
        details.append("coefficients are node-insensitive; gaps must be noise")
    else:
        # non-increasing within two standard errors of each paired gap
        stat = max(max((errors[j + 1] - errors[j])
                       / (2.0 * (gap_ses[j] + gap_ses[j + 1]) + _EPS)
                       for j in range(len(errors) - 1)), 0.0)
        details.append("gap sequence must be non-increasing within 2 stderr")
    return CheckReport.make("discretization_convergence", stat, 1.0, n_scenarios,
                            details=details, samples=samples)


# -- regularity envelopes ------------------------------------------------


def regularity_check(u: Callable[[Path], np.ndarray], grid_times: np.ndarray,
                     dim: int, growth_q: float, n_probes: int = 100,
                     seed: int = 0) -> CheckReport:
    """Lipschitz-type envelope for the field over randomized probe
    quadruples (path, comparison path, bump, comparison bump).

    Two estimates are probed with the growth-weighted shape
    (1+sup-norms^q)(path distance): the raw field difference, and the
    stability of endpoint difference quotients in the bump size.  The
    envelope constant is fitted on the even-indexed probes; the odd-indexed
    probes must stay below the fitted constant times a fixed headroom.  The
    statistic is the number of violations.
    """
    _at_least_count("n_probes", n_probes, 10)
    rng = np.random.default_rng(seed)
    N = len(grid_times) - 1
    ratios_diff, ratios_quot = [], []
    for idx in range(n_probes):
        ti = int(rng.integers(0, N))
        p1 = random_initial_path(grid_times, ti, dim, rng)
        if rng.random() < 0.5:
            eps = 10.0 ** rng.uniform(-3, -0.5)
            vals = p1.values.copy()
            vals[-1] = vals[-1] + eps * rng.standard_normal(dim)
            p2 = Path(grid_times, vals)
        else:
            p2 = random_initial_path(grid_times, int(rng.integers(0, N)),
                                     dim, rng)
        h1, h2 = 10.0 ** rng.uniform(-2, -0.5, size=2)
        dist = path_dist(p1, p2).total
        if dist < 1e-9:
            continue
        weight = 1.0 + sup_norm(p1) ** growth_q + sup_norm(p2) ** growth_q
        u1, u2 = np.asarray(u(p1)), np.asarray(u(p2))
        du = float(np.max(np.abs(u1 - u2)))
        ratios_diff.append(du / (weight * dist))
        e = np.zeros(dim)
        e[0] = 1.0
        q1 = (np.asarray(u(vertical_bump(p1, h1 * e))) - u1) / h1
        q2 = (np.asarray(u(vertical_bump(p2, h2 * e))) - u2) / h2
        dq = float(np.max(np.abs(q1 - q2)))
        ratios_quot.append(dq / (weight * (abs(h1 - h2) + dist)))
    violations = 0
    fitted = {}
    for label, ratios in (("difference", ratios_diff),
                          ("quotient", ratios_quot)):
        r = np.asarray(ratios)
        C_fit = float(np.max(r[0::2])) + _EPS
        violations += int(np.sum(r[1::2] > _HEADROOM * C_fit))
        fitted[label] = C_fit
    return CheckReport.make(
        "regularity_envelope", float(violations), 0.0, len(ratios_diff),
        details=[f"fitted constants {fitted}",
                 f"{violations} probes beyond {_HEADROOM}x the fitted envelope"],
        samples=[("difference_constant", fitted["difference"]),
                 ("quotient_constant", fitted["quotient"]),
                 ("violations", float(violations))],
    )


def moment_probes(model: Model, grid_times: np.ndarray, n_probes: int = 100,
                  n_scenarios: int = MOMENT_SCENARIOS, seed: int = 0,
                  basis: Optional[RegressionBasis] = None) -> list:
    """Solve the backward pair from random initial paths; per probe the
    per-scenario sup |y| and integrated squared z, and the probe's shape
    1 + sup-norm of its initial path.  Every moment order is scored from
    the same probes, at least three: two fit the envelope, one is held out."""
    _at_least_count("n_probes", n_probes, 3)
    rng = np.random.default_rng(seed)
    N = len(grid_times) - 1
    dt = float(grid_times[1] - grid_times[0])
    probes = []
    for j in range(n_probes):
        ti = int(rng.integers(0, N))
        init = random_initial_path(grid_times, ti, model.dims[0], rng,
                                   scale=float(rng.uniform(0.3, 3.0)))
        ens = _simulate(model, init, n_scenarios,
                        stream_seed(seed, _MOMENT_DRIVERS, j))
        sol = solve_regression(model, ens, basis=basis)
        sup_y = np.max(np.abs(sol.y[:, ti:]), axis=(1, 2))
        int_z2 = np.sum(sol.z[:, ti:] ** 2, axis=(1, 2, 3)) * dt
        probes.append((sup_y, int_z2, 1.0 + sup_norm(init)))
    return probes


def moment_envelope_score(probes: list, p: float) -> CheckReport:
    """Score one moment order on probes from moment_probes: the p-th moment
    of sup |y| plus the p/2 moment of the integrated squared z must follow
    a power law in the probe shape.

    The constant and growth exponent are fitted in log-log on the
    even-indexed probes; odd-indexed probes must stay below the fitted
    envelope times the headroom plus three probe standard errors.
    """
    if p < 2:
        raise ValueError(f"moment order must be >= 2, got {p}")
    moments, ses, shapes = [], [], []
    for sup_y, int_z2, shape in probes:
        vals = sup_y ** p + int_z2 ** (p / 2.0)
        moments.append(float(vals.mean()))
        ses.append(float(vals.std(ddof=1)) / np.sqrt(len(vals)))
        shapes.append(shape)
    logm = np.log(np.asarray(moments))
    logs = np.log(np.asarray(shapes))
    A = np.stack([np.ones_like(logs[0::2]), logs[0::2]], axis=1)
    coef, *_ = np.linalg.lstsq(A, logm[0::2], rcond=None)
    q_fit = float(coef[1])
    # envelope constant: smallest C covering every fitting probe at the
    # fitted exponent (a mean-fit intercept would leave half of them above)
    C_fit = float(np.exp(np.max(logm[0::2] - q_fit * logs[0::2])))
    envelope = _HEADROOM * C_fit * np.asarray(shapes)[1::2] ** q_fit
    test_m = np.asarray(moments)[1::2]
    test_se = np.asarray(ses)[1::2]
    violations = int(np.sum(test_m > envelope + 3.0 * test_se))
    return CheckReport.make(
        f"moment_envelope_p{p:g}", float(violations), 0.0, len(probes),
        details=[f"fitted envelope constant {C_fit:.4g}, exponent {q_fit:.3g}",
                 f"{violations} probes beyond {_HEADROOM}x envelope + 3 stderr"],
        samples=[("constant", C_fit), ("exponent", q_fit),
                 ("violations", float(violations))],
    )


def moment_envelope_check(model: Model, grid_times: np.ndarray, p: float,
                          n_probes: int = 100, n_scenarios: int = MOMENT_SCENARIOS,
                          seed: int = 0,
                          basis: Optional[RegressionBasis] = None) -> CheckReport:
    """Growth envelope for the backward pair at one moment order: the probes
    of moment_probes scored by moment_envelope_score."""
    if p < 2:   # before the probe solves
        raise ValueError(f"moment order must be >= 2, got {p}")
    probes = moment_probes(model, grid_times, n_probes, n_scenarios, seed, basis)
    return moment_envelope_score(probes, p)
