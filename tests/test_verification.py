"""Statistical checks tying the backward pair to the path field."""

import numpy as np
import pytest

from pathfk import (Path, PathFunctional, PreconditionError, RegressionBasis,
                    comparison_check, discretization_convergence_check,
                    discretized_model, field_from_closed_form,
                    field_from_engine, flow_check, get_entry, get_model, make_grid,
                    moment_envelope_check, on_path,
                    regularity_check, restrict, sample_drivers, shifted_model,
                    simulate_forward, solve_regression, spde_residual,
                    spde_residual_check, vertical_derivative,
                    vertical_hessian, z_growth_check, z_representation_check)


T = 1.0
PATH_BASIS = RegressionBasis(feature_set="endpoint+runmax+runint")


def origin(N):
    return Path(make_grid(T, N), np.zeros((1, 1)))


def sampled(name, N=16, n=4000, seed=0):
    m = get_model(name)
    init = origin(N)
    drv = sample_drivers(init.grid_times, n, seed)
    return m, simulate_forward(m, init, drv)


def solved(name, N=16, n=4000, seed=0, basis=None):
    m, ens = sampled(name, N=N, n=n, seed=seed)
    return m, ens, solve_regression(m, ens, basis=basis)


# -- field functionals ---------------------------------------------------


def test_field_from_closed_form_exposes_gradient():
    u = field_from_closed_form(get_entry("heat"))
    p = Path(make_grid(T, 8), np.array([[1.2]]))
    assert u(p)[0] == pytest.approx(1.2 ** 2 + 1.0)
    assert u.d_x(p)[0] == pytest.approx(2.0 * 1.2)


def test_field_from_engine_matches_closed_form():
    u = field_from_engine(get_model("heat"), engine="nested", n_scenarios=1,
                          branching=8)
    p = Path(make_grid(T, 4), np.array([[0.6]]))
    assert u(p)[0] == pytest.approx(0.6 ** 2 + 1.0, abs=1e-3)


# -- field equation residual ---------------------------------------------


def test_residual_vanishes_on_quadratic_closed_form():
    # heat: the field solves the equation exactly and the discrete expansion
    # of a quadratic is exact, so the residual is numerically zero
    m, ens = sampled("heat", N=8, n=10, seed=1)
    u = field_from_closed_form(get_entry("heat"))
    res = spde_residual(u, m, ens)
    assert np.max(np.abs(res)) < 1e-9


def test_residual_small_on_path_dependent_closed_form():
    m, ens = sampled("asian", N=8, n=10, seed=2)
    u = field_from_closed_form(get_entry("asian"))
    rep = spde_residual_check(u, m, ens, tol=0.05)
    assert rep.passed


def test_residual_flags_wrong_field():
    m, ens = sampled("heat", N=8, n=10, seed=3)
    wrong = field_from_closed_form(get_entry("heat"))
    wrong.eval = lambda p: np.array([p.endpoint[0] ** 2])  # drops the T - t term
    wrong.d_t = None
    rep = spde_residual_check(wrong, m, ens, tol=0.05)
    assert not rep.passed


def late_start_ensemble(name, N=8, n=4, seed=5):
    # t_index 2: the residual starts from a prefix shared by all scenarios
    m = get_model(name)
    init = Path(make_grid(T, N), np.array([[0.0], [0.3], [-0.2]]))
    return m, simulate_forward(m, init, sample_drivers(init.grid_times, n, seed))


def reference_residual(u, model, ens):
    """The discrete field equation residual by its definition, with the
    public finite-difference estimators at every prefix."""
    grid, dt, i_t = ens.initial.grid_times, ens.initial.dt, ens.initial.t_index
    N = len(grid) - 1
    res = []
    for x, dB in zip(ens.x_values, ens.drivers.dB):
        path = Path(grid, x)
        p = {i: restrict(path, grid[i]) for i in range(i_t, N + 1)}
        y = {i: u(p[i]) for i in p}
        dx = {i: vertical_derivative(u, p[i]).value.reshape(-1) for i in p}
        sig = {i: on_path(model.sigma, p[i]) for i in p}
        z = {i: (sig[i].T @ dx[i])[None, :] for i in p}
        total = y[i_t][0] - y[N][0]
        for i in range(N - 1, i_t - 1, -1):
            dxx = vertical_hessian(u, p[i]).value.reshape(1, 1)
            gen = (float(on_path(model.b, p[i]) @ dx[i])
                   + 0.5 * np.trace(sig[i] @ sig[i].T @ dxx))
            fv = float(on_path(model.eval_f, p[i], y[i], z[i])[0])
            # the backward integral reads g at the right end of the step
            g_term = float(on_path(model.eval_g, p[i + 1], y[i + 1], z[i + 1])[0]
                           @ dB[i])
            dX = x[i + 1] - x[i]
            total += (-(gen + fv) * dt - g_term + dx[i] @ dX
                      + 0.5 * float(dX @ dxx @ dX))
        res.append(total)
    return np.array(res)


def test_residual_reads_second_driver_only_with_g():
    # heat has g = None, so its residual never reads dB: all-NaN increments
    # leave it unchanged bit for bit, and a sampled pair never draws them
    from pathfk.simulation import BrownianPair, ScenarioEnsemble
    u = field_from_closed_form(get_entry("heat"))
    m, ens = late_start_ensemble("heat", N=6, n=3)
    drv = ens.drivers
    nan = BrownianPair(drv.grid_times, drv.dW, np.full((3, 6, 1), np.nan), drv.seed)
    res = spde_residual(u, m, ens)
    assert drv._dB is None
    nan_ens = ScenarioEnsemble(ens.initial, nan, ens.x_values, ens.valid_mask)
    assert np.array_equal(spde_residual(u, m, nan_ens), res)


def test_residual_matches_its_definition():
    # linear-g has g != 0, nonlinear-f has f depending on z; the field has
    # no attached derivatives, so every derivative is a finite difference
    u = PathFunctional(
        eval=lambda p: np.array([np.sin(p.endpoint[0]) + 0.2 * p.values[:, 0].mean()
                                 + (p.horizon - p.current_time)]),
        regularity_tag="C12")
    for name in ("linear-g", "nonlinear-f"):
        m, ens = late_start_ensemble(name, N=6, n=3)
        assert np.array_equal(spde_residual(u, m, ens), reference_residual(u, m, ens))


def test_residual_evaluates_each_prefix_once():
    # five evaluations per prefix (value, two gradient bumps, two Hessian
    # bumps around that value), three at the horizon (no Hessian), and the
    # shared initial prefix once per call
    N, n, i_t = 8, 4, 2
    m, ens = late_start_ensemble("heat", N=N, n=n)
    calls = []
    cf = get_entry("heat").closed_form_u
    u = PathFunctional(eval=lambda p: calls.append(p) or cf(p), regularity_tag="C12")
    spde_residual(u, m, ens)
    assert len(calls) == 5 + n * (5 * (N - i_t - 1) + 3) == 117


# -- z representation ----------------------------------------------------


def test_z_representation_closed_form_gradients():
    for name in ("heat", "asian"):
        basis = None if get_model(name).markovian_flag else PATH_BASIS
        m, ens, sol = solved(name, N=16, n=10_000, seed=4, basis=basis)
        rep = z_representation_check(
            m, sol, ens, z_reference=get_entry(name).closed_form_Z)
        assert rep.passed, (name, rep.statistic)


def test_z_representation_finite_difference_fallback():
    m, ens, sol = solved("heat", N=16, n=10_000, seed=5)
    u = field_from_closed_form(get_entry("heat"))
    rep = z_representation_check(m, sol, ens, u=u, n_sub=20)
    assert rep.passed


def test_z_representation_needs_a_reference():
    m, ens, sol = solved("heat", N=8, n=500, seed=6)
    with pytest.raises(ValueError):
        z_representation_check(m, sol, ens)


def test_z_growth_envelope():
    m, ens, sol = solved("heat", N=8, n=2000, seed=7)
    rep = z_growth_check(sol, ens)
    assert rep.passed


# -- flow ----------------------------------------------------------------


def test_flow_midpoint_restart():
    m = get_model("heat")
    rep = flow_check(m, origin(8), s=0.5, n_scenarios=4000, n_resolve=5,
                     seed=11)
    assert rep.passed


def test_flow_time_validation():
    m = get_model("heat")
    with pytest.raises(ValueError):
        flow_check(m, origin(8), s=0.0)
    with pytest.raises(ValueError):
        flow_check(m, origin(8), s=1.0)


# -- comparison ----------------------------------------------------------


def test_comparison_ordered_pair_passes():
    base = get_model("heat")
    upper = shifted_model(base, shift_phi=0.5)
    rep = comparison_check(upper, base, origin(8), n_scenarios=4000, seed=12,
                           n_initials=3, n_initial_scenarios=1000)
    assert rep.passed


def test_comparison_rejects_unordered_data():
    base = get_model("heat")
    lower = shifted_model(base, shift_phi=-0.5)
    with pytest.raises(PreconditionError):
        comparison_check(lower, base, origin(8), n_scenarios=500, seed=13,
                         n_initials=1)


def test_comparison_rejects_mismatched_g():
    with pytest.raises(PreconditionError):
        comparison_check(get_model("linear-g"), get_model("heat"), origin(8),
                         n_scenarios=500, seed=14, n_initials=1)


# -- discretization ------------------------------------------------------


def test_discretized_model_full_resolution_identity():
    grid = make_grid(T, 8)
    m = get_model("path-f")
    dm = discretized_model(m, 8, 0.0, grid)
    rng = np.random.default_rng(16)
    vals = rng.normal(size=(3, 9, 1))
    y = rng.normal(size=(3, 1))
    z = rng.normal(size=(3, 1, 1))
    assert np.allclose(dm.f(vals, y, z), m.f(vals, y, z))


def test_discretization_convergence_path_dependent():
    rep = discretization_convergence_check(
        get_model("path-f"), origin(16), node_counts=(2, 4, 8, 16),
        n_scenarios=4000, seed=17, basis=PATH_BASIS)
    assert rep.passed


def test_discretization_noise_floor_for_markovian():
    rep = discretization_convergence_check(
        get_model("heat"), origin(16), node_counts=(2, 4, 8, 16),
        n_scenarios=4000, seed=18, noise_only=True)
    assert rep.passed


# -- envelopes -----------------------------------------------------------


def test_regularity_envelope_closed_form():
    entry = get_entry("heat")
    rep = regularity_check(field_from_closed_form(entry), make_grid(T, 8), 1,
                           growth_q=2.0, n_probes=60, seed=19)
    assert rep.passed


def test_regularity_evaluates_each_probe_path_once():
    calls = []
    cf = get_entry("heat").closed_form_u
    u = PathFunctional(eval=lambda p: calls.append(p) or cf(p))
    rep = regularity_check(u, make_grid(T, 8), 1, growth_q=2.0, n_probes=60,
                           seed=19)
    # two probe paths and one bump of each
    assert len(calls) == 4 * rep.n_samples


def test_regularity_probe_count_validation():
    entry = get_entry("heat")
    with pytest.raises(ValueError):
        regularity_check(field_from_closed_form(entry), make_grid(T, 8), 1,
                         growth_q=2.0, n_probes=5)


def test_moment_envelope_fits_and_holds():
    rep = moment_envelope_check(get_model("heat"), make_grid(T, 8), p=2.0,
                                n_probes=40, n_scenarios=400, seed=20)
    assert rep.passed
    assert dict(rep.samples)["constant"] > 0.0


def test_moment_envelope_order_validation():
    with pytest.raises(ValueError):
        moment_envelope_check(get_model("heat"), make_grid(T, 8), p=1.0)
