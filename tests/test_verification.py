"""Statistical checks tying the backward pair to the path field."""

from dataclasses import replace

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
from pathfk.paths import discretize_values
from pathfk.simulation import BrownianPair, ScenarioEnsemble


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
    u = field_from_closed_form(get_entry("heat"))
    m, ens = late_start_ensemble("heat", N=6, n=3)
    drv = ens.drivers
    nan = BrownianPair(drv.grid_times, drv.dW, np.full((3, 6, 1), np.nan), drv.seed)
    res = spde_residual(u, m, ens)
    assert drv._dB is None
    nan_ens = ScenarioEnsemble(ens.initial, nan, ens.x_values)
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


def test_residual_sends_one_batch_per_jet(monkeypatch):
    # N = 6 from t = 0, one scenario: six prefixes with the value, two
    # gradient and two Hessian bumps each, and the horizon's value and two
    # gradient bumps; every jet is one batch call and, at this size, one tree
    from pathfk import solver
    m, ens = sampled("path-f", N=6, n=1, seed=3)
    u = field_from_engine(m, "nested", n_scenarios=1, branching=3, seed=5)
    batches, trees = [], []
    stacked = u.batch
    u.batch = lambda paths: batches.append(len(paths)) or stacked(paths)
    grow = solver._tree_forward
    monkeypatch.setattr(solver, "_tree_forward",
                        lambda *a, **kw: trees.append(1) or grow(*a, **kw))
    res = spde_residual(u, m, ens)
    assert len(batches) == len(trees) == 7 and sum(batches) == 33
    # the same residual from one solve per path, to round-off
    one_by_one = PathFunctional(eval=u.eval, output_shape=u.output_shape,
                                regularity_tag="C12")
    assert np.allclose(res, spde_residual(one_by_one, m, ens), rtol=0, atol=1e-9)


def start_at_one(name, N=6, n=4, seed=5):
    m = get_model(name)
    init = Path(make_grid(T, N), np.array([[1.0]]))
    return m, simulate_forward(m, init, sample_drivers(init.grid_times, n, seed))


@pytest.mark.parametrize("name, tol", [("linear-g", 1e-9), ("z-in-g", 1e-7)])
def test_residual_of_the_conditioned_field_is_sharp(name, tol):
    # with g the field is random: conditioned on each path's own increments
    # it solves the discrete equation exactly (linear-g: gamma(t) prod (1 +
    # 0.3 dB_j); z-in-g: gamma(t) + 0.5 sum dB_j, exact only with the terminal
    # z = D Phi sigma); the field averaged over 8 outer samples scored 0.04-0.18
    m, ens = start_at_one(name)
    u = field_from_engine(m, "nested", n_scenarios=8, branching=6, seed=3)
    rep = spde_residual_check(u, m, ens, tol=0.05)
    assert rep.statistic < tol


def test_residual_shares_the_initial_tree_across_paths(monkeypatch):
    # a 4-path residual grows one tree for the initial prefix of all four
    # paths, swept once per path's increments; it equals each path's own
    # residual, and to round-off that path's residual under the field
    # conditioned by hand on its increments, one solve_nested per value
    # (second differences at h = 2e-3 scale the values' round-off by 1/h^2)
    from pathfk import solve_nested, solver
    N, n = 6, 4
    m, ens = start_at_one("z-in-g", N=N, n=n, seed=8)
    u = field_from_engine(m, "nested", n_scenarios=8, branching=3, seed=5)
    trees = []
    grow = solver._tree_forward
    monkeypatch.setattr(solver, "_tree_forward",
                        lambda *a, **kw: trees.append(1) or grow(*a, **kw))
    res = spde_residual(u, m, ens)
    assert len(trees) == 1 + n * N
    drv = ens.drivers
    for s in range(n):
        one = ScenarioEnsemble(ens.initial, BrownianPair(
            drv.grid_times, drv.dW[s:s + 1], drv.dB[s:s + 1], drv.seed),
            ens.x_values[s:s + 1])
        own = PathFunctional(eval=lambda p, dB=drv.dB[s]: solve_nested(
            m, p, 1, 0, branching=3, frozen_B=dB[p.t_index:]).u_estimate,
            regularity_tag="C12")
        assert abs(res[s] - spde_residual(u, m, one)[0]) <= 1e-12
        assert abs(res[s] - spde_residual(own, m, one)[0]) <= 1e-10


def test_residual_of_an_ensemble_with_no_valid_scenario_is_empty():
    # a drift that overflows everywhere leaves no path to score: no jet is
    # taken, of the averaged field or of one conditioned on an empty stack
    # of increments
    for name in ("linear-g", "heat"):
        m = replace(get_model(name), b=lambda x: np.full(x[:, -1].shape, np.inf))
        init = Path(make_grid(T, 4), np.array([[1.0]]))
        none = simulate_forward(m, init, sample_drivers(init.grid_times, 2, 5))
        assert none.excluded_count == none.n_scenarios == 2
        assert none.x_values.shape == (0, 5, 1) and none.drivers.dB.shape == (0, 4, 1)
        u = field_from_engine(m, "nested", n_scenarios=2, branching=3)
        assert spde_residual(u, m, none).shape == (0,)


def overflowing_and_kept(name, N, n):
    """The model `name`, its ensemble from 0.4 under a drift that overflows
    outside [-1.5, 1.5], and an ensemble built by hand from the model's
    own rows of the scenarios that stay finite."""
    m = get_model(name)
    over = replace(m, b=lambda x: np.where(np.abs(x[:, -1, :]) > 1.5, np.inf, 0.0))
    init = Path(make_grid(T, N), np.array([[0.4]]))
    drv = sample_drivers(init.grid_times, n, 21)
    plain = simulate_forward(m, init, drv)
    keep = np.all(np.abs(plain.x_values[:, :-1]) <= 1.5, axis=(1, 2))
    kept = ScenarioEnsemble(init, BrownianPair(
        drv.grid_times, drv.dW[keep], drv.dB[keep], drv.seed), plain.x_values[keep])
    ens = simulate_forward(over, init, drv)
    assert 0 < ens.excluded_count == (~keep).sum() < n
    return m, ens, kept


@pytest.mark.parametrize("name", ["heat", "linear-g"])
def test_checks_of_an_overflowing_ensemble_match_its_kept_rows(name):
    # the checks read the ensemble's rows as they are: each report equals
    # the same call on an ensemble built by hand from the kept rows
    m, ens, kept = overflowing_and_kept(name, N=4, n=600)
    u = (field_from_closed_form(get_entry("heat")) if name == "heat" else
         field_from_engine(m, "nested", n_scenarios=2, branching=3, seed=5))
    sols = [solve_regression(m, e) for e in (ens, kept)]
    a, b = ([z_growth_check(sol, e),
             z_representation_check(m, sol, e, u=u, n_sub=2),
             spde_residual_check(u, m, replace(e, x_values=e.x_values[:3]), tol=0.05)]
            for sol, e in zip(sols, (ens, kept)))
    for x, y in zip(a, b):
        assert (x.statistic, x.details, x.samples) == (y.statistic, y.details, y.samples)


def test_residual_conditions_only_random_fields():
    # without g no field is conditioned, so heat, path-f and nonlinear-f keep
    # the residual of a field that cannot be; a deterministic functional is
    # its own conditioning, so on linear-g it keeps its residual by definition
    from pathfk.verification import _StackedField

    def refuse(dB):
        raise AssertionError("a field was conditioned without g")

    for name in ("heat", "path-f", "nonlinear-f"):
        m, ens = start_at_one(name, N=4, n=2)
        u = field_from_engine(m, "nested", n_scenarios=2, branching=3, seed=1)
        fixed = _StackedField(eval=u.eval, output_shape=u.output_shape,
                              regularity_tag="C12", stacked=u.stacked,
                              condition=refuse)
        assert np.array_equal(spde_residual(fixed, m, ens), spde_residual(u, m, ens))
    u = PathFunctional(eval=lambda p: np.array([np.exp(0.3 * p.endpoint[0])
                                                + p.values[:, 0].max()]),
                       regularity_tag="C12")
    assert u.given(np.zeros((3, 1))) is u
    m, ens = start_at_one("linear-g", N=5, n=3)
    assert np.array_equal(spde_residual(u, m, ens), reference_residual(u, m, ens))


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


def test_z_representation_reads_the_conditioned_field():
    # on linear-g the solver's z at step i is the conditioned field's gradient
    # prod_{j >= i} (1 + 0.3 dB_j); the field averaged over the outer samples
    # has gradient near 1 and misses it by about 0.3 sqrt(T - t)
    from pathfk import BackwardSolution
    m, ens = start_at_one("linear-g", N=5, n=6, seed=9)
    dB = ens.drivers.dB[:, :, 0]
    z = np.cumprod((1.0 + 0.3 * dB)[:, ::-1], axis=1)[:, ::-1]
    sol = BackwardSolution(ens.initial.grid_times, 0, np.zeros((6, 6, 1)),
                           z[:, :, None, None], np.zeros(1), np.zeros(1))
    u = field_from_engine(m, "nested", n_scenarios=8, branching=4, seed=2)
    rep = z_representation_check(m, sol, ens, u=u)
    assert rep.statistic < 1e-6 and rep.n_samples == 6 * 5


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


def test_flow_restarts_read_the_scenarios_own_second_driver():
    # with g, the value at s is the field conditioned on the scenario's own
    # remaining dB; restarts on fresh dB scored 2.4, 5.2 and 7.2 here
    m = get_model("z-in-g")
    start = Path(make_grid(1.0, 8), np.array([[1.0]]))
    for seed in (1, 2, 3):
        rep = flow_check(m, start, s=0.5, n_scenarios=4000, n_resolve=5, seed=seed)
        assert rep.passed, (seed, rep.statistic)


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
    with pytest.raises(PreconditionError, match="identical backward drivers"):
        comparison_check(get_model("linear-g"), get_model("heat"), origin(8),
                         n_scenarios=500, seed=14, n_initials=1)


def test_comparison_rejects_a_second_forward_process():
    base = get_model("heat")
    wider = replace(base, sigma=lambda x: 1.2 * base.sigma(x))
    with pytest.raises(PreconditionError, match="one forward process"):
        comparison_check(wider, base, origin(8), n_scenarios=500, seed=14,
                         n_initials=1)


def test_comparison_simulates_each_driver_sample_once(monkeypatch):
    import pathfk.simulation as simulation
    simulated = []
    simulate = simulation.simulate_forward
    monkeypatch.setattr(simulation, "simulate_forward",
                        lambda *args: simulated.append(args) or simulate(*args))
    base = get_model("heat")
    rep = comparison_check(shifted_model(base, shift_phi=0.5), base, origin(8),
                           n_scenarios=1000, seed=12, n_initials=3,
                           n_initial_scenarios=500)
    assert rep.passed and len(simulated) == 1 + 3


# -- discretization ------------------------------------------------------


def test_discretized_model_full_resolution_identity():
    grid = make_grid(T, 8)
    m = get_model("path-f")
    dm = discretized_model(m, 8, 0.0, grid)
    rng = np.random.default_rng(16)
    vals = rng.normal(size=(3, 9, 1))
    y = rng.normal(size=(3, 1))
    z = rng.normal(size=(3, 1, 1))
    assert np.allclose(dm.eval_f(vals, y, z), m.eval_f(vals, y, z))


def test_discretized_driver_reads_its_frozen_path():
    # the sweep carries the running max of the simulated histories; a
    # driver frozen at two nodes reads the frozen histories' running max
    m, ens = sampled("path-f", N=8, n=1000, seed=18)
    dm = discretized_model(m, 2, 0.0, ens.initial.grid_times)
    by_hand = replace(m, f=lambda x, y, z: 0.0 + discretize_values(
        x, 0, 4)[:, :, :1].max(axis=1) - y, f_reads=())
    assert np.array_equal(solve_regression(dm, ens).y, solve_regression(by_hand, ens).y)
    assert not np.array_equal(solve_regression(dm, ens).y, solve_regression(m, ens).y)


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
