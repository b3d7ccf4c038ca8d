"""Backward solvers: regression and nested quadrature engines."""

import os
import subprocess
import sys

import numpy as np
import pytest

from pathfk import (BudgetError, Model, Path, RegressionBasis, SolverError,
                    evaluate_u, field_from_engine, frozen_noise_increments,
                    get_entry, get_model, make_grid, sample_drivers,
                    simulate_forward, solve_nested, solve_regression,
                    vertical_derivative)
from pathfk.simulation import BrownianPair, ScenarioEnsemble
from pathfk import solver
from pathfk.solver import (_column_basis, _project, _time_major, _tree_backward,
                          _tree_forward)


T = 1.0


def linear_terminal_model():
    from dataclasses import replace
    m = get_model("heat")
    return replace(m, Phi=lambda x, dt: x[:, -1, :1].copy(), name="linear")


def ensemble(model, N=16, n=4000, seed=0, x0=0.0, t_index=0):
    grid = make_grid(T, N)
    vals = np.full((t_index + 1, 1), x0)
    init = Path(grid, vals)
    drv = sample_drivers(grid, n, seed, d=model.dims[0], l=model.dims[2])
    return simulate_forward(model, init, drv)


# -- projection ----------------------------------------------------------


def _svd_basis(A):
    """Reference basis: the left singular vectors of a full thin SVD of A
    that clear the least-squares rank cutoff."""
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    return U[:, s > s[0] * max(A.shape) * np.finfo(A.dtype).eps]


def _designs(design, rng):
    """The designs of one projection case: a single synthetic matrix, or
    every step's design that RegressionBasis.designs streams for a model."""
    streamed = {"path-f": "endpoint+runmax+runint", "heat": "endpoint",
                "linear-g": "endpoint"}
    if design in streamed:
        m = get_model(design)
        ens = ensemble(m, N=6, n=1500, seed=15)
        dB = None if m.g is None else ens.drivers.dB.transpose(1, 0, 2)
        basis = RegressionBasis(feature_set=streamed[design])
        return [A for _, A in basis.designs(ens.x_values.transpose(1, 0, 2), 0,
                                            ens.initial.dt, dB)]
    B = rng.normal(size=(200, 6))
    if design.endswith("_cutoff"):
        # six orthonormal columns and a seventh orthogonal to them, scaled
        # to a singular value a quarter above or a fifth below the cutoff
        Q = np.linalg.qr(np.hstack([B, rng.normal(size=(200, 1))]))[0]
        factor = 1.25 if design == "above_cutoff" else 0.8
        return [Q * np.r_[np.ones(6), factor * 200 * np.finfo(float).eps]]
    return [{"full": B,
             "duplicated_column": np.hstack([B, B[:, 2:3]]),
             "equal_rows": np.tile(B[0], (200, 1))}[design]]


@pytest.mark.parametrize("design, rank", [("full", 6), ("duplicated_column", 6),
                                          ("equal_rows", 1), ("above_cutoff", 7),
                                          ("below_cutoff", 6), ("path-f", 1),
                                          ("heat", 1), ("linear-g", 2)])
def test_projection_matches_minimum_norm_least_squares(design, rank):
    # rank is that of the first design: for the streamed cases the initial
    # step, where every history coincides
    rng = np.random.default_rng(11)
    designs = _designs(design, rng)
    for step, A in enumerate(designs):
        T = rng.normal(size=(A.shape[0], 3))
        ref = _svd_basis(A)
        U = _column_basis(A.copy(order="F"))     # factors its argument in place
        fitted = _project(U, T)
        assert U.shape[1] == ref.shape[1]
        if step == 0:
            assert U.shape[1] == rank
        assert np.allclose(fitted, _project(ref, T), rtol=0.0, atol=1e-10)
        if design != "above_cutoff":
            # (there the least-squares coefficient of the tiny direction is
            # about 1e13, and lstsq's fitted values carry eps times that)
            assert np.allclose(fitted, A @ np.linalg.lstsq(A, T, rcond=None)[0],
                               rtol=0.0, atol=1e-10)
        # the leverages (hat-matrix diagonal) sum to the rank
        assert np.sum(U ** 2, axis=1).sum() == pytest.approx(U.shape[1], abs=1e-10)
    if design == "equal_rows":
        assert np.allclose(fitted, T.mean(axis=0), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("entry", [np.inf, np.nan])
def test_non_finite_design_raises(entry):
    A = np.random.default_rng(17).normal(size=(200, 4))
    A[37, 2] = entry
    with pytest.raises(SolverError, match="non-finite"):
        _column_basis(A)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_features_raise_naming_the_step():
    # x0 = 1e160 keeps the histories finite, but the feature x^2 overflows
    m = get_model("linear-g")
    with pytest.raises(SolverError, match="step 0: .*non-finite"):
        solve_regression(m, ensemble(m, N=4, n=600, seed=18, x0=1e160))


def test_import_does_not_load_scipy_linalg():
    # the factorization imports scipy.linalg on first use, which keeps its
    # import time and memory out of `import pathfk`
    import pathfk
    src = os.path.dirname(os.path.dirname(os.path.abspath(pathfk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, pathfk; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


# -- regression engine oracles -------------------------------------------


def test_martingale_terminal_recovers_identity_field():
    # Phi = endpoint: the field is u(path) = endpoint, z = 1 at every step
    m = linear_terminal_model()
    ens = ensemble(m, N=8, n=4000, seed=1, x0=0.7)
    sol = solve_regression(m, ens)
    assert sol.u_estimate[0] == pytest.approx(0.7, abs=3 * sol.u_stderr[0] + 1e-9)
    z = sol.z[:, :, 0, 0]
    rms = np.sqrt(np.mean((z - 1.0) ** 2))
    assert rms < 0.05


def test_square_terminal_field_value():
    entry = get_entry("heat")
    ens = ensemble(entry.model, N=16, n=10_000, seed=2, x0=1.0)
    sol = solve_regression(entry.model, ens)
    # closed form: 1^2 + 1 = 2
    assert abs(sol.u_estimate[0] - 2.0) / 3.0 < 0.02
    assert abs(sol.u_estimate[0] - 2.0) < 3.0 * sol.u_stderr[0]


def test_integral_terminal_field_value():
    entry = get_entry("asian")
    basis = RegressionBasis(feature_set="endpoint+runmax+runint")
    ens = ensemble(entry.model, N=16, n=10_000, seed=3, x0=1.0)
    sol = solve_regression(entry.model, ens, basis=basis)
    # closed form from a unit start: 0 + 1 * (T - 0) = 1
    assert abs(sol.u_estimate[0] - 1.0) / 2.0 < 0.02
    assert abs(sol.u_estimate[0] - 1.0) < 3.0 * sol.u_stderr[0]


def test_terminal_row_is_phi_bit_exact():
    m = get_model("heat")
    ens = ensemble(m, N=8, n=500, seed=4)
    sol = solve_regression(m, ens)
    phi = m.Phi(ens.x_values, ens.initial.dt)
    assert np.array_equal(sol.y[:, -1], phi)


def test_second_driver_ignored_when_g_is_zero():
    # with g identically zero, replacing the B sub-stream must leave the
    # solution numerically unchanged
    m = get_model("heat")
    grid = make_grid(T, 8)
    init = Path(grid, np.zeros((1, 1)))
    drv = sample_drivers(grid, 2000, 5)
    other = sample_drivers(grid, 2000, 999)
    swapped = BrownianPair(grid, drv.dW, other.dB, drv.seed)
    sol_a = solve_regression(m, simulate_forward(m, init, drv))
    sol_b = solve_regression(m, simulate_forward(m, init, swapped))
    assert np.max(np.abs(sol_a.y - sol_b.y)) <= 1e-12
    assert np.max(np.abs(sol_a.u_estimate - sol_b.u_estimate)) <= 1e-12
    # without future-noise features dB is never read: all-NaN increments
    # give the same solve bit for bit, and the features still reject them
    nan = BrownianPair(grid, drv.dW, np.full_like(drv.dB, np.nan), drv.seed)
    sol_c = solve_regression(m, simulate_forward(m, init, nan))
    for x, y in ((sol_a.y, sol_c.y), (sol_a.z, sol_c.z),
                 (sol_a.u_estimate, sol_c.u_estimate),
                 (sol_a.u_stderr, sol_c.u_stderr)):
        assert np.array_equal(x, y)
    with pytest.raises(SolverError, match="non-finite"):
        solve_regression(m, simulate_forward(m, init, nan),
                         basis=RegressionBasis(include_future_noise=True))


def test_future_noise_features_enabled_only_with_g():
    m_plain = get_model("heat")
    m_g = get_model("linear-g")
    sol_plain = solve_regression(m_plain, ensemble(m_plain, N=4, n=600, seed=6))
    sol_g = solve_regression(m_g, ensemble(m_g, N=4, n=600, seed=6))
    assert sol_plain.scheme_params["future_noise_features"] is False
    assert sol_g.scheme_params["future_noise_features"] is True


def test_feature_budget_guard():
    m = get_model("asian")
    basis = RegressionBasis(feature_set="endpoint+runmax+runint")
    ens = ensemble(m, N=4, n=300, seed=7)
    with pytest.raises(BudgetError):
        solve_regression(m, ens, basis=basis)


def test_picard_validation_and_divergence():
    with pytest.raises(ValueError):
        solve_regression(get_model("heat"), ensemble(get_model("heat"), n=500),
                         picard_iters=0)
    # f = c*y with c*dt > 1 makes the pass-to-pass fixed-point map expansive
    runaway = Model(
        b=lambda x: np.zeros((x.shape[0], 1)),
        sigma=lambda x: np.broadcast_to(np.eye(1), (x.shape[0], 1, 1)),
        Phi=lambda x, dt: x[:, -1, :1].copy(),
        f=lambda x, y, z: 20.0 * y,
        lip_C=20.0, growth_m=0.0, alpha=0.5, name="runaway",
    )
    ens = ensemble(runaway, N=4, n=500, seed=8)
    with pytest.raises(SolverError):
        solve_regression(runaway, ens, picard_iters=8)


def _with_zero_drivers(model, f=False, g=False):
    """The model with explicit all-zero drivers in place of absent ones."""
    from dataclasses import replace
    d, k, l = model.dims
    zf = lambda x, y, z: np.zeros((x.shape[0], k))
    zg = lambda x, y, z: np.zeros((x.shape[0], k, l))
    return replace(model, f=zf if f else model.f, g=zg if g else model.g)


@pytest.mark.parametrize("zero", ["f", "g"])
def test_absent_drivers_match_explicit_zero_drivers(zero):
    # an explicit zero driver runs every pass and every projection; the
    # absent driver takes the short path and must land on the same floats
    m = get_model("heat")
    explicit = _with_zero_drivers(m, f=zero == "f", g=zero == "g")
    ens = ensemble(m, N=6, n=800, seed=16, x0=0.3, t_index=1)
    basis = RegressionBasis(include_future_noise=False)
    a = solve_regression(m, ens, basis=basis, record_fit_se=True)
    b = solve_regression(explicit, ens, basis=basis, record_fit_se=True)
    assert a.scheme_params["picard_passes"] == 1
    assert b.scheme_params["picard_passes"] == 2
    for name in ("y", "z", "u_estimate", "u_stderr", "rollout", "fit_se"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_driverless_model_runs_one_pass():
    m = get_model("heat")
    ens = ensemble(m, N=6, n=800, seed=17)
    one = solve_regression(m, ens, picard_iters=1, record_fit_se=True)
    three = solve_regression(m, ens, picard_iters=3, record_fit_se=True)
    for name in ("y", "z", "u_estimate", "u_stderr", "rollout", "fit_se"):
        assert np.array_equal(getattr(one, name), getattr(three, name)), name
    assert three.scheme_params["picard_iters"] == 3
    assert three.scheme_params["picard_passes"] == 1
    assert three.scheme_params["update_norms"] == []
    init = Path(make_grid(T, 4), np.array([[0.4]]))
    n1 = solve_nested(m, init, n_outer=1, seed=0, branching=4, picard_iters=1)
    n3 = solve_nested(m, init, n_outer=1, seed=0, branching=4, picard_iters=3)
    for name in ("y", "z", "u_estimate", "u_stderr"):
        assert np.array_equal(getattr(n1, name), getattr(n3, name)), name
    assert n3.scheme_params["picard_iters"] == 3
    assert n3.scheme_params["picard_passes"] == 1


@pytest.mark.parametrize("name, per_step", [("heat", 2), ("linear-g", 4),
                                            ("path-f", 6)])
def test_projections_per_step(monkeypatch, name, per_step):
    # centring and z on every pass, y only with f, and a second pass only
    # with a driver
    m = get_model(name)
    ens = ensemble(m, N=4, n=600, seed=18)
    calls = []

    def counted(U, targets):
        calls.append(1)
        return _project(U, targets)

    monkeypatch.setattr(solver, "_project", counted)
    solve_regression(m, ens)
    assert len(calls) == 4 * per_step


def test_solution_time_accessors():
    m = get_model("heat")
    grid = make_grid(T, 8)
    init = Path(grid, np.array([[0.0], [0.2]]))  # starts at t = 0.125
    drv = sample_drivers(grid, 500, 9)
    sol = solve_regression(m, simulate_forward(m, init, drv))
    assert sol.t_index == 1
    # before the initial time y repeats its initial-time value and z is zero
    assert np.array_equal(sol.y[:, 0], sol.y[:, 1])
    assert not sol.z[:, 0].any() and sol.z[:, 1].any()
    assert sol.y.shape == (500, 9, 1) and sol.z.shape == (500, 8, 1, 1)


@pytest.mark.parametrize("feature_set", ["endpoint", "endpoint+runmax+runint"])
@pytest.mark.parametrize("noise", [False, True])
def test_streamed_designs_match_definition(feature_set, noise):
    # the streamed running max, running sum and remaining noise sum against
    # their whole-history definitions, on random histories with t_index > 0
    rng = np.random.default_rng(12)
    N, n, d, l, i_t, dt = 9, 40, 2, 2, 3, 0.1
    X = rng.normal(size=(N + 1, n, d))           # time-major
    dB = rng.normal(size=(N, n, l))
    basis = RegressionBasis(feature_set=feature_set)
    xs, bs = X.transpose(1, 0, 2), dB.transpose(1, 0, 2)
    steps = []
    for i, A in basis.designs(X, i_t, dt, dB if noise else None):
        raw = xs[:, i]
        if feature_set != "endpoint":
            raw = np.concatenate([raw, xs[:, : i + 1].max(axis=1),
                                  xs[:, :i].sum(axis=1) * dt], axis=1)
        direct = basis.matrix(raw, bs[:, i:].sum(axis=1) if noise else None)
        assert np.allclose(A, direct, rtol=0.0, atol=1e-12)
        steps.append(i)
    assert steps == list(range(i_t, N))


@pytest.mark.parametrize("name, feature_set", [("path-f", "endpoint+runmax+runint"),
                                               ("linear-g", "endpoint")])
def test_masked_solve_matches_valid_rows(name, feature_set):
    # excluded scenarios take the masked-copy path; the solve must equal one
    # on an ensemble holding only the valid rows
    m = get_model(name)
    basis = RegressionBasis(feature_set=feature_set)
    ens = ensemble(m, N=8, n=3000, seed=13, x0=0.4, t_index=2)
    valid = np.ones(ens.n_scenarios, dtype=bool)
    valid[::7] = False
    masked = ScenarioEnsemble(ens.initial, ens.drivers, ens.x_values, valid)
    drv = ens.drivers
    kept = ScenarioEnsemble(
        ens.initial, BrownianPair(drv.grid_times, drv.dW[valid], drv.dB[valid], drv.seed),
        ens.x_values[valid])
    a = solve_regression(m, masked, basis=basis, record_fit_se=True)
    b = solve_regression(m, kept, basis=basis, record_fit_se=True)
    assert a.n_samples == b.n_samples == valid.sum()
    for x, y in ((a.y, b.y), (a.z, b.z), (a.fit_se, b.fit_se), (a.rollout, b.rollout),
                 (a.u_estimate, b.u_estimate), (a.u_stderr, b.u_stderr)):
        assert x.shape == y.shape
        assert np.allclose(x, y, rtol=0.0, atol=1e-12)


def test_coefficients_receive_read_only_blocks():
    from dataclasses import replace

    def overwrite(x, y, z):
        x[:, -1] = 0.0
        return y

    m = replace(get_model("heat"), f=overwrite)
    ens = ensemble(m, N=4, n=500, seed=14, x0=0.5)
    before = ens.x_values.copy()
    with pytest.raises(ValueError):
        solve_regression(m, ens)
    assert np.array_equal(ens.x_values, before)
    with pytest.raises(ValueError):
        solve_nested(m, Path(make_grid(T, 2), np.array([[0.5]])), n_outer=1,
                     seed=0, branching=2)


def test_solves_read_the_drivers_without_a_copy():
    # sampled increments are stored time-major, so with every scenario valid
    # the solver's time-major dW and dB are the drivers' own read-only storage
    m = get_model("linear-g")
    ens = ensemble(m, N=4, n=500, seed=14, x0=0.5)
    drv = ens.drivers
    for inc in (drv.dW, drv.dB):
        tm = _time_major(inc, ens.valid_mask)
        assert np.shares_memory(tm, inc)
        with pytest.raises(ValueError):
            tm[0] = 0.0
    valid = ens.valid_mask.copy()
    valid[3] = False
    assert not np.shares_memory(_time_major(drv.dW, valid), drv.dW)


# -- nested engine -------------------------------------------------------


def test_nested_exact_for_linear_terminal():
    # quadrature is exact for polynomials: a linear terminal gives the
    # martingale field with no sampling error at all
    m = linear_terminal_model()
    init = Path(make_grid(T, 4), np.array([[0.9]]))
    sol = solve_nested(m, init, n_outer=4, seed=0, branching=4)
    assert abs(sol.u_estimate[0] - 0.9) < 1e-10


def test_nested_exact_for_square_terminal():
    m = get_model("heat")
    init = Path(make_grid(T, 4), np.array([[1.0]]))
    sol = solve_nested(m, init, n_outer=4, seed=0, branching=8)
    assert abs(sol.u_estimate[0] - 2.0) < 1e-3


def test_nested_z_matches_gradient():
    m = get_model("heat")
    init = Path(make_grid(T, 4), np.array([[0.8]]))
    sol = solve_nested(m, init, n_outer=1, seed=0, branching=8)
    # z at the root equals sigma * gradient = 2 * x
    assert sol.z[0, 0, 0, 0] == pytest.approx(2.0 * 0.8, abs=1e-6)


def test_nested_budget_guards():
    m = get_model("heat")
    deep = Path(make_grid(T, 16), np.array([[0.0]]))
    with pytest.raises(BudgetError):
        solve_nested(m, deep, n_outer=1, seed=0, branching=2)
    wide = Path(make_grid(T, 8), np.array([[0.0]]))
    with pytest.raises(BudgetError):
        solve_nested(m, wide, n_outer=1, seed=0, branching=8)


def test_nested_frozen_noise_reproducibility():
    m = get_model("linear-g")
    init = Path(make_grid(T, 4), np.array([[0.5]]))
    dB = frozen_noise_increments(init.grid_times, 0, 1, seed=3, n_outer=5)
    sol_one = solve_nested(m, init, n_outer=1, seed=0, frozen_B=dB[2])
    assert np.all(sol_one.u_stderr == 0.0)
    sol_all = solve_nested(m, init, n_outer=5, seed=3)
    # the conditional value for outer sample 2 must match the frozen solve
    assert sol_all.y[2, 0, 0] == pytest.approx(sol_one.u_estimate[0], abs=1e-12)


def _count_sweeps(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _tree_backward(*args, **kwargs)

    monkeypatch.setattr(solver, "_tree_backward", counted)
    return calls


@pytest.mark.parametrize("name, sweeps", [("heat", 1), ("asian", 1), ("path-f", 1),
                                          ("linear-g", 8)])
def test_nested_sweeps_once_without_backward_driver(monkeypatch, name, sweeps):
    m = get_model(name)
    init = Path(make_grid(T, 4), np.array([[0.2], [0.5]]))
    calls = _count_sweeps(monkeypatch)
    sol = solve_nested(m, init, n_outer=8, seed=2, branching=4)
    assert len(calls) == sweeps
    assert sol.scheme_params["outer_sweeps"] == sweeps
    assert sol.scheme_params["n_outer"] == 8
    assert sol.n_samples == 8 and sol.z.shape == (8, 4, 1, 1)
    if sweeps == 1:
        one = solve_nested(m, init, n_outer=1, seed=2, branching=4)
        assert np.array_equal(sol.u_estimate, one.u_estimate)
        assert np.all(sol.u_stderr == 0.0)
        assert np.array_equal(sol.y, np.repeat(one.y, 8, axis=0))
        assert np.array_equal(sol.z, np.repeat(one.z, 8, axis=0))
    else:
        assert np.all(sol.u_stderr > 0.0)


def test_gauss_hermite_rule_computed_once(monkeypatch):
    calls = []
    original = np.polynomial.hermite_e.hermegauss

    def counted(deg):
        calls.append(deg)
        return original(deg)

    monkeypatch.setattr(np.polynomial.hermite_e, "hermegauss", counted)
    solver._gauss_hermite.cache_clear()
    m = get_model("heat")
    init = Path(make_grid(T, 3), np.array([[0.1]]))
    first = _tree_forward(m, init, 5)
    second = _tree_forward(m, init, 5)
    assert calls == [5]
    assert np.array_equal(first[2], second[2])
    nodes, weights = solver._gauss_hermite(5)
    assert not nodes.flags.writeable and not weights.flags.writeable
    solver._gauss_hermite.cache_clear()


def _einsum_tree_backward(model, initial, tree, dB, picard_iters):
    """Reference sweep: every driver evaluated (zero when absent) and each
    level contracted by einsum over (node, child, component) arrays."""
    levels, dw_nodes, w_nodes, level_w = tree
    d, k, l = model.dims
    dt = initial.dt
    n_rem = len(levels) - 1
    q = dw_nodes.shape[0]
    phi = model.Phi(levels[-1], dt)
    y_lv = [None] * n_rem + [phi]
    z_lv = [None] * n_rem + [np.zeros((phi.shape[0], k, d))]
    for p in range(picard_iters):
        new_y = [None] * n_rem + [phi]
        new_z = [None] * n_rem + [z_lv[n_rem]]
        for j in range(n_rem - 1, -1, -1):
            m = levels[j].shape[0]
            if p == 0:
                fy, fz = new_y[j + 1], new_z[j + 1]
            else:
                fy = np.repeat(y_lv[j], q, axis=0)
                fz = np.repeat(z_lv[j], q, axis=0)
            fv = model.eval_f(levels[j + 1], fy, fz).reshape(m, q, k)
            gdB = np.einsum("nkl,l->nk", model.eval_g(levels[j + 1], fy, fz),
                            dB[j]).reshape(m, q, k)
            integ = new_y[j + 1].reshape(m, q, k) + gdB
            new_z[j] = np.einsum("q,mqk,qd->mkd", w_nodes, integ, dw_nodes) / dt
            new_y[j] = np.einsum("q,mqk->mk", w_nodes, integ + fv * dt)
        y_lv, z_lv = new_y, new_z
    y_means = np.array([np.einsum("m,mk->k", level_w[j], y_lv[j])
                        for j in range(n_rem + 1)])
    z_means = np.array([np.einsum("m,mkd->kd", level_w[j], z_lv[j])
                        for j in range(n_rem)])
    return y_lv[0][0], z_lv[0][0], y_means, z_means


def two_driver_model():
    """d = k = l = 2, with both drivers nonzero and mixing components."""
    mix = np.array([[1.0, 0.5], [-0.3, 0.8]])
    return Model(
        b=lambda x: 0.1 * x[:, -1, :],
        sigma=lambda x: np.eye(2) * (1.0 + 0.2 * np.tanh(x[:, -1, :]))[:, :, None]
        + 0.1 * mix,
        Phi=lambda x, dt: np.stack([np.sin(x[:, -1, 0]) + x[:, -1, 1] ** 2,
                                    x[:, :, 0].max(axis=1) * x[:, -1, 1]], axis=1),
        lip_C=1.0, growth_m=1.0, alpha=0.5,
        f=lambda x, y, z: 0.3 * np.cos(y) + 0.2 * z[:, :, 0] - 0.1 * z[:, :, 1]
        + 0.1 * x[:, -1, :],
        g=lambda x, y, z: 0.3 * y[:, :, None] * mix[None] + 0.2 * z,
        dims=(2, 2, 2), markovian_flag=False, name="two-driver")


@pytest.mark.parametrize("name", ["linear-g", "nonlinear-f", "path-f", "two-driver"])
def test_tree_backward_matches_einsum_reference(name):
    m = two_driver_model() if name == "two-driver" else get_model(name)
    d, k, l = m.dims
    branching = 3 if d == 2 else 5
    init = Path(make_grid(T, 5), np.array([[0.2, -0.4], [0.5, 0.1]])[:, :d])
    tree = _tree_forward(m, init, branching)
    dB = frozen_noise_increments(init.grid_times, init.t_index, l, seed=4,
                                 n_outer=1)[0]
    for picard in (1, 2):
        got = _tree_backward(m, init, tree, dB, picard)
        ref = _einsum_tree_backward(m, init, tree, dB, picard)
        for a, b in zip(got, ref):
            assert a.shape == b.shape
            assert np.allclose(a, b, rtol=1e-13, atol=1e-13 * np.abs(b).max())


def test_frozen_noise_regenerates_bit_identical():
    grid = make_grid(T, 4)
    a = frozen_noise_increments(grid, 0, 1, seed=11, n_outer=3)
    b = frozen_noise_increments(grid, 0, 1, seed=11, n_outer=8)
    assert np.array_equal(a, b[:3])


# -- engine-level field evaluation ---------------------------------------


def test_evaluate_u_engine_validation():
    m = get_model("heat")
    init = Path(make_grid(T, 4), np.array([[0.0]]))
    with pytest.raises(ValueError):
        evaluate_u(m, init, engine="magic")
    with pytest.raises(ValueError):
        evaluate_u(m, init, engine="regression", frozen_B=np.zeros((4, 1)))


def engine_quotient(model, initial, h, **engine_kwargs):
    # central difference of the engine field; both bumped solves share the
    # seed, so the driver samples are common and the noise cancels
    u = field_from_engine(model, engine="nested", **engine_kwargs)
    return vertical_derivative(u, initial, h).value[:, 0]


def test_engine_field_quotient_of_closed_forms():
    m = get_model("heat")
    init = Path(make_grid(T, 4), np.array([[1.0]]))
    # d/dx (x^2 + T) = 2x
    dq = engine_quotient(m, init, h=0.5, n_scenarios=1, branching=8)
    assert dq[0] == pytest.approx(2.0, abs=1e-6)
    asian = get_model("asian")
    init4 = Path(make_grid(T, 4), np.array([[1.0]]))
    dq2 = engine_quotient(asian, init4, h=0.5, n_scenarios=1, branching=4)
    # d/dx (runint + x (T - t)) = T - t = 1 at t = 0
    assert dq2[0] == pytest.approx(1.0, abs=1e-6)


def test_engine_field_quotient_zero_for_constant_terminal():
    from dataclasses import replace
    m = replace(get_model("heat"),
                Phi=lambda x, dt: np.full((x.shape[0], 1), 5.0))
    init = Path(make_grid(T, 4), np.array([[0.3]]))
    dq = engine_quotient(m, init, h=0.25, n_scenarios=1, branching=4)
    assert abs(dq[0]) < 1e-12


def test_basis_validation():
    with pytest.raises(ValueError):
        RegressionBasis(feature_set="fourier")
    with pytest.raises(ValueError):
        RegressionBasis(degree=3)


def test_tree_levels_match_concatenated_histories():
    # each level against the scenario-major expansion it replaces: repeat
    # every history per quadrature node and append the new endpoints
    from dataclasses import replace
    m = replace(get_model("path-f"),
                b=lambda x: 0.1 * x.max(axis=1),
                sigma=lambda x: (1.0 + 0.2 * np.tanh(x[:, -1, :1]))[:, :, None])
    branching, N, i_t = 3, 5, 2
    init = Path(make_grid(T, N), np.array([[0.3], [-0.1], [0.6]]))
    levels, dw_nodes, _, _ = _tree_forward(m, init, branching)
    old = init.values[None].copy()
    assert np.array_equal(levels[0], old)
    for level in levels[1:]:
        step = (m.b(old)[:, None, :] * init.dt
                + np.einsum("mij,qj->mqi", m.sigma(old), dw_nodes))
        ends = (old[:, -1][:, None, :] + step).reshape(-1, 1)
        old = np.concatenate([np.repeat(old, branching, axis=0), ends[:, None, :]], axis=1)
        assert np.array_equal(level, old)
    assert levels[-1].shape == (branching ** (N - i_t), N + 1, 1)
