"""Backward solvers: regression and nested quadrature engines."""

import json
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
from pathfk.solver import _column_basis, _project, _tree_forward


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


def test_solution_time_accessors():
    m = get_model("heat")
    grid = make_grid(T, 8)
    init = Path(grid, np.array([[0.0], [0.2]]))  # starts at t = 0.125
    drv = sample_drivers(grid, 500, 9)
    sol = solve_regression(m, simulate_forward(m, init, drv))
    assert np.array_equal(sol.Y(0.0), sol.Y(0.125))
    assert np.array_equal(sol.Z(0.0), np.zeros_like(sol.Z(0.125)))
    with pytest.raises(ValueError):
        sol.Z(1.0)
    with pytest.raises(ValueError):
        sol.Y(0.3)


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


# -- solution export -----------------------------------------------------


def test_summary_json_schema():
    m = get_model("heat")
    sol = solve_regression(m, ensemble(m, N=4, n=500, seed=10))
    payload = json.loads(sol.summary_json())
    assert set(payload) == {"u", "stderr", "engine", "params", "seed"}
    assert payload["engine"] == "regression"
    assert payload["seed"] == 10


def test_csv_export_layout():
    m = get_model("heat")
    sol = solve_regression(m, ensemble(m, N=4, n=500, seed=11))
    lines = sol.to_csv(max_scenarios=2).strip().splitlines()
    assert lines[0] == "scenario,step,t,y_1,z_11"
    assert len(lines) == 1 + 2 * 5
    # the z column is empty at the horizon, where it is undefined
    assert lines[5].endswith(",")


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
