"""Backward solvers: regression and nested quadrature engines."""

import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from pathfk import (BudgetError, Model, Path, RegressionBasis, SolverError,
                    field_from_engine, frozen_noise_increments, get_entry,
                    get_model, make_grid, on_path, restrict, sample_drivers,
                    shifted_model, simulate_forward, solve_nested,
                    solve_regression, vertical_bump, vertical_derivative)
from pathfk.models import model_from_spec, running_stats
from pathfk.simulation import BrownianPair, ScenarioEnsemble
from pathfk import solver, verification
from pathfk.solver import (_column_basis, _project, _time_major, _tree_backward,
                          _tree_forward)


T = 1.0


def linear_terminal_model():
    return model_from_spec({"name": "linear"})


def ensemble(model, N=16, n=4000, seed=0, x0=0.0, t_index=0):
    grid = make_grid(T, N)
    vals = np.full((t_index + 1, model.dims[0]), x0)
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
    """The (step, design) pairs of one projection case: a single synthetic
    matrix as step 0, or every step's design that RegressionBasis.designs
    streams for a model, last step first (path-f-64 at the size of the
    path-dependent benchmark, N = 64 and n = 10,000)."""
    streamed = {"path-f": ("path-f", "endpoint+runmax+runint", 6, 1500),
                "path-f-64": ("path-f", "endpoint+runmax+runint", 64, 10_000),
                "heat": ("heat", "endpoint", 6, 1500),
                "linear-g": ("linear-g", "endpoint", 6, 1500)}
    if design in streamed:
        name, feature_set, N, n = streamed[design]
        m = get_model(name)
        ens = ensemble(m, N=N, n=n, seed=15)
        dB = None if m.g is None else ens.drivers.dB.transpose(1, 0, 2)
        basis = RegressionBasis(feature_set=feature_set)
        X = ens.x_values.transpose(1, 0, 2)
        return list(basis.designs(X, 0, running_stats(X, ens.initial.dt), dB))
    B = rng.normal(size=(200, 6))
    if design == "scaled_column":
        # one column a million times the others: the triangle's singular
        # values span about six decades, all far above the cutoff
        return [(0, B * np.r_[1.0, 1.0, 1.0, 1e6, 1.0, 1.0])]
    if design.endswith("_cutoff"):
        # six orthonormal columns and a seventh orthogonal to them, scaled
        # to a singular value a quarter above or a fifth below the cutoff
        Q = np.linalg.qr(np.hstack([B, rng.normal(size=(200, 1))]))[0]
        factor = 1.25 if design == "above_cutoff" else 0.8
        return [(0, Q * np.r_[np.ones(6), factor * 200 * np.finfo(float).eps])]
    return [(0, {"full": B,
                 "duplicated_column": np.hstack([B, B[:, 2:3]]),
                 "equal_rows": np.tile(B[0], (200, 1))}[design])]


@pytest.mark.parametrize("design, rank", [("full", 6), ("duplicated_column", 6),
                                          ("equal_rows", 1), ("above_cutoff", 7),
                                          ("below_cutoff", 6), ("path-f", 1),
                                          ("path-f-64", 1), ("scaled_column", 6),
                                          ("heat", 1), ("linear-g", 2)])
def test_projection_matches_minimum_norm_least_squares(design, rank):
    # rank is that of the design at i = t_index = 0: for the streamed cases
    # the initial step, where every history coincides
    rng = np.random.default_rng(11)
    designs = _designs(design, rng)
    assert designs[-1][0] == 0
    for step, A in designs:
        T = rng.normal(size=(A.shape[0], 3))
        ref = _svd_basis(A)
        U = _column_basis(A.copy(order="F"))     # factors its argument in place
        fitted = _project(U, T)
        assert U.shape[1] == ref.shape[1]
        assert U.flags.f_contiguous
        assert np.abs(U.T @ U - np.eye(U.shape[1])).max() <= 1e-13
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


def test_unconverged_svd_raises(monkeypatch):
    # LAPACK reports a triangle whose SVD did not converge through info
    from scipy.linalg import lapack
    real = lapack.dgesdd
    monkeypatch.setattr(lapack, "dgesdd", lambda *a, **k: real(*a, **k)[:3] + (1,))
    with pytest.raises(SolverError, match="did not converge"):
        _column_basis(np.random.default_rng(17).normal(size=(200, 4)))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_features_raise_naming_the_step():
    # x0 = 1e160 keeps the histories finite, but the feature x^2 overflows;
    # the backward sweep factors the last step, 3, first
    m = get_model("linear-g")
    with pytest.raises(SolverError, match="step 3: .*non-finite"):
        solve_regression(m, ensemble(m, N=4, n=600, seed=18, x0=1e160))


def test_import_does_not_load_scipy_linalg():
    # the factorization imports scipy.linalg on first use and no draw or
    # solve needs scipy.special, the CLI importlib.metadata and its process
    # pool only when it needs them: `import pathfk` loads numpy and the
    # standard library
    import pathfk
    src = os.path.dirname(os.path.dirname(os.path.abspath(pathfk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = """if True:
        import json, sys
        import pathfk, pathfk.cli
        heavy = ("scipy", "importlib.metadata", "multiprocessing")
        cold = sorted(m for m in sys.modules
                      if m in heavy or m.startswith(tuple(h + "." for h in heavy)))
        grid = pathfk.make_grid(1.0, 4)
        drivers = pathfk.sample_drivers(grid, 300, seed=0)
        loaded = {"cold": cold, "special": "scipy.special" in sys.modules,
                  "linalg": "scipy.linalg" in sys.modules}
        start = pathfk.Path(grid, [[0.2]])
        pathfk.solve_nested(pathfk.get_model("linear-g"), start, n_outer=2,
                            seed=0, branching=3)
        heat = pathfk.get_model("heat")
        pathfk.solve_regression(heat, pathfk.simulate_forward(heat, start, drivers))
        loaded["special_after_solves"] = "scipy.special" in sys.modules
        print(json.dumps(loaded))
    """
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    loaded = json.loads(out.stdout)
    assert loaded["cold"] == []
    assert loaded["special"] is False
    assert loaded["linalg"] is False
    assert loaded["special_after_solves"] is False


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


def test_linear_g_mean_is_unbiased_at_default_passes():
    # g = 0.3 y is read at the right endpoint, so E_B u = x0; reading it at
    # a refined current-step y added about 9% (1.09 at x0 = 1)
    entry = get_entry("linear-g")
    ens = ensemble(entry.model, N=16, n=10_000, seed=25, x0=1.0)
    sol = solve_regression(entry.model, ens)
    assert sol.scheme_params["step_iterations"] == 0
    assert abs(sol.u_estimate[0] - 1.0) < 3.0 * sol.u_stderr[0]


@pytest.mark.parametrize("name", ["linear-g", "z-in-g"])
@pytest.mark.parametrize("engine", ["regression", "nested"])
def test_backward_driver_means_match_closed_forms(name, engine):
    # E_B u = gamma(t) away from zero and after the start of the grid
    entry = get_entry(name)
    if engine == "regression":
        ens = ensemble(entry.model, N=8, n=4000, seed=26, x0=0.6, t_index=2)
        initial, sol = ens.initial, solve_regression(entry.model, ens)
    else:
        initial = Path(make_grid(T, 5), np.array([[0.2], [0.6]]))
        sol = solve_nested(entry.model, initial, n_outer=16, seed=27, branching=3)
    target = entry.closed_form_u(initial)
    assert target.tolist() == [0.6]
    assert abs(sol.u_estimate[0] - target[0]) < 3.0 * sol.u_stderr[0]


def test_terminal_z_is_phi_gradient_times_sigma(monkeypatch):
    m = two_driver_model()
    rng = np.random.default_rng(28)
    X = rng.normal(size=(5, 30, 2))              # time-major histories
    X[-1, :4] = -0.0
    before = _bits(X).copy()
    z = solver._terminal_z(m, X, 0.25, copy=False)
    # the bumped last row is restored bit for bit, signed zeros included
    assert np.array_equal(_bits(X), before)
    history = X.transpose(1, 0, 2)
    ref = _copied_terminal_z(m, history, 0.25)
    assert np.allclose(z, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
    # each row takes its own bump, so a row's z ignores the rows beside it,
    # and chunks of any size give the same bits, in place or on copies
    assert np.array_equal(z[7:12], solver._terminal_z(m, X[:, 7:12], 0.25, copy=True))
    monkeypatch.setattr(solver, "_BUMP_CHUNK", 7)
    for copy in (False, True):
        assert np.array_equal(solver._terminal_z(m, X, 0.25, copy=copy), z)
        assert np.array_equal(_bits(X), before)
    # a quadratic terminal has the exact gradient 2 x, sigma = 1
    heat = get_model("heat")
    z_heat = solver._terminal_z(heat, X[:, :, :1].copy(), 0.25, copy=False)
    assert np.allclose(z_heat[:, 0, 0], 2.0 * X[-1, :, 0], rtol=0.0, atol=1e-10)
    # a terminal that returns a view of the histories still sees both bumps
    view = replace(heat, Phi=lambda x, dt: x[:, -1, :1])
    assert np.allclose(solver._terminal_z(view, X[:, :, :1].copy(), 0.25, copy=False), 1.0,
                       rtol=0.0, atol=1e-11)


def test_solves_leave_the_histories_untouched():
    # the terminal z bumps copies of the caller's histories, and the nested
    # engine only its own tree buffer; the endpoint design keeps 700
    # scenarios above the floor of the model's own path design (1,500)
    m = two_driver_model()
    ens = ensemble(m, N=4, n=700, seed=29, x0=0.3, t_index=1)
    before = _bits(ens.x_values).copy()
    solve_regression(m, ens, basis=RegressionBasis())
    assert np.array_equal(_bits(ens.x_values), before)
    init = Path(make_grid(T, 3), np.array([[0.2, -0.1], [0.4, 0.3]]))
    values = init.values.copy()
    solve_nested(m, init, n_outer=2, seed=0, branching=3)
    assert np.array_equal(init.values, values)


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
    # without g dB is never read: all-NaN increments give the same solve
    # bit for bit; with g they enter the features, which reject them
    nan = BrownianPair(grid, drv.dW, np.full_like(drv.dB, np.nan), drv.seed)
    sol_c = solve_regression(m, simulate_forward(m, init, nan))
    for x, y in ((sol_a.y, sol_c.y), (sol_a.z, sol_c.z),
                 (sol_a.u_estimate, sol_c.u_estimate),
                 (sol_a.u_stderr, sol_c.u_stderr)):
        assert np.array_equal(x, y)
    m_g = get_model("linear-g")
    with pytest.raises(SolverError, match="non-finite"):
        solve_regression(m_g, simulate_forward(m_g, init, nan))


def test_future_noise_features_enabled_only_with_g():
    m_plain = get_model("heat")
    m_g = get_model("linear-g")
    sol_plain = solve_regression(m_plain, ensemble(m_plain, N=4, n=600, seed=6))
    sol_g = solve_regression(m_g, ensemble(m_g, N=4, n=600, seed=6))
    assert sol_plain.scheme_params["future_noise_features"] is False
    assert sol_g.scheme_params["future_noise_features"] is True


def test_budget_error_names_the_excluded_scenarios():
    # the drift of test_excluded_scenarios_are_recorded overflows 38 of 160
    # scenarios; the budget counts the 122 left and says where the rest went
    m = replace(get_model("heat"),
                b=lambda x: np.where(np.abs(x[:, -1, :]) > 1.5, np.inf, 0.0))
    ens = ensemble(m, N=16, n=160, seed=21)
    assert ens.excluded_count == 38
    with pytest.raises(BudgetError, match=r"got 122 of 160 \(38 excluded as non-finite\)"):
        solve_regression(m, ens)


def test_default_design_follows_the_model():
    # no basis: the endpoint and the running statistics the model reads;
    # an explicit basis still overrides that choice
    for name, features in (("path-f", "endpoint+runmax"),
                           ("asian", "endpoint+runint"),
                           ("heat", "endpoint"), ("linear-g", "endpoint")):
        m = get_model(name)
        sol = solve_regression(m, ensemble(m, N=4, n=600, seed=5, x0=0.3))
        assert sol.scheme_params["feature_set"] == features, name
        assert RegressionBasis.for_model(m).feature_set == features
    m = get_model("path-f")
    sol = solve_regression(m, ensemble(m, N=4, n=600, seed=5, x0=0.3),
                           basis=RegressionBasis())
    assert sol.scheme_params["feature_set"] == "endpoint"


@pytest.mark.parametrize("name, feature_set, width, floor", [
    ("heat", "endpoint", 3, 150), ("asian", "endpoint+runint", 6, 300),
    ("linear-g", "endpoint", 4, 200), ("nonlinear-f", "endpoint", 3, 150),
    ("z-in-g", "endpoint", 4, 200), ("path-f", "endpoint+runmax", 6, 300)])
def test_default_design_widths_and_floors(name, feature_set, width, floor):
    # the endpoint and the statistics the model reads, with the noise sum
    # when it has g: path-f and asian have 6 columns, where the full path
    # design had 10 and a floor of 500
    m = get_model(name)
    basis = RegressionBasis.for_model(m)
    assert basis.feature_set == feature_set and basis.stats == m.reads
    assert basis.width(1, 0 if m.g is None else 1) == width
    assert solver.min_scenarios(m) == floor
    ens = ensemble(m, N=4, n=floor, seed=9, x0=0.3)
    assert solve_regression(m, ens).scheme_params["feature_set"] == feature_set
    with pytest.raises(BudgetError, match=f"at least {floor} scenarios"):
        solve_regression(m, ensemble(m, N=4, n=floor - 1, seed=9))


@pytest.mark.parametrize("name", ["path-f", "asian"])
@pytest.mark.parametrize("N", [16, 64])
def test_default_design_keeps_u_of_the_full_design(name, N):
    # every projection keeps the constant and these drivers are affine in
    # y, so u is the mean of the rollout whatever the design
    m = get_model(name)
    ens = ensemble(m, N=N, n=1000, seed=33, x0=0.4)
    narrow = solve_regression(m, ens)
    full = solve_regression(m, ens, basis=RegressionBasis("endpoint+runmax+runint"))
    assert narrow.scheme_params["feature_set"] != full.scheme_params["feature_set"]
    assert abs(narrow.u_estimate[0] - full.u_estimate[0]) <= 1e-12


@pytest.mark.parametrize("feature_set", ["endpoint", "endpoint+runmax+runint"])
def test_design_width_is_the_designs_and_sets_the_floor(feature_set):
    # width() is the column count of every design the sweep builds, and
    # min_scenarios is 50 per column, the noise sums counted only with g
    basis = RegressionBasis(feature_set=feature_set)
    for m in (get_model("heat"), get_model("linear-g"), two_driver_model()):
        d, _, l = m.dims
        ens = ensemble(m, N=4, n=2000, seed=9)
        dB = None if m.g is None else ens.drivers.dB.transpose(1, 0, 2)
        X = ens.x_values.transpose(1, 0, 2)
        widths = {A.shape[1] for _, A in basis.designs(
            X, 0, running_stats(X, ens.initial.dt), dB)}
        width = basis.width(d, 0 if m.g is None else l)
        assert widths == {width}
        assert solver.min_scenarios(m, basis) == 50 * width


def test_feature_budget_guard(monkeypatch):
    m = get_model("asian")
    basis = RegressionBasis(feature_set="endpoint+runmax+runint")
    ens = ensemble(m, N=4, n=300, seed=7)
    factored = []
    monkeypatch.setattr(solver, "_column_basis", factored.append)
    with pytest.raises(BudgetError, match="10 features need at least 500 scenarios"):
        solve_regression(m, ens, basis=basis)
    # the guard reads the design's width before the first step builds a
    # design or factors one
    assert factored == []
    # asian's own design, endpoint+runint, has 6 columns
    built = []
    monkeypatch.setattr(RegressionBasis, "matrix", lambda *a: built.append(a))
    with pytest.raises(BudgetError, match="6 features need at least 300 scenarios"):
        solve_regression(m, ensemble(m, N=4, n=250, seed=7))
    assert built == []


def test_picard_validation_and_divergence(monkeypatch):
    import warnings
    factored = []
    with monkeypatch.context() as patched:
        patched.setattr(solver, "_column_basis", factored.append)
        with pytest.raises(ValueError, match="picard_iters=0"):
            solve_regression(get_model("heat"), ensemble(get_model("heat"), n=500),
                             picard_iters=0)
    # the iteration count is checked before any design is factored
    assert factored == []
    # f = c*y with c*dt > 1 makes each step's fixed-point map expansive: the
    # first backward step, 3, raises from the default count on, before any
    # value overflows (whole-sweep passes returned -146, exact 0, at the
    # default two and overflowed on the way to a late verdict at 400); the
    # grammar derives lip_C = 20, where a declared default of 2 once made
    # the message read 0.5, below one
    runaway = model_from_spec({"name": "runaway", "f": {"kind": "linear", "coef_y": 20}})
    ens = ensemble(runaway, N=4, n=500, seed=8)
    init = Path(make_grid(T, 4), np.array([[0.0]]))
    solves = (lambda it: solve_regression(runaway, ens, picard_iters=it),
              lambda it: solve_nested(runaway, init, n_outer=1, seed=0,
                                      branching=4, picard_iters=it))
    for solve in solves:
        for iters in (2, 400):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SolverError, match=r"step 3: .* -> .*"
                                   r"model\.lip_C \* dt = 5,"):
                    solve(iters)


@pytest.mark.parametrize("name", ["path-f", "nonlinear-f", "two-driver"])
@pytest.mark.parametrize("engine", ["regression", "nested"])
def test_contracting_models_never_trip_the_guard(name, engine):
    # each update is at most lip_C * dt times the one before, down to a
    # round-off floor, so long iteration runs stay quiet and settle
    m = two_driver_model() if name == "two-driver" else get_model(name)
    d = m.dims[0]
    if engine == "regression":
        basis = RegressionBasis(feature_set="endpoint+runmax+runint"
                                if name == "path-f" else "endpoint")
        ens = ensemble(m, N=8, n=1000, seed=32, x0=0.4)
        sols = [solve_regression(m, ens, basis=basis, picard_iters=it) for it in (8, 40)]
        assert all(len(s.scheme_params["update_norms"]) == 8 for s in sols)
        assert max(sols[1].scheme_params["update_norms"]) < 1e-12
    else:
        init = Path(make_grid(T, 4), np.full((1, d), 0.4))
        sols = [solve_nested(m, init, n_outer=2, seed=3, branching=3, picard_iters=it)
                for it in (8, 40)]
    assert [s.scheme_params["step_iterations"] for s in sols] == [8, 40]
    assert np.allclose(sols[0].y, sols[1].y, rtol=0.0, atol=1e-4)


def _with_zero_drivers(model, f=False, g=False):
    """The model with explicit all-zero drivers in place of absent ones."""
    d, k, l = model.dims
    zf = lambda x, y, z: np.zeros((x.shape[0], k))
    zg = lambda x, y, z: np.zeros((x.shape[0], k, l))
    return replace(model, f=zf if f else model.f, g=zg if g else model.g)


@pytest.mark.parametrize("zero", ["f", "g"])
def test_absent_drivers_match_explicit_zero_drivers(zero):
    # an explicit zero driver runs every projection (and, for f, every
    # y-iteration; an explicit g also takes the terminal z and adds the
    # remaining dB sums to the features); the absent driver takes the short
    # path and must land on the same floats.  For g the second driver's
    # increments are zero, so its feature column is zero and the rank rule
    # drops it: the bases span the same space, equal to round-off
    m = get_model("heat")
    explicit = _with_zero_drivers(m, f=zero == "f", g=zero == "g")
    ens = ensemble(m, N=6, n=800, seed=16, x0=0.3, t_index=1)
    if zero == "g":
        drv = ens.drivers
        still = BrownianPair(drv.grid_times, drv.dW, np.zeros_like(drv.dB), drv.seed)
        ens = simulate_forward(m, ens.initial, still)
    a = solve_regression(m, ens, record_fit_se=True)
    b = solve_regression(explicit, ens, record_fit_se=True)
    assert a.scheme_params["step_iterations"] == 0
    assert b.scheme_params["step_iterations"] == (2 if zero == "f" else 0)
    for name in ("y", "z", "u_estimate", "u_stderr", "rollout", "fit_se"):
        if zero == "f":
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        else:
            assert np.allclose(getattr(a, name), getattr(b, name),
                               rtol=0.0, atol=1e-12), name


def test_driverless_model_runs_one_pass():
    m = get_model("heat")
    ens = ensemble(m, N=6, n=800, seed=17)
    one = solve_regression(m, ens, picard_iters=1, record_fit_se=True)
    three = solve_regression(m, ens, picard_iters=3, record_fit_se=True)
    for name in ("y", "z", "u_estimate", "u_stderr", "rollout", "fit_se"):
        assert np.array_equal(getattr(one, name), getattr(three, name)), name
    assert three.scheme_params["picard_iters"] == 3
    assert three.scheme_params["step_iterations"] == 0
    assert three.scheme_params["update_norms"] == []
    init = Path(make_grid(T, 4), np.array([[0.4]]))
    n1 = solve_nested(m, init, n_outer=1, seed=0, branching=4, picard_iters=1)
    n3 = solve_nested(m, init, n_outer=1, seed=0, branching=4, picard_iters=3)
    for name in ("y", "z", "u_estimate", "u_stderr"):
        assert np.array_equal(getattr(n1, name), getattr(n3, name)), name
    assert n3.scheme_params["picard_iters"] == 3
    assert n3.scheme_params["step_iterations"] == 0


@pytest.mark.parametrize("name, per_step", [("heat", 2), ("linear-g", 2),
                                            ("path-f", 4)])
def test_projections_per_step(monkeypatch, name, per_step):
    # centring and z once per step, y by the centring term without f and
    # by one projection per y-iteration with f
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
    for i, A in basis.designs(X, i_t, running_stats(X, dt), dB if noise else None):
        raw = xs[:, i]
        if feature_set != "endpoint":
            raw = np.concatenate([raw, xs[:, : i + 1].max(axis=1),
                                  xs[:, :i].sum(axis=1) * dt], axis=1)
        direct = basis.matrix(raw, bs[:, i:].sum(axis=1) if noise else None)
        assert np.allclose(A, direct, rtol=0.0, atol=1e-12)
        steps.append(i)
    assert steps == list(range(N - 1, i_t - 1, -1))


def _accumulated_designs(basis, X, t_index, dt, dB):
    """Every step's design, last step first, by whole-history arrays: the
    running maximum and sum by one accumulation along the time axis, the
    raw coordinates concatenated, and each monomial multiplied out from raw."""
    N = X.shape[0] - 1
    path = basis.feature_set == "endpoint+runmax+runint"
    runmax = np.maximum.accumulate(X[:N], axis=0)
    runsum = np.zeros_like(runmax)
    np.cumsum(X[: N - 1], axis=0, out=runsum[1:])
    rest = None
    for i in range(N - 1, t_index - 1, -1):
        if dB is not None:
            rest = dB[i] if rest is None else rest + dB[i]
        raw = np.concatenate([X[i], runmax[i], runsum[i] * dt], axis=1) if path else X[i]
        n, r = raw.shape
        cols = [np.ones(n)]
        for deg in (1, 2):
            for combo in itertools.combinations_with_replacement(range(r), deg):
                col = raw[:, combo[0]].copy()
                for c in combo[1:]:
                    col *= raw[:, c]
                cols.append(col)
        yield i, np.column_stack(cols + ([] if rest is None else [rest]))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("feature_set", ["endpoint", "endpoint+runmax+runint"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("t_index", [0, 3])
@pytest.mark.parametrize("noise", [False, True])
def test_designs_keep_their_bits(feature_set, d, t_index, noise):
    # the per-step running max and sum, the reused raw buffer and the
    # products of contiguous columns give the accumulated construction's
    # designs bit for bit (signed zeros included: the first history row
    # carries -0.0 entries)
    rng = np.random.default_rng(23)
    N, n, l, dt = 7, 50, 2, 0.125
    X = rng.normal(size=(N + 1, n, d))
    X[0, :10] = -0.0
    dB = rng.normal(size=(N, n, l)) if noise else None
    basis = RegressionBasis(feature_set=feature_set)
    got = list(basis.designs(X, t_index, running_stats(X, dt), dB))
    ref = list(_accumulated_designs(basis, X, t_index, dt, dB))
    assert [i for i, _ in got] == [i for i, _ in ref] == list(range(N - 1, t_index - 1, -1))
    for (_, A), (_, B) in zip(got, ref):
        assert A.flags.f_contiguous and A.shape == B.shape
        assert np.array_equal(_bits(A), _bits(B))
    raw = rng.normal(size=(n, 3 * d))
    rest = rng.normal(size=(n, l)) if noise else None
    assert np.array_equal(_bits(basis.matrix(raw, rest)),
                          _bits(basis.matrix(np.asfortranarray(raw), rest)))


def _forward_designs(basis, X, t_index, dt, dB):
    """Every step's design, first step first, with the running maximum,
    the running sum and the remaining noise sum carried forward."""
    N = X.shape[0] - 1
    path = basis.feature_set == "endpoint+runmax+runint"
    if path:
        runmax = X[: t_index + 1].max(axis=0)
        runsum = X[:t_index].sum(axis=0)
    rest = None if dB is None else dB[t_index:].sum(axis=0)
    for i in range(t_index, N):
        raw = np.concatenate([X[i], runmax, runsum * dt], axis=1) if path else X[i]
        yield i, basis.matrix(raw, rest)
        if path:
            runmax = np.maximum(runmax, X[i + 1])
            runsum = runsum + X[i]
        if rest is not None:
            rest = rest - dB[i]


def _copied_terminal_z(model, history, dt):
    """The terminal z, D Phi sigma, by central differences of Phi on
    bumped copies of the whole (n, N+1, d) histories, each row bumped by
    its own h = 1e-4 (1 + max |x_N|); zero without g."""
    n, _, d = history.shape
    if model.g is None:
        return np.zeros((n, model.dims[1], d))
    h = 1e-4 * (1.0 + np.abs(history[:, -1]).max(axis=1))
    grad = []
    for a in range(d):
        up, down = history.copy(), history.copy()
        up[:, -1, a] += h
        down[:, -1, a] -= h
        grad.append((model.Phi(up, dt) - model.Phi(down, dt)) / (2.0 * h)[:, None])
    return np.einsum("nka,nae->nke", np.stack(grad, axis=-1), model.sigma(history))


def _step_after_step(model, ens, basis, picard_iters):
    """The regression scheme run step after step over bases stored first
    step first: the arrays solve_regression returns, and each step's last
    y-update as a root-mean-square difference, from t_index on.  g reads
    each step's right endpoint, from the terminal z on; z and y's start
    come from the centred continuation, and with f y takes picard_iters
    projections of the continuation plus f dt at the step's own (y, z)."""
    d, k, l = model.dims
    X = _time_major(ens.x_values, ens.valid_mask)
    dW = _time_major(ens.drivers.dW, ens.valid_mask)
    dB = _time_major(ens.drivers.dB, ens.valid_mask)
    history = X.transpose(1, 0, 2)
    N, n = X.shape[0] - 1, X.shape[1]
    i_t, dt = ens.initial.t_index, ens.initial.dt
    bases = {i: _column_basis(A) for i, A in
             _forward_designs(basis, X, i_t, dt, None if model.g is None else dB)}
    Y, Z = np.zeros((N + 1, n, k)), np.zeros((N + 1, n, k, d))
    Y[N] = model.Phi(history, dt)
    Z[N] = _copied_terminal_z(model, history, dt)
    rollout, fit_se, norms = Y[N].copy(), np.zeros((N + 1, n, k)), []
    for i in range(N - 1, i_t - 1, -1):
        U, x = bases[i], history[:, : i + 2]
        cont = Y[i + 1]
        if model.g is not None:
            gdB = np.einsum("nkl,nl->nk", model.g(x, Y[i + 1], Z[i + 1]), dB[i])
            cont = cont + gdB
        Y[i] = _project(U, cont)
        z_target = (cont - Y[i])[:, :, None] * dW[i][:, None, :] / dt
        Z[i] = _project(U, z_target.reshape(n, k * d)).reshape(n, k, d)
        if model.f is not None:
            for _ in range(picard_iters):
                fdt = model.eval_f(x, Y[i], Z[i]) * dt
                prev, Y[i] = Y[i].copy(), _project(U, cont + fdt)
            norms.insert(0, np.sqrt(np.mean((Y[i] - prev) ** 2)))
            rollout = rollout + fdt
        if model.g is not None:
            rollout = rollout + gdB
        resid_var = (np.sum((rollout - _project(U, rollout)) ** 2, axis=0)
                     / max(n - U.shape[1], 1))
        fit_se[i] = np.sqrt(np.sum(U ** 2, axis=1)[:, None] * resid_var[None, :])
    Y[:i_t] = Y[i_t]
    out = {"y": Y.transpose(1, 0, 2), "z": Z[:N].transpose(1, 0, 2, 3),
           "rollout": rollout, "fit_se": fit_se.transpose(1, 0, 2),
           "u_stderr": rollout.std(axis=0, ddof=1) / np.sqrt(n)}
    return out, norms


@pytest.mark.parametrize("name", ["path-f", "nonlinear-f", "linear-g", "z-in-g",
                                  "two-driver"])
@pytest.mark.parametrize("picard_iters", [1, 2, 3])
@pytest.mark.parametrize("t_index", [0, 2])
def test_backward_sweep_matches_pass_after_pass(name, picard_iters, t_index):
    # the sweep factors a step's design and drops its basis before the next
    # step; the reference stores every step's basis and then runs the
    # scheme over them.  The arithmetic of a step is the same, so without
    # future-noise features the outputs agree bit for bit; the remaining
    # noise sum is carried backward in the sweep and forward in the
    # reference, which moves round-off only
    m = two_driver_model() if name == "two-driver" else get_model(name)
    feature_set = "endpoint+runmax+runint" if name == "path-f" else "endpoint"
    basis = RegressionBasis(feature_set=feature_set)
    ens = ensemble(m, N=8, n=1500, seed=19, x0=0.4, t_index=t_index)
    sol = solve_regression(m, ens, basis=basis, picard_iters=picard_iters,
                           record_fit_se=True)
    ref, norms = _step_after_step(m, ens, basis, picard_iters)
    noise = sol.scheme_params["future_noise_features"]
    assert noise is (m.g is not None)
    for key, want in ref.items():
        got = getattr(sol, key)
        assert got.shape == want.shape
        if noise:
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), key
        else:
            assert np.array_equal(got, want), key
    assert np.allclose(sol.scheme_params["update_norms"], norms, rtol=1e-12,
                       atol=1e-12 if noise else 0.0)
    iters = picard_iters if m.f is not None else 0
    assert sol.scheme_params["step_iterations"] == iters
    assert len(norms) == (8 - t_index if iters else 0)


@pytest.mark.parametrize("name", ["path-f", "nonlinear-f"])
def test_default_iterations_reach_the_step_fixed_point(name):
    # two y-iterations per step land within 1e-3 of eight everywhere on the
    # grid; two whole-sweep passes stayed 5-6e-3 away at this size
    m = get_model(name)
    basis = RegressionBasis(feature_set="endpoint+runmax+runint"
                            if name == "path-f" else "endpoint")
    ens = ensemble(m, N=64, n=4000, seed=33, x0=0.5)
    default = solve_regression(m, ens, basis=basis)
    converged = solve_regression(m, ens, basis=basis, picard_iters=8)
    assert np.abs(default.y - converged.y).max() < 1e-3


def test_path_f_mean_matches_the_exact_implicit_scheme():
    # f = running max - y with an endpoint terminal from x0 = 0: the scheme
    # implicit in y gives y_i (1 + dt) = E_i[y_{i+1} + M_{i+1} dt], so
    # y_0 = sum_i (1 + dt)^-(i+1) E[M_{i+1}] dt, and Spitzer's identity
    # gives the random walk's expected running max E[M_k] =
    # sum_{j <= k} E[S_j^+] / j with E[S_j^+] = sqrt(j dt / (2 pi))
    N, dt = 16, T / 16
    j = np.arange(1, N + 1)
    expected_max = np.cumsum(np.sqrt(j * dt / (2 * np.pi)) / j)
    exact = np.sum((1 + dt) ** -(j.astype(float)) * expected_max * dt)
    assert exact == pytest.approx(0.237549, abs=1e-6)
    m = get_model("path-f")
    basis = RegressionBasis(feature_set="endpoint+runmax+runint")
    u = [solve_regression(m, ensemble(m, N=N, n=20_000, seed=40 + s), basis=basis
                          ).u_estimate[0] for s in range(8)]
    assert abs(np.mean(u) - exact) < 3 * np.std(u, ddof=1) / np.sqrt(len(u))


def test_sweep_keeps_no_per_step_bases():
    # quadrupling the steps of a path-f solve grows its traced peak by the
    # per-step arrays it returns, far less than storing one (n, 10) basis
    # per extra step would add
    import tracemalloc
    m = get_model("path-f")
    basis = RegressionBasis(feature_set="endpoint+runmax+runint")
    n, peaks = 4000, []
    for N in (16, 64):
        ens = ensemble(m, N=N, n=n, seed=20)
        tracemalloc.start()
        try:
            solve_regression(m, ens, basis=basis)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 48 * n * 10 * 8 / 2


def runmax_reader(calls):
    """A hand-built d = 2 model whose f declares the running max and checks,
    at every call, that the row it is handed is its own block's."""
    def f(x, y, z, runmax):
        assert runmax.shape == (x.shape[0], 2)
        assert np.array_equal(runmax, x.max(axis=1))
        calls.append(x.shape[1])
        return 0.5 * (runmax[:, :1] - runmax[:, 1:]) - y
    return Model(b=lambda x: np.zeros((x.shape[0], 2)),
                 sigma=lambda x: np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)),
                 Phi=lambda x, dt: x[:, -1, :1] - x[:, -1, 1:], lip_C=1.0,
                 growth_m=0.0, alpha=0.0, f=f, dims=(2, 1, 1),
                 reads=("runmax", "runint"), f_reads=("runmax",), name="runmax-reader")


@pytest.mark.parametrize("t_index", [0, 3])
def test_driver_reads_its_blocks_running_max_on_every_path(t_index):
    # the sweep hands f row i + 1 of the carried running max at step i, the
    # last row of f's block: row i would differ wherever X[i + 1] is a new
    # maximum.  The nested tree and single paths derive the row instead
    calls = []
    m = runmax_reader(calls)
    ens = ensemble(m, N=8, n=1500, seed=31, x0=0.2, t_index=t_index)
    solve_regression(m, ens, picard_iters=2)
    assert sorted(set(calls)) == list(range(t_index + 2, 10))
    calls.clear()
    init = Path(make_grid(T, 4), np.array([[0.0, 0.3], [0.4, -0.1]]))
    solve_nested(m, init, n_outer=1, seed=0, branching=3)
    assert sorted(set(calls)) == [3, 4, 5]
    calls.clear()
    p = Path(make_grid(T, 4), np.array([[0.0, 0.3], [0.4, -0.1], [-0.2, 0.5]]))
    on_path(m.eval_f, p, np.array([0.1]), np.zeros((1, 2)))
    assert calls == [3]


@pytest.mark.parametrize("N", [16, 64])
def test_carried_running_max_keeps_path_f_bits(N):
    # path-f's driver reads the carried row; a hand-built copy reduces the
    # whole history at every step, as the grammar's driver did.  Max is
    # exact, so every output keeps its bits, shifted or not
    path_f = get_model("path-f")
    whole = replace(path_f, f=lambda x, y, z: 0.0 + x[:, :, :1].max(axis=1) - y,
                    f_reads=())
    ens = ensemble(path_f, N=N, n=1000, seed=32, x0=0.3, t_index=2)
    for got, want in ((path_f, whole),
                      (shifted_model(path_f, shift_f=0.1), shifted_model(whole, shift_f=0.1))):
        a, b = solve_regression(got, ens), solve_regression(want, ens)
        for key in ("y", "z", "u_estimate", "u_stderr", "rollout"):
            assert np.array_equal(getattr(a, key), getattr(b, key)), (got.name, key)


def test_excluded_scenarios_are_recorded():
    # a drift that explodes once a path leaves [-1.5, 1.5] overflows a
    # share of the scenarios; the solve runs on the rest and says how many
    m = replace(get_model("heat"),
                b=lambda x: np.where(np.abs(x[:, -1, :]) > 1.5, np.inf, 0.0))
    ens = ensemble(m, N=8, n=2000, seed=21)
    assert 0 < ens.excluded_count < 2000
    sol = solve_regression(m, ens)
    assert sol.scheme_params["excluded_scenarios"] == ens.excluded_count
    assert sol.n_samples == 2000 - ens.excluded_count
    assert np.isfinite(sol.u_estimate).all() and np.isfinite(sol.u_stderr).all()
    heat = get_model("heat")
    assert solve_regression(heat, ensemble(heat, N=8, n=2000, seed=21)
                            ).scheme_params["excluded_scenarios"] == 0


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


def test_nested_linear_g_frozen_field_is_the_product():
    # conditioned on B the discrete field is gamma(t) prod_j (1 + 0.3 dB_j):
    # the quadrature is exact for the linear terminal and g reads each
    # step's right endpoint
    m = get_model("linear-g")
    init = Path(make_grid(T, 6), np.array([[0.1], [0.4], [0.7]]))
    dB = frozen_noise_increments(init.grid_times, 2, 1, seed=30, n_outer=1)[0]
    exact = 0.7 * np.prod(1.0 + 0.3 * dB[:, 0])
    for picard_iters in (1, 2, 3):
        sol = solve_nested(m, init, n_outer=1, seed=0, branching=4,
                           picard_iters=picard_iters, frozen_B=dB)
        assert sol.scheme_params["step_iterations"] == 0
        assert abs(sol.u_estimate[0] - exact) < 1e-12


def test_nested_z_in_g_frozen_field_adds_the_whole_noise():
    # Z = 1 on every path, so conditioned on B the field is
    # gamma(t) + 0.5 (B_T - B_t); the terminal z carries the last step's
    # increment, which a zero terminal z drops
    m = get_model("z-in-g")
    init = Path(make_grid(T, 6), np.array([[0.1], [0.4], [0.7]]))
    dB = frozen_noise_increments(init.grid_times, 2, 1, seed=31, n_outer=1)[0]
    sol = solve_nested(m, init, n_outer=1, seed=0, branching=4, picard_iters=1,
                       frozen_B=dB)
    assert abs(sol.u_estimate[0] - (0.7 + 0.5 * dB.sum())) < 1e-12
    rest = np.cumsum(dB[::-1, 0])[::-1]              # B_T - B_{t_i}, i >= 2
    assert np.allclose(sol.y[0, 2:-1, 0], 0.7 + 0.5 * rest, rtol=0.0, atol=1e-12)
    assert np.allclose(sol.z[0, 2:], 1.0, rtol=0.0, atol=1e-12)


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
    first = _tree_forward(m, [init], 5)
    second = _tree_forward(m, [init], 5)
    assert calls == [5]
    assert np.array_equal(first[2], second[2])
    nodes, weights = solver._gauss_hermite(5)
    assert not nodes.flags.writeable and not weights.flags.writeable
    solver._gauss_hermite.cache_clear()


def _diffusion_model(d):
    """Driftless unit diffusion in d dimensions with a sum-of-squares terminal."""
    return Model(
        b=lambda x: np.zeros((x.shape[0], d)),
        sigma=lambda x: np.broadcast_to(np.eye(d), (x.shape[0], d, d)),
        Phi=lambda x, dt: np.sum(x[:, -1, :] ** 2, axis=1, keepdims=True),
        lip_C=1.0, growth_m=2.0, alpha=0.5, dims=(d, 1, 1), name=f"diffusion-{d}")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tree_product_rule_matches_itertools(d):
    # the d-fold product rule, written out node by node in itertools order
    branching, N = 3, 2
    init = Path(make_grid(T, N), np.full((1, d), 0.2))
    _, dw_nodes, w_nodes = _tree_forward(_diffusion_model(d), [init], branching)
    nodes1, weights1 = solver._gauss_hermite(branching)
    combos = list(itertools.product(range(branching), repeat=d))
    ref_dw = np.array([[nodes1[c] for c in combo] for combo in combos]) * np.sqrt(T / N)
    ref_w = np.array([np.prod([weights1[c] for c in combo]) for combo in combos])
    assert dw_nodes.shape == (branching ** d, d) and w_nodes.shape == (branching ** d,)
    assert np.array_equal(dw_nodes, ref_dw)
    assert np.array_equal(w_nodes, ref_w)
    # the rule integrates the quadratic terminal exactly: |x|^2 + d (T - t)
    u = solve_nested(_diffusion_model(d), init, n_outer=1, seed=0, branching=branching)
    assert u.u_estimate[0] == pytest.approx(d * (0.04 + T), abs=1e-12)


@pytest.mark.parametrize("name", ["heat", "nonlinear-f"])
def test_nested_pass_count_and_branching_validated_before_any_tree(monkeypatch, name):
    m = get_model(name)
    init = Path(make_grid(T, 4), np.array([[0.5]]))
    grown = []
    grow = solver._tree_forward
    monkeypatch.setattr(solver, "_tree_forward",
                        lambda *a, **kw: grown.append(1) or grow(*a, **kw))
    with pytest.raises(ValueError, match="picard_iters=0"):
        solve_nested(m, init, n_outer=2, seed=0, branching=3, picard_iters=0)
    with pytest.raises(ValueError, match="picard_iters=0"):
        solver._nested_estimates(m, [init], n_scenarios=2, branching=3, picard_iters=0)
    assert grown == []
    # one node per step drops the diffusion: heat would return x0^2 = 0.25
    # where the field is x0^2 + T = 1.25
    for branching in (0, 1):
        with pytest.raises(ValueError, match="branching"):
            solve_nested(m, init, n_outer=1, seed=0, branching=branching)



def _einsum_tree_backward(model, initial, tree, dB, picard_iters):
    """Reference sweep: every driver evaluated (zero when absent), g at
    the children's own values from the terminal z on, each level's y
    iterated picard_iters times with f at the children and their parent's
    (y, z), and each level contracted by einsum over (node, child,
    component) arrays."""
    levels, dw_nodes, w_nodes = tree
    d, k, l = model.dims
    dt = initial.dt
    n_rem = len(levels) - 1
    q = dw_nodes.shape[0]
    y_lv = [None] * n_rem + [model.Phi(levels[-1], dt)]
    z_lv = [None] * n_rem + [_copied_terminal_z(model, levels[-1], dt)]
    for j in range(n_rem - 1, -1, -1):
        m = levels[j].shape[0]
        gdB = np.einsum("nkl,l->nk", model.eval_g(levels[j + 1], y_lv[j + 1],
                                                  z_lv[j + 1]),
                        dB[j]).reshape(m, q, k)
        integ = y_lv[j + 1].reshape(m, q, k) + gdB
        z_lv[j] = np.einsum("q,mqk,qd->mkd", w_nodes, integ, dw_nodes) / dt
        y = np.einsum("q,mqk->mk", w_nodes, integ)
        for _ in range(picard_iters):
            fv = model.eval_f(levels[j + 1], np.repeat(y, q, axis=0),
                              np.repeat(z_lv[j], q, axis=0)).reshape(m, q, k)
            y = np.einsum("q,mqk->mk", w_nodes, integ + fv * dt)
        y_lv[j] = y
    return y_lv, z_lv


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
        dims=(2, 2, 2), reads=("runmax", "runint"), name="two-driver")


@pytest.mark.parametrize("name", ["linear-g", "nonlinear-f", "path-f", "two-driver"])
def test_tree_backward_matches_einsum_reference(name):
    m = two_driver_model() if name == "two-driver" else get_model(name)
    d, k, l = m.dims
    branching = 3 if d == 2 else 5
    init = Path(make_grid(T, 5), np.array([[0.2, -0.4], [0.5, 0.1]])[:, :d])
    tree = _tree_forward(m, [init], branching)
    dB = frozen_noise_increments(init.grid_times, init.t_index, l, seed=4,
                                 n_outer=1)[0]
    leaves = tree[0][-1]
    z_end = np.zeros((leaves.shape[0], k, d))
    if m.g is not None:
        z_end = solver._terminal_z(m, leaves.transpose(1, 0, 2), init.dt, copy=True)
    for picard in (1, 2):
        got = _tree_backward(m, init, tree, (m.Phi(leaves, init.dt), z_end), dB,
                             solver._step_iterations(m, picard))
        ref = _einsum_tree_backward(m, init, tree, dB, picard)
        for got_levels, ref_levels in zip(got, ref):
            assert len(got_levels) == len(ref_levels)
            for a, b in zip(got_levels, ref_levels):
                assert a.shape == b.shape
                assert np.allclose(a, b, rtol=1e-13, atol=1e-13 * np.abs(b).max())


def _bumped_roots(d, t_index, n_roots, seed, N=4):
    """n_roots paths of one depth that differ only at the endpoint, as the
    bumps of a derivative stencil do."""
    rng = np.random.default_rng(seed)
    base = Path(make_grid(T, N), 0.5 * rng.normal(size=(t_index + 1, d)))
    return [vertical_bump(base, x) for x in 0.1 * rng.normal(size=(n_roots, d))]


@pytest.mark.parametrize("name", ["linear-g", "path-f", "nonlinear-f", "two-driver"])
def test_stacked_roots_match_their_own_solves(name):
    m = two_driver_model() if name == "two-driver" else get_model(name)
    d = m.dims[0]
    branching = 3 if d == 2 else 4
    # depths 0, 2 and the horizon in one batch: grouped by depth
    paths = [p for t_index in (0, 2, 4) for p in _bumped_roots(d, t_index, 5, t_index)]
    got = solver._nested_estimates(m, paths, n_scenarios=3, seed=9,
                                   branching=branching)
    assert got.shape == (len(paths), m.dims[1])
    for p, g in zip(paths, got):
        ref = solve_nested(m, p, n_outer=3, seed=9, branching=branching).u_estimate
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("name", ["linear-g", "two-driver"])
def test_one_root_batch_is_solve_nested(name):
    m = two_driver_model() if name == "two-driver" else get_model(name)
    d, _, l = m.dims
    (p,) = _bumped_roots(d, 1, 1, seed=3)
    for kwargs in ({"n_scenarios": 4, "seed": 2},
                   {"frozen_B": np.full((3, l), 0.2), "picard_iters": 1}):
        got = solver._nested_estimates(m, [p], branching=3, **kwargs)
        ref = solve_nested(m, p, n_outer=kwargs.get("n_scenarios", 1),
                           seed=kwargs.get("seed", 0), branching=3,
                           picard_iters=kwargs.get("picard_iters", 2),
                           frozen_B=kwargs.get("frozen_B"))
        assert np.array_equal(got[0], ref.u_estimate)


def test_stacked_trees_stay_within_the_leaf_limit(monkeypatch):
    # 3**4 = 81 leaves per root at depth 4, 27 at depth 3, 243 at depth 5
    monkeypatch.setattr(solver, "_MAX_STACKED_LEAVES", 100)
    trees = []

    def recorded(model, roots, branching, *rest):
        tree = _tree_forward(model, roots, branching, *rest)
        trees.append((len(roots), tree[0][-1].shape[0]))
        return tree

    monkeypatch.setattr(solver, "_tree_forward", recorded)
    m = get_model("path-f")
    paths = [p for t_index in (0, 1, 2) for p in _bumped_roots(1, t_index, 5, 1, N=5)]
    got = solver._nested_estimates(m, paths, n_scenarios=1, branching=3)
    assert sorted(trees) == sorted([(1, 243)] * 5 + [(1, 81)] * 5 + [(3, 81), (2, 54)])
    assert all(leaves <= 100 or roots == 1 for roots, leaves in trees)
    for p, g in zip(paths, got):
        ref = solve_nested(m, p, n_outer=1, seed=0, branching=3).u_estimate
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("name", ["linear-g", "z-in-g"])
def test_field_draws_its_frozen_noise_once_per_depth(monkeypatch, name):
    # the residual of a g-model reads the field conditioned on each path's
    # own increments, so it draws no frozen B, bit for bit as a field that
    # conditions by hand; u(p) and the averaged field's batches draw each
    # depth's outer samples once, and none at the horizon, where no step
    # remains, with the values of estimates that redraw them for every batch
    m = get_model(name)
    N, kwargs = 4, {"n_scenarios": 3, "seed": 4, "branching": 3}
    draws = []
    real = solver.frozen_noise_increments

    def counted(grid, t_index, *args):
        draws.append(t_index)
        return real(grid, t_index, *args)

    monkeypatch.setattr(solver, "frozen_noise_increments", counted)
    ens = ensemble(m, N=N, n=2, seed=5, x0=0.3)
    by_hand = verification._StackedField(
        eval=None, output_shape=(1,), regularity_tag="C12",
        condition=lambda dB: verification._StackedField(
            eval=None, output_shape=np.shape(dB)[:-2] + (1,), regularity_tag="C12",
            stacked=lambda paths: solver._nested_estimates(
                m, paths, frozen_B=dB, branching=3)))
    u = field_from_engine(m, "nested", **kwargs)
    res = verification.spde_residual(u, m, ens)
    assert draws == []
    assert np.array_equal(_bits(res), _bits(verification.spde_residual(by_hand, m, ens)))
    path = Path(ens.initial.grid_times, ens.x_values[0])
    prefixes = [restrict(path, path.grid_times[i]) for i in range(N + 1)]
    got = [np.concatenate([u(p), u.batch([p, vertical_bump(p, [0.1])]).ravel()])
           for p in prefixes]
    assert sorted(draws) == list(range(N))
    ref = [np.concatenate([solver._nested_estimates(m, [p], **kwargs)[0],
                           solver._nested_estimates(m, [p, vertical_bump(p, [0.1])],
                                                    **kwargs).ravel()])
           for p in prefixes]
    assert len(draws) == 3 * N
    assert np.array_equal(_bits(np.array(got)), _bits(np.array(ref)))


def test_stacked_frozen_noise_sweeps_one_tree_per_sample(monkeypatch):
    # a stack of S frozen samples gives one value per sample and path, the
    # paths' own conditioned estimates, from one tree swept S times
    m = get_model("z-in-g")
    trees, sweeps = [], []
    grow, sweep = solver._tree_forward, solver._tree_backward
    monkeypatch.setattr(solver, "_tree_forward",
                        lambda *a, **kw: trees.append(1) or grow(*a, **kw))
    monkeypatch.setattr(solver, "_tree_backward",
                        lambda *a, **kw: sweeps.append(1) or sweep(*a, **kw))
    paths = _bumped_roots(1, 1, 3, seed=6, N=5)
    stack = np.random.default_rng(7).normal(scale=0.4, size=(4, 4, 1))
    got = solver._nested_estimates(m, paths, branching=3, frozen_B=stack)
    assert got.shape == (3, 4, 1) and len(trees) == 1 and len(sweeps) == 4
    for s in range(4):
        own = solver._nested_estimates(m, paths, branching=3, frozen_B=stack[s])
        assert np.abs(got[:, s] - own).max() <= 1e-12
        for p, g in zip(paths, got[:, s]):
            ref = solve_nested(m, p, n_outer=1, seed=0, branching=3, frozen_B=stack[s])
            assert np.abs(g - ref.u_estimate).max() <= 1e-12


def test_frozen_noise_regenerates_bit_identical():
    grid = make_grid(T, 4)
    a = frozen_noise_increments(grid, 0, 1, seed=11, n_outer=3)
    b = frozen_noise_increments(grid, 0, 1, seed=11, n_outer=8)
    assert np.array_equal(a, b[:3])


# -- engine-level field evaluation ---------------------------------------


def test_field_from_engine_engine_validation():
    m = get_model("heat")
    for engine in ("magic", "regression"):
        with pytest.raises(ValueError):
            field_from_engine(m, engine=engine)


@pytest.mark.parametrize("name", ["linear-g", "path-f", "two-driver"])
def test_field_value_is_its_batch_of_one(monkeypatch, name):
    # one path's value grows its tree through the batch route, and equals
    # both that batch and the path's own solve, bit for bit
    m = two_driver_model() if name == "two-driver" else get_model(name)
    d = m.dims[0]
    (p,) = _bumped_roots(d, 1, 1, seed=6)
    kwargs = {"n_scenarios": 3, "seed": 4, "branching": 3}
    u = field_from_engine(m, "nested", **kwargs)
    ref = solve_nested(m, p, n_outer=3, seed=4, branching=3).u_estimate
    batch = u.batch([p])[0]

    def unreachable(*args, **kwargs):
        raise AssertionError("a field value reached solve_nested")

    monkeypatch.setattr(solver, "solve_nested", unreachable)
    value = u(p)
    assert np.array_equal(value, batch) and np.array_equal(value, ref)


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
    m = replace(get_model("heat"),
                Phi=lambda x, dt: np.full((x.shape[0], 1), 5.0))
    init = Path(make_grid(T, 4), np.array([[0.3]]))
    dq = engine_quotient(m, init, h=0.25, n_scenarios=1, branching=4)
    assert abs(dq[0]) < 1e-12


def test_basis_validation():
    # the endpoint, then each statistic it reads once, in running_stats order
    for feature_set in ("fourier", "endpoint+runint+runmax", "endpoint+runmax+runmax",
                        "runmax", ""):
        with pytest.raises(ValueError, match="unknown feature set"):
            RegressionBasis(feature_set=feature_set)


def test_solve_nested_refuses_a_stack_of_frozen_increments():
    # a (5, N, 1) stack returned 5 rows with n_outer 1 and a nonzero spread
    m = get_model("linear-g")
    init = Path(make_grid(T, 4), np.array([[0.5]]))
    stack = frozen_noise_increments(init.grid_times, 0, 1, seed=3, n_outer=5)
    for frozen_B in (stack, stack[:, :3], stack[0, :, 0]):
        with pytest.raises(ValueError, match=r"frozen_B must be one \(4, 1\) array"):
            solve_nested(m, init, n_outer=1, seed=0, branching=3, frozen_B=frozen_B)
    sol = solve_nested(m, init, n_outer=1, seed=0, branching=3, frozen_B=stack[1])
    assert sol.n_samples == 1 and sol.u_stderr.tolist() == [0.0]


def test_frozen_noise_increments_are_the_keyed_stream():
    # the chunked draw of the (seed, frozen B) stream, times sqrt(dt), bit
    # for bit, whatever the shape
    grid = make_grid(T, 8)
    for t_index, l, n_outer in ((4, 1, 5), (1, 2, 5000)):
        key = np.random.SeedSequence(17, spawn_key=(3,))
        direct = np.random.Generator(np.random.PCG64(key)).standard_normal(
            (n_outer, 8 - t_index, l)) * np.sqrt(grid[1] - grid[0])
        got = frozen_noise_increments(grid, t_index, l, seed=17, n_outer=n_outer)
        assert got.view(np.uint64).tolist() == direct.view(np.uint64).tolist()


def test_tree_levels_match_concatenated_histories():
    # each level against the scenario-major expansion it replaces: repeat
    # every history per quadrature node and append the new endpoints; two
    # stacked roots, so every root's subtree is checked
    path_f = replace(get_model("path-f"), b=lambda x: 0.1 * x.max(axis=1),
                     sigma=lambda x: (1.0 + 0.2 * np.tanh(x[:, -1, :1]))[:, :, None])
    branching, N = 3, 4
    for m in (path_f, two_driver_model()):
        d = m.dims[0]
        for i_t in (0, 2):
            rng = np.random.default_rng(i_t)
            roots = [Path(make_grid(T, N), rng.normal(size=(i_t + 1, d))) for _ in range(2)]
            levels, dw_nodes, _ = _tree_forward(m, roots, branching)
            old = np.stack([p.values for p in roots])
            assert np.array_equal(levels[0], old)
            for level in levels[1:]:
                step = (m.b(old)[:, None, :] * roots[0].dt
                        + np.einsum("mij,qj->mqi", m.sigma(old), dw_nodes))
                ends = (old[:, -1][:, None, :] + step).reshape(-1, 1, d)
                old = np.concatenate([np.repeat(old, branching ** d, axis=0), ends], axis=1)
                assert np.array_equal(level, old)
                # every level is a read-only view of the leaf level's buffer
                assert not level.flags.writeable and np.shares_memory(level, levels[-1])
            assert levels[-1].shape == (2 * branching ** (d * (N - i_t)), N + 1, d)


def test_trees_of_one_batch_share_one_history_buffer(monkeypatch):
    # a terminal that returns a view of the leaf histories, and paths at the
    # horizon, whose root value is that terminal: every estimate must still
    # be copied out before the next tree overwrites the buffer
    m = replace(get_model("linear-g"), Phi=lambda x, dt: x[:, -1, :1])
    monkeypatch.setattr(solver, "_MAX_STACKED_LEAVES", 100)
    leaves = []

    def recorded(*args, **kwargs):
        tree = _tree_forward(*args, **kwargs)
        leaves.append(tree[0][-1])
        return tree

    monkeypatch.setattr(solver, "_tree_forward", recorded)
    # the deepest tree first, so no later tree needs a larger buffer
    paths = [p for t_index in (0, 2, 5) for p in _bumped_roots(1, t_index, 5, 1, N=5)]
    got = solver._nested_estimates(m, paths, n_scenarios=2, branching=3)
    assert len(leaves) == 5 + 2 + 1
    assert all(np.shares_memory(leaf, leaves[0]) for leaf in leaves[1:])
    assert not np.shares_memory(got, leaves[0])
    for p, g in zip(paths, got):
        ref = solve_nested(m, p, n_outer=2, seed=0, branching=3)
        assert np.abs(g - ref.u_estimate).max() <= 1e-12 * np.abs(ref.u_estimate).max()
        for a in (ref.y, ref.z, ref.u_estimate, ref.u_stderr):
            assert not np.shares_memory(a, leaves[-1])
    # the buffer lives only for its call: a second call holds another one
    # while the first call's trees are still referenced here
    first_call = leaves[:8]
    solver._nested_estimates(m, paths[:1], n_scenarios=2, branching=3)
    assert not any(np.shares_memory(leaves[-1], leaf) for leaf in first_call)
