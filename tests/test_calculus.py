"""Path derivatives and the discrete Ito-formula residuals."""

import numpy as np
import pytest

from pathfk import (Path, PathFunctional, SmoothMap, backward_ito_residual,
                    functional_ito_residual, horizontal_derivative, make_grid,
                    sample_drivers, vertical_bump, vertical_derivative,
                    vertical_hessian)


def brownian_path(grid, seed=0, x0=0.0):
    rng = np.random.default_rng(seed)
    N = len(grid) - 1
    dt = grid[1] - grid[0]
    steps = rng.normal(0.0, np.sqrt(dt), size=(N, 1))
    return Path(grid, np.vstack([[[x0]], x0 + np.cumsum(steps, axis=0)]))


F_SQUARE = PathFunctional(
    eval=lambda p: np.array([p.endpoint[0] ** 2]),
    regularity_tag="C12",
)


# -- vertical derivatives ------------------------------------------------


def test_vertical_derivative_matches_analytic():
    p = Path(make_grid(1.0, 4), np.array([[0.3], [1.2]]))
    est = vertical_derivative(F_SQUARE, p)
    assert est.value.reshape(()) == pytest.approx(2.0 * 1.2, rel=1e-6)
    assert est.est_error < 1e-6


def test_vertical_derivative_exact_for_affine():
    F = PathFunctional(eval=lambda p: np.array([3.0 * p.endpoint[0] + 1.0]))
    p = Path(make_grid(1.0, 4), np.array([[0.7]]))
    est = vertical_derivative(F, p)
    assert abs(est.value.reshape(()) - 3.0) <= 1e-9


def test_vertical_derivative_halving_flags_kinks():
    F = PathFunctional(eval=lambda p: np.array([abs(p.endpoint[0])]))
    p = Path(make_grid(1.0, 4), np.array([[0.0]]))
    est = vertical_derivative(F, p, h=1e-3)
    # central differences cancel at a symmetric kink, but the reliability
    # probe at the bump scale must not report spurious precision
    assert not est.is_reliable(0.0) or est.est_error == 0.0


def test_vertical_derivative_multidim_shape():
    F = PathFunctional(
        eval=lambda p: np.array([p.endpoint[0] * p.endpoint[1]]))
    p = Path(make_grid(1.0, 4), np.array([[2.0, 3.0]]))
    est = vertical_derivative(F, p)
    assert est.value.shape == (1, 2)
    assert np.allclose(est.value, [[3.0, 2.0]], rtol=1e-6)


def test_vertical_hessian_matches_analytic():
    p = Path(make_grid(1.0, 4), np.array([[1.1]]))
    est = vertical_hessian(F_SQUARE, p)
    assert est.value.reshape(()) == pytest.approx(2.0, rel=1e-5)


def test_vertical_hessian_cross_terms():
    F = PathFunctional(
        eval=lambda p: np.array([p.endpoint[0] * p.endpoint[1]]))
    p = Path(make_grid(1.0, 4), np.array([[0.4, -0.2]]))
    est = vertical_hessian(F, p)
    assert np.allclose(est.value.reshape(2, 2), [[0.0, 1.0], [1.0, 0.0]],
                       atol=1e-5)


def test_vertical_hessian_evaluates_the_centre_once():
    # one centre value shared by both bump sizes; per size two bumps per
    # direction and four per pair of directions
    for d, count in ((1, 5), (2, 17)):
        calls = []
        F = PathFunctional(eval=lambda p: calls.append(p) or
                           np.array([np.sum(p.endpoint ** 2)]))
        vertical_hessian(F, Path(make_grid(1.0, 4), np.ones((1, d))))
        assert len(calls) == count


def test_bump_size_validation():
    p = Path(make_grid(1.0, 4), np.array([[0.0]]))
    with pytest.raises(ValueError):
        vertical_derivative(F_SQUARE, p, h=0.0)
    with pytest.raises(ValueError):
        vertical_hessian(F_SQUARE, p, h=-1.0)


# -- horizontal derivative -----------------------------------------------


def test_horizontal_derivative_of_time_functional():
    F = PathFunctional(eval=lambda p: np.array([p.current_time ** 2]))
    p = Path(make_grid(1.0, 100), np.zeros((51, 1)))  # t = 0.5
    est = horizontal_derivative(F, p, delta=0.02)
    # one-sided difference of t^2 gives 2t + delta
    assert est.value.reshape(()) == pytest.approx(2.0 * 0.5 + 0.02, rel=1e-9)
    # even step counts carry a halved re-estimate
    assert est.richardson_pair is not None


def test_horizontal_derivative_zero_for_endpoint_functional():
    p = Path(make_grid(1.0, 8), np.array([[0.0], [1.5]]))
    est = horizontal_derivative(F_SQUARE, p)
    assert est.value.reshape(()) == 0.0


def test_horizontal_derivative_grid_validation():
    p = Path(make_grid(1.0, 8), np.array([[0.0]]))
    with pytest.raises(ValueError):
        horizontal_derivative(F_SQUARE, p, delta=0.1)   # off the grid
    full = Path(make_grid(1.0, 8), np.zeros((9, 1)))
    with pytest.raises(ValueError):
        horizontal_derivative(F_SQUARE, full)           # no room


# -- functional Ito residual ---------------------------------------------


def test_functional_residual_requires_c12_tag():
    F = PathFunctional(eval=lambda p: np.array([p.endpoint[0]]))
    p = Path(make_grid(1.0, 4), np.zeros((5, 1)))
    with pytest.raises(ValueError):
        functional_ito_residual(F, p, np.zeros((4, 1, 1)))


def test_functional_residual_exact_with_realized_quadratic_variation():
    # for F = x^2 the second-order expansion is exact, so the residual with
    # the realized increment products vanishes identically
    grid = make_grid(1.0, 32)
    p = brownian_path(grid, seed=1)
    dX = np.diff(p.values, axis=0)
    qv = dX[:, :, None] * dX[:, None, :]
    F = PathFunctional(
        eval=lambda q: np.array([q.endpoint[0] ** 2]),
        regularity_tag="C12",
        d_t=lambda q: np.zeros(1),
        d_x=lambda q: 2.0 * q.endpoint[:1],
        d_xx=lambda q: np.array([[2.0]]),
    )
    assert functional_ito_residual(F, p, qv) < 1e-12


def test_functional_residual_shrinks_with_step():
    # with the compensator dt in place of realized squares, the residual is
    # the discrete martingale sum((dX)^2 - dt), of root-mean-square ~ sqrt(dt)
    F = PathFunctional(
        eval=lambda q: np.array([q.endpoint[0] ** 2]),
        regularity_tag="C12",
        d_t=lambda q: np.zeros(1),
        d_x=lambda q: 2.0 * q.endpoint[:1],
        d_xx=lambda q: np.array([[2.0]]),
    )

    def rms(N, n_paths=60):
        grid = make_grid(1.0, N)
        dt = 1.0 / N
        qv = np.full((N, 1, 1), dt)
        vals = [functional_ito_residual(F, brownian_path(grid, seed=s), qv)
                for s in range(n_paths)]
        return np.sqrt(np.mean(np.square(vals)))

    r = [rms(N) for N in (8, 32, 128)]
    assert r[0] > r[1] > r[2]
    slope = -np.polyfit(np.log([8, 32, 128]), np.log(r), 1)[0]
    assert 0.3 < slope < 0.8


def test_functional_residual_with_attached_derivatives_evaluates_ends_only():
    grid = make_grid(1.0, 16)
    p = brownian_path(grid, seed=4)
    calls = []
    F = PathFunctional(
        eval=lambda q: calls.append(q) or np.array([q.endpoint[0] ** 2]),
        regularity_tag="C12",
        d_t=lambda q: np.zeros(1),
        d_x=lambda q: 2.0 * q.endpoint[:1],
        d_xx=lambda q: np.array([[2.0]]),
    )
    functional_ito_residual(F, p, np.full((16, 1, 1), 1.0 / 16))
    assert len(calls) == 2


def test_functional_residual_evaluates_each_distinct_path_once():
    # nothing attached: the start term doubles as prefix 0's base value and
    # each prefix's base value serves both the time quotient and the
    # Hessian, so the count is that of distinct paths (16 prefixes times
    # base, flat extension, two gradient and two Hessian bumps, plus the
    # end path)
    grid = make_grid(1.0, 16)
    p = brownian_path(grid, seed=4)
    calls = []
    F = PathFunctional(
        eval=lambda q: calls.append((q.t_index, q.values.tobytes()))
        or np.array([q.endpoint[0] ** 2]),
        regularity_tag="C12",
    )
    functional_ito_residual(F, p, np.full((16, 1, 1), 1.0 / 16))
    assert len(calls) == len(set(calls)) == 97


def test_functional_residual_uses_finite_differences_when_unspecified():
    grid = make_grid(1.0, 16)
    p = brownian_path(grid, seed=3)
    dX = np.diff(p.values, axis=0)
    qv = dX[:, :, None] * dX[:, None, :]
    F_fd = PathFunctional(eval=lambda q: np.array([q.endpoint[0] ** 2]),
                          regularity_tag="C12")
    assert functional_ito_residual(F_fd, p, qv) < 1e-5


# -- two-driver Ito residual ---------------------------------------------


PHI_SQUARE = SmoothMap(
    value=lambda a: float(a[0] ** 2),
    grad=lambda a: 2.0 * a,
    hess=lambda a: 2.0 * np.eye(len(a)),
)


def test_backward_residual_zero_for_affine_map():
    # an affine map has no quadratic-variation correction; the discrete
    # formula telescopes exactly whatever the drivers
    phi = SmoothMap(value=lambda a: float(3.0 * a[0] + 1.0),
                    grad=lambda a: np.array([3.0]),
                    hess=lambda a: np.zeros((1, 1)))
    N = 16
    drv = sample_drivers(make_grid(1.0, N), 1, 5)
    res = backward_ito_residual(
        phi, np.zeros(1), 0.2 * np.ones((N, 1)), 0.3 * np.ones((N + 1, 1, 1)),
        np.ones((N + 1, 1, 1)), drv.dW[0], drv.dB[0], 1.0 / N)
    assert res < 1e-12


def test_backward_residual_shrinks_with_step():
    def rms(N, n_paths=60):
        grid = make_grid(1.0, N)
        drv = sample_drivers(grid, n_paths, 7)
        vals = [backward_ito_residual(
            PHI_SQUARE, np.zeros(1), 0.1 * np.ones((N, 1)),
            0.2 * np.ones((N + 1, 1, 1)), np.ones((N + 1, 1, 1)),
            drv.dW[s], drv.dB[s], 1.0 / N) for s in range(n_paths)]
        return np.sqrt(np.mean(np.square(vals)))

    r = [rms(N) for N in (8, 32, 128)]
    assert r[0] > r[1] > r[2]


def test_backward_residual_detects_wrong_correction_sign():
    # flipping the sign convention of the backward quadratic-variation
    # correction leaves an O(1) bias that the residual must expose
    N = 64
    grid = make_grid(1.0, N)
    drv = sample_drivers(grid, 40, 11)
    gamma = 0.8 * np.ones((N + 1, 1, 1))

    def residual(sign):
        vals = []
        for s in range(40):
            alpha = np.zeros((N + 1, 1))
            for i in range(N):
                alpha[i + 1] = alpha[i] + gamma[i + 1, :, 0] * drv.dB[s, i]
            total = PHI_SQUARE.value(alpha[N]) - PHI_SQUARE.value(alpha[0])
            for i in range(N):
                total -= PHI_SQUARE.grad(alpha[i + 1]) @ (
                    gamma[i + 1] @ drv.dB[s, i])
                total += sign * 0.5 * np.trace(
                    PHI_SQUARE.hess(alpha[i + 1]) @ gamma[i + 1]
                    @ gamma[i + 1].T) * (1.0 / N)
            vals.append(abs(total))
        return np.sqrt(np.mean(np.square(vals)))

    assert residual(+1.0) < 0.3 * residual(-1.0)
