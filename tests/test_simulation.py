"""Driver sampling, forward simulation, discrete integrals."""

import numpy as np
import pytest

from pathfk import (Path, backward_integral, forward_integral, get_model,
                    make_grid, moment_check, sample_drivers, simulate_forward)


GRID = make_grid(1.0, 8)


# -- driver sampling -----------------------------------------------------


def test_increment_shapes_and_scaling():
    drv = sample_drivers(GRID, 5000, 0, d=2, l=3)
    assert drv.dW.shape == (5000, 8, 2)
    assert drv.dB.shape == (5000, 8, 3)
    assert drv.dW.std() == pytest.approx(np.sqrt(drv.dt), rel=0.05)
    assert drv.dB.std() == pytest.approx(np.sqrt(drv.dt), rel=0.05)


def test_same_seed_is_bit_identical():
    a = sample_drivers(GRID, 100, 42)
    b = sample_drivers(GRID, 100, 42)
    assert np.array_equal(a.dW, b.dW) and np.array_equal(a.dB, b.dB)


def test_different_seeds_differ():
    a = sample_drivers(GRID, 10, 1)
    b = sample_drivers(GRID, 10, 2)
    assert not np.array_equal(a.dW, b.dW)


def test_two_drivers_are_distinct_streams():
    drv = sample_drivers(GRID, 200, 3)
    assert not np.array_equal(drv.dW, drv.dB)
    corr = np.corrcoef(drv.dW.ravel(), drv.dB.ravel())[0, 1]
    assert abs(corr) < 0.1


def test_scenario_prefix_stability():
    # scenario s is a pure function of (seed, s): enlarging the batch must
    # not change earlier scenarios
    small = sample_drivers(GRID, 10, 7)
    large = sample_drivers(GRID, 1000, 7)
    assert np.array_equal(small.dW, large.dW[:10])
    assert np.array_equal(small.dB, large.dB[:10])


def test_regenerate_scenario_bit_identical():
    # with N=5 the stream offsets s*N*d and s*N*l (9990 and 14985 at s=999)
    # are not multiples of the four uniforms one Philox counter step yields
    for N, n, d, l, rows in ((8, 50, 2, 1, (0, 17, 49)),
                             (5, 1000, 2, 3, (1, 998, 999))):
        drv = sample_drivers(make_grid(1.0, N), n, 9, d=d, l=l)
        for s in rows:
            w, b = drv.regenerate_scenario(s)
            assert np.array_equal(w, drv.dW[s])
            assert np.array_equal(b, drv.dB[s])


def test_sample_drivers_validation():
    with pytest.raises(ValueError):
        sample_drivers(GRID, 0, 0)


# -- forward simulation --------------------------------------------------


def test_forward_starts_from_initial_prefix():
    model = get_model("heat")
    init = Path(GRID, np.array([[0.5], [0.7], [0.2]]))
    drv = sample_drivers(GRID, 20, 0)
    ens = simulate_forward(model, init, drv)
    assert np.array_equal(ens.x_values[:, :3, 0],
                          np.tile(init.values[:, 0], (20, 1)))


def test_forward_driverless_is_brownian_continuation():
    model = get_model("heat")  # zero drift, unit diffusion
    init = Path(GRID, np.zeros((1, 1)))
    drv = sample_drivers(GRID, 30, 1)
    ens = simulate_forward(model, init, drv)
    assert np.allclose(ens.x_values[:, 1:, 0], np.cumsum(drv.dW[:, :, 0], axis=1))


def test_forward_grid_mismatch_rejected():
    model = get_model("heat")
    init = Path(make_grid(1.0, 4), np.zeros((1, 1)))
    drv = sample_drivers(GRID, 5, 0)
    with pytest.raises(ValueError):
        simulate_forward(model, init, drv)


def test_forward_moment_statistics():
    # E[X_T^2] = x0^2 + T for the driverless unit-diffusion state
    model = get_model("heat")
    init = Path(GRID, np.array([[1.0]]))
    drv = sample_drivers(GRID, 40_000, 3)
    ens = simulate_forward(model, init, drv)
    m2 = np.mean(ens.x_values[:, -1, 0] ** 2)
    assert m2 == pytest.approx(2.0, rel=0.05)


def test_moment_check_envelope():
    model = get_model("heat")
    init = Path(GRID, np.array([[1.0]]))
    ens = simulate_forward(model, init, sample_drivers(GRID, 2000, 4))
    rep = moment_check(ens, p=2.0, C_p=10.0, q=2.0)
    assert rep.passed
    rep_tight = moment_check(ens, p=2.0, C_p=0.1, q=2.0)
    assert not rep_tight.passed


# -- discrete integrals --------------------------------------------------


def test_forward_integral_telescopes_for_unit_integrand():
    drv = sample_drivers(GRID, 50, 5)
    total = forward_integral(np.ones_like(drv.dW), drv.dW)
    assert np.allclose(total, drv.dW[:, :, 0].sum(axis=1))


def test_backward_integral_telescoping_identity():
    # sum W_{i+1} dW_i - sum W_i dW_i = sum (dW_i)^2, the discrete bracket:
    # the right-endpoint and left-endpoint sums must differ by exactly it
    drv = sample_drivers(GRID, 50, 6)
    W = np.concatenate([np.zeros((50, 1, 1)), np.cumsum(drv.dW, axis=1)], axis=1)
    left = forward_integral(W[:, :-1], drv.dW)
    right = backward_integral(W[:, 1:], drv.dW)
    assert np.allclose(right - left, (drv.dW[:, :, 0] ** 2).sum(axis=1))


def test_integral_shape_validation():
    drv = sample_drivers(GRID, 5, 0)
    with pytest.raises(ValueError):
        forward_integral(np.ones((5, 3, 1)), drv.dW)
    with pytest.raises(ValueError):
        backward_integral(np.ones((5, 3, 1)), drv.dB)

