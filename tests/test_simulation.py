"""Driver sampling and forward simulation."""

import numpy as np
import pytest

from scipy.special import ndtri

from pathfk import (Path, get_model, make_grid, sample_drivers,
                    simulate_forward, solve_regression)
from pathfk import simulation
from pathfk.simulation import _keyed_normals


GRID = make_grid(1.0, 8)


def _reference_normals(seed, tag, shape):
    """The (seed, tag) stream's normals written out with temporaries, one
    operation per array: the reference the in-place draws must equal."""
    bitgen = np.random.Philox(key=seed + (tag << 64))
    u = np.random.Generator(bitgen).random(int(np.prod(shape)))
    return ndtri(u.reshape(shape) * (1.0 - 2.0 ** -52) + 2.0 ** -53)


def _record_draws(monkeypatch):
    """(tag, shape) of every stream draw made from now on."""
    calls = []
    real = simulation._keyed_normals

    def recording(seed, tag, shape, *args, **kwargs):
        calls.append((tag, tuple(shape)))
        return real(seed, tag, shape, *args, **kwargs)

    monkeypatch.setattr(simulation, "_keyed_normals", recording)
    return calls


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


def test_regenerate_scenario_bit_identical(monkeypatch):
    # with N=5 the stream offsets s*N*d and s*N*l (9990 and 14985 at s=999)
    # are not multiples of the four uniforms one Philox counter step yields
    calls = _record_draws(monkeypatch)
    for N, n, d, l, rows in ((8, 50, 2, 1, (0, 17, 49)),
                             (5, 1000, 2, 3, (1, 998, 999))):
        drv = sample_drivers(make_grid(1.0, N), n, 9, d=d, l=l)
        regenerated = {s: drv.regenerate_scenario(s) for s in rows}
        # regeneration reads the stored width l, never the stored dB
        assert (2, (n, N, l)) not in calls
        for s, (w, b) in regenerated.items():
            assert np.array_equal(w, drv.dW[s])
            assert np.array_equal(b, drv.dB[s])
        assert calls.count((2, (n, N, l))) == 1


def test_lazy_second_driver_matches_eager_draw(monkeypatch):
    calls = _record_draws(monkeypatch)
    n, N, seed = 300, 8, 21
    drv = sample_drivers(GRID, n, seed, d=2, l=3)
    assert drv.l == 3 and calls == [(1, (n, N, 2))]
    sdt = np.sqrt(drv.dt)
    dB = drv.dB
    assert calls == [(1, (n, N, 2)), (2, (n, N, 3))]
    assert drv.dB is dB  # drawn once, then cached
    assert np.array_equal(dB, _keyed_normals(seed, 2, (n, N, 3)) * sdt)
    assert np.array_equal(dB, _reference_normals(seed, 2, (n, N, 3)) * sdt)
    assert np.array_equal(drv.dW, _reference_normals(seed, 1, (n, N, 2)) * sdt)
    # both drivers are (n, N, .) views of time-major (N, n, .) storage
    for a in (drv.dW, dB):
        assert a.transpose(1, 0, 2).flags.c_contiguous


def test_explicit_second_driver_is_kept(monkeypatch):
    calls = _record_draws(monkeypatch)
    drv = sample_drivers(GRID, 10, 4, l=2)
    dB = np.ones((10, 8, 2))
    pair = simulation.BrownianPair(drv.grid_times, drv.dW, dB, drv.seed)
    assert pair.dB is dB and pair.l == 2
    assert calls == [(1, (10, 8, 1))]
    with pytest.raises(ValueError):
        simulation.BrownianPair(drv.grid_times, drv.dW, None, drv.seed)


def test_sampled_increments_are_read_only():
    # solves read the drivers' own time-major storage without a copy, so no
    # write through any view may change the increments a later solve reads
    drv = sample_drivers(GRID, 20, 5, l=2)
    for a in (drv.dW, drv.dB, drv.dB[:, 3]):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("name, b_draws", [("heat", 0), ("asian", 0),
                                            ("path-f", 0), ("linear-g", 1)])
def test_second_driver_drawn_only_when_read(monkeypatch, name, b_draws):
    # a solve reads dB only when the model has a backward integrand g
    calls = _record_draws(monkeypatch)
    m = get_model(name)
    d, _, l = m.dims
    grid = make_grid(1.0, 4)
    drv = sample_drivers(grid, 600, 11, d=d, l=l)
    ens = simulate_forward(m, Path(grid, np.full((1, d), 0.3)), drv)
    solve_regression(m, ens)
    tags = [tag for tag, _ in calls]
    assert tags.count(1) == 1 and tags.count(2) == b_draws


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
