"""Coefficient bundles, assumption probes, and the reference registry."""

import numpy as np
import pytest

from pathfk import (Model, Path, get_entry, get_model, make_grid, on_path,
                    registry, running_integral, shifted_model, validate)


# -- helpers -------------------------------------------------------------


def test_running_integral_left_endpoint():
    p = Path(make_grid(1.0, 4), np.array([[1.0], [2.0], [3.0]]))
    # left-endpoint rule over [0, 0.5]: (1 + 2) * 0.25
    assert running_integral(p)[0] == pytest.approx(0.75)
    single = Path(make_grid(1.0, 4), np.array([[5.0]]))
    assert running_integral(single)[0] == 0.0


# -- model construction --------------------------------------------------


def test_contraction_constant_must_be_interior():
    base = get_model("heat")
    from dataclasses import replace
    with pytest.raises(ValueError):
        replace(base, alpha=1.0)
    with pytest.raises(ValueError):
        replace(base, alpha=0.0)
    with pytest.raises(ValueError):
        replace(base, lip_C=-1.0)


def test_registry_contents():
    names = [e.name for e in registry()]
    assert names == ["heat", "asian", "linear-g", "nonlinear-f", "z-in-g",
                     "path-f"]
    assert get_entry("heat").closed_form_u is not None
    assert get_entry("asian").closed_form_Z is not None
    # the backward-driver models' closed forms are means over B, gamma(t)
    assert get_entry("linear-g").closed_form_u is not None
    assert get_entry("linear-g").closed_form_Z is None
    assert get_entry("z-in-g").closed_form_Z is not None
    assert get_entry("nonlinear-f").closed_form_u is None
    assert get_entry("path-f").closed_form_u is None
    start = Path(make_grid(1.0, 4), np.array([[0.1], [0.7]]))
    for name in ("linear-g", "z-in-g"):
        assert get_entry(name).closed_form_u(start).tolist() == [0.7]
    assert get_entry("z-in-g").closed_form_Z(start).tolist() == [[1.0]]
    with pytest.raises(KeyError):
        get_model("nope")


def test_registry_flags():
    assert get_model("heat").markovian_flag
    assert not get_model("asian").markovian_flag
    assert not get_model("path-f").markovian_flag
    assert get_model("heat").f is None and get_model("heat").g is None
    assert get_model("linear-g").g is not None
    assert get_model("nonlinear-f").f is not None


# -- closed forms --------------------------------------------------------


def test_heat_closed_form_consistency():
    entry = get_entry("heat")
    grid = make_grid(1.0, 8)
    p = Path(grid, np.array([[0.0], [1.5]]))  # t = 0.125, endpoint 1.5
    assert entry.closed_form_u(p)[0] == pytest.approx(1.5 ** 2 + 0.875)
    assert entry.closed_form_Z(p)[0, 0] == pytest.approx(3.0)
    # at the horizon the field reduces to the terminal functional
    full = Path(grid, np.ones((9, 1)) * 2.0)
    assert entry.closed_form_u(full)[0] == pytest.approx(
        on_path(entry.model.Phi, full, full.dt)[0])


def test_asian_closed_form_consistency():
    entry = get_entry("asian")
    grid = make_grid(1.0, 8)
    vals = np.array([[1.0], [2.0], [3.0]])  # t = 0.25
    p = Path(grid, vals)
    expected = (1.0 + 2.0) * 0.125 + 3.0 * 0.75
    assert entry.closed_form_u(p)[0] == pytest.approx(expected)
    assert entry.closed_form_Z(p)[0, 0] == pytest.approx(0.75)
    full = Path(grid, np.ones((9, 1)))
    assert entry.closed_form_u(full)[0] == pytest.approx(
        on_path(entry.model.Phi, full, full.dt)[0])


def test_block_contract_shapes_and_on_path():
    grid = make_grid(1.0, 8)
    rng = np.random.default_rng(0)
    n, m, dt = 6, 5, 0.125
    for entry in registry():
        model = entry.model
        d, k, l = model.dims
        x = rng.normal(size=(n, m, d))
        full = rng.normal(size=(n, 9, d))
        y = rng.normal(size=(n, k))
        z = rng.normal(size=(n, k, d))
        blocks = {
            "b": (model.b(x), (n, d)),
            "sigma": (model.sigma(x), (n, d, d)),
            "Phi": (model.Phi(full, dt), (n, k)),
            "f": (model.eval_f(x, y, z), (n, k)),
            "g": (model.eval_g(x, y, z), (n, k, l)),
        }
        for coeff, (out, shape) in blocks.items():
            assert out.shape == shape, (model.name, coeff)
        for s in range(n):
            p, pf = Path(grid, x[s]), Path(grid, full[s])
            rows = {
                "b": on_path(model.b, p),
                "sigma": on_path(model.sigma, p),
                "Phi": on_path(model.Phi, pf, dt),
                "f": on_path(model.eval_f, p, y[s], z[s]),
                "g": on_path(model.eval_g, p, y[s], z[s]),
            }
            for coeff, row in rows.items():
                assert np.array_equal(row, blocks[coeff][0][s]), (model.name, coeff)


# each registry model's coefficients written out by hand: a grammar kind
# mapped to the wrong formula differs in some bit
ZERO_B = lambda x: np.zeros((x.shape[0], 1))
UNIT_SIGMA = lambda x: np.broadcast_to(np.eye(1), (x.shape[0], 1, 1))
ENDPOINT = lambda x, dt: x[:, -1, :1].copy()
PINNED = {
    "heat": dict(Phi=lambda x, dt: x[:, -1, :1] ** 2,
                 lip_C=2.0, growth_m=1.0, markovian=True),
    "asian": dict(Phi=lambda x, dt: x[:, :-1, :1].sum(axis=1) * dt,
                  lip_C=2.0, growth_m=0.0, markovian=False),
    "linear-g": dict(Phi=ENDPOINT, g=lambda x, y, z: 0.3 * y[:, :, None],
                     lip_C=1.0, growth_m=0.0, markovian=True),
    "nonlinear-f": dict(Phi=lambda x, dt: np.sin(x[:, -1, :1]),
                        f=lambda x, y, z: np.cos(y) + z[:, :, 0] / 2.0,
                        lip_C=1.0, growth_m=0.0, markovian=True),
    "z-in-g": dict(Phi=ENDPOINT, g=lambda x, y, z: 0.5 * z[:, :, :1],
                   lip_C=1.0, growth_m=0.0, markovian=True),
    "path-f": dict(Phi=ENDPOINT, f=lambda x, y, z: x[:, :, :1].max(axis=1) - y,
                   lip_C=1.0, growth_m=0.0, markovian=False),
}


def assert_same_bits(got, want, label):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, label
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), label


def test_registry_coefficients_are_pinned_bit_for_bit():
    rng = np.random.default_rng(21)
    n, dt = 16, 0.125
    assert sorted(PINNED) == sorted(e.name for e in registry())
    for entry in registry():
        model, pin = entry.model, PINNED[entry.name]
        assert model.name == entry.name
        assert (model.lip_C, model.growth_m, model.alpha) == (pin["lip_C"], pin["growth_m"], 0.5)
        assert model.markovian_flag is pin["markovian"]
        assert model.dims == (1, 1, 1)
        assert (model.f is None) == ("f" not in pin) and (model.g is None) == ("g" not in pin)
        for m in (1, 4, 9):
            x = 3.0 * rng.normal(size=(n, m, 1))
            y = rng.normal(size=(n, 1))
            z = rng.normal(size=(n, 1, 1))
            assert (x < 0).any() and (y < 0).any() and (z < 0).any()
            label = (entry.name, m)
            assert_same_bits(model.b(x), ZERO_B(x), label + ("b",))
            assert_same_bits(model.sigma(x), UNIT_SIGMA(x), label + ("sigma",))
            assert_same_bits(model.Phi(x, dt), pin["Phi"](x, dt), label + ("Phi",))
            if "f" in pin:
                assert_same_bits(model.f(x, y, z), pin["f"](x, y, z), label + ("f",))
            if "g" in pin:
                assert_same_bits(model.g(x, y, z), pin["g"](x, y, z), label + ("g",))


def test_constant_inline_coefficients_do_not_read_x():
    # on finite blocks a constant equals its affine form of slope 0 bit for
    # bit; on an overflowed row it stays the constant, where 0 * inf is NaN
    from pathfk.models import model_from_spec
    rng = np.random.default_rng(22)
    const = model_from_spec({"b": {"const": 0.3}, "sigma": {"const": 0.8}})
    for m in (1, 5):
        x = 3.0 * rng.normal(size=(6, m, 1))
        assert (x < 0).any()
        assert_same_bits(const.b(x), 0.3 + 0.0 * x[:, -1, :], ("b", m))
        assert_same_bits(const.sigma(x), (0.8 + 0.0 * x[:, -1, :1])[..., None], ("sigma", m))
        x[0], x[1] = np.inf, np.nan
        assert_same_bits(const.b(x), np.full((6, 1), 0.3), ("overflowed b", m))
        assert_same_bits(const.sigma(x), np.full((6, 1, 1), 0.8), ("overflowed sigma", m))


# -- assumption probes ---------------------------------------------------


def test_validate_passes_on_registry():
    for entry in registry():
        rep = validate(entry.model, n_probes=50, seed=0)
        assert rep.all_passed, (entry.name, [p.assumption for p in rep.failures()])


def test_validate_finds_contraction_violation():
    # a backward driver with unit z-slope but alpha declared 0.5: the
    # contraction probe must witness it
    bad = Model(
        b=lambda x: np.zeros((x.shape[0], 1)),
        sigma=lambda x: np.broadcast_to(np.eye(1), (x.shape[0], 1, 1)),
        Phi=lambda x, dt: x[:, -1, :1],
        g=lambda x, y, z: 1.0 * z[:, :, :1],
        lip_C=1.0, growth_m=0.0, alpha=0.5, name="bad",
    )
    rep = validate(bad, n_probes=100, seed=0)
    failed = {p.assumption for p in rep.failures()}
    assert "g_lipschitz_contraction" in failed or "gg_transpose_bound" in failed


def test_validate_finds_lipschitz_violation():
    bad = Model(
        b=lambda x: np.zeros((x.shape[0], 1)),
        sigma=lambda x: np.broadcast_to(np.eye(1), (x.shape[0], 1, 1)),
        Phi=lambda x, dt: x[:, -1, :1],
        f=lambda x, y, z: y ** 3,   # not globally Lipschitz
        lip_C=1.0, growth_m=0.0, alpha=0.5, name="bad-f",
    )
    rep = validate(bad, n_probes=200, seed=0)
    assert not rep.all_passed


def test_validate_input_checks():
    with pytest.raises(ValueError):
        validate(get_model("heat"), n_probes=0)


# -- ordering constructions ----------------------------------------------


def test_zero_shift_keeps_the_time_driver():
    # an absent driver stays absent, so the engines keep their short path
    for name in ("heat", "nonlinear-f"):
        base = get_model(name)
        assert shifted_model(base, shift_phi=0.1).f is base.f
    assert shifted_model(get_model("heat"), shift_f=0.5).f is not None


def test_shifted_model_dominates():
    grid = make_grid(1.0, 8)
    rng = np.random.default_rng(1)
    # heat has f=None (zero), nonlinear-f a nonzero time driver
    for base in (get_model("heat"), get_model("nonlinear-f")):
        up = shifted_model(base, shift_phi=1.0, shift_f=0.5)
        for _ in range(10):
            p = Path(grid, rng.normal(size=(5, 1)))
            y = rng.normal(size=1)
            z = rng.normal(size=(1, 1))
            assert on_path(up.Phi, p, p.dt)[0] == pytest.approx(
                on_path(base.Phi, p, p.dt)[0] + 1.0)
            assert on_path(up.eval_f, p, y, z)[0] == pytest.approx(
                on_path(base.eval_f, p, y, z)[0] + 0.5)
            assert np.array_equal(on_path(up.eval_g, p, y, z),
                                  on_path(base.eval_g, p, y, z))
        vals = rng.normal(size=(4, 9, 1))
        y = rng.normal(size=(4, 1))
        z = rng.normal(size=(4, 1, 1))
        assert np.allclose(up.Phi(vals, 0.125), base.Phi(vals, 0.125) + 1.0)
        assert np.allclose(up.eval_f(vals, y, z), base.eval_f(vals, y, z) + 0.5)
