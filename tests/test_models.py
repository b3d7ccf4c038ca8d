"""Coefficient bundles, their derived constants, and the reference registry."""

import inspect

import numpy as np
import pytest

from pathfk import (ConfigError, Model, Path, get_entry, get_model, load_config,
                    make_grid, on_path, path_dist, random_initial_path, registry,
                    running_integral, shifted_model, sup_norm)
from pathfk.models import _BLOCK_ROWS, _KINDS, model_from_spec, running_stats


# -- helpers -------------------------------------------------------------


def test_running_integral_left_endpoint():
    p = Path(make_grid(1.0, 4), np.array([[1.0], [2.0], [3.0]]))
    # left-endpoint rule over [0, 0.5]: (1 + 2) * 0.25
    assert running_integral(p)[0] == pytest.approx(0.75)
    single = Path(make_grid(1.0, 4), np.array([[5.0]]))
    assert running_integral(single)[0] == 0.0


@pytest.mark.parametrize("shape", [(1, 4, 1), (9, 50, 1), (17, 40, 3)])
def test_running_stats_equal_block_reductions(shape):
    # row j of each statistic is a reduction of the rows up to j: the
    # running max bit for bit, signed zeros included, and a driver reads
    # its row at a block's last time; the integral adds one row at a time,
    # as a time-major block sum does (whose 0.0 start drops a lone -0.0's
    # sign), while a path's running_integral sums pairwise, which moves the
    # last bits once nine rows are summed
    rng = np.random.default_rng(sum(shape))
    X, dt = 3.0 * rng.normal(size=shape) - 1.0, 0.125
    X[0, :2] = -0.0
    assert (X < 0).any()
    stats = running_stats(X, dt)
    assert sorted(stats) == ["runint", "runmax"]
    grid = make_grid(2.0, 16)
    largest = 0.0
    for j in range(shape[0]):
        block = X[: j + 1].transpose(1, 0, 2)
        assert_same_bits(stats["runmax"][j], X[: j + 1].max(axis=0), ("runmax", j))
        assert_same_bits(stats["runmax"][j], _BLOCK_ROWS["runmax"](block), ("row", j))
        assert np.array_equal(stats["runint"][j], X[:j].sum(axis=0) * dt), j
        largest = max(largest, np.abs(stats["runint"][j, 0] - running_integral(
            Path(grid, X[: j + 1, 0]))).max())
    assert largest <= 1e-14 * (1.0 + np.abs(X).sum(axis=0).max() * dt), largest


@pytest.mark.parametrize("names", [("runmax",), ("runint",), ()])
def test_running_stats_build_only_those_named(names):
    # each statistic keeps the full call's bits, and no other is built
    rng = np.random.default_rng(5)
    X = rng.normal(size=(9, 30, 2))
    X[0, :3] = -0.0
    full, some = running_stats(X, 0.125), running_stats(X, 0.125, names)
    assert sorted(some) == sorted(names)
    for name in names:
        assert_same_bits(some[name], full[name], name)


@pytest.mark.parametrize("reads, f_reads", [
    ((), ("runmax",)), (("runint",), ("runmax",)), (("runint", "runmax"), ()),
    (("runmax", "runmax"), ()), (("runsum",), ())])
def test_model_reads_are_known_ordered_and_hold_f_reads(reads, f_reads):
    # reads is the one record of the statistics a model reads; a driver
    # that reads one the model does not declare contradicts it
    with pytest.raises(ValueError, match="reads names statistics in the order"):
        Model(b=None, sigma=None, Phi=None, lip_C=0.0, growth_m=0.0, alpha=0.0,
              reads=reads, f_reads=f_reads)


def test_registry_reads_follow_the_kinds():
    reads = {e.name: e.model.reads for e in registry()}
    assert reads == {"heat": (), "asian": ("runint",), "linear-g": (),
                     "nonlinear-f": (), "z-in-g": (), "path-f": ("runmax",)}
    both = model_from_spec({"Phi": {"kind": "running_integral"},
                            "f": {"kind": "runmax_minus_y"}})
    assert both.reads == ("runmax", "runint") and both.f_reads == ("runmax",)
    assert not both.markovian_flag and get_model("heat").markovian_flag


def test_only_block_statistics_are_read_by_f():
    # eval_f derives a row from the block alone; the running integral needs
    # dt, which only Phi is handed
    with pytest.raises(ValueError, match="f can read the running statistics"):
        Model(b=None, sigma=None, Phi=None, lip_C=0.0, growth_m=0.0, alpha=0.0,
              f_reads=("runint",))


def test_get_entry_builds_only_its_model(monkeypatch):
    from pathfk import models
    built, build = [], models.model_from_spec
    monkeypatch.setattr(models, "model_from_spec",
                        lambda spec: built.append(spec["name"]) or build(spec))
    assert get_entry("heat").name == "heat" and built == ["heat"]
    with pytest.raises(KeyError, match=r"unknown model 'nope'; known: \['heat', 'asian', "
                                       r"'linear-g', 'nonlinear-f', 'z-in-g', 'path-f'\]"):
        get_entry("nope")
    assert built == ["heat"]


# -- model construction --------------------------------------------------


def test_contraction_constant_must_be_interior():
    # alpha lies in [0, 1): 0 is a g that does not read z
    base = get_model("heat")
    from dataclasses import replace
    assert replace(base, alpha=0.0).alpha == 0.0
    with pytest.raises(ValueError):
        replace(base, alpha=1.0)
    with pytest.raises(ValueError):
        replace(base, alpha=-0.1)
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
                 lip_C=0.0, growth_m=1.0, alpha=0.0, markovian=True),
    "asian": dict(Phi=lambda x, dt: x[:, :-1, :1].sum(axis=1) * dt,
                  lip_C=0.0, growth_m=0.0, alpha=0.0, markovian=False),
    "linear-g": dict(Phi=ENDPOINT, g=lambda x, y, z: 0.3 * y[:, :, None],
                     lip_C=0.3, growth_m=0.0, alpha=0.0, markovian=True),
    "nonlinear-f": dict(Phi=lambda x, dt: np.sin(x[:, -1, :1]),
                        f=lambda x, y, z: np.cos(y) + z[:, :, 0] / 2.0,
                        lip_C=1.0, growth_m=0.0, alpha=0.0, markovian=True),
    "z-in-g": dict(Phi=ENDPOINT, g=lambda x, y, z: 0.5 * z[:, :, :1],
                   lip_C=0.0, growth_m=0.0, alpha=0.5, markovian=True),
    "path-f": dict(Phi=ENDPOINT, f=lambda x, y, z: x[:, :, :1].max(axis=1) - y,
                   lip_C=1.0, growth_m=0.0, alpha=0.0, markovian=False),
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
        assert ((model.lip_C, model.growth_m, model.alpha)
                == (pin["lip_C"], pin["growth_m"], pin["alpha"]))
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
                assert_same_bits(model.eval_f(x, y, z), pin["f"](x, y, z), label + ("f",))
            if "g" in pin:
                assert_same_bits(model.g(x, y, z), pin["g"](x, y, z), label + ("g",))


def test_constant_inline_coefficients_do_not_read_x():
    # on finite blocks a constant equals its affine form of slope 0 bit for
    # bit; on an overflowed row it stays the constant, where 0 * inf is NaN
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


def kind_keys(section, kind):
    return tuple(inspect.signature(_KINDS[section][kind]).parameters)


GRAMMAR = [(section, kind) for section in _KINDS for kind in _KINDS[section]]


@pytest.mark.parametrize("section, kind", GRAMMAR, ids=[f"{s}-{k}" for s, k in GRAMMAR])
def test_every_grammar_kind_reads_its_keys_as_numbers(section, kind):
    # a spec that sets every key to a number loads (0.5 keeps linear_z's
    # |coef| < 1); a key that only a sibling kind reads, and a bool or a
    # string for any key, raise ConfigError
    keys = kind_keys(section, kind)
    raw = {"grid": {"T": 1.0, "N": 8}, "mc": {"seed": 1, "n_scenarios": 1000}}
    full = {"kind": kind, **dict.fromkeys(keys, 0.5)}
    assert load_config({**raw, "model": {section: full}}).model.name == "custom"
    siblings = {key for other in _KINDS[section] for key in kind_keys(section, other)}
    for key in sorted(siblings - set(keys)):
        with pytest.raises(ConfigError,
                           match=rf"{section} of kind '{kind}' takes .*, not \['{key}'\]"):
            model_from_spec({section: {"kind": kind, key: 0.5}})
    for key in keys:
        for bad in (True, "0.5"):
            with pytest.raises(ConfigError, match=rf"{section}\.{key} must be a number, got"):
                model_from_spec({section: {**full, key: bad}})


def test_grammar_numbers_are_finite_reals():
    # json.loads parses NaN and Infinity, which built a NaN driver whose
    # lip_C read 0.0 and an infinite terminal; numpy scalars are numbers,
    # and a numpy bool is no more a number than a bool
    for section, key, bad in (("g", "coef", float("nan")), ("Phi", "shift", float("inf")),
                              ("f", "const", -float("inf")), ("Phi", "shift", np.bool_(True)),
                              ("Phi", "shift", 10 ** 400)):
        kind = {"g": "linear_y", "Phi": "endpoint", "f": "linear"}[section]
        with pytest.raises(ConfigError, match=rf"{section}\.{key} must be a number, got"):
            model_from_spec({section: {"kind": kind, key: bad}})
    with pytest.raises(ConfigError, match=r"b\.affine\.slope must be a number, got nan"):
        model_from_spec({"b": {"affine": {"slope": np.nan}}})
    x = np.random.default_rng(23).normal(size=(5, 3, 1))
    as_numpy = model_from_spec({"Phi": {"kind": "endpoint", "shift": np.float64(0.5)},
                                "g": {"kind": "linear_y", "coef": np.float32(0.25)},
                                "b": {"affine": {"slope": np.int64(2)}}})
    as_json = model_from_spec({"Phi": {"kind": "endpoint", "shift": 0.5},
                               "g": {"kind": "linear_y", "coef": 0.25},
                               "b": {"affine": {"slope": 2}}})
    y = np.ones((5, 1))
    assert_same_bits(as_numpy.Phi(x, 0.1), as_json.Phi(x, 0.1), "Phi")
    assert_same_bits(as_numpy.g(x, y, None), as_json.g(x, y, None), "g")
    assert_same_bits(as_numpy.b(x), as_json.b(x), "b")
    assert as_numpy.lip_C == as_json.lip_C == 2.0


# -- derived constants ---------------------------------------------------


def assert_constants_hold(model, n_probes=100, seed=0):
    """Falsify lip_C = C, growth_m = m and alpha on random probe paths: each
    bound of the well-posedness conditions, as written below, must hold."""
    d, k, _ = model.dims
    C, m, a = model.lip_C, model.growth_m, model.alpha
    rng = np.random.default_rng(seed)
    grid = make_grid(1.0, 8)
    for _ in range(n_probes):
        ti = int(rng.integers(1, len(grid)))
        pa, pb = (random_initial_path(grid, ti, d, rng) for _ in range(2))
        y1, y2 = rng.normal(size=(2, k))
        z1, z2 = rng.normal(size=(2, k, d))
        dy, dz = np.linalg.norm(y1 - y2), np.linalg.norm(z1 - z2)
        dx = C * (1.0 + sup_norm(pa) ** m + sup_norm(pb) ** m) * path_dist(pa, pb).sup_component
        ga = on_path(model.eval_g, pa, y1, z1)
        df = on_path(model.eval_f, pa, y1, z1) - on_path(model.eval_f, pb, y2, z2)
        dg = ga - on_path(model.eval_g, pb, y2, z2)
        dbs = [on_path(c, pa) - on_path(c, pb) for c in (model.b, model.sigma)]
        assert np.linalg.norm(df) <= dx + C * (dy + dz) + 1e-9, "f Lipschitz bound"
        assert np.linalg.norm(dg) <= dx + C * dy + a * dz + 1e-9, "g Lipschitz bound"
        assert sum(map(np.linalg.norm, dbs)) <= dx + 1e-9, "b, sigma Lipschitz bound"
        g00 = on_path(model.eval_g, pa, np.zeros(k), np.zeros((k, d)))
        gap = ga @ ga.T - a * z1 @ z1.T - C * (np.sum(g00 ** 2) + np.sum(y1 ** 2)) * np.eye(k)
        assert np.linalg.eigvalsh(gap).max() <= 1e-9, "gg^T bound"


def random_spec(i, rng):
    """The i-th random inline spec: i cycles the kinds, rng draws the rest."""
    c = lambda: float(rng.uniform(-2.0, 2.0))
    coeff = lambda: ({"const": c()} if rng.random() < 0.5
                     else {"affine": {"intercept": c(), "slope": c()}})
    f = [{"kind": "zero"}, {"kind": "linear", "coef_y": c(), "coef_z": c(), "const": c()},
         {"kind": "cos_y_plus_half_z", "shift": c()},
         {"kind": "runmax_minus_y", "shift": c()}][(i // 4) % 4]
    g = [{"kind": "zero"}, {"kind": "linear_y", "coef": c()},
         {"kind": "linear_z", "coef": float(rng.uniform(-0.99, 0.99))}][i % 3]
    phi = ["endpoint", "endpoint_square", "endpoint_sin", "running_integral"][i % 4]
    return {"b": coeff(), "sigma": coeff(), "Phi": {"kind": phi, "shift": c()},
            "f": f, "g": g}


def test_derived_constants_hold_on_registry():
    for entry in registry():
        assert_constants_hold(entry.model, n_probes=50)


def test_derived_constants_hold_on_random_inline_specs():
    rng = np.random.default_rng(26)
    specs = [random_spec(i, rng) for i in range(60)]
    for section in ("Phi", "f", "g"):
        assert {s[section]["kind"] for s in specs} == set(_KINDS[section])
    for i, spec in enumerate(specs):
        assert_constants_hold(model_from_spec(spec), n_probes=50, seed=i)


def test_derived_constants_follow_the_kinds():
    # g's y-constant is coef^2 once |coef| > 1, as the gg^T bound needs
    spec = {"b": {"affine": {"slope": 3.0}}, "sigma": {"affine": {"slope": -0.5}},
            "f": {"kind": "linear", "coef_y": 0.5, "coef_z": -1.0}}
    assert model_from_spec(spec).lip_C == 3.5
    assert model_from_spec({"g": {"kind": "linear_y", "coef": -1.5}}).lip_C == 2.25
    m = model_from_spec({"Phi": {"kind": "endpoint_square"},
                         "g": {"kind": "linear_z", "coef": -0.7}})
    assert (m.lip_C, m.growth_m, m.alpha) == (0.0, 1.0, 0.7)


def test_wrong_contraction_constant_is_witnessed():
    # a backward driver with unit z-slope but alpha declared 0.5
    bad = Model(b=ZERO_B, sigma=UNIT_SIGMA, Phi=ENDPOINT, g=lambda x, y, z: 1.0 * z[:, :, :1],
                lip_C=1.0, growth_m=0.0, alpha=0.5)
    with pytest.raises(AssertionError, match=r"^(g Lipschitz|gg\^T) bound"):
        assert_constants_hold(bad, n_probes=100)


def test_wrong_lipschitz_constant_is_witnessed():
    # f = y^3 is not globally Lipschitz
    bad = Model(b=ZERO_B, sigma=UNIT_SIGMA, Phi=ENDPOINT, f=lambda x, y, z: y ** 3,
                lip_C=1.0, growth_m=0.0, alpha=0.5)
    with pytest.raises(AssertionError, match="^f Lipschitz bound"):
        assert_constants_hold(bad, n_probes=200)


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
