"""Configuration parsing and validation."""

import json
import pathlib
import re

import numpy as np
import pytest

from pathfk import ConfigError, load_config


def base_config(**overrides):
    cfg = {
        "model": "heat",
        "grid": {"T": 1.0, "N": 8},
        "mc": {"seed": 1, "n_scenarios": 500},
    }
    cfg.update(overrides)
    return cfg


def test_minimal_config_defaults():
    cfg = load_config(base_config())
    assert cfg.model.name == "heat"
    assert cfg.engine == "regression"
    assert len(cfg.grid_times) == 8 + 1 and cfg.grid_times[-1] == 1.0
    assert cfg.initial.t_index == 0
    assert np.all(cfg.initial.values == 0.0)
    assert not hasattr(cfg, "basis")    # the design follows the model


def test_accepts_json_text_and_dict():
    raw = base_config()
    from_dict = load_config(raw)
    from_text = load_config(json.dumps(raw))
    assert from_dict.model.name == from_text.model.name


def test_path_dependent_model_gets_path_basis():
    # the config sets no basis; the solver picks the endpoint and the
    # running statistics the model reads: the running integral for asian
    from pathfk.cli import _solve
    for name, features in (("asian", "endpoint+runint"), ("heat", "endpoint")):
        sol, _ = _solve(load_config(base_config(model=name)))
        assert sol.scheme_params["feature_set"] == features


def test_basis_section_rejected():
    # the features follow the model, so no config key sets them
    for basis in ({"degree": 1}, {"include_future_noise": False}, {}):
        with pytest.raises(ConfigError, match=r"not \['basis'\]"):
            load_config(base_config(basis=basis))


@pytest.mark.parametrize("section, spec, key", [
    pytest.param("mc", {"seed": 1, "n_scenario": 200}, "n_scenario", id="mc"),
    pytest.param("grid", {"T": 1.0, "N": 8, "n": 4}, "n", id="grid"),
    pytest.param("initial_path", {"value": [[0.0]]}, "value", id="initial_path"),
    pytest.param("checks", {"z_grwoth": {}}, "z_grwoth", id="checks"),
    pytest.param("output", "out", "output", id="top-level"),
])
def test_unknown_config_keys_rejected(section, spec, key):
    # a mistyped key would otherwise leave its setting at the default:
    # mc.n_scenario ran 10,000 scenarios and grid.n changed nothing
    with pytest.raises(ConfigError, match=rf"not \['{key}'\]"):
        load_config(base_config(**{section: spec}))


@pytest.mark.parametrize("spec", [["q"], "q", 0.5], ids=["list", "str", "float"])
def test_check_spec_is_an_object_or_null(spec):
    for check in ("z_growth", "flow"):
        with pytest.raises(ConfigError,
                           match=f"check '{check}' must be an object or null"):
            load_config(base_config(checks={check: spec}))
    assert load_config(base_config(checks={"z_growth": None})).checks


def test_seed_required_and_overridable():
    raw = base_config()
    del raw["mc"]["seed"]
    with pytest.raises(ConfigError):
        load_config(raw)
    cfg = load_config(base_config(), seed_override=99)
    assert cfg.seed == 99


def test_grid_validation():
    with pytest.raises(ConfigError):
        load_config(base_config(grid={"T": 1.0, "N": 1}))
    with pytest.raises(ConfigError, match="grid.T must be positive"):
        load_config(base_config(grid={"T": -1.0, "N": 8}))
    # json reads NaN and Infinity as floats, which loaded with NaN grid
    # times; the typing rule takes neither as a number
    for T in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="grid.T must be a number"):
            load_config(base_config(grid={"T": T, "N": 8}))
    with pytest.raises(ConfigError):
        load_config(base_config(grid={"T": 1.0}))


def test_engine_and_budget_validation():
    with pytest.raises(ConfigError):
        load_config(base_config(engine="magic"))
    raw = base_config()
    raw["mc"]["n_scenarios"] = 50
    with pytest.raises(ConfigError):
        load_config(raw)


def test_engine_options_are_typed():
    cfg = load_config(base_config(engine_options={"n_outer": 3, "branching": 2,
                                                  "picard_iters": 1}))
    assert cfg.engine_options == {"n_outer": 3, "branching": 2, "picard_iters": 1}
    assert load_config(base_config()).engine_options == {}
    for options in ({"picard_itres": 5}, {"branching": 1}, {"n_outer": 0},
                    {"picard_iters": 0}, {"picard_iters": 2.0},
                    {"n_outer": "4"}, {"branching": True}, [["n_outer", 4]]):
        with pytest.raises(ConfigError, match="engine_options"):
            load_config(base_config(engine_options=options))


def test_unknown_check_rejected():
    with pytest.raises(ConfigError):
        load_config(base_config(checks={"telepathy": {}}))


@pytest.mark.parametrize("check, spec, message", [
    ("z_representation", {"tolerance": 0.5, "tol": 0.05},
     "check 'z_representation' takes the keys ('n_sub', 'tol'), not ['tolerance']"),
    ("closed_form", {"tol": 0.05},
     "check 'closed_form' takes the keys ('tol_rel',), not ['tol']"),
])
def test_unknown_check_key_rejected(check, spec, message):
    # a mistyped key would otherwise leave the check at its default
    with pytest.raises(ConfigError) as err:
        load_config(base_config(checks={check: spec}))
    assert str(err.value) == message


def test_readme_example_config_loads():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("A minimal config:", 1)[1].split("```json", 1)[1]
    cfg = load_config(json.loads(block.split("```", 1)[0]))
    assert set(cfg.checks) == {"closed_form", "z_representation", "flow"}


def test_closed_form_check_needs_closed_form():
    with pytest.raises(ConfigError):
        load_config(base_config(model="nonlinear-f",
                                checks={"closed_form": {}}))


def test_initial_path_inline_values():
    cfg = load_config(base_config(initial_path={"values": [[0.0], [0.5]]}))
    assert cfg.initial.t_index == 1
    assert cfg.initial.values[1, 0] == 0.5


def test_initial_path_from_csv_file(tmp_path):
    f = tmp_path / "init.csv"
    f.write_text("time,x_1\n0.0,0.3\n0.125,0.6\n")
    cfg = load_config(base_config(initial_path={"file": str(f)}))
    assert cfg.initial.t_index == 1
    assert cfg.initial.values[:, 0] == pytest.approx([0.3, 0.6])


def test_initial_path_file_single_row(tmp_path):
    f = tmp_path / "init.csv"
    f.write_text("time,x_1\n0.0,1.5\n")
    cfg = load_config(base_config(initial_path={"file": str(f)}))
    assert cfg.initial.t_index == 0 and cfg.initial.values.tolist() == [[1.5]]
    assert cfg.initial.horizon == 1.0 and cfg.initial.dt == 0.125


@pytest.mark.parametrize("rows", [
    pytest.param("0.0,1.0\n0.5,2.0\n", id="coarser-grid"),
    pytest.param("0.125,1.0\n", id="late-start"),
    pytest.param("".join(f"{i / 8},0.0\n" for i in range(10)), id="past-horizon"),
    pytest.param("", id="empty", marks=pytest.mark.filterwarnings(
        "ignore:loadtxt. input contained no data")),
])
def test_initial_path_file_times_must_be_grid_times(tmp_path, rows):
    f = tmp_path / "init.csv"
    f.write_text("time,x_1\n" + rows)
    with pytest.raises(ConfigError, match="grid times"):
        load_config(base_config(initial_path={"file": str(f)}))


def test_inline_model_grammar():
    spec = {
        "name": "ou-sin",
        "b": {"affine": {"intercept": 0.0, "slope": -0.5}},
        "sigma": {"const": 0.8},
        "Phi": {"kind": "endpoint_sin"},
        "f": {"kind": "linear", "coef_y": 0.2},
        "g": {"kind": "linear_y", "coef": 0.3},
    }
    cfg = load_config(base_config(model=spec))
    assert cfg.model.name == "ou-sin"
    m = cfg.model
    from pathfk import Path, make_grid, on_path
    p = Path(make_grid(1.0, 8), np.array([[2.0]]))
    assert on_path(m.b, p)[0] == pytest.approx(-1.0)
    assert on_path(m.sigma, p)[0, 0] == pytest.approx(0.8)
    assert m.markovian_flag  # endpoint-type terminal and a path-free driver
    assert on_path(m.g, p, np.array([1.0]), np.zeros((1, 1)))[0, 0] == pytest.approx(0.3)
    for path_spec in ({"f": {"kind": "runmax_minus_y"}},
                      {"Phi": {"kind": "running_integral"}}):
        assert not load_config(base_config(model=path_spec)).model.markovian_flag


@pytest.mark.parametrize("overrides, message", [
    pytest.param({"model": {"b": {"const": "1"}}}, "b.const must be a number", id="b.const"),
    pytest.param({"model": {"sigma": {"affine": {"slope": [0.1]}}}},
                 "sigma.affine.slope must be a number", id="sigma.affine.slope"),
    pytest.param({"model": {"g": {"kind": "linear_y", "coef": False}}},
                 "g.coef must be a number, got False", id="g.coef"),
    pytest.param({"grid": {"T": 1.0, "N": 8.9}}, "grid.N must be an integer, got 8.9",
                 id="grid.N"),
    pytest.param({"grid": {"T": True, "N": 8}}, "grid.T must be a number, got True",
                 id="grid.T"),
    pytest.param({"mc": {"seed": "3"}}, "mc.seed must be an integer, got '3'", id="mc.seed"),
    pytest.param({"mc": {"seed": 1, "n_scenarios": 500.7}},
                 "mc.n_scenarios must be an integer, got 500.7", id="mc.n_scenarios"),
])
def test_config_values_are_typed_at_load(overrides, message):
    # each of these was read through float() or int(): "1" as 1, false as a
    # zero driver, 8.9 as 8, true as 1 and "3" as 3 (the grammar's kinds are
    # typed in test_models)
    with pytest.raises(ConfigError, match=message):
        load_config(base_config(**overrides))


@pytest.mark.parametrize("model, checks, message", [
    pytest.param('{"g": {"kind": "linear_y", "coef": NaN}}', "{}",
                 "g.coef must be a number, got nan", id="NaN"),
    pytest.param('{"Phi": {"kind": "endpoint", "shift": Infinity}}', "{}",
                 "Phi.shift must be a number, got inf", id="Infinity"),
    pytest.param('"heat"', '{"z_growth": {"q": -Infinity}}',
                 "z_growth.q must be a number, got -inf", id="-Infinity"),
])
def test_json_non_finite_numbers_are_refused(model, checks, message):
    # json.loads parses NaN and Infinity as floats: the first built a NaN
    # driver whose lip_C read 0.0, the second an infinite terminal
    text = (f'{{"model": {model}, "grid": {{"T": 1.0, "N": 8}}, '
            f'"mc": {{"seed": 1, "n_scenarios": 500}}, "checks": {checks}}}')
    with pytest.raises(ConfigError, match=message):
        load_config(text)


@pytest.mark.parametrize("values", [[["0.5"]], [[True]], [[0.0], [float("nan")]], [0.5]])
def test_initial_values_are_typed(values):
    # read through np.asarray, "0.5" loaded as 0.5 and true as 1.0
    with pytest.raises(ConfigError, match=r"initial_path\.values row"):
        load_config(base_config(initial_path={"values": values}))


@pytest.mark.parametrize("values", [
    pytest.param([[0.0], [0.1, 0.2]], id="ragged"),
    pytest.param([[0.0, 1.0]], id="too-wide"),
    pytest.param([[0.0]] * 12, id="too-long"),
    pytest.param([], id="empty"),
])
def test_initial_values_are_rows_of_the_models_width(values):
    # heat at N = 8 (d = 1): the ragged rows failed inside numpy, the wide
    # row in the headline solve and the long path in Path, naming no key
    with pytest.raises(ConfigError, match=r"initial_path\.values must hold 1 to "
                                          r"grid\.N \+ 1 = 9 rows of the model's d = 1"):
        load_config(base_config(initial_path={"values": values}))


def test_initial_path_file_rows_are_the_models_width(tmp_path):
    # two coordinates for heat's one loaded and failed in the headline solve
    f = tmp_path / "init.csv"
    f.write_text("time,x_1,x_2\n0.0,0.3,0.1\n0.125,0.6,0.2\n")
    with pytest.raises(ConfigError, match=r"initial_path\.file .* d = 1 values"):
        load_config(base_config(initial_path={"file": str(f)}))


@pytest.mark.parametrize("cell, message", [
    ("nan", "must hold finite numbers, got nan"),
    ("inf", "must hold finite numbers, got inf"),
    ("abc", "could not convert string 'abc'"),
])
def test_initial_path_file_cells_are_finite_numbers(tmp_path, cell, message):
    # a nan cell reached Path, whose error named no key, and abc failed in
    # numpy; both now name the file, as initial_path.values names its key
    f = tmp_path / "init.csv"
    f.write_text(f"time,x_1\n0.0,0.3\n0.125,{cell}\n")
    with pytest.raises(ConfigError, match=rf"initial_path\.file {re.escape(str(f))}:? {message}"):
        load_config(base_config(initial_path={"file": str(f)}))


def test_numpy_scalars_are_config_values():
    # a script that builds its config with numpy gets the values it wrote
    cfg = load_config(base_config(grid={"T": np.float64(1.0), "N": np.int64(8)},
                                  mc={"seed": np.int64(3), "n_scenarios": 500}))
    assert (cfg.seed, len(cfg.grid_times), cfg.grid_times[-1]) == (3, 9, 1.0)
    with pytest.raises(ConfigError, match="grid.N must be an integer, got np.True_"):
        load_config(base_config(grid={"T": 1.0, "N": np.bool_(True)}))


def test_config_holds_the_registry_entry():
    # a registry name brings its closed forms; an inline spec has none
    heat = load_config(base_config())
    assert heat.entry.name == "heat" and heat.model is heat.entry.model
    assert heat.entry.closed_form_u is not None
    inline = load_config(base_config(model={"name": "mine"})).entry
    assert inline.name == "mine"
    assert (inline.closed_form_u, inline.closed_form_Z) == (None, None)


def test_inline_model_rejects_expansive_z_driver():
    spec = {"g": {"kind": "linear_z", "coef": 1.5}}
    with pytest.raises(ConfigError):
        load_config(base_config(model=spec))


def test_inline_model_rejects_unknown_kinds():
    with pytest.raises(ConfigError):
        load_config(base_config(model={"Phi": {"kind": "lookback"}}))
    with pytest.raises(ConfigError, match="unknown terminal kind"):
        load_config(base_config(model={"Phi": {"kind": ["endpoint"]}}))
    with pytest.raises(ConfigError):
        load_config(base_config(model={"f": {"kind": "exotic"}}))
    with pytest.raises(ConfigError):
        load_config(base_config(model={"b": {"cubic": 1.0}}))


@pytest.mark.parametrize("spec, message", [
    pytest.param({"sigmaa": {"const": 0.8}},
                 r"model takes .*, not \['sigmaa'\]", id="top-level"),
    pytest.param({"Phi": {"kind": "endpoint", "shfit": 1.0}},
                 r"Phi of kind 'endpoint' takes .*, not \['shfit'\]", id="Phi"),
    pytest.param({"f": {"kind": "linear", "coef": 0.2}},
                 r"f of kind 'linear' takes .*, not \['coef'\]", id="f"),
    # read as g = 0 y, this ran the g path with a zero driver
    pytest.param({"g": {"kind": "linear_y", "coeff": 0.3}},
                 r"g of kind 'linear_y' takes .*, not \['coeff'\]", id="g"),
    # keys of another kind of the same section, which the chosen kind ignored
    pytest.param({"f": {"kind": "linear", "shift": 0.2}}, r"not \['shift'\]", id="f-linear-shift"),
    pytest.param({"g": {"kind": "zero", "coef": 0.3}}, r"not \['coef'\]", id="g-zero-coef"),
    pytest.param({"f": {"kind": "zero", "coef_y": 5}}, r"not \['coef_y'\]", id="f-zero-coef_y"),
    # the constants follow from the kinds and are no longer declared
    pytest.param({"lip_C": 0.1}, r"model takes .*, not \['lip_C'\]", id="lip_C"),
    pytest.param({"growth_m": 2.0}, r"model takes .*, not \['growth_m'\]", id="growth_m"),
    pytest.param({"alpha": 0.5}, r"model takes .*, not \['alpha'\]", id="alpha"),
    pytest.param({"b": {"affine": {"slop": 0.5}}},
                 r"b.affine takes .*, not \['slop'\]", id="affine"),
    pytest.param({"sigma": {"const": 0.8, "affine": {"slope": 0.1}}},
                 "sigma must be", id="const-and-affine"),
    pytest.param({"f": ["linear"]}, "f must be an object or null", id="list"),
])
def test_inline_model_rejects_unknown_keys(spec, message):
    with pytest.raises(ConfigError, match=message):
        load_config(base_config(model=spec))


@pytest.mark.parametrize("flow", [
    pytest.param({}, id="missing"),
    pytest.param({"s": 0.3}, id="off-grid"),
    pytest.param({"s": 0.0}, id="at-initial-time"),
    pytest.param({"s": 1.0}, id="at-horizon"),
    pytest.param({"s": 1.5}, id="past-horizon"),
    pytest.param({"s": "half"}, id="not-a-number"),
])
def test_flow_restart_time_validated_before_any_solve(flow):
    with pytest.raises(ConfigError, match="flow.s"):
        load_config(base_config(checks={"flow": flow}))
    assert load_config(base_config(checks={"flow": {"s": 0.5}})).checks["flow"]


def test_flow_restart_time_after_a_late_initial_path():
    late = {"values": [[0.0], [0.1], [0.2], [0.3], [0.4]]}    # t = 0.5 on N = 8
    with pytest.raises(ConfigError, match="flow.s"):
        load_config(base_config(initial_path=late, checks={"flow": {"s": 0.5}}))
    load_config(base_config(initial_path=late, checks={"flow": {"s": 0.625}}))


def test_discretization_nodes_must_divide_the_remaining_steps(tmp_path):
    # N = 16 from a two-row initial path leaves 15 steps: the default node
    # counts (2, 4, 8, 16) do not divide them
    f = tmp_path / "init.csv"
    f.write_text("time,x_1\n0.0,0.0\n0.0625,0.1\n")
    raw = base_config(grid={"T": 1.0, "N": 16}, initial_path={"file": str(f)})
    with pytest.raises(ConfigError, match="15 grid steps"):
        load_config(dict(raw, checks={"discretization": {"noise_only": True}}))
    for counts in ([3, 6], [0, 5], [2.5]):
        with pytest.raises(ConfigError, match="node_counts"):
            load_config(dict(raw, checks={"discretization": {"node_counts": counts}}))
    cfg = load_config(dict(raw, checks={"discretization": {"node_counts": [3, 5, 15]}}))
    assert cfg.initial.t_index == 1
    assert load_config(base_config(grid={"T": 1.0, "N": 16},
                                   checks={"discretization": None})).checks
    # the gaps are compared with each other, or with noise_only against the
    # noise floor, so one count needs noise_only and none is refused
    plain = base_config(grid={"T": 1.0, "N": 16})
    for spec in ({"node_counts": []}, {"node_counts": [4]},
                 {"node_counts": [], "noise_only": True}):
        with pytest.raises(ConfigError, match="node_counts needs two counts"):
            load_config(dict(plain, checks={"discretization": spec}))
    load_config(dict(plain, checks={"discretization": {"node_counts": [4],
                                                       "noise_only": True}}))


@pytest.mark.parametrize("check, key, least", [
    ("z_representation", "n_sub", 1), ("flow", "n_resolve", 1),
    ("field_equation", "n_paths", 1), ("moments", "n_probes", 1),
    ("regularity", "n_probes", 10)])
def test_check_counts_have_least_values(check, key, least):
    # below these the check raised only after the headline solve
    spec = {"s": 0.5} if check == "flow" else {}
    with pytest.raises(ConfigError, match=f"{check}.{key} must be at least {least}, "
                                          f"got {least - 1}"):
        load_config(base_config(checks={check: {key: least - 1, **spec}}))
    assert load_config(base_config(checks={check: {key: least, **spec}})).checks[check]


@pytest.mark.parametrize("check, spec, message", [
    pytest.param("z_growth", {"q": "x"}, "z_growth.q must be a number", id="str-number"),
    pytest.param("z_growth", {"q": True}, "z_growth.q must be a number", id="bool-number"),
    pytest.param("moments", {"p": 3}, "moments.p must be a list", id="scalar-list"),
    pytest.param("moments", {"p": [2, "4"]}, "moments.p entry must be a number",
                 id="str-entry"),
    pytest.param("moments", {"p": [1.5, 4]}, r"moments.p orders must be at least 2",
                 id="order-below-2"),
    # no order scored nothing, so the run could pass with the check missing
    pytest.param("moments", {"p": []}, r"moments.p orders must be at least 2, and one",
                 id="no-order"),
    pytest.param("discretization", {"noise_only": "false"},
                 "discretization.noise_only must be true or false", id="str-bool"),
    pytest.param("discretization", {"noise_only": 0},
                 "discretization.noise_only must be true or false", id="int-bool"),
    pytest.param("flow", {"s": 0.5, "n_resolve": 2.5}, "flow.n_resolve must be an integer",
                 id="float-int"),
    pytest.param("z_representation", {"n_sub": 2.0}, "z_representation.n_sub must be an integer",
                 id="integral-float-int"),
    pytest.param("moments", {"n_probes": "12"}, "moments.n_probes must be an integer",
                 id="str-int"),
])
def test_check_values_are_typed_at_load(check, spec, message):
    # each of these reached the check only after the headline solve, or was
    # misread: "false" as True and 2.5 as 2
    with pytest.raises(ConfigError, match=message):
        load_config(base_config(checks={check: spec}))


def test_check_specs_are_stored_typed(monkeypatch):
    # each check's call is bound to its spec as typed
    from pathfk import config
    specs, bind = {}, config._bind

    def recorded(cfg, name, spec):
        specs[name] = spec
        return bind(cfg, name, spec)

    monkeypatch.setattr(config, "_bind", recorded)
    cfg = load_config(base_config(checks={
        "z_growth": {"q": 2}, "z_representation": None,
        "discretization": {"node_counts": [2, 4], "noise_only": True},
        "moments": {"p": [2, 4.5], "n_probes": 12}}))
    assert specs == {"z_growth": {"q": 2.0}, "z_representation": {},
                     "discretization": {"node_counts": (2, 4), "noise_only": True},
                     "moments": {"p": (2.0, 4.5), "n_probes": 12}}
    assert type(specs["z_growth"]["q"]) is float
    assert all(type(p) is float for p in specs["moments"]["p"])
    assert sorted(cfg.checks) == sorted(specs) and all(map(callable, cfg.checks.values()))


@pytest.mark.parametrize("model, n, floor", [
    pytest.param("path-f", 250, 300, id="path-f"),
    pytest.param("asian", 250, 300, id="asian"),
    pytest.param("linear-g", 150, 200, id="linear-g"),
    pytest.param("heat", 100, 150, id="heat"),
])
def test_scenario_floor_is_the_designs(model, n, floor):
    # 50 scenarios per column of the model's own design, which the headline
    # solve would otherwise refuse after the config loaded
    with pytest.raises(ConfigError, match=f"mc.n_scenarios is {n}, .* at least {floor}"):
        load_config(base_config(model=model, mc={"seed": 1, "n_scenarios": n}))
    load_config(base_config(model=model, mc={"seed": 1, "n_scenarios": floor}))


def test_scenario_floor_reads_the_moment_probes_and_the_regression_checks():
    # an inline model reading both statistics, with g: a design of 11
    # columns, 550 scenarios
    spec = {"Phi": {"kind": "running_integral"}, "f": {"kind": "runmax_minus_y"},
            "g": {"kind": "linear_y", "coef": 0.3}}
    with pytest.raises(ConfigError, match="moments.n_scenarios is 500, .* at least 550"):
        load_config(base_config(model=spec, mc={"seed": 1, "n_scenarios": 10_000},
                                checks={"moments": {}}))
    load_config(base_config(model=spec, mc={"seed": 1, "n_scenarios": 10_000},
                            checks={"moments": {"n_scenarios": 550}}))
    # the nested headline takes no floor, but flow's regression solves do
    nested = base_config(engine="nested", grid={"T": 1.0, "N": 4},
                         mc={"seed": 1, "n_scenarios": 4})
    load_config(nested)
    with pytest.raises(ConfigError, match="mc.n_scenarios is 4"):
        load_config(dict(nested, checks={"flow": {"s": 0.5}}))


@pytest.mark.parametrize("overrides", [
    pytest.param({"model": "nonlinear-f", "checks": {"regularity": {}}}, id="regularity"),
    pytest.param({"model": "nonlinear-f", "checks": {"field_equation": {"n_paths": 2}}},
                 id="field_equation"),
    pytest.param({"model": "nonlinear-f", "checks": {"z_representation": {}}},
                 id="z_representation-nonlinear-f"),
    pytest.param({"model": "path-f", "checks": {"z_representation": {}}},
                 id="z_representation-path-f"),
    pytest.param({"model": "linear-g", "checks": {"z_representation": {}}},
                 id="z_representation-linear-g"),
    pytest.param({"model": "path-f", "engine": "nested"}, id="nested-headline"),
])
def test_tree_budget_checked_at_load(overrides):
    # N = 8 at the default branching 8 asks for 8^8 leaves per root
    raw = base_config(**overrides)
    with pytest.raises(ConfigError, match="leaves, over the 1000000 budget"):
        load_config(raw)
    load_config(dict(raw, engine_options={"branching": 4}))


def test_tree_budget_depths():
    # regularity's probes start at any time, so its trees are N deep
    # whatever the initial path; the other trees start at the initial path
    late = {"values": [[0.0]] * 3}                       # t_index 2 on N = 8
    six = dict(engine_options={"branching": 10}, initial_path=late)  # 10^6 leaves
    load_config(base_config(model="nonlinear-f", checks={"field_equation": {}}, **six))
    with pytest.raises(ConfigError, match="regularity probes: tree would hold 100000000"):
        load_config(base_config(model="nonlinear-f", checks={"regularity": {}}, **six))
    with pytest.raises(ConfigError, match="9 remaining steps exceed the tree depth limit 8"):
        load_config(base_config(model="nonlinear-f", grid={"T": 1.0, "N": 9},
                                checks={"regularity": {}},
                                engine_options={"branching": 2}))
    # with a closed form and no g, the candidate field is the closed form
    load_config(base_config(grid={"T": 1.0, "N": 16},
                            checks={"regularity": {}, "z_representation": {}}))


def test_nested_engine_rejects_the_scenario_path_checks():
    for check in ("z_growth", "z_representation"):
        with pytest.raises(ConfigError, match="need the regression engine"):
            load_config(base_config(engine="nested", grid={"T": 1.0, "N": 4},
                                    mc={"seed": 1, "n_scenarios": 4},
                                    checks={check: {}}))
