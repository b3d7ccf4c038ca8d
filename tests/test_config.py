"""Configuration parsing and validation."""

import json
import pathlib

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
    assert cfg.model_name == "heat"
    assert cfg.engine == "regression"
    assert len(cfg.grid_times) == 8 + 1 and cfg.grid_times[-1] == 1.0
    assert cfg.initial.t_index == 0
    assert np.all(cfg.initial.values == 0.0)
    assert cfg.basis is None            # Markovian default


def test_accepts_json_text_and_dict():
    raw = base_config()
    from_dict = load_config(raw)
    from_text = load_config(json.dumps(raw))
    assert from_dict.model_name == from_text.model_name


def test_path_dependent_model_gets_path_basis():
    cfg = load_config(base_config(model="asian"))
    assert cfg.basis is not None
    assert cfg.basis.feature_set == "endpoint+runmax+runint"


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
    with pytest.raises(ConfigError):
        load_config(base_config(grid={"T": -1.0, "N": 8}))
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
    assert cfg.model_name == "ou-sin"
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
