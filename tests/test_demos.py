"""The demos compile, and every name they import from the package exists.

Checked with ast, without running the demos, so an API deletion that
breaks a demo fails here.  The package's public names are pinned too, so
any addition or removal is a visible edit."""

import ast
import importlib
import inspect
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def package_imports(tree):
    """(module, name) for every name imported from pathfk or pathfk.*;
    name is None for a plain `import pathfk...`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "pathfk" or node.module.startswith("pathfk."):
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "pathfk" or alias.name.startswith("pathfk."):
                    yield alias.name, None


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_compiles_and_its_imports_resolve(demo):
    source = demo.read_text()
    compile(source, str(demo), "exec")
    imports = list(package_imports(ast.parse(source)))
    assert imports, f"{demo.name} imports nothing from pathfk"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None and name != "*":
            assert hasattr(module, name), f"{demo.name}: {module_name}.{name} is gone"


PUBLIC_NAMES = [
    "BackwardSolution", "BrownianPair", "BudgetError", "CheckReport",
    "ConfigError", "DerivativeEstimate", "ExperimentConfig",
    "GridAlignmentError", "Model", "ModelRegistryEntry", "Path",
    "PathDistance", "PathFunctional", "PreconditionError", "RegressionBasis",
    "ScenarioEnsemble", "SmoothMap", "SolverError", "backward_ito_residual",
    "comparison_check", "discretization_convergence_check",
    "discretized_model", "evaluate_u", "field_from_closed_form",
    "field_from_engine", "flow_check", "frozen_noise_increments",
    "functional_ito_residual", "get_entry", "get_model",
    "horizontal_derivative", "horizontal_extend", "load_config", "make_grid",
    "moment_envelope_check", "moment_envelope_score", "moment_probes",
    "on_path", "path_dist", "random_initial_path", "registry",
    "regularity_check", "restrict", "running_integral", "sample_drivers",
    "shifted_model", "simulate_forward", "solve_nested", "solve_regression",
    "spde_residual", "spde_residual_check", "sup_norm", "validate",
    "vertical_bump", "vertical_derivative", "vertical_hessian",
    "z_growth_check", "z_representation_check",
]


def test_public_surface_is_pinned():
    # adding or removing an export must show up as an edit to this list
    import pathfk
    exported = [name for name in pathfk.__all__
                if not inspect.ismodule(getattr(pathfk, name))]
    assert sorted(exported) == sorted(PUBLIC_NAMES)
