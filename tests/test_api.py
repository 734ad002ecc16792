"""The public surface of the package, pinned name by name.

Adding or removing an export must update this list on purpose.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import fracnls

PUBLIC = [
    "AdmissibilityError",
    "ConfigurationError",
    "Field",
    "GaussianBump",
    "Grid",
    "GroundStateReport",
    "HypothesisError",
    "LEVEL_TOL",
    "Nonlinearity",
    "Potential",
    "Problem",
    "ProjectionError",
    "SUITES",
    "SolverConfig",
    "__version__",
    "compare_c_to_c_infinity",
    "compare_levels",
    "composed_operator",
    "continuity_sweep",
    "custom_nonlinearity",
    "default_start",
    "embed_field",
    "embedding_ratio",
    "evaluate_I",
    "gradient_I",
    "ground_state",
    "inner_product_X",
    "integrate",
    "l2_norm",
    "layer_cake_check",
    "left_lw_derivative",
    "level_c",
    "level_c_infinity",
    "make_grid",
    "make_problem",
    "nehari_project",
    "norm_X",
    "norm_alpha",
    "polya_szego_check",
    "potential_monotonicity_check",
    "power_nonlinearity",
    "problem_from_config",
    "random_starts",
    "rearrange",
    "rearrange_values",
    "refine_field",
    "right_lw_derivative",
    "seminorm_alpha",
    "sup_norm",
    "validate_nonlinearity",
    "validate_potential",
    "weak_residual_norm",
]

REMOVED = ["FractionalOrder", "as_order", "norm_report", "NormReport",
           "growth_bound_check", "evaluate_I_infinity", "Backtracking",
           "forward_transform", "inverse_transform", "check_nonnegativity",
           "symmetry_diagnostic", "SymmetryReport", "run_suite"]


def test_all_is_the_pinned_list():
    assert len(PUBLIC) == 52
    assert sorted(fracnls.__all__) == PUBLIC


def test_every_listed_name_resolves():
    for name in PUBLIC:
        assert getattr(fracnls, name) is not None, name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_not_importable(name):
    with pytest.raises(ImportError):
        exec(f"from fracnls import {name}", {})


def test_report_stores_only_what_the_descent_produced():
    # c, converged and the two diagnostics derive from the first five fields;
    # the last four count the descent's ray projections, trial steps and FFTs
    fields = [f.name for f in dataclasses.fields(fracnls.GroundStateReport)]
    assert fields == ["u", "residual", "iterations", "stop_reason", "energy",
                      "projections", "mismatch_evals", "line_search_trials", "fft_calls"]


def test_package_imports_form_a_dag():
    # every relative import, function-local ones included, is an edge; the
    # layers import one way only, so there is nothing to defer or hide
    src = Path(fracnls.__file__).parent
    modules = {path.stem for path in src.glob("*.py")}
    graph, hidden = {}, []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        if "TYPE_CHECKING" in text:
            hidden.append(path.name)
        deps = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:  # from . import name: a module, or a name of the package
                    deps.update(a.name if a.name in modules else "__init__" for a in node.names)
        graph[path.stem] = deps

    done = set()

    def visit(mod, path):
        if mod in path:
            pytest.fail("import cycle: " + " -> ".join(path[path.index(mod):] + [mod]))
        if mod not in done:
            for dep in sorted(graph[mod]):
                visit(dep, path + [mod])
            done.add(mod)

    for mod in sorted(graph):
        visit(mod, [])
    assert not hidden, f"imports hidden behind TYPE_CHECKING in {hidden}"
