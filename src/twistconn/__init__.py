"""Exact product connections on twisted tensor products of k[x] and k[y]."""

from .forms import Caps, Form, enumerate_words, parse_form
from .tdga import ProductForm, embed_x, embed_y
from .twist import (AlgebraTwist, LeftModuleTwist, RightModuleTwist,
                    check_derived_conditions, check_left_module_twist,
                    check_lift_compat, check_right_module_twist,
                    check_twist_axioms)
from .connections import (FormSwap, ModuleConnection,
                          check_bimodule_connection, check_swap_pair_compatible)
from .product import (ProductConnection, ProductVector, act_right,
                      check_connection_leibniz, check_curvature_formula,
                      check_flatness, check_twist_connection_compat,
                      check_twist_independence, f_free_to_naive,
                      f_naive_to_free, quantum_plane_report)
from .bimodule import (ProductSwap, act_left, check_bimodule_axiom,
                       check_bimodule_theorem,
                       check_left_twist_connection_compat, check_swap_compat_e,
                       check_swap_compat_f, check_swap_cross_morphisms)
from .reports import CheckResult, Report
from .scenario import Scenario, ScenarioError, load_scenario, load_scenario_file
from .runner import run_checks

__version__ = "0.1.0"

__all__ = [
    "AlgebraTwist", "Caps", "CheckResult", "Form", "FormSwap",
    "LeftModuleTwist", "ModuleConnection", "ProductConnection", "ProductForm",
    "ProductSwap", "ProductVector", "Report", "RightModuleTwist", "Scenario",
    "ScenarioError", "act_left", "act_right", "check_bimodule_axiom",
    "check_bimodule_connection", "check_bimodule_theorem",
    "check_connection_leibniz", "check_curvature_formula",
    "check_derived_conditions", "check_flatness",
    "check_left_module_twist", "check_left_twist_connection_compat",
    "check_lift_compat", "check_right_module_twist", "check_swap_pair_compatible",
    "check_swap_compat_e", "check_swap_compat_f",
    "check_swap_cross_morphisms", "check_twist_axioms",
    "check_twist_connection_compat", "check_twist_independence",
    "embed_x", "embed_y", "enumerate_words", "f_free_to_naive",
    "f_naive_to_free", "load_scenario", "load_scenario_file", "parse_form",
    "quantum_plane_report", "run_checks",
]
