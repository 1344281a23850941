"""Exact product connections on twisted tensor products of k[x] and k[y].

The names of ``__all__`` are loaded from their modules on first access
(PEP 562), so ``import twistconn`` imports no submodule and a run pays only
for the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "forms": ("Caps", "Form", "enumerate_words", "parse_form"),
    "tdga": ("ProductForm", "embed_x", "embed_y"),
    "twist": ("AlgebraTwist", "LeftModuleTwist", "RightModuleTwist",
              "check_derived_conditions", "check_left_module_twist",
              "check_lift_compat", "check_right_module_twist",
              "check_twist_axioms"),
    "connections": ("FormSwap", "ModuleConnection",
                    "check_bimodule_connection"),
    "product": ("ProductConnection", "ProductVector", "act_right",
                "check_connection_leibniz", "check_curvature_formula",
                "check_flatness", "check_twist_connection_compat",
                "check_twist_independence", "f_free_to_naive",
                "f_naive_to_free", "quantum_plane_report"),
    "bimodule": ("ProductSwap", "act_left", "check_bimodule_axiom",
                 "check_bimodule_theorem", "check_left_twist_connection_compat",
                 "check_swap_compat_e", "check_swap_compat_f",
                 "check_swap_cross_morphisms"),
    "reports": ("CheckResult", "Report"),
    "scenario": ("Scenario", "ScenarioError", "load_scenario",
                 "load_scenario_file"),
    "runner": ("run_checks",),
}
_MODULE_OF = {n: module for module, names in _EXPORTS.items() for n in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # looked up on every access, so a rebound module-level name is seen here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
