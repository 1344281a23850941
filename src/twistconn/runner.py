"""Check orchestration: scenario -> constructed objects -> report.

Checks run in dependency order (axioms, then module/connection
compatibility hypotheses, then theorem-level statements); a theorem check
whose hypotheses failed in the same run is reported inadmissible rather
than pass/fail, and nothing theorem-level is judged without its
hypotheses having been executed first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bimodule import (FormSwap, ProductSwap, check_bimodule_axiom,
                       check_bimodule_connection, check_bimodule_theorem,
                       check_left_twist_connection_compat, check_swap_compat_e,
                       check_swap_compat_f, check_swap_cross_morphisms)
from .connections import ModuleConnection
from .forms import Caps
from .product import (ProductConnection, check_connection_leibniz,
                      check_curvature_formula, check_flatness,
                      check_twist_connection_compat, check_twist_independence,
                      iter_naive_basis, quantum_plane_report)
from .reports import CheckResult, Report, inadmissible
from .scenario import Scenario, default_matrix
from .twist import (AlgebraTwist, LeftModuleTwist, RightModuleTwist,
                    check_derived_conditions, check_dga_laws,
                    check_left_module_twist, check_lift_compat,
                    check_right_module_twist, check_twist_axioms)

GROUPS: dict[str, tuple[str, ...]] = {
    "axioms": ("twist-axioms", "lift-compat", "dga-laws", "right-module-twist",
               "left-module-twist", "derived-compat"),
    "hypotheses": ("f-connection-compat",),
    "leibniz": ("leibniz",),
    "theorem": ("curvature-formula",),
    "flatness": ("flatness",),
    "independence": ("independence",),
    "curvature": ("curvature-payload",),
    "report": ("quantum-plane-report",),
    "bimodule": ("e-connection-compat", "bimodule-connection-x",
                 "bimodule-connection-y", "swap-compat-e", "swap-compat-f",
                 "swap-cross-morphisms", "bimodule-axiom", "bimodule-theorem"),
}

# checks whose statements presuppose these hypotheses
_GATED = {
    "leibniz": ("f-connection-compat",),
    "curvature-formula": ("f-connection-compat",),
    "quantum-plane-report": (),
    "bimodule-theorem": ("f-connection-compat", "e-connection-compat",
                         "right-module-twist", "left-module-twist",
                         "bimodule-connection-x", "bimodule-connection-y",
                         "swap-compat-e", "swap-compat-f", "bimodule-axiom"),
}

_PREREQ_GROUPS = {
    "leibniz": ("axioms", "hypotheses"),
    "theorem": ("axioms", "hypotheses"),
    "bimodule": ("axioms", "hypotheses"),
    "curvature": ("axioms", "hypotheses"),
    "report": ("axioms", "hypotheses"),
    "independence": ("axioms",),
    "flatness": (),
    "axioms": (),
    "hypotheses": ("axioms",),
}


@dataclass
class BuiltObjects:
    twist: AlgebraTwist
    rmt: RightModuleTwist
    rmt_alt: RightModuleTwist | None
    lmt: LeftModuleTwist
    conn_e: ModuleConnection
    conn_f: ModuleConnection
    swap_e: FormSwap
    swap_f: FormSwap
    pc: ProductConnection
    product_swap: ProductSwap


def build_objects(s: Scenario) -> BuiltObjects:
    twist = AlgebraTwist(s.q)
    rmt = RightModuleTwist(twist, default_matrix(s.s_matrix, s.n))
    rmt_alt = RightModuleTwist(twist, s.s_alt) if s.s_alt is not None else None
    lmt = LeftModuleTwist(twist, default_matrix(s.t_matrix, s.m))
    conn_e = ModuleConnection("x", s.m, s.potential_matrix("e"))
    conn_f = ModuleConnection("y", s.n, s.potential_matrix("f"))
    swap_vals_e = s.swap_matrix("e")
    swap_vals_f = s.swap_matrix("f")
    swap_e = FormSwap("x", s.m, swap_vals_e) if swap_vals_e is not None \
        else FormSwap.flip("x", s.m)
    swap_f = FormSwap("y", s.n, swap_vals_f) if swap_vals_f is not None \
        else FormSwap.flip("y", s.n)
    pc = ProductConnection(twist, rmt, conn_e, conn_f)
    product_swap = ProductSwap(twist, rmt, lmt, swap_e, swap_f)
    return BuiltObjects(twist, rmt, rmt_alt, lmt, conn_e, conn_f,
                        swap_e, swap_f, pc, product_swap)


def resolve_checks(requested: list[str]) -> list[str]:
    """Expand check groups into concrete check names, dependencies first."""
    ordered_groups: list[str] = []

    def add_group(group: str):
        for dep in _PREREQ_GROUPS.get(group, ()):
            add_group(dep)
        if group not in ordered_groups:
            ordered_groups.append(group)

    for group in requested:
        add_group(group)
    names: list[str] = []
    for group in ordered_groups:
        for name in GROUPS[group]:
            if name not in names:
                names.append(name)
    return names


def run_checks(s: Scenario, requested: list[str] | None = None) -> Report:
    """Execute the requested check groups and assemble the report."""
    started = time.perf_counter()
    objs = build_objects(s)
    report = Report(config=s.config_echo())
    caps = s.caps
    names = resolve_checks(requested if requested is not None else s.checks)

    def gate(name: str) -> CheckResult | None:
        for dep in _GATED.get(name, ()):
            res = report.find(dep)
            if res is not None and not res.passed:
                return inadmissible(name, f"hypothesis failed: {dep}")
        return None

    for name in names:
        blocked = gate(name)
        if blocked is not None:
            report.add(blocked)
            continue
        report.add(_run_one(name, s, objs, caps, report))

    if report.find("f-connection-compat") is not None:
        objs.pc.hypothesis_verdict = (
            "pass" if report.find("f-connection-compat").passed else "fail")
    report.elapsed = time.perf_counter() - started
    return report


def _run_one(name: str, s: Scenario, objs: BuiltObjects, caps: Caps,
             report: Report) -> CheckResult:
    if name == "twist-axioms":
        return check_twist_axioms(objs.twist, caps)
    if name == "lift-compat":
        return check_lift_compat(objs.twist, caps)
    if name == "dga-laws":
        return check_dga_laws(objs.twist, caps)
    if name == "right-module-twist":
        return check_right_module_twist(objs.rmt, caps)
    if name == "left-module-twist":
        return check_left_module_twist(objs.lmt, caps)
    if name == "derived-compat":
        return check_derived_conditions(objs.rmt, caps)
    if name == "f-connection-compat":
        result = check_twist_connection_compat(objs.twist, objs.rmt,
                                               objs.conn_f, caps)
        objs.pc.hypothesis_verdict = "pass" if result.passed else "fail"
        return result
    if name == "e-connection-compat":
        return check_left_twist_connection_compat(objs.twist, objs.lmt,
                                                  objs.conn_e, caps)
    if name == "leibniz":
        return check_connection_leibniz(objs.pc, caps, seed=s.seed)
    if name == "curvature-formula":
        return check_curvature_formula(objs.pc, caps, seed=s.seed)
    if name == "flatness":
        return check_flatness(objs.pc, caps)
    if name == "independence":
        if objs.rmt_alt is None:
            return inadmissible("independence",
                                "no alternate mixing matrix ([S_alt]) given")
        return check_twist_independence(objs.twist, objs.conn_e, objs.conn_f,
                                        objs.rmt, objs.rmt_alt, caps)
    if name == "curvature-payload":
        report.payloads["curvature"] = _curvature_payload(objs, caps)
        flagged = objs.pc.hypothesis_verdict == "fail"
        verdict = "not-guaranteed" if flagged else "pass"
        return CheckResult("curvature-payload", verdict,
                           witness=("hypotheses violated; symbolic output "
                                    "only" if flagged else None))
    if name == "quantum-plane-report":
        payload, lines = quantum_plane_report(
            objs.pc, caps, f_exponents=s.f_exponents,
            remark_power=s.remark_power)
        report.payloads["quantum-plane"] = payload
        report.payloads["quantum-plane-text"] = lines
        if payload["all_verified"]:
            return CheckResult("quantum-plane-report", "pass")
        return CheckResult("quantum-plane-report", "fail",
                           witness="symbolic display did not match the "
                                   "computed connection")
    if name == "bimodule-connection-x":
        return check_bimodule_connection(objs.conn_e, objs.swap_e, caps)
    if name == "bimodule-connection-y":
        return check_bimodule_connection(objs.conn_f, objs.swap_f, caps)
    if name == "swap-compat-e":
        return check_swap_compat_e(objs.product_swap, caps)
    if name == "swap-compat-f":
        return check_swap_compat_f(objs.product_swap, caps)
    if name == "swap-cross-morphisms":
        return check_swap_cross_morphisms(objs.product_swap, caps)
    if name == "bimodule-axiom":
        return check_bimodule_axiom(objs.twist, objs.rmt, objs.lmt, s.m, caps)
    if name == "bimodule-theorem":
        prereqs = [report.find(dep) for dep in _GATED["bimodule-theorem"]]
        prereqs = [r for r in prereqs if r is not None]
        return check_bimodule_theorem(objs.pc, objs.product_swap, caps, prereqs)
    raise ValueError(f"unknown check {name!r}")


def _curvature_payload(objs: BuiltObjects, caps: Caps) -> dict:
    payload = {
        "factor_curvature_x": [[str(e) for e in row]
                               for row in objs.conn_e.curvature_matrix()],
        "factor_curvature_y": [[str(e) for e in row]
                               for row in objs.conn_f.curvature_matrix()],
    }
    table = {}
    small = Caps(min(caps.max_exponent, 2), caps.max_degree)
    for label, pv in iter_naive_basis(objs.pc, small):
        out = objs.pc.curvature(pv)
        table[label] = out.render()
    payload["product_curvature"] = table
    return payload
