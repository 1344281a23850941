"""Check orchestration: scenario -> constructed objects -> report.

``CHECKS`` is the one registry of checks: each row names a check, the
group that selects it, the hypotheses its statement presupposes (its
gates) and how to run it.  Groups run in dependency order (axioms, then
module/connection compatibility hypotheses, then theorem-level
statements, as ``PREREQUISITES`` says), so nothing theorem-level is judged
without its hypotheses having been executed first; a check whose gate
failed in the same run is reported inadmissible rather than pass/fail.
Verdicts live only in the report: a check that depends on an earlier
verdict reads it from there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

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
from .reports import NOT_GUARANTEED, CheckResult, Report, failed, \
    inadmissible, passed
from .scenario import Scenario, default_matrix
from .twist import (AlgebraTwist, LeftModuleTwist, RightModuleTwist,
                    check_derived_conditions, check_dga_laws,
                    check_left_module_twist, check_lift_compat,
                    check_right_module_twist, check_twist_axioms)


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


def _independence(o: BuiltObjects, s: Scenario, report: Report) -> CheckResult:
    if o.rmt_alt is None:
        return inadmissible("independence",
                            "no alternate mixing matrix ([S_alt]) given")
    # the group prerequisites have decided the first twist's admissibility
    return check_twist_independence(o.twist, o.conn_e, o.conn_f, o.rmt,
                                    o.rmt_alt, s.caps,
                                    report.find("right-module-twist"),
                                    report.find("f-connection-compat"))


def _curvature_payload(o: BuiltObjects, s: Scenario,
                       report: Report) -> CheckResult:
    """Curvature tables, not guaranteed when the module twist hypothesis failed."""
    payload = {
        "factor_curvature_x": [[str(e) for e in row]
                               for row in o.conn_e.curvature_matrix()],
        "factor_curvature_y": [[str(e) for e in row]
                               for row in o.conn_f.curvature_matrix()],
    }
    small = Caps(min(s.caps.max_exponent, 2), s.caps.max_degree)
    payload["product_curvature"] = {
        label: o.pc.curvature(pv).render()
        for label, pv in iter_naive_basis(s.m, o.rmt, small)}
    report.payloads["curvature"] = payload
    # the group prerequisites have run f-connection-compat before this check
    if not report.find("f-connection-compat").passed:
        return CheckResult("curvature-payload", NOT_GUARANTEED,
                           witness="hypotheses violated; symbolic output only")
    return passed("curvature-payload", 0)


def _quantum_plane_report(o: BuiltObjects, s: Scenario,
                          report: Report) -> CheckResult:
    # the group prerequisites have run f-connection-compat before this check
    payload, lines = quantum_plane_report(o.pc, s.caps,
                                          report.find("f-connection-compat"),
                                          f_exponents=s.f_exponents,
                                          remark_power=s.remark_power)
    report.payloads["quantum-plane"] = payload
    report.payloads["quantum-plane-text"] = lines
    if payload["all_verified"]:
        return passed("quantum-plane-report", 0)
    return failed("quantum-plane-report", "symbolic display did not match the "
                  "computed connection", 0)


@dataclass(frozen=True)
class Check:
    """One registry row; ``run(objects, scenario, report)`` gives the result."""
    name: str
    group: str
    gates: tuple[str, ...]
    run: Callable[[BuiltObjects, Scenario, Report], CheckResult]


_F_COMPAT = ("f-connection-compat",)
_BIMODULE_HYPOTHESES = (
    "f-connection-compat", "e-connection-compat", "right-module-twist",
    "left-module-twist", "bimodule-connection-x", "bimodule-connection-y",
    "swap-compat-e", "swap-compat-f", "bimodule-axiom")

# Rows call the check_* functions through module globals looked up at call
# time, so that rebinding a module-level name (as an outside tracer does)
# reaches every run.  Groups appear in the order of ``scenario.KNOWN_CHECKS``.
CHECKS: tuple[Check, ...] = (
    Check("twist-axioms", "axioms", (),
          lambda o, s, r: check_twist_axioms(o.twist, s.caps)),
    Check("lift-compat", "axioms", (),
          lambda o, s, r: check_lift_compat(o.twist, s.caps)),
    Check("dga-laws", "axioms", (),
          lambda o, s, r: check_dga_laws(o.twist, s.caps)),
    Check("right-module-twist", "axioms", (),
          lambda o, s, r: check_right_module_twist(o.rmt, s.caps)),
    Check("left-module-twist", "axioms", (),
          lambda o, s, r: check_left_module_twist(o.lmt, s.caps)),
    Check("derived-compat", "axioms", (),
          lambda o, s, r: check_derived_conditions(o.rmt, s.caps)),
    Check("f-connection-compat", "hypotheses", (),
          lambda o, s, r: check_twist_connection_compat(o.twist, o.rmt,
                                                        o.conn_f, s.caps)),
    Check("leibniz", "leibniz", _F_COMPAT,
          lambda o, s, r: check_connection_leibniz(o.pc, s.caps, seed=s.seed)),
    Check("curvature-formula", "theorem", _F_COMPAT,
          lambda o, s, r: check_curvature_formula(o.pc, s.caps, seed=s.seed)),
    Check("flatness", "flatness", (),
          lambda o, s, r: check_flatness(o.pc, s.caps)),
    Check("independence", "independence", (), _independence),
    Check("curvature-payload", "curvature", (), _curvature_payload),
    Check("quantum-plane-report", "report", (), _quantum_plane_report),
    Check("e-connection-compat", "bimodule", (),
          lambda o, s, r: check_left_twist_connection_compat(
              o.twist, o.lmt, o.conn_e, s.caps)),
    Check("bimodule-connection-x", "bimodule", (),
          lambda o, s, r: check_bimodule_connection(o.conn_e, o.swap_e, s.caps)),
    Check("bimodule-connection-y", "bimodule", (),
          lambda o, s, r: check_bimodule_connection(o.conn_f, o.swap_f, s.caps)),
    Check("swap-compat-e", "bimodule", (),
          lambda o, s, r: check_swap_compat_e(o.product_swap, s.caps)),
    Check("swap-compat-f", "bimodule", (),
          lambda o, s, r: check_swap_compat_f(o.product_swap, s.caps)),
    Check("swap-cross-morphisms", "bimodule", (),
          lambda o, s, r: check_swap_cross_morphisms(o.product_swap, s.caps)),
    Check("bimodule-axiom", "bimodule", (),
          lambda o, s, r: check_bimodule_axiom(o.twist, o.rmt, o.lmt, s.m,
                                               s.caps)),
    Check("bimodule-theorem", "bimodule", _BIMODULE_HYPOTHESES,
          lambda o, s, r: check_bimodule_theorem(o.pc, o.product_swap,
                                                 s.caps)),
)

# the groups each group needs to have run first; resolved transitively
PREREQUISITES: dict[str, tuple[str, ...]] = {
    "hypotheses": ("axioms",),
    "leibniz": ("hypotheses",),
    "theorem": ("hypotheses",),
    "curvature": ("hypotheses",),
    "report": ("hypotheses",),
    "bimodule": ("hypotheses",),
    "independence": ("hypotheses",),
}

_BY_NAME = {check.name: check for check in CHECKS}


def resolve_checks(requested: list[str]) -> list[str]:
    """Expand check groups into concrete check names, dependencies first."""
    groups: list[str] = []

    def add_group(group: str):
        for dep in PREREQUISITES.get(group, ()):
            add_group(dep)
        if group not in groups:
            groups.append(group)

    for group in requested:
        add_group(group)
    names = [c.name for group in groups for c in CHECKS if c.group == group]
    unknown = set(groups) - {c.group for c in CHECKS}
    if unknown:
        raise ValueError(f"unknown check groups: {', '.join(sorted(unknown))}")
    return names


def run_checks(s: Scenario, requested: list[str] | None = None) -> Report:
    """Execute the requested check groups and assemble the report."""
    started = time.perf_counter()
    objs = build_objects(s)
    report = Report(config=s.config_echo())
    for name in resolve_checks(requested if requested is not None else s.checks):
        check = _BY_NAME[name]
        blocked = [dep for dep in check.gates
                   if (res := report.find(dep)) is not None and not res.passed]
        if blocked:
            report.add(inadmissible(name, f"hypothesis failed: {blocked[0]}"))
        else:
            report.add(check.run(objs, s, report))
    report.elapsed = time.perf_counter() - started
    return report
