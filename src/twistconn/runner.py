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

A run imports only the layers its checks use: the rows call each check
function through its defining module when they run, and ``BuiltObjects``
builds the connections and swaps on first use.
"""

from __future__ import annotations

import time
from functools import cached_property
from importlib import import_module
from typing import Callable, NamedTuple

from .forms import Caps
from .reports import NOT_GUARANTEED, CheckResult, Report, failed, \
    inadmissible, passed
from .scenario import Scenario
from .twist import AlgebraTwist, LeftModuleTwist, RightModuleTwist


class _Module:
    """A module of this package, imported on first use; each attribute is
    read when used, so a rebound module-level name reaches every run."""

    def __init__(self, name: str):
        self.name = f"{__package__}.{name}"

    def __getattr__(self, attr: str):
        return getattr(import_module(self.name), attr)


twist, connections, product, bimodule = (
    _Module(name) for name in ("twist", "connections", "product", "bimodule"))


class BuiltObjects:
    """The scenario's objects: the twists at once, the rest on first use."""

    def __init__(self, s: Scenario):
        self.scenario = s
        self.twist = AlgebraTwist(s.q)
        self.rmt = RightModuleTwist(self.twist, s.s_matrix, rank=s.n)
        self.rmt_alt = (RightModuleTwist(self.twist, s.s_alt)
                        if s.s_alt is not None else None)
        self.lmt = LeftModuleTwist(self.twist, s.t_matrix, rank=s.m)

    def _swap(self, gen: str, rank: int, which: str):
        values = self.scenario.swap_matrix(which)
        return connections.FormSwap.flip(gen, rank) if values is None \
            else connections.FormSwap(gen, rank, values)

    @cached_property
    def conn_e(self):
        return connections.ModuleConnection(
            "x", self.scenario.m, self.scenario.potential_matrix("e"))

    @cached_property
    def conn_f(self):
        return connections.ModuleConnection(
            "y", self.scenario.n, self.scenario.potential_matrix("f"))

    @cached_property
    def swap_e(self):
        return self._swap("x", self.scenario.m, "e")

    @cached_property
    def swap_f(self):
        return self._swap("y", self.scenario.n, "f")

    @cached_property
    def pc(self):
        return product.ProductConnection(self.twist, self.rmt, self.conn_e,
                                         self.conn_f)

    @cached_property
    def product_swap(self):
        return bimodule.ProductSwap(self.twist, self.rmt, self.lmt,
                                    self.swap_e, self.swap_f)


def build_objects(s: Scenario) -> BuiltObjects:
    return BuiltObjects(s)


def _independence(o: BuiltObjects, s: Scenario, report: Report) -> CheckResult:
    if o.rmt_alt is None:
        return inadmissible("independence",
                            "no alternate mixing matrix ([S_alt]) given")
    # the group prerequisites have decided the first twist's admissibility
    return product.check_twist_independence(
        o.pc, o.rmt_alt, s.caps, report.find("right-module-twist"),
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
        for label, pv in product.iter_naive_basis(s.m, o.rmt, small)}
    report.payloads["curvature"] = payload
    # the group prerequisites have run f-connection-compat before this check
    if not report.find("f-connection-compat").passed:
        return CheckResult("curvature-payload", NOT_GUARANTEED,
                           witness="hypotheses violated; symbolic output only")
    return passed("curvature-payload", 0)


def _quantum_plane_report(o: BuiltObjects, s: Scenario,
                          report: Report) -> CheckResult:
    # the group prerequisites have run f-connection-compat before this check
    payload, lines = product.quantum_plane_report(
        o.pc, s.caps, report.find("f-connection-compat"),
        f_exponents=s.f_exponents, remark_power=s.remark_power)
    report.payloads["quantum-plane"] = payload
    report.payloads["quantum-plane-text"] = lines
    if payload["all_verified"]:
        return passed("quantum-plane-report", 0)
    return failed("quantum-plane-report", "symbolic display did not match the "
                  "computed connection", 0)


class Check(NamedTuple):
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

# Groups appear in the order of ``scenario.KNOWN_CHECKS``.
CHECKS: tuple[Check, ...] = (
    Check("twist-axioms", "axioms", (),
          lambda o, s, r: twist.check_twist_axioms(o.twist, s.caps)),
    Check("lift-compat", "axioms", (),
          lambda o, s, r: twist.check_lift_compat(o.twist, s.caps)),
    Check("dga-laws", "axioms", (),
          lambda o, s, r: twist.check_dga_laws(o.twist, s.caps)),
    Check("right-module-twist", "axioms", (),
          lambda o, s, r: twist.check_right_module_twist(o.rmt, s.caps)),
    Check("left-module-twist", "axioms", (),
          lambda o, s, r: twist.check_left_module_twist(o.lmt, s.caps)),
    Check("derived-compat", "axioms", (),
          lambda o, s, r: twist.check_derived_conditions(o.rmt, s.caps)),
    Check("f-connection-compat", "hypotheses", (),
          lambda o, s, r: product.check_twist_connection_compat(
              o.twist, o.rmt, o.conn_f, s.caps)),
    Check("leibniz", "leibniz", _F_COMPAT,
          lambda o, s, r: product.check_connection_leibniz(o.pc, s.caps,
                                                           seed=s.seed)),
    Check("curvature-formula", "theorem", _F_COMPAT,
          lambda o, s, r: product.check_curvature_formula(o.pc, s.caps,
                                                          seed=s.seed)),
    Check("flatness", "flatness", (),
          lambda o, s, r: product.check_flatness(o.pc, s.caps)),
    Check("independence", "independence", (), _independence),
    Check("curvature-payload", "curvature", (), _curvature_payload),
    Check("quantum-plane-report", "report", (), _quantum_plane_report),
    Check("e-connection-compat", "bimodule", (),
          lambda o, s, r: bimodule.check_left_twist_connection_compat(
              o.twist, o.lmt, o.conn_e, s.caps)),
    Check("bimodule-connection-x", "bimodule", (),
          lambda o, s, r: connections.check_bimodule_connection(
              o.conn_e, o.swap_e, s.caps)),
    Check("bimodule-connection-y", "bimodule", (),
          lambda o, s, r: connections.check_bimodule_connection(
              o.conn_f, o.swap_f, s.caps)),
    Check("swap-compat-e", "bimodule", (),
          lambda o, s, r: bimodule.check_swap_compat_e(o.product_swap, s.caps)),
    Check("swap-compat-f", "bimodule", (),
          lambda o, s, r: bimodule.check_swap_compat_f(o.product_swap, s.caps)),
    Check("swap-cross-morphisms", "bimodule", (),
          lambda o, s, r: bimodule.check_swap_cross_morphisms(o.product_swap,
                                                              s.caps)),
    Check("bimodule-axiom", "bimodule", (),
          lambda o, s, r: bimodule.check_bimodule_axiom(o.product_swap, s.caps)),
    Check("bimodule-theorem", "bimodule", _BIMODULE_HYPOTHESES,
          lambda o, s, r: bimodule.check_bimodule_theorem(o.pc, o.product_swap,
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
