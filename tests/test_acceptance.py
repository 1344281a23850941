"""Acceptance suite: one test per criterion, exact verification throughout.

Each criterion prints a single pass/fail line (visible with ``pytest -s``;
the per-test PASSED/FAILED lines of ``pytest -v`` carry the same
information).  Multi-argument identity checks bound the total degree of the
tuple by the degree cap and, for triples, the total letter count by a
fixed budget; single-object checks run per-word caps.
"""

import time
from fractions import Fraction

import pytest

from twistconn.bimodule import (ProductSwap, check_bimodule_axiom,
                                check_bimodule_theorem,
                                check_left_twist_connection_compat,
                                check_swap_compat_e, check_swap_compat_f,
                                check_swap_cross_morphisms)
from twistconn.connections import (FormSwap, ModuleConnection,
                                   check_bimodule_connection)
from twistconn.forms import Caps, Form, parse_form
from twistconn.scenario import ScenarioError, load_scenario
from twistconn.tdga import ProductForm
from twistconn.twist import (AlgebraTwist, LeftModuleTwist, RightModuleTwist,
                             check_dga_laws, check_lift_compat,
                             check_right_module_twist, check_twist_axioms)
from twistconn.product import (ProductConnection,
                               check_connection_leibniz,
                               check_curvature_formula,
                               check_twist_connection_compat,
                               check_twist_independence, iter_naive_basis,
                               naive_vector, quantum_plane_report)

import twistconn.twist as twist_module
from oracles import classical_product_nabla

FULL_CAPS = Caps(4, 3)
PRODUCT_CAPS = Caps(3, 2)
BIMODULE_CAPS = Caps(2, 1)
Q_VALUES = [Fraction(1), Fraction(2), Fraction(-1), Fraction(3, 2)]
UT = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]


def report_line(criterion: int, label: str, ok: bool):
    print(f"ACCEPTANCE {criterion:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {criterion}: {label}"


@pytest.mark.parametrize("q", Q_VALUES, ids=str)
def test_criterion_01_twisting_axioms(q):
    """Unit/multiplicativity and differential compatibility, under 10s."""
    twist = AlgebraTwist(q)
    started = time.perf_counter()
    axioms = check_twist_axioms(twist, FULL_CAPS)
    lift = check_lift_compat(twist, FULL_CAPS)
    elapsed = time.perf_counter() - started
    ok = axioms.passed and lift.passed and elapsed < 10.0
    assert (axioms.cases, lift.cases) == (355560, 29300)
    report_line(1, f"twisting axioms at q={q} "
                   f"({axioms.cases + lift.cases} cases, {elapsed:.1f}s)", ok)


@pytest.mark.parametrize("q", Q_VALUES, ids=str)
def test_criterion_02_dga_laws(q):
    """Associativity, graded Leibniz, d^2=0, and the commutation relation."""
    result = check_dga_laws(AlgebraTwist(q), FULL_CAPS)
    assert result.cases == 252286
    report_line(2, f"product-calculus laws at q={q} ({result.cases} cases)",
                result.passed)


def _admissible_scenarios():
    twist = AlgebraTwist(2)
    out = []
    rmt1 = RightModuleTwist(twist, rank=1)
    out.append(("grassmann, canonical twist", ProductConnection(
        twist, rmt1, ModuleConnection.grassmann("x", 1),
        ModuleConnection.grassmann("y", 1))))
    rmt_ut = RightModuleTwist(twist, UT)
    out.append(("grassmann, mixing matrix", ProductConnection(
        twist, rmt_ut, ModuleConnection.grassmann("x", 1),
        ModuleConnection.grassmann("y", 2))))
    conn_e = ModuleConnection("x", 1, [[parse_form("x", "x dx")]])
    out.append(("nonzero first potential", ProductConnection(
        twist, rmt1, conn_e, ModuleConnection.grassmann("y", 1))))
    return out


def test_criterion_03_connection_property():
    """Right Leibniz rule on bounded bases for hypothesis-passing scenarios."""
    for label, pc in _admissible_scenarios():
        compat = check_twist_connection_compat(pc.twist, pc.rmt, pc.conn_f,
                                               PRODUCT_CAPS)
        assert compat.passed, f"{label}: hypotheses must pass first"
        result = check_connection_leibniz(pc, PRODUCT_CAPS, seed=0)
        report_line(3, f"connection property: {label} ({result.cases} cases)",
                    result.passed)


def test_criterion_04_curvature_theorem():
    """Blockwise curvature formula, including the pinned symbolic value."""
    for label, pc in _admissible_scenarios():
        result = check_curvature_formula(pc, PRODUCT_CAPS, seed=0)
        report_line(4, f"curvature formula: {label} ({result.cases} cases)",
                    result.passed)
    twist = AlgebraTwist(2)
    conn_e = ModuleConnection("x", 1, [[parse_form("x", "x dx")]])
    theta = conn_e.curvature_matrix()[0][0]
    ok = theta == parse_form("x", "dx dx + x dx x dx")
    pc = ProductConnection(twist, RightModuleTwist(twist, rank=1), conn_e,
                           ModuleConnection.grassmann("y", 1))
    curv = pc.curvature(naive_vector(pc.m, pc.rmt, "e", 0, 0, 1))
    expected = ProductForm({(w, (1,)): c for w, c in theta.terms.items()})
    ok = ok and curv.e[0] == expected and all(w.is_zero for w in curv.f)
    report_line(4, "pinned value: curvature of e_1 ⊗ y under x dx potential",
                ok)


def test_criterion_05_twist_independence():
    """Curvature tables agree for the two admissible mixing matrices."""
    twist = AlgebraTwist(2)
    conn_e = ModuleConnection("x", 1, [[parse_form("x", "x dx")]])
    conn_f = ModuleConnection.grassmann("y", 2)
    rmt1 = RightModuleTwist(twist, rank=2)
    pc = ProductConnection(twist, rmt1, conn_e, conn_f)
    result = check_twist_independence(
        pc, RightModuleTwist(twist, UT), PRODUCT_CAPS,
        check_right_module_twist(rmt1, PRODUCT_CAPS),
        check_twist_connection_compat(twist, rmt1, conn_f, PRODUCT_CAPS))
    report_line(5, f"curvature independent of the module twist "
                   f"({result.cases} inputs)", result.passed)


@pytest.mark.parametrize("q", [Fraction(1), Fraction(2), Fraction(-1)], ids=str)
def test_criterion_06_flatness(q):
    """Products of the flat connections are flat."""
    twist = AlgebraTwist(q)
    pc = ProductConnection(twist, RightModuleTwist(twist, UT),
                           ModuleConnection.grassmann("x", 2),
                           ModuleConnection.grassmann("y", 2))
    ok = True
    count = 0
    for label, pv in iter_naive_basis(pc.m, pc.rmt, PRODUCT_CAPS):
        count += 1
        if not pc.curvature(pv).is_zero:
            ok = False
            break
    report_line(6, f"flatness of the Grassmann product at q={q} "
                   f"({count} inputs)", ok)


def test_criterion_07_quantum_plane_report():
    """Symbolic display matches the computed connection, coefficient for
    coefficient, and the potential report carries the hypothesis verdict."""
    twist = AlgebraTwist(2)
    pc = ProductConnection(twist, RightModuleTwist(twist, rank=2),
                           ModuleConnection.grassmann("x", 1),
                           ModuleConnection.grassmann("y", 2))
    compat = check_twist_connection_compat(twist, pc.rmt, pc.conn_f,
                                           PRODUCT_CAPS)
    payload, lines = quantum_plane_report(pc, PRODUCT_CAPS, compat,
                                          f_exponents=[1, 2], remark_power=2)
    display = payload["grassmann_display"]
    ok = display["verified"]
    ok = ok and display["inverse_twist_coefficients"] == \
        {"f_1": "1/2", "f_2": "1/4"}
    ok = ok and "1 ⊗ (q^-1 y, q^-2 y^2) ⊗ dx ⊗ 1" in display["formula"]
    ok = ok and payload["rescaling_display"]["verified"]
    report_line(7, "quantum-plane display with inverse q-power coefficients",
                ok)

    conn_e = ModuleConnection("x", 1, [[parse_form("x", "x dx")]])
    conn_f = ModuleConnection("y", 2, [[Form.d_gen("y"), Form.zero("y")],
                                       [Form.zero("y"), Form.zero("y")]])
    pc2 = ProductConnection(twist, RightModuleTwist(twist, rank=2), conn_e,
                            conn_f)
    compat2 = check_twist_connection_compat(twist, pc2.rmt, conn_f, Caps(2, 2))
    payload2, _ = quantum_plane_report(pc2, Caps(2, 2), compat2)
    decomposition = payload2["potential_decomposition"]
    ok = decomposition["verified"] and decomposition["compat_verdict"] == "fail"
    ok = ok and payload2["all_verified"]
    report_line(7, "general-potential decomposition with hypothesis verdict",
                ok)


def test_criterion_08_classical_specialization():
    """q = 1 with identity matrices reproduces the untwisted formula."""
    twist = AlgebraTwist(1)
    rmt = RightModuleTwist(twist, rank=2)
    conn_e = ModuleConnection("x", 2, [
        [parse_form("x", "dx"), parse_form("x", "x dx")],
        [parse_form("x", "dx x"), Form.zero("x")]])
    conn_f = ModuleConnection("y", 2, [
        [parse_form("y", "y dy"), Form.zero("y")],
        [Form.zero("y"), parse_form("y", "dy")]])
    pc = ProductConnection(twist, rmt, conn_e, conn_f)
    ok = True
    count = 0
    for label, pv in iter_naive_basis(pc.m, pc.rmt, PRODUCT_CAPS):
        count += 1
        out = pc.nabla(pv)
        e_cl, f_cl = classical_product_nabla(conn_e.potential, conn_f.potential,
                                             list(pv.e), list(pv.f))
        if list(out.e) != e_cl or list(out.f) != f_cl:
            ok = False
            break
    report_line(8, f"classical product connection at q=1 ({count} inputs)", ok)


def _bimodule_config(q, swap_e=None):
    twist = AlgebraTwist(q)
    rmt = RightModuleTwist(twist, rank=1)
    lmt = LeftModuleTwist(twist, rank=1)
    conn_e = ModuleConnection.grassmann("x", 1)
    conn_f = ModuleConnection.grassmann("y", 1)
    ps = ProductSwap(twist, rmt, lmt, swap_e or FormSwap.flip("x", 1),
                     FormSwap.flip("y", 1))
    pc = ProductConnection(twist, rmt, conn_e, conn_f)
    return twist, rmt, lmt, conn_e, conn_f, pc, ps


def test_criterion_09_bimodule_suite():
    """Classical case passes fully; lemma biconditionals hold both ways."""
    twist, rmt, lmt, conn_e, conn_f, pc, ps = _bimodule_config(1)
    prereqs = [
        check_right_module_twist(rmt, BIMODULE_CAPS),
        check_twist_connection_compat(twist, rmt, conn_f, BIMODULE_CAPS),
        check_left_twist_connection_compat(twist, lmt, conn_e, BIMODULE_CAPS),
        check_bimodule_connection(conn_e, ps.swap_e, BIMODULE_CAPS),
        check_bimodule_connection(conn_f, ps.swap_f, BIMODULE_CAPS),
        check_swap_compat_e(ps, BIMODULE_CAPS),
        check_swap_compat_f(ps, BIMODULE_CAPS),
        check_swap_cross_morphisms(ps, BIMODULE_CAPS),
        check_bimodule_axiom(ps, BIMODULE_CAPS),
    ]
    theorem = check_bimodule_theorem(pc, ps, BIMODULE_CAPS)
    ok = all(r.passed for r in prereqs) and theorem.passed
    report_line(9, "classical bimodule suite at q=1", ok)

    _, _, _, _, _, _, ps2 = _bimodule_config(2)
    res_e = check_swap_compat_e(ps2, BIMODULE_CAPS)
    res_f = check_swap_compat_f(ps2, BIMODULE_CAPS)
    ok = res_e.passed and res_f.passed
    ok = ok and res_e.detail["equivalence_agrees"]
    ok = ok and res_f.detail["equivalence_agrees"]
    report_line(9, "lemma biconditionals agree on a q=2 configuration", ok)

    broken = FormSwap("x", 1, [[parse_form("x", "dx + x dx")]])
    *_, ps3 = _bimodule_config(2, swap_e=broken)
    res = check_swap_compat_e(ps3, BIMODULE_CAPS)
    ok = res.failed and res.detail["equation"] == "fail"
    ok = ok and res.detail["left_morphism"] == "fail"
    ok = ok and res.detail["equivalence_agrees"]
    report_line(9, "broken swap fails the equation and the morphism together",
                ok)


def test_criterion_10_negative_controls(monkeypatch):
    """Deliberate corruptions are caught with explicit witnesses."""
    twist = AlgebraTwist(2)
    kernel = twist_module.word_twist

    def corrupt(wy, wx):  # one q too many on y^2 ⊗ x
        sign, e = kernel(wy, wx)
        return (sign, e + 1) if (wy, wx) == ((2,), (1,)) else (sign, e)

    with monkeypatch.context() as patched:
        patched.setattr(twist_module, "word_twist", corrupt)
        result = check_twist_axioms(twist, Caps(2, 1))
    ok = result.failed and "product-left" in result.detail["failed_axioms"]
    report_line(10, "corrupted twisting map fails multiplicativity", ok)

    rmt = RightModuleTwist(twist, rank=1)
    conn_f = ModuleConnection("y", 1, [[Form.d_gen("y")]])
    result = check_twist_connection_compat(twist, rmt, conn_f, Caps(2, 2))
    ok = result.failed and result.witness is not None and "x^1" in result.witness
    report_line(10, "first-order potential fails the compatibility hypothesis",
                ok)

    try:
        load_scenario("n: 2\n[S]\n1 1\n1 1\n")
        ok = False
    except ScenarioError as exc:
        ok = "not invertible" in str(exc)
    report_line(10, "singular mixing matrix rejected at load time", ok)
