"""The product module, the product connection, and the curvature theorem."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from twistconn import product, runner
from twistconn.connections import ModuleConnection
from twistconn.forms import Caps, Form, parse_form
from twistconn.tdga import ProductForm, embed_y
from twistconn.twist import (AlgebraTwist, RightModuleTwist,
                             check_right_module_twist)
from twistconn.product import (ProductConnection, ProductVector, act_right,
                               check_connection_leibniz,
                               check_curvature_formula, check_flatness,
                               check_twist_connection_compat,
                               check_twist_independence, curvature_formula_rhs,
                               f_free_to_naive, f_naive_to_free,
                               quantum_plane_report, random_degree0_vector,
                               reduced_presentation)
from twistconn.scenario import load_scenario_file

from oracles import classical_product_nabla

Q2 = AlgebraTwist(2)
UT = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
CAPS = Caps(2, 2)


def grassmann_pc(twist, m=1, n=1, matrix=None):
    rmt = RightModuleTwist(twist, matrix, rank=n)
    return ProductConnection(twist, rmt,
                             ModuleConnection.grassmann("x", m),
                             ModuleConnection.grassmann("y", n))


def potential_pc(twist, e_entry="x dx", n=1, matrix=None):
    rmt = RightModuleTwist(twist, matrix, rank=n)
    conn_e = ModuleConnection("x", 1, [[parse_form("x", e_entry)]])
    return ProductConnection(twist, rmt, conn_e,
                             ModuleConnection.grassmann("y", n))


def first_twist(rmt, conn_f, caps):
    """The first twist's admissibility results, as a report holds them."""
    return (check_right_module_twist(rmt, caps),
            check_twist_connection_compat(rmt.twist, rmt, conn_f, caps))


class TestCoordinates:
    def test_naive_round_trip(self):
        rmt = RightModuleTwist(Q2, UT)
        rng = random.Random(5)
        for _ in range(20):
            coords = list(random_degree0_vector(rng, 0, 2, Caps(3, 1)).f)
            naive = f_free_to_naive(rmt, coords)
            assert f_naive_to_free(rmt, naive) == coords

    def test_mixing_by_matrix_powers(self):
        rmt = RightModuleTwist(Q2, UT)
        free = [ProductForm.monomial(2, 0), ProductForm.zero()]
        naive = f_free_to_naive(rmt, free)
        # (S^2) row for slot 0 is (1, 2)
        assert naive[0] == ProductForm.monomial(2, 0)
        assert naive[1] == ProductForm.monomial(2, 0, 2)

    def test_rejects_positive_degree(self):
        rmt = RightModuleTwist(Q2, rank=1)
        with pytest.raises(ValueError):
            f_free_to_naive(rmt, [ProductForm.pair((0, 0), (0,))])

    def test_one_form_goes_back_by_its_letters(self):
        # x dx ⊗ y has two x-letters, so slot 0 goes back by row 0 of S^{-2}
        rmt = RightModuleTwist(Q2, [[2, 1], [1, 1]])
        assert list(rmt.matrix_power(-2)[0]) == [2, -3]
        term = ProductForm.pair((1, 0), (1,))
        assert f_naive_to_free(rmt, [term, ProductForm.zero()]) == \
            [term.scale(2), term.scale(-3)]


class TestRightAction:
    def test_e_block_regular(self):
        pv = ProductVector.e_basis(1, 1, 0)
        out = act_right(Q2, pv, ProductForm.monomial(1, 1))
        assert out.e[0] == ProductForm.monomial(1, 1)

    def test_f_block_plain_x(self):
        pc = grassmann_pc(Q2)
        pv = pc.f_naive_basis(0, 0, 0)
        out = act_right(Q2, pv, ProductForm.monomial(1, 0))
        assert f_free_to_naive(pc.rmt, out.f)[0] == ProductForm.monomial(1, 0)

    def test_f_block_crossing_picks_up_q(self):
        pc = grassmann_pc(Q2)
        pv = pc.f_naive_basis(0, 0, 1)  # 1 ⊗ f_1 y
        out = act_right(Q2, pv, ProductForm.monomial(1, 0))
        assert out.f[0] == ProductForm.monomial(1, 1, 2)

    def test_degree_validated(self):
        pv = ProductVector.e_basis(1, 1, 0)
        with pytest.raises(ValueError):
            act_right(Q2, pv, ProductForm.pair((0, 0), (0,)))

    def test_associative_unital(self):
        pc = grassmann_pc(Q2, n=2, matrix=UT)
        pv = pc.f_naive_basis(0, 1, 1)
        w1 = ProductForm.monomial(1, 0)
        w2 = ProductForm.monomial(0, 2)
        lhs = act_right(Q2, act_right(Q2, pv, w1), w2)
        rhs = act_right(Q2, pv, Q2.mul(w1, w2))
        assert lhs == rhs
        assert act_right(Q2, pv, ProductForm.unit()) == pv


class TestBlockMaps:
    def test_first_block_grassmann_is_differential(self):
        pc = grassmann_pc(Q2, m=2)
        coords = [ProductForm.monomial(2, 1), ProductForm.monomial(0, 3)]
        pv = ProductVector(coords, [ProductForm.zero()])
        out = pc.nabla1(pv)
        assert list(out.e) == [c.d() for c in coords]
        assert all(w.is_zero for w in out.f)

    def test_first_block_unit_kernel(self):
        pc = grassmann_pc(Q2)
        out = pc.nabla1(ProductVector.e_basis(1, 1, 0))
        assert out.is_zero

    def test_first_block_y_coordinate(self):
        pc = grassmann_pc(Q2)
        pv = ProductVector.e_basis(1, 1, 0, ProductForm.monomial(0, 1))
        assert pc.nabla1(pv).e[0] == ProductForm.pair((0,), (0, 0))

    def test_second_block_generator_formula(self):
        # x ⊗ (y^{i_1}, y^{i_2}) for the product of Grassmann connections
        pc = grassmann_pc(Q2, n=2)
        exponents = [1, 2]
        naive = [ProductForm.monomial(1, ik) for ik in exponents]
        pv = ProductVector([ProductForm.zero()], f_naive_to_free(pc.rmt, naive))
        out = pc.nabla2(pv)
        for k, ik in enumerate(exponents):
            d_y = Form.gen_power("y", ik).d()
            expected = ProductForm({((1,), wv): c for wv, c in d_y.terms.items()})
            # inverse-twist term q^{-i_k}(1 ⊗ f_k y^{i_k}).(dx ⊗ 1),
            # whose free normal form is dx ⊗ y^{i_k}
            expected = expected + ProductForm.pair((0, 0), (ik,))
            assert out.f[k] == expected

    def test_second_block_unit_kernel(self):
        pc = grassmann_pc(Q2)
        assert pc.nabla2(pc.f_naive_basis(0, 0, 0)).is_zero

    def test_second_block_rescaling_form(self):
        # x^j ⊗ f_1 b picks up b(q^{-j} y) next to d(x^j)
        pc = grassmann_pc(Q2)
        b = parse_form("y", "1 + y^2")
        naive = [Q2.mul(ProductForm.monomial(2, 0), embed_y(b))]
        pv = ProductVector([ProductForm.zero()], f_naive_to_free(pc.rmt, naive))
        out = pc.nabla2(pv)
        dx2 = ProductForm({(wv, (0,)): c
                           for wv, c in Form.gen_power("x", 2).d().terms.items()})
        scaled = b.scaled_generator(Fraction(1, 4))
        expected = Q2.mul(embed_y(scaled), dx2) + \
            Q2.mul(ProductForm.monomial(2, 0), embed_y(b.d()))
        assert out.f[0] == expected


class TestProductNabla:
    def test_all_grassmann_is_componentwise_differential(self):
        pc = grassmann_pc(Q2, m=2, n=2, matrix=UT)
        rng = random.Random(1)
        for _ in range(15):
            pv = random_degree0_vector(rng, 2, 2, Caps(2, 1))
            out = pc.nabla(pv)
            assert list(out.e) == [w.d() for w in pv.e]
            assert list(out.f) == [w.d() for w in pv.f]

    def test_zero_maps_to_zero(self):
        pc = potential_pc(Q2)
        assert pc.nabla(pc.zero_vector()).is_zero

    def test_classical_specialization(self):
        # q = 1 with identity mixing agrees with the untwisted formula
        twist = AlgebraTwist(1)
        rmt = RightModuleTwist(twist, rank=2)
        conn_e = ModuleConnection("x", 2, [
            [parse_form("x", "dx"), parse_form("x", "x dx")],
            [Form.zero("x"), Form.zero("x")]])
        conn_f = ModuleConnection("y", 2, [
            [parse_form("y", "dy"), Form.zero("y")],
            [Form.zero("y"), parse_form("y", "y dy")]])
        pc = ProductConnection(twist, rmt, conn_e, conn_f)
        rng = random.Random(7)
        for _ in range(10):
            pv = random_degree0_vector(rng, 2, 2, Caps(2, 1))
            out = pc.nabla(pv)
            e_cl, f_cl = classical_product_nabla(
                conn_e.potential, conn_f.potential, list(pv.e), list(pv.f))
            assert list(out.e) == e_cl
            assert list(out.f) == f_cl


class TestCurvature:
    def test_flat_product(self):
        pc = grassmann_pc(Q2, n=2, matrix=UT)
        for label, pv in [("e", pc.e_naive_basis(0, 1, 2)),
                          ("f", pc.f_naive_basis(1, 2, 1))]:
            assert pc.curvature(pv).is_zero, label

    def test_single_potential_value(self):
        pc = potential_pc(Q2)
        out = pc.curvature(pc.e_naive_basis(0, 0, 1))
        expected = ProductForm(
            {(wv, (1,)): c
             for wv, c in parse_form("x", "dx dx + x dx x dx").terms.items()})
        assert out.e[0] == expected
        assert all(w.is_zero for w in out.f)

    def test_f_only_input_stays_flat(self):
        pc = potential_pc(Q2)
        assert pc.curvature(pc.f_naive_basis(0, 1, 2)).is_zero

    def test_block_diagonal(self):
        twist = AlgebraTwist(2)
        rmt = RightModuleTwist(twist, rank=1)
        conn_e = ModuleConnection("x", 1, [[parse_form("x", "x dx")]])
        conn_f = ModuleConnection("y", 1, [[parse_form("y", "y dy y")]])
        pc = ProductConnection(twist, rmt, conn_e, conn_f)
        out_e = pc.curvature(pc.e_naive_basis(0, 1, 1))
        assert all(w.is_zero for w in out_e.f)
        out_f = pc.curvature(pc.f_naive_basis(0, 1, 1))
        assert all(w.is_zero for w in out_f.e)

    def test_formula_rhs_matches(self):
        pc = potential_pc(Q2, n=2, matrix=UT)
        rng = random.Random(3)
        for _ in range(10):
            pv = random_degree0_vector(rng, 1, 2, Caps(2, 1))
            assert pc.curvature(pv) == curvature_formula_rhs(pc, pv)


class TestHypothesisChecker:
    def test_grassmann_passes_any_mixing(self):
        for matrix in (None, UT):
            rmt = RightModuleTwist(Q2, matrix, rank=2)
            conn_f = ModuleConnection.grassmann("y", 2)
            assert check_twist_connection_compat(Q2, rmt, conn_f, CAPS).passed

    def test_dy_potential_fails_at_generic_q(self):
        rmt = RightModuleTwist(Q2, rank=1)
        conn_f = ModuleConnection("y", 1, [[Form.d_gen("y")]])
        result = check_twist_connection_compat(Q2, rmt, conn_f, CAPS)
        assert result.failed
        assert "f_1" in result.witness and "x^1" in result.witness

    def test_any_potential_passes_at_q_one(self):
        twist = AlgebraTwist(1)
        rmt = RightModuleTwist(twist, rank=1)
        conn_f = ModuleConnection("y", 1, [[parse_form("y", "dy + y dy")]])
        assert check_twist_connection_compat(twist, rmt, conn_f, CAPS).passed

    def test_even_weight_passes_at_minus_one(self):
        # every potential word has two letters, so (-1)^{2i} = 1
        twist = AlgebraTwist(-1)
        rmt = RightModuleTwist(twist, rank=1)
        conn_f = ModuleConnection("y", 1, [[parse_form("y", "y dy")]])
        assert check_twist_connection_compat(twist, rmt, conn_f, CAPS).passed


class TestTheoremChecks:
    def test_leibniz_bounded(self):
        for pc in (grassmann_pc(Q2, n=2, matrix=UT), potential_pc(Q2)):
            assert check_connection_leibniz(pc, CAPS, seed=1).passed

    def test_curvature_formula_bounded(self):
        for pc in (grassmann_pc(Q2), potential_pc(Q2, n=2, matrix=UT)):
            assert check_curvature_formula(pc, CAPS, seed=1).passed

    def test_flatness(self):
        assert check_flatness(grassmann_pc(Q2), CAPS).passed
        result = check_flatness(potential_pc(Q2), CAPS)
        assert result.verdict == "inadmissible"

    def test_independence_agreement(self):
        conn_e = ModuleConnection("x", 1, [[parse_form("x", "x dx")]])
        conn_f = ModuleConnection.grassmann("y", 2)
        rmt1 = RightModuleTwist(Q2, rank=2)
        rmt2 = RightModuleTwist(Q2, UT)
        result = check_twist_independence(Q2, conn_e, conn_f, rmt1, rmt2, CAPS,
                                          *first_twist(rmt1, conn_f, CAPS))
        assert result.passed

    @pytest.mark.parametrize("block,witness,cases", [
        ("e", "e-input e_1 x^0 ⊗ y^0", 1),
        ("f", "f-input x^0 ⊗ f_1 y^0", 10)])
    def test_independence_witness_names_the_block(self, monkeypatch, block,
                                                  witness, cases):
        conn_e = ModuleConnection.grassmann("x", 1)
        conn_f = ModuleConnection.grassmann("y", 2)
        rmt1 = RightModuleTwist(Q2, rank=2)
        rmt2 = RightModuleTwist(Q2, UT)
        honest = product.reduced_presentation

        def tagged(twist, rmt, pv):
            # tell the two twists apart on the chosen block only
            moved = any(not w.is_zero for w in getattr(pv, block))
            return {**honest(twist, rmt, pv), "twist": id(rmt) if moved else 0}

        # the curvature is the identity, so the tables see the inputs
        monkeypatch.setattr(ProductConnection, "curvature", lambda pc, pv: pv)
        monkeypatch.setattr(product, "reduced_presentation", tagged)
        result = check_twist_independence(Q2, conn_e, conn_f, rmt1, rmt2,
                                          Caps(2, 1),
                                          *first_twist(rmt1, conn_f, Caps(2, 1)))
        assert (result.verdict, result.witness, result.cases) == \
            ("fail", witness, cases)

    def test_independence_rejects_inadmissible_pair(self):
        conn_e = ModuleConnection.grassmann("x", 1)
        conn_f = ModuleConnection("y", 1, [[Form.d_gen("y")]])
        rmt1 = RightModuleTwist(Q2, rank=1)
        result = check_twist_independence(Q2, conn_e, conn_f, rmt1, rmt1, CAPS,
                                          *first_twist(rmt1, conn_f, CAPS))
        assert result.verdict == "inadmissible"
        assert "inadmissible pair" in result.witness

    def test_independence_decides_each_twist_once(self, monkeypatch):
        # the report's verdicts on the first twist are passed in, so each
        # admissibility check runs once per twist
        calls = {"check_right_module_twist": [],
                 "check_twist_connection_compat": []}
        for fname, seen in calls.items():
            honest = getattr(product, fname)

            def counted(*args, honest=honest, seen=seen):
                seen.append(args)
                return honest(*args)

            for module in (product, runner):
                monkeypatch.setattr(module, fname, counted)
        scenario = load_scenario_file(
            Path(__file__).resolve().parent.parent / "scenarios" / "grassmann_q2.cfg")
        scenario.caps = Caps(1, 1)
        report = runner.run_checks(scenario, ["independence"])
        assert report.find("independence").passed
        assert [len(seen) for seen in calls.values()] == [2, 2]


class TestReducedPresentation:
    def test_exhibits_inverse_q_powers(self):
        pc = grassmann_pc(Q2)
        pv = pc.f_naive_basis(0, 1, 0)
        out = pc.nabla(pv)
        reduced = reduced_presentation(Q2, pc.rmt, out)
        # the dx-carrying term sits over 1 ⊗ f_1 with no rescaling here
        assert reduced[("f", 0, 0, 0, (0, 0), (0,))] == 1

    def test_round_trip_against_free(self):
        rmt = RightModuleTwist(Q2, UT)
        pv1 = ProductVector([], [ProductForm.pair((1, 0), (2,)),
                                 ProductForm.monomial(1, 1)])
        pv2 = ProductVector([], [ProductForm.pair((1, 0), (2,)),
                                 ProductForm.monomial(1, 1)])
        assert reduced_presentation(Q2, rmt, pv1) == \
            reduced_presentation(Q2, rmt, pv2)


def compat(pc, caps=Caps(3, 2)):
    return check_twist_connection_compat(pc.twist, pc.rmt, pc.conn_f, caps)


class TestQuantumPlaneReport:
    def test_grassmann_scenario(self):
        pc = grassmann_pc(Q2, n=2)
        payload, lines = quantum_plane_report(pc, Caps(3, 2), compat(pc),
                                              f_exponents=[1, 2])
        display = payload["grassmann_display"]
        assert display["verified"]
        assert display["inverse_twist_coefficients"] == \
            display["expected_inverse_twist_coefficients"] == \
            {"f_1": "1/2", "f_2": "1/4"}
        assert "q^-1 y, q^-2 y^2" in display["formula"]
        assert payload["rescaling_display"]["verified"]
        assert payload["all_verified"]

    def test_classical_q_one(self):
        pc = grassmann_pc(AlgebraTwist(1), n=2)
        payload, _ = quantum_plane_report(pc, Caps(3, 2), compat(pc),
                                          f_exponents=[1, 2])
        assert payload["grassmann_display"]["inverse_twist_coefficients"] == \
            {"f_1": "1", "f_2": "1"}
        assert payload["all_verified"]

    def test_report_decides_compat_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return check_twist_connection_compat(*args)

        for module in (product, runner):
            monkeypatch.setattr(module, "check_twist_connection_compat", counted)
        scenario = load_scenario_file(
            Path(__file__).resolve().parent.parent / "scenarios" / "grassmann_q2.cfg")
        scenario.caps = Caps(1, 1)
        report = runner.run_checks(scenario, ["report"])
        assert report.find("quantum-plane-report").passed
        assert len(calls) == 1

    def test_potential_scenario_reports_verdict(self):
        twist = AlgebraTwist(2)
        rmt = RightModuleTwist(twist, rank=1)
        conn_e = ModuleConnection("x", 1, [[parse_form("x", "x dx")]])
        conn_f = ModuleConnection("y", 1, [[Form.d_gen("y")]])
        pc = ProductConnection(twist, rmt, conn_e, conn_f)
        payload, _ = quantum_plane_report(pc, Caps(2, 2),
                                          compat(pc, Caps(2, 2)))
        decomposition = payload["potential_decomposition"]
        assert decomposition["verified"]
        assert decomposition["compat_verdict"] == "fail"
        assert payload["all_verified"]
