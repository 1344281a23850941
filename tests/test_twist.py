"""The q-twist, its lift, the module twists, and the axiom checkers."""

from fractions import Fraction

import pytest

from twistconn.bimodule import check_left_twist_connection_compat
from twistconn.connections import ModuleConnection
from twistconn.forms import Caps, Form, enumerate_words, word_degree
from twistconn.product import check_twist_connection_compat
from twistconn.tdga import ProductForm
from twistconn.twist import (AlgebraTwist, LeftModuleTwist, ModuleTwist,
                             RightModuleTwist, check_derived_conditions,
                             check_dga_laws, check_left_module_twist,
                             check_lift_compat, check_right_module_twist,
                             check_twist_axioms)

import twistconn.twist as twist_module
from oracles import left_twist_oracle, lift_oracle, right_twist_oracle

Q2 = AlgebraTwist(2)


def yw(*exps):
    return Form.word("y", exps)


def xw(*exps):
    return Form.word("x", exps)


class TestLift:
    def test_base_case(self):
        assert Q2.cross(yw(1), xw(1)) == ProductForm.pair((1,), (1,), 2)

    @pytest.mark.parametrize("j,i", [(1, 2), (2, 1), (2, 3), (3, 3)])
    def test_monomials(self, j, i):
        assert Q2.cross(yw(j), xw(i)) == \
            ProductForm.pair((i,), (j,), Fraction(2) ** (i * j))

    def test_differentials_anticommute(self):
        assert Q2.cross(yw(0, 0), xw(0, 0)) == \
            ProductForm.pair((0, 0), (0, 0), -2)

    def test_mixed_letter_count(self):
        # y dy carries two letters past the single letter of dx
        assert Q2.cross(yw(1, 0), xw(0, 0)) == \
            ProductForm.pair((0, 0), (1, 0), -4)

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(3, 2), Fraction(-1)])
    def test_matches_recursive_oracle(self, q):
        twist = AlgebraTwist(q)
        memo = {}
        words = enumerate_words(2, 2)
        for wy in words:
            for wx in words:
                if word_degree(wy) + word_degree(wx) > 2:
                    continue
                got = twist.cross(Form.word("y", wy), Form.word("x", wx))
                assert got.terms == lift_oracle(q, wy, wx, memo)

    def test_flip_at_q_one(self):
        twist = AlgebraTwist(1)
        got = twist.cross(yw(0, 0), xw(1, 0))
        assert got == ProductForm.pair((1, 0), (0, 0), -1)  # Koszul sign only


class TestInverse:
    def test_base_case(self):
        table = Q2.uncross(xw(1), yw(1))
        assert table == {((1,), (1,)): Fraction(1, 2)}

    def test_round_trip_identity(self):
        words = enumerate_words(2, 2)
        for wy in words:
            for wx in words:
                if word_degree(wy) + word_degree(wx) > 2:
                    continue
                crossed = Q2.cross(Form.word("y", wy), Form.word("x", wx))
                back = {}
                for (ax, by), c in crossed.terms.items():
                    for (ny, nx), c2 in Q2.uncross(Form.word("x", ax),
                                                   Form.word("y", by)).items():
                        back[(ny, nx)] = back.get((ny, nx), Fraction(0)) + c * c2
                assert back == {(wy, wx): Fraction(1)}

    def test_differential_pair(self):
        assert Q2.uncross(xw(0, 0), yw(0, 0)) == \
            {((0, 0), (0, 0)): Fraction(-1, 2)}


UT = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]


class TestRightModuleTwist:
    def test_unitality(self):
        rmt = RightModuleTwist(Q2, UT)
        assert rmt.cross_word(0, 0, 0) == [(Fraction(1), 0)]
        assert rmt.cross_word(1, 3, 0) == [(Fraction(1), 1)]

    def test_canonical_q_power(self):
        rmt = RightModuleTwist(Q2, rank=2)
        assert rmt.cross_word(1, 2, 3) == [(Fraction(64), 1)]

    def test_mixing_one_step(self):
        # f_1 y past one x picks up both slots through the matrix row
        rmt = RightModuleTwist(Q2, UT)
        assert rmt.cross_word(0, 1, 1) == [(Fraction(2), 0), (Fraction(2), 1)]

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(3, 2)])
    @pytest.mark.parametrize("matrix", [None, UT])
    def test_matches_recursive_oracle(self, q, matrix):
        twist = AlgebraTwist(q)
        rmt = RightModuleTwist(twist, matrix, rank=2)
        s = [list(row) for row in rmt.matrix]
        memo = {}
        for k in range(2):
            for j in range(4):
                for i in range(4):
                    vec = [Fraction(0), Fraction(0)]
                    for c, l in rmt.cross_word(k, j, i):
                        vec[l] += c
                    assert vec == right_twist_oracle(q, s, k, j, i, memo)

    def test_inverse_round_trip(self):
        rmt = RightModuleTwist(Q2, UT)
        for k in range(2):
            for j in range(3):
                for i in range(3):
                    vec = [Fraction(0), Fraction(0)]
                    for c, l in rmt.cross_word(k, j, i):
                        for c2, p in rmt.uncross_word(i, l, j):
                            vec[p] += c * c2
                    expected = [Fraction(0), Fraction(0)]
                    expected[k] = Fraction(1)
                    assert vec == expected

    def test_inverse_twist_q_power(self):
        # x ⊗ f_k y^{i_k}  ->  q^{-i_k} f_k y^{i_k} ⊗ x  for identity mixing
        rmt = RightModuleTwist(Q2, rank=2)
        assert rmt.uncross_word(1, 0, 3) == [(Fraction(1, 8), 0)]


class TestLeftModuleTwist:
    def test_unitality(self):
        lmt = LeftModuleTwist(Q2, rank=2)
        assert lmt.cross_word(0, 1, 2) == [(Fraction(1), 1)]

    def test_one_step(self):
        lmt = LeftModuleTwist(Q2, rank=1)
        assert lmt.cross_word(1, 0, 1) == [(Fraction(2), 0)]

    def test_no_x_letters(self):
        lmt = LeftModuleTwist(Q2, rank=1)
        assert lmt.cross_word(2, 0, 0) == [(Fraction(1), 0)]

    def test_matches_recursive_oracle(self):
        q = Fraction(3, 2)
        twist = AlgebraTwist(q)
        t_matrix = [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(1)]]
        lmt = LeftModuleTwist(twist, t_matrix)
        memo = {}
        for k in range(2):
            for j in range(4):
                for i in range(4):
                    vec = [Fraction(0), Fraction(0)]
                    for c, l in lmt.cross_word(j, k, i):
                        vec[l] += c
                    assert vec == left_twist_oracle(q, t_matrix, j, k, i, memo)


CAPS = Caps(2, 2)


class TestCheckers:
    @pytest.mark.parametrize("q", [1, 2])
    def test_twist_axioms_pass(self, q):
        assert check_twist_axioms(AlgebraTwist(q), CAPS).passed

    def test_corrupted_map_fails_multiplicativity(self):
        def corrupt(yform, xform):
            out = Q2.cross(yform, xform)
            extra = {}
            for wy, cy in yform.terms.items():
                for wx, cx in xform.terms.items():
                    if wy == (1,) and wx == (1,):
                        key = ((2,), (1,))
                        extra[key] = extra.get(key, Fraction(0)) + cy * cx
            return out + ProductForm(extra)

        result = check_twist_axioms(Q2, Caps(2, 1), cross=corrupt)
        assert result.failed
        # the y-side multiplicativity rule is among the violated axioms
        assert "product-left" in result.detail["failed_axioms"]
        assert result.cases == 178
        assert result.witness == "product-right: b=y, a=x, a'=x"

    def test_kernel_without_koszul_sign_fails_product_checks(self, monkeypatch):
        # dga-laws and the runtime lift share the word kernel, so a kernel
        # that drops (-1)^{deg wx deg wy} must turn both checks red
        kernel = twist_module.word_twist
        monkeypatch.setattr(twist_module, "word_twist",
                            lambda wy, wx: (1, kernel(wy, wx)[1]))
        result = check_dga_laws(Q2, Caps(1, 1))
        assert result.failed
        assert result.witness == "graded Leibniz at (1, y) * (dx, 1)"
        result = check_lift_compat(Q2, Caps(1, 1))
        assert result.failed
        assert result.witness == "d on y-side at (y, dx): 2 dx ⊗ dy != -2 dx ⊗ dy"

    @pytest.mark.parametrize("q", [1, 2])
    def test_lift_compat_pass(self, q):
        assert check_lift_compat(AlgebraTwist(q), CAPS).passed

    def test_lift_without_sign_fails(self):
        def no_sign(yform, xform):
            out = {}
            for wy, cy in yform.terms.items():
                for wx, cx in xform.terms.items():
                    c = abs(Q2.cross_coeff(wy, wx)) * cy * cx
                    out[(wx, wy)] = out.get((wx, wy), Fraction(0)) + c
            return ProductForm(out)

        result = check_lift_compat(Q2, CAPS, cross=no_sign)
        assert result.failed
        assert "dx" in result.witness or "x-side" in result.witness
        assert result.cases == 86
        assert result.witness == "d on y-side at (y, dx): 2 dx ⊗ dy != -2 dx ⊗ dy"

    def test_right_module_twist_pass(self):
        assert check_right_module_twist(RightModuleTwist(Q2, rank=2), CAPS).passed
        assert check_right_module_twist(RightModuleTwist(Q2, UT), CAPS).passed

    def test_uniformly_scaled_twist_fails(self):
        rmt = RightModuleTwist(Q2, rank=1)

        def doubled(k, j, i):
            return [(2 * c, l) for c, l in rmt.cross_word(k, j, i)]

        result = check_right_module_twist(rmt, CAPS, twist_map=doubled)
        assert result.failed
        assert "unit" in result.witness

    def test_left_module_twist_pass(self):
        assert check_left_module_twist(LeftModuleTwist(Q2, rank=2), CAPS).passed
        t = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
        assert check_left_module_twist(
            LeftModuleTwist(Q2, t), CAPS).passed

    def test_left_module_twist_scaled_fails(self):
        lmt = LeftModuleTwist(Q2, rank=1)

        def doubled(j, k, i):
            return [(2 * c, l) for c, l in lmt.cross_word(j, k, i)]

        assert check_left_module_twist(lmt, CAPS, twist_map=doubled).failed

    @pytest.mark.parametrize("matrix", [None, UT])
    @pytest.mark.parametrize("q", [1, 2, Fraction(3, 2)])
    def test_derived_conditions_hold(self, q, matrix):
        twist = AlgebraTwist(q)
        rmt = RightModuleTwist(twist, matrix, rank=2)
        assert check_derived_conditions(rmt, CAPS).passed

    @pytest.mark.parametrize("q", [1, 2, Fraction(3, 2)])
    def test_dga_laws(self, q):
        assert check_dga_laws(AlgebraTwist(q), CAPS).passed

    def test_q_zero_rejected(self):
        with pytest.raises(ValueError):
            AlgebraTwist(0)


def test_cross_without_q_power_fails_every_twist_check(monkeypatch):
    """Mutation: a module twist that forgets q^{own·other} is caught."""
    twist = AlgebraTwist(2)
    rmt = RightModuleTwist(twist, [[2, 1], [1, 1]])
    lmt = LeftModuleTwist(twist, [[1, 2], [1, 3]])
    conn_e = ModuleConnection.grassmann("x", 2)
    conn_f = ModuleConnection.grassmann("y", 2)

    def verdicts():
        return {r.name: r.verdict for r in (
            check_right_module_twist(rmt, CAPS),
            check_left_module_twist(lmt, CAPS),
            check_twist_connection_compat(twist, rmt, conn_f, CAPS),
            check_left_twist_connection_compat(twist, lmt, conn_e, CAPS),
            check_derived_conditions(rmt, CAPS))}

    names = ["right-module-twist", "left-module-twist", "f-connection-compat",
             "e-connection-compat", "derived-compat"]
    assert verdicts() == dict.fromkeys(names, "pass")

    def cross_without_q(self, k, own, other, sign=1):
        row = self.matrix_power(sign * other)[k]
        return [(row[l], l) for l in range(self.rank) if row[l]]

    monkeypatch.setattr(ModuleTwist, "cross", cross_without_q)
    assert verdicts() == dict.fromkeys(names, "fail")
