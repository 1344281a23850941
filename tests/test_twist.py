"""The q-twist, its lift, the module twists, and the axiom checkers."""

from fractions import Fraction

import pytest

from twistconn.bimodule import check_left_twist_connection_compat
from twistconn.connections import ModuleConnection
from twistconn.forms import Caps, Form, enumerate_words, word_degree
from twistconn.product import check_twist_connection_compat
from twistconn.reports import tally
from twistconn.tdga import ProductForm
from twistconn.twist import (AlgebraTwist, LeftModuleTwist, ModuleTwist,
                             RightModuleTwist, check_derived_conditions,
                             check_dga_laws, check_left_module_twist,
                             check_lift_compat, check_right_module_twist,
                             check_twist_axioms)

import twistconn.twist as twist_module
from oracles import left_twist_oracle, lift_oracle, right_twist_oracle

Q2 = AlgebraTwist(2)
# q for the guards that a passing word-level check stays on its fact path
TRAFFIC_Q = [Fraction(2), Fraction(3, 2), Fraction(-2, 3), Fraction(1), Fraction(-1)]


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

    def test_refuses_swapped_generators(self):
        with pytest.raises(ValueError):
            Q2.cross(xw(1), yw(1))


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
        s = [list(row) for row in rmt.matrix_power(1)]
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

    def test_corrupted_map_fails_multiplicativity(self, monkeypatch):
        # one q too many on y^2 ⊗ x: y·y past x no longer equals the two
        # single crossings
        kernel = twist_module.word_twist

        def corrupt(wy, wx):
            sign, e = kernel(wy, wx)
            return (sign, e + 1) if (wy, wx) == ((2,), (1,)) else (sign, e)

        monkeypatch.setattr(twist_module, "word_twist", corrupt)
        result = check_twist_axioms(Q2, Caps(2, 1))
        assert result.failed
        assert result.detail["failed_axioms"] == ["product-left"]
        assert result.cases == 178
        assert result.witness == "product-left: b=y, b'=y, a=x"

    def test_unit_failure_counts_only_the_failing_word(self, monkeypatch):
        # every exponent one too high: the unit loop stops at its first
        # failing word, 2 cases for the word 1, and the product loop at its
        # first triple (1, 1, 1), which breaks both product laws and names
        # both; the witness renders the corrupted lift
        kernel = twist_module.word_twist

        def shifted(wy, wx):
            sign, e = kernel(wy, wx)
            return sign, e + 1

        monkeypatch.setattr(twist_module, "word_twist", shifted)
        result = check_twist_axioms(Q2, Caps(1, 1))
        assert result.to_dict() == {
            "name": "twist-axioms", "verdict": "fail", "cases": 4,
            "witness": "unit: 1 ⊗ 1 -> 2 1 ⊗ 1",
            "detail": {"failed_axioms": ["product-left", "product-right",
                                         "unit"]}}

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

    def test_lift_without_sign_fails(self, monkeypatch):
        # the lift is read from the word kernel wherever the runtime uses it
        twist = AlgebraTwist(2)
        kernel = twist_module.word_twist

        def no_sign(wy, wx):
            return 1, kernel(wy, wx)[1]

        monkeypatch.setattr(twist_module, "word_twist", no_sign)
        result = check_lift_compat(twist, CAPS)
        assert result.failed
        assert "dx" in result.witness or "x-side" in result.witness
        assert result.cases == 86
        assert result.witness == "d on y-side at (y, dx): 2 dx ⊗ dy != -2 dx ⊗ dy"

    def test_right_module_twist_pass(self):
        assert check_right_module_twist(RightModuleTwist(Q2, rank=2), CAPS).passed
        assert check_right_module_twist(RightModuleTwist(Q2, UT), CAPS).passed

    def test_uniformly_scaled_twist_fails(self, monkeypatch):
        rmt = RightModuleTwist(Q2, rank=1)
        cross_word = rmt.cross_word

        def doubled(k, j, i):
            return [(2 * c, l) for c, l in cross_word(k, j, i)]

        monkeypatch.setattr(rmt, "cross_word", doubled)
        result = check_right_module_twist(rmt, CAPS)
        assert result.failed
        assert "unit" in result.witness

    def test_left_module_twist_pass(self):
        assert check_left_module_twist(LeftModuleTwist(Q2, rank=2), CAPS).passed
        t = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
        assert check_left_module_twist(
            LeftModuleTwist(Q2, t), CAPS).passed

    def test_left_module_twist_scaled_fails(self, monkeypatch):
        lmt = LeftModuleTwist(Q2, rank=1)
        cross_word = lmt.cross_word

        def doubled(j, k, i):
            return [(2 * c, l) for c, l in cross_word(j, k, i)]

        monkeypatch.setattr(lmt, "cross_word", doubled)
        assert check_left_module_twist(lmt, CAPS).failed

    @pytest.mark.parametrize("matrix", [None, UT])
    @pytest.mark.parametrize("q", [1, 2, Fraction(3, 2)])
    def test_derived_conditions_hold(self, q, matrix):
        twist = AlgebraTwist(q)
        rmt = RightModuleTwist(twist, matrix, rank=2)
        assert check_derived_conditions(rmt, CAPS).passed

    @pytest.mark.parametrize("q", [1, 2, Fraction(3, 2)])
    def test_dga_laws(self, q):
        assert check_dga_laws(AlgebraTwist(q), CAPS).passed

    def test_dga_laws_calls_each_kernel_once_per_distinct_input(self, monkeypatch):
        """dga-laws at caps 3,3 memoizes its word kernels per check: counted
        through the module globals it looks up, it makes at most 60,000
        word_mul and 15,000 word_twist calls (1,426,370 and 148,981 before
        the memo tables), over the same 214,706 cases."""
        calls = {"word_mul": 0, "word_twist": 0}
        for name in calls:
            kernel = getattr(twist_module, name)

            def counted(*args, _name=name, _kernel=kernel):
                calls[_name] += 1
                return _kernel(*args)

            monkeypatch.setattr(twist_module, name, counted)
        result = check_dga_laws(AlgebraTwist(2), Caps(3, 3))
        assert result.to_dict() == {"name": "dga-laws", "verdict": "pass",
                                    "cases": 214706}
        assert calls["word_mul"] <= 60000
        assert calls["word_twist"] <= 15000

    def test_twist_axioms_calls_each_kernel_once_per_distinct_input(
            self, monkeypatch):
        """twist-axioms at caps 3,3 computes each word profile once per range
        and each pair's product once: counted through the module globals it
        looks up, it makes at most 30,816 word_twist and 5,008 word_mul calls
        (288,296 and 95,872 with no table, 67,620 and 10,016 with tables
        in the triple loop), over the same 96,552 cases."""
        calls = {"word_mul": 0, "word_twist": 0}
        for name in calls:
            kernel = getattr(twist_module, name)

            def counted(*args, _name=name, _kernel=kernel):
                calls[_name] += 1
                return _kernel(*args)

            monkeypatch.setattr(twist_module, name, counted)
        result = check_twist_axioms(AlgebraTwist(2), Caps(3, 3))
        assert result.to_dict() == {"name": "twist-axioms", "verdict": "pass",
                                    "cases": 96552}
        assert calls["word_twist"] <= 30816
        assert calls["word_mul"] <= 5008

    @pytest.mark.parametrize("q", TRAFFIC_Q, ids=str)
    def test_axiom_checks_decide_pairs_and_crossings_once(self, monkeypatch, q):
        """At caps 3,3 twist-axioms decides both product laws per word pair
        and never enters its ordered triple loop, the only caller of
        iter_word_tuples(3, ·), within 30,816 word_twist calls (67,620 in
        that loop).  With m = n = 2 the three module-twist checks compute
        each crossing once per argument tuple: at most 300 ModuleTwist.cross
        calls (3,044 before)."""
        counts, crossings = {"word_twist": 0, "triples": 0}, []
        kernel, tuples, cross = (twist_module.word_twist, twist_module.iter_word_tuples,
                                 ModuleTwist.cross)

        def counted(*args):
            counts["word_twist"] += 1
            return kernel(*args)

        def tuples_counted(count, caps):
            counts["triples"] += count == 3
            return tuples(count, caps)

        monkeypatch.setattr(twist_module, "word_twist", counted)
        monkeypatch.setattr(twist_module, "iter_word_tuples", tuples_counted)
        monkeypatch.setattr(ModuleTwist, "cross",
                            lambda *args: crossings.append(1) or cross(*args))
        twist, caps = AlgebraTwist(q), Caps(3, 3)
        assert check_twist_axioms(twist, caps).to_dict() == {
            "name": "twist-axioms", "verdict": "pass", "cases": 96552}
        assert counts["triples"] == 0
        assert counts["word_twist"] <= 30816
        rmt = RightModuleTwist(twist, [[2, 1], [3, 2]])
        results = [check_right_module_twist(rmt, caps),
                   check_left_module_twist(LeftModuleTwist(twist, [[1, 2], [1, 3]]), caps),
                   check_derived_conditions(rmt, caps)]
        assert [(r.verdict, r.cases) for r in results] == [
            ("pass", 258), ("pass", 258), ("pass", 512)]
        assert len(crossings) <= 300

    @pytest.mark.parametrize("q", TRAFFIC_Q, ids=str)
    def test_lift_compat_decides_pairs_at_word_level(self, monkeypatch, q):
        """lift-compat at caps 3,3 passes each word pair from word_twist
        alone: no AlgebraTwist.cross call (15,024 before), over the same
        10,016 cases."""
        calls = []
        cross = AlgebraTwist.cross
        monkeypatch.setattr(AlgebraTwist, "cross",
                            lambda *args: calls.append(1) or cross(*args))
        result = check_lift_compat(AlgebraTwist(q), Caps(3, 3))
        assert result.to_dict() == {"name": "lift-compat", "verdict": "pass",
                                    "cases": 10016}
        assert calls == []

    @pytest.mark.parametrize("q", TRAFFIC_Q, ids=str)
    def test_word_checks_send_held_steps_in_blocks(self, monkeypatch, q):
        """At caps 3,3, dga-laws and twist-axioms hand reports.tally at most
        1,000 entries each (209,698 and 48,276 before held steps were sent
        as int entries), over the same 214,706 and 96,552 cases.  Each loop
        of a passing run is decided from its facts, so neither check calls
        AlgebraTwist.mul_scaled or twist.pair_differential."""
        entries, calls = [], []

        def counted(cases, *args, **kwargs):
            return tally((entries.append(1) or e for e in cases), *args, **kwargs)

        def traced(fn):
            return lambda *args: calls.append(fn.__name__) or fn(*args)

        monkeypatch.setattr(twist_module, "tally", counted)
        monkeypatch.setattr(AlgebraTwist, "mul_scaled", traced(AlgebraTwist.mul_scaled))
        monkeypatch.setattr(twist_module, "pair_differential",
                            traced(twist_module.pair_differential))
        for check, cases in [(check_dga_laws, 214706), (check_twist_axioms, 96552)]:
            entries.clear()
            result = check(AlgebraTwist(q), Caps(3, 3))
            assert (result.verdict, result.cases) == ("pass", cases)
            assert len(entries) <= 1000
            assert calls == []

    def test_twist_axioms_decides_units_at_word_level(self, monkeypatch):
        """twist-axioms at caps 3,3 decides the unit law from word_twist: no
        AlgebraTwist.cross call (680 before), over the same 96,552 cases."""
        calls = []
        cross = AlgebraTwist.cross
        monkeypatch.setattr(AlgebraTwist, "cross",
                            lambda *args: calls.append(1) or cross(*args))
        result = check_twist_axioms(AlgebraTwist(2), Caps(3, 3))
        assert result.to_dict() == {"name": "twist-axioms", "verdict": "pass",
                                    "cases": 96552}
        assert calls == []

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
