"""The x/y mirror: both module twists, both twist-axiom checks, both
connection-compatibility checks.

The pinned tables record verdict, cases and witness of each check under
corrupted maps and non-flat potentials, at ranks 1 and 2 with dense S and T,
q in {2, 3/2}, caps 3,2.  The case counts fix the loop order of every
condition, which the shipped scenarios at caps 1,1 never reach.
"""

from fractions import Fraction

import pytest

from twistconn.bimodule import check_left_twist_connection_compat
from twistconn.connections import ModuleConnection
from twistconn.forms import Caps, Form, parse_form
from twistconn.product import check_twist_connection_compat
from twistconn.twist import (AlgebraTwist, LeftModuleTwist, RightModuleTwist,
                             check_left_module_twist, check_right_module_twist)

CAPS = Caps(3, 2)
S = {1: [[2]], 2: [[2, 1], [1, 1]]}
T = {1: [[3]], 2: [[1, 2], [1, 3]]}
QS = [2, Fraction(3, 2)]
RANKS = [1, 2]


def potential(gen: str, text: str, rank: int) -> list[list[Form]]:
    """The form on the diagonal and below it in the first column."""
    p, zero = parse_form(gen, text), Form.zero(gen)
    return [[p if a == b or (a, b) == (1, 0) else zero for b in range(rank)]
            for a in range(rank)]


def verdict(result):
    return result.verdict, result.cases, result.witness


MULT_R = {1: 7, 2: 8}
WRONG_Q_R = {1: 71, 2: 136}
WRONG_Q_L = {1: 86, 2: 151}


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("rank", RANKS)
class TestModuleTwistWitnesses:
    def test_right_broken_multiplicativity(self, monkeypatch, q, rank):
        rmt = RightModuleTwist(AlgebraTwist(q), S[rank])
        cross_word = rmt.cross_word

        def broken(k, j, i):
            terms = cross_word(k, j, i)
            return [(2 * c, l) for c, l in terms] if i >= 2 else terms

        monkeypatch.setattr(rmt, "cross_word", broken)
        assert verdict(check_right_module_twist(rmt, CAPS)) == (
            "fail", MULT_R[rank], "multiplicativity at f_1 y^0 ⊗ x^1 * x^1")

    def test_left_broken_multiplicativity(self, monkeypatch, q, rank):
        lmt = LeftModuleTwist(AlgebraTwist(q), T[rank])
        cross_word = lmt.cross_word

        def broken(j, k, i):
            terms = cross_word(j, k, i)
            return [(2 * c, l) for c, l in terms] if j >= 2 else terms

        monkeypatch.setattr(lmt, "cross_word", broken)
        assert verdict(check_left_module_twist(lmt, CAPS)) == (
            "fail", MULT_R[rank], "multiplicativity at y^1 * y^1 ⊗ e_1 x^0")

    def test_right_wrong_q(self, monkeypatch, q, rank):
        rmt = RightModuleTwist(AlgebraTwist(q), S[rank])
        wrong = RightModuleTwist(AlgebraTwist(3 * q), S[rank]).cross_word
        monkeypatch.setattr(rmt, "cross_word", wrong)
        assert verdict(check_right_module_twist(rmt, CAPS)) == (
            "fail", WRONG_Q_R[rank], "module action at f_1 y^0 * y^1 ⊗ x^1")

    def test_left_wrong_q(self, monkeypatch, q, rank):
        lmt = LeftModuleTwist(AlgebraTwist(q), T[rank])
        wrong = LeftModuleTwist(AlgebraTwist(3 * q), T[rank]).cross_word
        monkeypatch.setattr(lmt, "cross_word", wrong)
        assert verdict(check_left_module_twist(lmt, CAPS)) == (
            "fail", WRONG_Q_L[rank], "left action at y^1 ⊗ x^1 e_1 x^0")

    def test_both_pass_unbroken(self, q, rank):
        twist = AlgebraTwist(q)
        right = check_right_module_twist(RightModuleTwist(twist, S[rank]), CAPS)
        left = check_left_module_twist(LeftModuleTwist(twist, T[rank]), CAPS)
        assert verdict(right) == ("pass", rank * 129, None)
        assert verdict(left) == ("pass", rank * 129, None)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("rank", RANKS)
class TestConnectionCompatWitnesses:
    @pytest.mark.parametrize("text", ["dy", "y dy"])
    def test_right(self, q, rank, text):
        twist = AlgebraTwist(q)
        conn_f = ModuleConnection("y", rank, potential("y", text, rank))
        result = check_twist_connection_compat(
            twist, RightModuleTwist(twist, S[rank]), conn_f, CAPS)
        assert verdict(result) == (
            "fail", 3, "f_1 y^0 ⊗ x^1: twist-then-connect differs from "
            "connect-then-twist (q-weight mismatch)")

    @pytest.mark.parametrize("text", ["dx", "x dx"])
    def test_left(self, q, rank, text):
        twist = AlgebraTwist(q)
        conn_e = ModuleConnection("x", rank, potential("x", text, rank))
        result = check_left_twist_connection_compat(
            twist, LeftModuleTwist(twist, T[rank]), conn_e, CAPS)
        assert verdict(result) == (
            "fail", 5, "y^1 ⊗ e_1 x^0: twist and connection do not commute")

    def test_grassmann_passes(self, q, rank):
        twist = AlgebraTwist(q)
        right = check_twist_connection_compat(
            twist, RightModuleTwist(twist, S[rank]),
            ModuleConnection.grassmann("y", rank), CAPS)
        left = check_left_twist_connection_compat(
            twist, LeftModuleTwist(twist, T[rank]),
            ModuleConnection.grassmann("x", rank), CAPS)
        assert verdict(right) == ("pass", 32 * rank, None)
        assert verdict(left) == ("pass", 16 * rank, None)



NON_SYMMETRIC_S = [[2, 1], [3, 2]]


@pytest.mark.parametrize("q", QS)
class TestNonSymmetricS:
    """The right-side pins again with a non-symmetric S.

    A symmetric S cannot tell a row of S^i from a column, so each right-side
    witness above is repeated with S = [[2, 1], [3, 2]].
    """

    def rmt(self, q):
        return RightModuleTwist(AlgebraTwist(q), NON_SYMMETRIC_S)

    def test_right_broken_multiplicativity(self, monkeypatch, q):
        rmt = self.rmt(q)
        cross_word = rmt.cross_word

        def broken(k, j, i):
            terms = cross_word(k, j, i)
            return [(2 * c, l) for c, l in terms] if i >= 2 else terms

        monkeypatch.setattr(rmt, "cross_word", broken)
        assert verdict(check_right_module_twist(rmt, CAPS)) == (
            "fail", MULT_R[2], "multiplicativity at f_1 y^0 ⊗ x^1 * x^1")

    def test_right_wrong_q(self, monkeypatch, q):
        rmt = self.rmt(q)
        wrong = RightModuleTwist(AlgebraTwist(3 * q), NON_SYMMETRIC_S).cross_word
        monkeypatch.setattr(rmt, "cross_word", wrong)
        assert verdict(check_right_module_twist(rmt, CAPS)) == (
            "fail", WRONG_Q_R[2], "module action at f_1 y^0 * y^1 ⊗ x^1")

    def test_right_passes_unbroken(self, q):
        assert verdict(check_right_module_twist(self.rmt(q), CAPS)) == (
            "pass", 2 * 129, None)

    @pytest.mark.parametrize("text", ["dy", "y dy"])
    def test_connection_compat(self, q, text):
        rmt = self.rmt(q)
        conn_f = ModuleConnection("y", 2, potential("y", text, 2))
        result = check_twist_connection_compat(rmt.twist, rmt, conn_f, CAPS)
        assert verdict(result) == (
            "fail", 3, "f_1 y^0 ⊗ x^1: twist-then-connect differs from "
            "connect-then-twist (q-weight mismatch)")

    def test_grassmann_compat_passes(self, q):
        rmt = self.rmt(q)
        result = check_twist_connection_compat(
            rmt.twist, rmt, ModuleConnection.grassmann("y", 2), CAPS)
        assert verdict(result) == ("pass", 32 * 2, None)


@pytest.mark.parametrize("q", QS)
def test_unit_witness_names_the_second_slot(monkeypatch, q):
    """A crossing that fixes slot 1 but doubles slot 2 at exponents 0, 0:
    each side's unit witness names slot 2, after its two unit cases."""
    rmt = RightModuleTwist(AlgebraTwist(q), S[2])
    lmt = LeftModuleTwist(AlgebraTwist(q), T[2])
    right, left = rmt.cross_word, lmt.cross_word

    def doubled(terms, k, j, i):
        return [(2 * c, l) for c, l in terms] if (k, j, i) == (1, 0, 0) else terms

    monkeypatch.setattr(rmt, "cross_word", lambda k, j, i: doubled(right(k, j, i), k, j, i))
    monkeypatch.setattr(lmt, "cross_word", lambda j, k, i: doubled(left(j, k, i), k, j, i))
    assert verdict(check_right_module_twist(rmt, CAPS)) == (
        "fail", 2, "unit: f_2 ⊗ 1 not fixed")
    assert verdict(check_left_module_twist(lmt, CAPS)) == (
        "fail", 2, "unit: 1 ⊗ e_2 not fixed")
