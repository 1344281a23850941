"""Fail paths of the checks whose loops count several cases per step or keep
going after a failure to fill ``detail``.

Each pin is the full ``to_dict()`` of a check under one corrupted kernel:
verdict, cases, witness and detail.  The unit loop of ``twist-axioms`` is
pinned in tests/test_twist.py.
"""

from types import MappingProxyType

import pytest

import twistconn.twist as twist_module
from twistconn.bimodule import (ProductSwap, check_swap_compat_e,
                                check_swap_compat_f, check_swap_cross_morphisms)
from twistconn.connections import FormSwap
from twistconn.forms import Caps, Form, parse_form, word_letters
from twistconn.twist import (AlgebraTwist, LeftModuleTwist, ModuleTwist,
                             RightModuleTwist, check_derived_conditions,
                             check_dga_laws, check_lift_compat,
                             check_twist_axioms)

KERNEL = twist_module.word_twist
PRODUCT = twist_module.word_mul
DIFFERENTIAL = twist_module.word_differential
Q2 = AlgebraTwist(2)


def kernel_with(monkeypatch, extra_sign=None, extra_exponent=None):
    """word_twist with a sign or an exponent term added, from the degrees."""
    def mutant(wy, wx):
        sign, e = KERNEL(wy, wx)
        dx, dy = len(wx) - 1, len(wy) - 1
        if extra_sign is not None:
            sign *= extra_sign(dx, dy)
        if extra_exponent is not None:
            e += extra_exponent(dx, dy)
        return sign, e

    monkeypatch.setattr(twist_module, "word_twist", mutant)


class TestWordKernel:
    def test_fast_path_product_right(self, monkeypatch):
        # the first failing triple breaks both laws, and names both
        kernel_with(monkeypatch, extra_exponent=lambda dx, dy: (dx * dy) ** 2)
        assert check_twist_axioms(Q2, Caps(1, 3)).to_dict() == {
            "name": "twist-axioms", "verdict": "fail", "cases": 906,
            "witness": "product-right: b=dy, a=dx, a'=dx",
            "detail": {"failed_axioms": ["product-left", "product-right"]}}

    def test_fast_path_product_left(self, monkeypatch):
        kernel_with(monkeypatch, extra_exponent=lambda dx, dy: dy * dy * dx)
        assert check_twist_axioms(Q2, Caps(1, 3)).to_dict() == {
            "name": "twist-axioms", "verdict": "fail", "cases": 906,
            "witness": "product-left: b=dy, b'=dy, a=dx",
            "detail": {"failed_axioms": ["product-left"]}}

    def test_exponent_off_by_one(self, monkeypatch):
        # the unit law fails on the second pair word; its loop counts 2 a word
        kernel_with(monkeypatch, extra_exponent=lambda dx, dy: int(dx > 0))
        assert check_dga_laws(Q2, Caps(1, 1)).to_dict() == {
            "name": "dga-laws", "verdict": "fail", "cases": 10,
            "witness": "unit law at (dx, 1)"}
        assert check_lift_compat(Q2, Caps(1, 1)).to_dict() == {
            "name": "lift-compat", "verdict": "fail", "cases": 4,
            "witness": "d on x-side at (1, x): 2 dx ⊗ 1 != dx ⊗ 1"}

    def test_without_koszul_sign(self, monkeypatch):
        kernel_with(monkeypatch, extra_sign=lambda dx, dy: -1 if dx * dy % 2
                    else 1)
        assert check_dga_laws(Q2, Caps(1, 1)).to_dict() == {
            "name": "dga-laws", "verdict": "fail", "cases": 65,
            "witness": "graded Leibniz at (1, y) * (dx, 1)"}
        assert check_lift_compat(Q2, Caps(1, 1)).to_dict() == {
            "name": "lift-compat", "verdict": "fail", "cases": 18,
            "witness": "d on y-side at (y, dx): 2 dx ⊗ dy != -2 dx ⊗ dy"}
        assert check_twist_axioms(Q2, Caps(2, 2)).to_dict() == {
            "name": "twist-axioms", "verdict": "pass", "cases": 3534}


def merge_equal_exponents(u, v):
    """word_mul that adds a letter where two equal nonzero exponents meet:
    x·x = x^3, so (x·x)·x^2 = x^5 but x·(x·x^2) = x^4."""
    w = PRODUCT(u, v)
    if u[-1] and u[-1] == v[0]:
        k = len(u) - 1
        return w[:k] + (w[k] + 1,) + w[k + 1:]
    return w


def drop_letter(u, v):
    """word_mul that drops the last letter of a product of more than four
    letters; products with the unit word stay exact."""
    w = PRODUCT(u, v)
    if word_letters(u) and word_letters(v) and word_letters(w) > 4 and w[-1]:
        return w[:-1] + (w[-1] - 1,)
    return w


def above_cap(cap):
    """word_mul that adds a letter at the end of a product of degree >= 1
    whose left factor has an exponent above ``cap``.  Only the product
    (a b) of (a b) c leaves the caps, so only associativity meets it."""
    def mutant(u, v):
        w = PRODUCT(u, v)
        if max(u) > cap and len(w) > 1:
            return w[:-1] + (w[-1] + 1,)
        return w
    return mutant


def doubled_on_odd_letters(word):
    """word_differential scaled by 2 on words with an odd letter count.
    Every term of d w has the letter count of w, so d^2 = 0 still holds."""
    table = DIFFERENTIAL(word)
    if word_letters(word) % 2:
        return MappingProxyType({w: 2 * s for w, s in table.items()})
    return table


@pytest.mark.parametrize("q", [2, -3])
class TestWordProduct:
    """dga-laws under a corrupted word product or word differential,
    patched where the check looks it up."""

    @pytest.mark.parametrize("caps, cases", [((2, 2), 905), ((3, 3), 11492)],
                             ids=["caps2,2", "caps3,3"])
    def test_merge_equal_exponents(self, monkeypatch, q, caps, cases):
        monkeypatch.setattr(twist_module, "word_mul", merge_equal_exponents)
        assert check_dga_laws(AlgebraTwist(q), Caps(*caps)).to_dict() == {
            "name": "dga-laws", "verdict": "fail", "cases": cases,
            "witness": "graded Leibniz at (1, y) * (1, y)"}

    @pytest.mark.parametrize("caps, cases, witness", [
        ((2, 2), 948, "graded Leibniz at (1, y) * (1, y dy y^2)"),
        ((3, 3), 11543, "graded Leibniz at (1, y) * (1, dy y^3)")],
        ids=["caps2,2", "caps3,3"])
    def test_drop_letter(self, monkeypatch, q, caps, cases, witness):
        monkeypatch.setattr(twist_module, "word_mul", drop_letter)
        assert check_dga_laws(AlgebraTwist(q), Caps(*caps)).to_dict() == {
            "name": "dga-laws", "verdict": "fail", "cases": cases,
            "witness": witness}

    @pytest.mark.parametrize("cap, cases", [(1, 352), (2, 12059), (3, 63845)],
                             ids=["caps1,1", "caps2,2", "caps3,3"])
    def test_product_above_cap(self, monkeypatch, q, cap, cases):
        monkeypatch.setattr(twist_module, "word_mul", above_cap(cap))
        power = "y" if cap == 1 else f"y^{cap}"
        assert check_dga_laws(AlgebraTwist(q), Caps(cap, cap)).to_dict() == {
            "name": "dga-laws", "verdict": "fail", "cases": cases,
            "witness": "word concatenation not associative at "
                       f"(1, y), (1, {power}), (1, dy)"}

    @pytest.mark.parametrize("cap, cases", [(1, 62), (2, 905), (3, 11492)],
                             ids=["caps1,1", "caps2,2", "caps3,3"])
    def test_differential_doubled_on_odd_letters(self, monkeypatch, q, cap,
                                                 cases):
        # d^2 = 0 holds, so the unit loop passes and Leibniz fails
        monkeypatch.setattr(twist_module, "word_differential",
                            doubled_on_odd_letters)
        assert check_dga_laws(AlgebraTwist(q), Caps(cap, cap)).to_dict() == {
            "name": "dga-laws", "verdict": "fail", "cases": cases,
            "witness": "graded Leibniz at (1, y) * (1, y)"}


@pytest.mark.parametrize("s", [[[2, 1], [1, 1]], [[2, 1], [3, 2]]])
class TestDerivedConditions:
    """derived-compat counts 4 cases a step and runs every step."""

    def test_cross_without_q_power(self, monkeypatch, s):
        def cross(self, k, own, other, sign=1):
            row = self.matrix_power(sign * other)[k]
            return [(row[l], l) for l in range(self.rank) if row[l]]

        monkeypatch.setattr(ModuleTwist, "cross", cross)
        result = check_derived_conditions(RightModuleTwist(Q2, s), Caps(2, 2))
        assert result.to_dict() == {
            "name": "derived-compat", "verdict": "fail", "cases": 216,
            "witness": "y-action-exchange at f_1 y^0 ⊗ x^1 ⊗ y^1",
            "detail": {"failed_conditions": ["crossed-y-action",
                                             "y-action-exchange"]}}

    def test_cross_without_inverse_power(self, monkeypatch, s):
        def cross(self, k, own, other, sign=1):
            q = self.twist.qpow(sign * own * other)
            row = self.matrix_power(other)[k]
            return [(q * row[l], l) for l in range(self.rank) if row[l]]

        monkeypatch.setattr(ModuleTwist, "cross", cross)
        result = check_derived_conditions(RightModuleTwist(Q2, s), Caps(2, 2))
        assert result.to_dict() == {
            "name": "derived-compat", "verdict": "fail", "cases": 216,
            "witness": "mul-exchange at x^1 ⊗ f_1 y^0 ⊗ x^0",
            "detail": {"failed_conditions": ["mul-exchange",
                                             "y-action-exchange"]}}


def uncross_doubled(monkeypatch, rmt, when):
    """rmt.uncross_word doubled at slot 2 wherever ``when(i, j)`` holds."""
    uncross = rmt.uncross_word

    def doubled(i, k, j):
        terms = uncross(i, k, j)
        return [(2 * c, l) for c, l in terms] if k == 1 and when(i, j) else terms

    monkeypatch.setattr(rmt, "uncross_word", doubled)


@pytest.mark.parametrize("q", [2, -3])
class TestDerivedWitnessSlots:
    """Corrupted inverse crossings whose first failure is at slot 2, so each
    witness must name f_2."""

    def test_uncross_product(self, monkeypatch, q):
        # S = 1: slot 1 never meets slot 2, and x^2 uncrosses wrongly at
        # slot 2, first met as x^1 * x^1
        rmt = RightModuleTwist(AlgebraTwist(q), [[1, 0], [0, 1]])
        uncross_doubled(monkeypatch, rmt, lambda i, j: i == 2)
        assert check_derived_conditions(rmt, Caps(3, 2)).to_dict() == {
            "name": "derived-compat", "verdict": "fail", "cases": 512,
            "witness": "uncross-product at x^1 * x^1 ⊗ f_2 y^0",
            "detail": {"failed_conditions": ["mul-exchange", "uncross-product",
                                             "y-action-exchange"]}}

    def test_crossed_y_action(self, monkeypatch, q):
        # rank 3 with S swapping slots 2 and 3: at slot 2, y-action-exchange
        # reads the inverse crossing of slot 3, which stays exact, while
        # crossed-y-action compares slot 2 at y^0 and at y^1
        rmt = RightModuleTwist(AlgebraTwist(q), [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        uncross_doubled(monkeypatch, rmt, lambda i, j: i % 2 and j)
        assert check_derived_conditions(rmt, Caps(3, 2)).to_dict() == {
            "name": "derived-compat", "verdict": "fail", "cases": 768,
            "witness": "crossed-y-action at y^1 ⊗ x^1 ⊗ f_2 y^0",
            "detail": {"failed_conditions": ["crossed-y-action", "mul-exchange",
                                             "uncross-product", "y-action-exchange"]}}


@pytest.mark.parametrize("q", [2, -3])
@pytest.mark.parametrize("value", ["t dt", "dt t"])
def test_swap_equation_fails(q, value):
    """A factor swap that adds a letter fails its equation; the equation
    loop runs to its end and the morphism loop fills the detail."""
    twist = AlgebraTwist(q)
    rmt = RightModuleTwist(twist, [[2, 1], [3, 2]])
    lmt = LeftModuleTwist(twist, [[1, 2], [1, 3]])

    def swap(gen):
        zero = Form.zero(gen)
        return FormSwap(gen, 2, [[parse_form(gen, value.replace("t", gen)), zero],
                                 [zero, Form.d_gen(gen)]])

    ps = ProductSwap(twist, rmt, lmt, swap("x"), swap("y"))
    caps = Caps(1, 1)
    assert check_swap_compat_e(ps, caps).to_dict() == {
        "name": "swap-compat-e", "verdict": "fail", "cases": 274,
        "witness": "y^1 ⊗ dx ⊗ e_1",
        "detail": {"equation": "fail", "left_morphism": "fail",
                   "right_morphism": "pass", "equivalence_agrees": True}}
    assert check_swap_compat_f(ps, caps).to_dict() == {
        "name": "swap-compat-f", "verdict": "fail", "cases": 275,
        "witness": "dy ⊗ f_1 ⊗ x^1",
        "detail": {"equation": "fail", "left_morphism": "pass",
                   "right_morphism": "fail", "equivalence_agrees": True}}
    assert check_swap_cross_morphisms(ps, caps).to_dict() == {
        "name": "swap-cross-morphisms", "verdict": "pass", "cases": 1024,
        "detail": {"yform_eblock_left": "pass", "yform_eblock_right": "pass",
                   "xform_fblock_left": "pass", "xform_fblock_right": "pass"}}
