"""Mutation rows: corrupt one runtime kernel, and the named checks turn red.

Each row is one monkeypatch and the exact set of checks whose verdict turns
from pass to fail when every check runs (no hypothesis gate) on m = n = 2,
dense S and T = [[1, 2], [1, 3]], caps 1,1.  A row whose mutant no check
catches would show a verdict that comes from code that does not fail when
the runtime is wrong.
"""

import math
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from oracles import curvature_formula_reference, leibniz_reference
from test_bimodule import HALVING_S, NON_SYMMETRIC_S, SYMMETRIC_S, DroppedQ
from test_fail_paths import (doubled_on_odd_letters, drop_letter,
                             merge_equal_exponents)
from twistconn import bimodule, connections, forms, product, runner
from twistconn.forms import (Caps, Form, sum_scaled, to_scaled, word_differential,
                             word_mul)
from twistconn.reports import Report
from twistconn.scenario import KNOWN_CHECKS, load_scenario, load_scenario_file
from twistconn.tdga import ProductForm, add_column, embed_x, pair_degree
from twistconn.twist import AlgebraTwist, word_twist

SWAP_CHECKS = {"swap-compat-e", "swap-compat-f", "swap-cross-morphisms"}


def scenario(q, s):
    rows = "".join(f"{a} {b}\n" for a, b in s)
    return load_scenario(f"q: {q}\nm: 2\nn: 2\nmax_exponent: 1\n"
                         f"max_degree: 1\n[S]\n{rows}[T]\n1 2\n1 3\n")


def ungated_red(sc):
    """The results that fail when every check runs ungated, in run order."""
    objs = runner.build_objects(sc)
    report = Report(config=sc.config_echo())
    by_name = {check.name: check for check in runner.CHECKS}
    for name in runner.resolve_checks(list(KNOWN_CHECKS)):
        report.add(by_name[name].run(objs, sc, report))
    return [r for r in report.results if r.failed]


def red_results(q, s):
    return ungated_red(scenario(q, s))


def red_checks(q, s):
    """Names of the checks that fail when every check runs ungated."""
    return {r.name for r in red_results(q, s)}


class _Inverse:
    """A module twist seen through M^{-k} where the kernel asks for M^{k}."""

    def __init__(self, mt):
        self.mt = mt

    def matrix_power(self, k):
        return self.mt.matrix_power(-k)


class _Transposed:
    """A right module twist whose matrix powers come back transposed."""

    def __init__(self, rmt):
        self.rmt = rmt
        self.rank = rmt.rank

    def matrix_power(self, k):
        return tuple(zip(*self.rmt.matrix_power(k)))


# the left action's kernel: act_left and the cached columns both call it
def left_with_t_inverse(monkeypatch):
    kernel = bimodule._left_term
    monkeypatch.setattr(bimodule, "_left_term", lambda twist, rmt, lmt, *rest:
                        kernel(twist, rmt, _Inverse(lmt), *rest))


def left_with_s_forward(monkeypatch):
    kernel = bimodule._left_term
    monkeypatch.setattr(bimodule, "_left_term", lambda twist, rmt, lmt, *rest:
                        kernel(twist, _Inverse(rmt), lmt, *rest))


def _normal_form(base, step):
    """bimodule._right_normal with ``base`` · d(t) t^b as its base case and
    ``step`` in place of the -1 of its recursion.

    A private copy, so that no mutant reaches the module's cache.
    """
    @lru_cache(maxsize=None)
    def normal(a, b):
        if a == 0:
            return ((1, b, base),)
        acc = {(a + 1, b): 1}
        for s in range(a):
            for c, e, co in normal(s, a - s + b):
                acc[(c, e)] = acc.get((c, e), 0) + step * co
        return tuple((c, e, co) for (c, e), co in sorted(acc.items()) if co)

    return normal


def right_normal_base_sign_flipped(monkeypatch):
    monkeypatch.setattr(bimodule, "_right_normal", _normal_form(-1, -1))


def right_normal_recursion_sign_flipped(monkeypatch):
    # d(t) t^b is untouched, so only 1-forms x^a dx x^b with a >= 1 see it
    monkeypatch.setattr(bimodule, "_right_normal", _normal_form(1, 1))


def dropped_q(monkeypatch):
    monkeypatch.setattr(bimodule, "ProductSwap", DroppedQ)


# the factor swap with the 1-form's right power joined before the swap
# value: x^a x^b φ(e_k) c in place of x^a φ(e_k) x^b c (written here, apart
# from FormSwap.apply)
def form_swap_right_power_first(monkeypatch):
    def apply(self, one_form, coords):
        out = [Form.zero(self.gen) for _ in range(self.rank)]
        for (a, b), c in one_form.terms.items():
            power = Form.word(self.gen, (a + b,), c)
            for k in range(self.rank):
                for l in range(self.rank):
                    out[l] = out[l] + power * self.values[l][k] * coords[k]
        return out

    monkeypatch.setattr(connections.FormSwap, "apply", apply)


# the swap of d(x^cc) ⊗ 1 past an f-block term with the form joined on the
# wrong side of the naive x-power: x^a d(x^cc) in place of d(x^cc) x^a
def generator_x_form_after_power(monkeypatch):
    kernel = bimodule.ProductSwap._generator_x

    def after(self, cc, t):
        if t[0] < self.m:
            return kernel(self, cc, t)
        nd, naive = self._naive(t)
        return self._free([((k, (word_mul(wxk, w), wyk)), c * s, nd)
                           for (k, (wxk, wyk)), c in naive
                           for w, s in word_differential((cc,)).items()])

    monkeypatch.setattr(bimodule.ProductSwap, "_generator_x", after)


# the swap of x^i ⊗ d(y^cc) past an f-block term at q = 1: the algebra
# twist past the naive x-power is dropped
def generator_y_untwisted(monkeypatch):
    kernel = bimodule.ProductSwap._generator_y

    def untwisted(self, i, cc, t):
        if t[0] < self.m:
            return kernel(self, i, cc, t)
        flat = bimodule.ProductSwap(AlgebraTwist(1), self.rmt, self.lmt,
                                    self.swap_e, self.swap_f)
        return kernel(flat, i, cc, t)

    monkeypatch.setattr(bimodule.ProductSwap, "_generator_y", untwisted)


def free_to_naive_transposed(monkeypatch):
    f_free_to_naive = product.f_free_to_naive

    def transposed(rmt, coords):
        return f_free_to_naive(_Transposed(rmt), coords)

    for module in (product, bimodule):
        monkeypatch.setattr(module, "f_free_to_naive", transposed)


def _inverse_twist_term(rmt, table):
    """The inverse-twist term d(x^i) ⊗ f_l y^j of ∇ on degree-0 free
    f-block terms, in free coordinates, f-slots from 0 (written here, apart
    from the kernel)."""
    acc = {}
    for (l, (wx, wy)), c in product.f_free_to_naive(rmt, table).items():
        add_column(acc, c, [((l, (w, wy)), s)
                            for w, s in word_differential(wx).items()])
    return product.f_naive_to_free(rmt, acc)


# ∇ of degree-0 f-terms without the inverse-twist term
def inverse_twist_dropped(monkeypatch):
    kernel = product.ProductConnection._nabla_term

    def dropped(self, slot, pair):
        out = kernel(self, slot, pair)
        if slot >= self.m and pair_degree(pair) == 0:
            term = _inverse_twist_term(self.rmt, {(slot - self.m, pair): 1})
            add_column(out, -1, [((self.m + l, w), c)
                                 for (l, w), c in term.items()])
        return out

    monkeypatch.setattr(product.ProductConnection, "_nabla_term", dropped)


# ∇ negated on the f-block coordinates of degree >= 1
def f_rest_negated(monkeypatch):
    kernel = product.ProductConnection._nabla_term

    def negated(self, slot, pair):
        out = kernel(self, slot, pair)
        if slot >= self.m and pair_degree(pair) >= 1:
            return {t: -c for t, c in out.items()}
        return out

    monkeypatch.setattr(product.ProductConnection, "_nabla_term", negated)


def _unscaled_add(acc, den, c, cden, column):
    """forms.add_scaled whose lcm merge does not rescale the accumulator."""
    if cden != den:
        lcm = math.lcm(den, cden)
        c *= lcm // cden
        den = lcm
    for t, v in column:
        v *= c
        old = acc.get(t)
        if old is None:
            acc[t] = v
        elif v + old:
            acc[t] = v + old
        else:
            del acc[t]
    return den


# integer column sums: the accumulator keeps its old numerators over the
# merged denominator; ∇ sums through forms.sum_scaled, so patching forms
# reaches the connection's columns too
def lcm_merge_unscaled(monkeypatch):
    for module in (forms, bimodule):
        monkeypatch.setattr(module, "add_scaled", _unscaled_add)


def _last_term_dropped(table, column):
    """forms.sum_scaled that drops the last term of a table of two or more
    terms."""
    den, terms = table
    if len(terms) > 1:
        terms = dict(list(terms.items())[:-1])
    return sum_scaled((den, terms), column)


# column sums that lose a term, wherever a table has two or more: ∇ sums
# through product's copy, the swap checks and bimodule-axiom through
# bimodule's
def sum_scaled_last_term_dropped(monkeypatch):
    for module in (forms, product, bimodule):
        monkeypatch.setattr(module, "sum_scaled", _last_term_dropped)


# the e-block image of a matrix of x-forms with the twisted product's
# operands swapped: coord · (entry ⊗ 1) in place of (entry ⊗ 1) · coord
# (written here, apart from the kernel)
def e_matrix_image_operands_swapped(monkeypatch):
    def swapped(twist, coords, matrix):
        return [sum((twist.mul(coord, embed_x(entry))
                     for entry, coord in zip(row, coords)
                     if not entry.is_zero and not coord.is_zero), ProductForm.zero())
                for row in matrix]

    monkeypatch.setattr(product, "e_matrix_image", swapped)


# the product differential without the Koszul sign (-1)^{deg u} on the
# y-part, in the key differential the shared Terms.d sums
def koszul_sign_dropped(monkeypatch):
    def unsigned(pair):
        wx, wy = pair
        return [((w, wy), s) for w, s in word_differential(wx).items()] + \
            [((wx, w), s) for w, s in word_differential(wy).items()]

    monkeypatch.setattr(ProductForm, "key_differential", staticmethod(unsigned))


def _kernel_replaced(monkeypatch, kernel, mutant):
    """The word kernels of forms are imported by name, so a kernel is
    patched in every twistconn module that holds it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "twistconn":
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, mutant)


# word products that add a letter where equal nonzero exponents meet
def word_mul_merging_equal_exponents(monkeypatch):
    _kernel_replaced(monkeypatch, word_mul, merge_equal_exponents)


# word products of more than four letters that lose their last letter
def word_mul_dropping_a_letter(monkeypatch):
    _kernel_replaced(monkeypatch, word_mul, drop_letter)


# the differential of a word with an odd letter count doubled; d^2 = 0 holds
def word_differential_doubled_on_odd_letters(monkeypatch):
    _kernel_replaced(monkeypatch, word_differential, doubled_on_odd_letters)


def _odd_powers_dropped(twist, u, v):
    """AlgebraTwist.mul_scaled with q^e read as 1 for odd e (written here,
    apart from the kernel)."""
    (du, tu), (dv, tv) = u, v
    acc = {}
    for (s, (ux, uy)), nu in tu.items():
        for (vx, vy), nv in tv.items():
            sign, e = word_twist(uy, vx)
            c = sign * nu * nv * (1 if e % 2 else twist.qpow(e))
            add_column(acc, 1, [((s, (word_mul(ux, vx), word_mul(uy, vy))), c)])
    return to_scaled(acc.items(), Fraction(1, du * dv))


# the twisted-product kernel that the right action, AlgebraTwist.mul and the
# swap's right columns share, with the odd powers of q dropped
def product_kernel_odd_powers_dropped(monkeypatch):
    monkeypatch.setattr(AlgebraTwist, "mul_scaled", _odd_powers_dropped)


NABLA_CHECKS = {"leibniz", "curvature-formula", "flatness",
                "quantum-plane-report", "bimodule-theorem"}

# every check whose sums meet a table of two or more terms on the
# mutation scenario
SUMMATION_CHECKS = {"curvature-formula", "flatness", "quantum-plane-report",
                    "bimodule-axiom"} | SWAP_CHECKS | {"bimodule-theorem"}

ROWS = [
    (left_with_t_inverse, SYMMETRIC_S,
     {"swap-cross-morphisms", "bimodule-theorem"}),
    (left_with_s_forward, SYMMETRIC_S,
     {"swap-compat-f", "swap-cross-morphisms", "bimodule-theorem"}),
    (right_normal_base_sign_flipped, SYMMETRIC_S, SWAP_CHECKS | {"bimodule-theorem"}),
    (right_normal_recursion_sign_flipped, SYMMETRIC_S, SWAP_CHECKS),
    (dropped_q, SYMMETRIC_S, {"swap-cross-morphisms", "bimodule-theorem"}),
    (generator_x_form_after_power, SYMMETRIC_S,
     {"swap-cross-morphisms", "bimodule-theorem"}),
    (generator_x_form_after_power, NON_SYMMETRIC_S,
     {"swap-cross-morphisms", "bimodule-theorem"}),
    # bimodule-connection-x/y stay green: at caps 1,1 they swap only dx and
    # dy, whose right power is 1
    (form_swap_right_power_first, SYMMETRIC_S, {"swap-compat-e", "swap-compat-f"}),
    (generator_y_untwisted, SYMMETRIC_S, {"swap-compat-f", "bimodule-theorem"}),
    (generator_y_untwisted, NON_SYMMETRIC_S,
     {"swap-compat-f", "bimodule-theorem"}),
    # survives every check with the symmetric S
    (free_to_naive_transposed, SYMMETRIC_S, set()),
    (free_to_naive_transposed, NON_SYMMETRIC_S,
     {"leibniz", "quantum-plane-report", "swap-compat-f",
      "swap-cross-morphisms", "bimodule-theorem"}),
    (inverse_twist_dropped, SYMMETRIC_S, NABLA_CHECKS),
    (inverse_twist_dropped, NON_SYMMETRIC_S, NABLA_CHECKS),
    # survives every check here: no y-side potential with nonzero
    # curvature (see test_f_rest_negated_turns_curvature_formula_red)
    (f_rest_negated, SYMMETRIC_S, set()),
    (f_rest_negated, NON_SYMMETRIC_S, set()),
    # dga-laws checks its own word tables and leibniz only meets degree-0
    # inputs, so only the curvature checks guard the product differential
    (koszul_sign_dropped, SYMMETRIC_S, {"curvature-formula", "flatness"}),
    (koszul_sign_dropped, NON_SYMMETRIC_S, {"curvature-formula", "flatness"}),
    # survives every check here: at integer q with unimodular S and T every
    # column has denominator 1, so no merge rescales (see
    # test_lcm_merge_unscaled_turns_cross_morphisms_red)
    (lcm_merge_unscaled, SYMMETRIC_S, set()),
    (lcm_merge_unscaled, NON_SYMMETRIC_S, set()),
    (sum_scaled_last_term_dropped, SYMMETRIC_S, SUMMATION_CHECKS),
    (sum_scaled_last_term_dropped, NON_SYMMETRIC_S, SUMMATION_CHECKS),
    # survives every check here: with no potential, e_matrix_image meets only
    # zero curvature matrices (see test_e_matrix_image_row_on_shipped_scenarios)
    (e_matrix_image_operands_swapped, SYMMETRIC_S, set()),
    (word_mul_merging_equal_exponents, SYMMETRIC_S,
     {"twist-axioms", "dga-laws", "leibniz", "bimodule-axiom"}
     | SWAP_CHECKS | {"bimodule-theorem"}),
    # at caps 1,1 no word product that dga-laws or twist-axioms forms has
    # more than four letters; the products of the swap's 1-forms do
    (word_mul_dropping_a_letter, SYMMETRIC_S,
     {"swap-compat-e", "swap-cross-morphisms"}),
    (word_differential_doubled_on_odd_letters, SYMMETRIC_S,
     {"dga-laws", "leibniz", "bimodule-connection-x", "bimodule-connection-y"}
     | SWAP_CHECKS | {"bimodule-theorem"}),
    # leibniz stays green: d keeps letter counts, so v·w and its three
    # products carry the same q-power, and this scenario has no potential
    (product_kernel_odd_powers_dropped, SYMMETRIC_S,
     {"quantum-plane-report", "bimodule-axiom"} | SWAP_CHECKS),
]


@pytest.mark.parametrize("s", [SYMMETRIC_S, NON_SYMMETRIC_S])
@pytest.mark.parametrize("q", [2, -3])
def test_unmutated_runtime_passes_every_check(q, s):
    assert red_checks(q, s) == set()


@pytest.mark.parametrize("q", [2, -3])
@pytest.mark.parametrize("mutate, s, red", ROWS,
                         ids=[f"{row[0].__name__}-S{row[1]}" for row in ROWS])
def test_mutant_turns_checks_red(monkeypatch, mutate, s, red, q):
    mutate(monkeypatch)
    assert red_checks(q, s) == red


def red(name, cases, witness, **detail):
    """The to_dict() of a failed result."""
    out = {"name": name, "verdict": "fail", "cases": cases, "witness": witness}
    if detail:
        out["detail"] = detail
    return out


def morphisms(e_left="pass", e_right="pass", f_left="pass", f_right="pass"):
    """The detail of swap-cross-morphisms: y-form/e-block, x-form/f-block."""
    return {"yform_eblock_left": e_left, "yform_eblock_right": e_right,
            "xform_fblock_left": f_left, "xform_fblock_right": f_right}


def compat(equation="pass", left="pass", right="pass", agrees=True):
    """The detail of swap-compat-e/f."""
    return {"equation": equation, "left_morphism": left,
            "right_morphism": right, "equivalence_agrees": agrees}


_LEFT_Y_E = "left: 1 ⊗ y . (x^0 ⊗ dy) ⊗ e_1 x^0 ⊗ y^0"

_INVERSE_TWIST_DROPPED = [
    red("leibniz", 35, "leibniz fails at x^0 ⊗ f_1 y^0 acted by x ⊗ 1"),
    red("curvature-formula", 12, "curvature formula fails at x^1 ⊗ f_1 y^1"),
    red("flatness", 12, "nonzero curvature at x^1 ⊗ f_1 y^1"),
    red("quantum-plane-report", 0,
        "symbolic display did not match the computed connection"),
    red("bimodule-theorem", 35, "x ⊗ 1 . (x^0 ⊗ f_1 y^0)"),
]

_GENERATOR_X_FORM_AFTER_POWER = [
    red("swap-cross-morphisms", 518,
        "left: x ⊗ 1 . (dx ⊗ y^0) ⊗ x^0 ⊗ f_1 y^0",
        **morphisms(f_left="fail", f_right="fail")),
    red("bimodule-theorem", 43, "x ⊗ 1 . (x^1 ⊗ f_1 y^0)"),
]

# the equation exchanges the factor swap's own images with a module twist,
# so it holds for this swap too; its left-morphism property fails
_FORM_SWAP_RIGHT_POWER_FIRST = [
    red("swap-compat-e", 275, "equation and left-morphism verdicts disagree: "
        "left: x ⊗ 1 . (dx ⊗ y^0) ⊗ e_1 x^0 ⊗ y^0",
        **compat(left="fail", agrees=False)),
    red("swap-compat-f", 274, "left: 1 ⊗ y . (x^0 ⊗ dy) ⊗ x^0 ⊗ f_1 y^0",
        **compat(left="fail")),
]

# the equation of the f-block piece reads only the factor swap
_GENERATOR_Y_UNTWISTED = [
    red("swap-compat-f", 29, "equation and right-morphism verdicts disagree: "
        "right: (x^0 ⊗ dy) ⊗ x^0 ⊗ f_1 y^0 . x ⊗ 1",
        **compat(left="fail", right="fail", agrees=False)),
    red("bimodule-theorem", 42, "1 ⊗ y . (x^1 ⊗ f_1 y^0)"),
]

_KOSZUL_SIGN_DROPPED = [
    red("curvature-formula", 4, "curvature formula fails at e_1 x^1 ⊗ y^1"),
    red("flatness", 4, "nonzero curvature at e_1 x^1 ⊗ y^1"),
]

# every red result of each row, the same at q = 2 and q = -3: verdict,
# cases, witness and detail of each check that turns red
_SUM_SCALED_LAST_TERM_DROPPED = [
    red("curvature-formula", 4, "curvature formula fails at e_1 x^1 ⊗ y^1"),
    red("flatness", 4, "nonzero curvature at e_1 x^1 ⊗ y^1"),
    red("quantum-plane-report", 0,
        "symbolic display did not match the computed connection"),
    red("swap-compat-e", 82, "y^1 ⊗ dx ⊗ e_1",
        **compat(equation="fail", left="fail", right="fail")),
    red("swap-compat-f", 82, "dy ⊗ f_1 ⊗ x^1",
        **compat(equation="fail", left="fail", right="fail")),
    red("swap-cross-morphisms", 4, "left: 1 ⊗ 1 . (x^0 ⊗ dy) ⊗ e_1 x^0 ⊗ y^0",
        **morphisms(e_left="fail", e_right="fail", f_left="fail",
                    f_right="fail")),
    red("bimodule-axiom", 5, "e_1 x^0 ⊗ y^0 between 1 ⊗ y and 1 ⊗ 1"),
    red("bimodule-theorem", 2, "1 ⊗ y . (e_1 x^0 ⊗ y^0)"),
]

_WORD_MUL_MERGING_EQUAL_EXPONENTS = [
    # the first failing triple breaks both product laws
    red("twist-axioms", 68, "product-right: b=y, a=x, a'=x",
        failed_axioms=["product-left", "product-right"]),
    red("dga-laws", 62, "graded Leibniz at (1, y) * (1, y)"),
    red("leibniz", 6, "leibniz fails at e_1 x^0 ⊗ y^1 acted by 1 ⊗ y"),
    red("swap-compat-e", 66, "equation and left-morphism verdicts disagree: "
        "left: x ⊗ 1 . (dx ⊗ y^0) ⊗ e_1 x^1 ⊗ y^0",
        **compat(left="fail", right="fail", agrees=False)),
    red("swap-compat-f", 62, "equation and right-morphism verdicts disagree: "
        "right: (x^0 ⊗ dy) ⊗ x^1 ⊗ f_1 y^0 . x ⊗ 1",
        **compat(left="fail", right="fail", agrees=False)),
    red("swap-cross-morphisms", 96,
        "left: x ⊗ 1 . (x^1 ⊗ dy) ⊗ e_1 x^0 ⊗ y^0",
        **morphisms(e_left="fail", e_right="fail", f_left="fail",
                    f_right="fail")),
    red("bimodule-axiom", 11, "e_1 x^0 ⊗ y^0 between x ⊗ 1 and x ⊗ 1"),
    red("bimodule-theorem", 6, "1 ⊗ y . (e_1 x^0 ⊗ y^1)"),
]

_WORD_MUL_DROPPING_A_LETTER = [
    red("swap-compat-e", 475, "equation and left-morphism verdicts disagree: "
        "left: x ⊗ 1 . (x dx x ⊗ y^0) ⊗ e_1 x^1 ⊗ y^0",
        **compat(left="fail", agrees=False)),
    red("swap-cross-morphisms", 918,
        "left: x ⊗ 1 . (x dx x ⊗ y^0) ⊗ x^1 ⊗ f_1 y^0",
        **morphisms(f_left="fail", f_right="fail")),
]

_WORD_DIFFERENTIAL_DOUBLED_ON_ODD_LETTERS = [
    red("dga-laws", 62, "graded Leibniz at (1, y) * (1, y)"),
    red("leibniz", 6, "leibniz fails at e_1 x^0 ⊗ y^1 acted by 1 ⊗ y"),
    red("bimodule-connection-x", 6, "gen^1 . e_1 gen^1", generator="x"),
    red("bimodule-connection-y", 6, "gen^1 . e_1 gen^1", generator="y"),
    red("swap-compat-e", 275, "equation and left-morphism verdicts disagree: "
        "left: x ⊗ 1 . (dx ⊗ y^0) ⊗ e_1 x^0 ⊗ y^0",
        **compat(left="fail", agrees=False)),
    red("swap-compat-f", 274, "left: 1 ⊗ y . (x^0 ⊗ dy) ⊗ x^0 ⊗ f_1 y^0",
        **compat(left="fail")),
    red("swap-cross-morphisms", 517, _LEFT_Y_E,
        **morphisms(e_left="fail", f_left="fail")),
    red("bimodule-theorem", 2, "1 ⊗ y . (e_1 x^0 ⊗ y^0)"),
]

_PRODUCT_KERNEL_ODD_POWERS_DROPPED = [
    red("quantum-plane-report", 0,
        "symbolic display did not match the computed connection"),
    red("swap-compat-e", 53, "equation and left-morphism verdicts disagree: "
        "left: 1 ⊗ y . (dx ⊗ y^0) ⊗ e_1 x^0 ⊗ y^0",
        **compat(left="fail", right="fail", agrees=False)),
    red("swap-compat-f", 53, "equation and right-morphism verdicts disagree: "
        "right: (x^0 ⊗ dy) ⊗ x^0 ⊗ f_1 y^0 . x ⊗ 1",
        **compat(left="fail", right="fail", agrees=False)),
    red("swap-cross-morphisms", 74,
        "left: 1 ⊗ y . (x^1 ⊗ dy) ⊗ e_1 x^0 ⊗ y^0",
        **morphisms(e_left="fail", e_right="fail", f_left="fail",
                    f_right="fail")),
    red("bimodule-axiom", 7, "e_1 x^0 ⊗ y^0 between 1 ⊗ y and x ⊗ 1"),
]

RED_RESULTS = {
    (left_with_t_inverse, str(SYMMETRIC_S)): [
        red("swap-cross-morphisms", 770, _LEFT_Y_E, **morphisms(e_left="fail")),
        red("bimodule-theorem", 2, "1 ⊗ y . (e_1 x^0 ⊗ y^0)"),
    ],
    (left_with_s_forward, str(SYMMETRIC_S)): [
        red("swap-compat-f", 275, "left: x ⊗ 1 . (x^0 ⊗ dy) ⊗ x^0 ⊗ f_1 y^0",
            **compat(left="fail")),
        red("swap-cross-morphisms", 771,
            "left: x ⊗ 1 . (dx ⊗ y^0) ⊗ x^0 ⊗ f_1 y^0",
            **morphisms(f_left="fail")),
        red("bimodule-theorem", 35, "x ⊗ 1 . (x^0 ⊗ f_1 y^0)"),
    ],
    (right_normal_base_sign_flipped, str(SYMMETRIC_S)): [
        red("swap-compat-e", 275, "equation and left-morphism verdicts "
            "disagree: left: x ⊗ 1 . (dx ⊗ y^0) ⊗ e_1 x^0 ⊗ y^0",
            **compat(left="fail", agrees=False)),
        red("swap-compat-f", 274, "left: 1 ⊗ y . (x^0 ⊗ dy) ⊗ x^0 ⊗ f_1 y^0",
            **compat(left="fail")),
        red("swap-cross-morphisms", 517, _LEFT_Y_E,
            **morphisms(e_left="fail", f_left="fail")),
        red("bimodule-theorem", 2, "1 ⊗ y . (e_1 x^0 ⊗ y^0)"),
    ],
    (right_normal_recursion_sign_flipped, str(SYMMETRIC_S)): [
        red("swap-compat-e", 275, "equation and left-morphism verdicts "
            "disagree: left: x ⊗ 1 . (dx ⊗ y^0) ⊗ e_1 x^0 ⊗ y^0",
            **compat(left="fail", agrees=False)),
        red("swap-compat-f", 274, "left: 1 ⊗ y . (x^0 ⊗ dy) ⊗ x^0 ⊗ f_1 y^0",
            **compat(left="fail")),
        red("swap-cross-morphisms", 517, _LEFT_Y_E,
            **morphisms(e_left="fail", f_left="fail")),
    ],
    # both conditions of the y-form/e-block piece fail, so that piece stops
    # at the comparison where the second one failed
    (dropped_q, str(SYMMETRIC_S)): [
        red("swap-cross-morphisms", 525,
            "left: 1 ⊗ y . (x^0 ⊗ dy) ⊗ e_1 x^1 ⊗ y^0",
            **morphisms(e_left="fail", e_right="fail")),
        red("bimodule-theorem", 10, "1 ⊗ y . (e_1 x^1 ⊗ y^0)"),
    ],
    (generator_x_form_after_power, str(SYMMETRIC_S)):
        _GENERATOR_X_FORM_AFTER_POWER,
    (generator_x_form_after_power, str(NON_SYMMETRIC_S)):
        _GENERATOR_X_FORM_AFTER_POWER,
    (form_swap_right_power_first, str(SYMMETRIC_S)):
        _FORM_SWAP_RIGHT_POWER_FIRST,
    (generator_y_untwisted, str(SYMMETRIC_S)): _GENERATOR_Y_UNTWISTED,
    (generator_y_untwisted, str(NON_SYMMETRIC_S)): _GENERATOR_Y_UNTWISTED,
    (free_to_naive_transposed, str(SYMMETRIC_S)): [],
    (free_to_naive_transposed, str(NON_SYMMETRIC_S)): [
        red("leibniz", 35, "leibniz fails at x^0 ⊗ f_1 y^0 acted by x ⊗ 1"),
        red("quantum-plane-report", 0,
            "symbolic display did not match the computed connection"),
        red("swap-compat-f", 275, "equation and right-morphism verdicts "
            "disagree: right: (x^0 ⊗ dy) ⊗ x^0 ⊗ f_1 y^0 . x ⊗ 1",
            **compat(right="fail", agrees=False)),
        red("swap-cross-morphisms", 518,
            "left: x ⊗ 1 . (dx ⊗ y^0) ⊗ x^0 ⊗ f_1 y^0",
            **morphisms(f_left="fail", f_right="fail")),
        red("bimodule-theorem", 35, "x ⊗ 1 . (x^0 ⊗ f_1 y^0)"),
    ],
    (inverse_twist_dropped, str(SYMMETRIC_S)): _INVERSE_TWIST_DROPPED,
    (inverse_twist_dropped, str(NON_SYMMETRIC_S)): _INVERSE_TWIST_DROPPED,
    (f_rest_negated, str(SYMMETRIC_S)): [],
    (f_rest_negated, str(NON_SYMMETRIC_S)): [],
    (koszul_sign_dropped, str(SYMMETRIC_S)): _KOSZUL_SIGN_DROPPED,
    (koszul_sign_dropped, str(NON_SYMMETRIC_S)): _KOSZUL_SIGN_DROPPED,
    (lcm_merge_unscaled, str(SYMMETRIC_S)): [],
    (lcm_merge_unscaled, str(NON_SYMMETRIC_S)): [],
    (sum_scaled_last_term_dropped, str(SYMMETRIC_S)): _SUM_SCALED_LAST_TERM_DROPPED,
    (sum_scaled_last_term_dropped, str(NON_SYMMETRIC_S)):
        _SUM_SCALED_LAST_TERM_DROPPED,
    (e_matrix_image_operands_swapped, str(SYMMETRIC_S)): [],
    (word_mul_merging_equal_exponents, str(SYMMETRIC_S)):
        _WORD_MUL_MERGING_EQUAL_EXPONENTS,
    (word_mul_dropping_a_letter, str(SYMMETRIC_S)): _WORD_MUL_DROPPING_A_LETTER,
    (word_differential_doubled_on_odd_letters, str(SYMMETRIC_S)):
        _WORD_DIFFERENTIAL_DOUBLED_ON_ODD_LETTERS,
    (product_kernel_odd_powers_dropped, str(SYMMETRIC_S)):
        _PRODUCT_KERNEL_ODD_POWERS_DROPPED,
}


@pytest.mark.parametrize("q", [2, -3])
@pytest.mark.parametrize("mutate, s, red_names", ROWS,
                         ids=[f"{row[0].__name__}-S{row[1]}" for row in ROWS])
def test_mutant_red_results(monkeypatch, mutate, s, red_names, q):
    mutate(monkeypatch)
    expected = RED_RESULTS[(mutate, str(s))]
    assert [r.to_dict() for r in red_results(q, s)] == expected
    assert {d["name"] for d in expected} == red_names


# a y-side potential with nonzero curvature: ∇ of degree >= 1 f-coordinates
# enters the curvature through the second application of ∇
Y_POTENTIAL = ("q: 1\nm: 1\nn: 1\nmax_exponent: 2\nmax_degree: 2\n"
               "[potential_F]\n(1,1): y dy\n")


def y_potential_red_results():
    return [r.to_dict() for r in ungated_red(load_scenario(Y_POTENTIAL))]


def test_f_rest_negated_turns_curvature_formula_red(monkeypatch):
    clean = y_potential_red_results()
    assert [d["name"] for d in clean] == ["bimodule-connection-y",
                                          "bimodule-theorem"]
    f_rest_negated(monkeypatch)
    mutated = y_potential_red_results()
    assert mutated == [red("curvature-formula", 10, "curvature formula fails "
                           "at x^0 ⊗ f_1 y^0")] + clean


def test_lcm_merge_unscaled_turns_cross_morphisms_red(monkeypatch):
    """With S = [[2, 0], [1, 1]] (det 2) the f-block columns have
    denominators, and the unscaled merge turns swap-cross-morphisms red."""
    assert red_results(2, HALVING_S) == []
    lcm_merge_unscaled(monkeypatch)
    assert [r.to_dict() for r in red_results(2, HALVING_S)] == [
        red("swap-cross-morphisms", 687,
            "left: x ⊗ y . (dx ⊗ y^0) ⊗ x^1 ⊗ f_1 y^0",
            **morphisms(f_left="fail", f_right="fail"))]


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = ("bad_hypothesis_q2", "bimodule_q2", "classical_q1", "grassmann_q2",
           "potential_e_q2")


@pytest.mark.parametrize("name", SHIPPED)
def test_e_matrix_image_row_on_shipped_scenarios(monkeypatch, name):
    """Ungated at shipped caps, the swapped operands newly turn
    curvature-formula and quantum-plane-report red on potential_e_q2, whose
    x-side potential has nonzero curvature, and change no result on the
    other shipped scenarios."""
    sc = load_scenario_file(str(SCENARIO_DIR / f"{name}.cfg"))
    clean = [r.to_dict() for r in ungated_red(sc)]
    e_matrix_image_operands_swapped(monkeypatch)
    new = [red("curvature-formula", 2, "curvature formula fails at e_1 x^0 ⊗ y^1"),
           red("quantum-plane-report", 0,
               "symbolic display did not match the computed connection")]
    assert [r.to_dict() for r in ungated_red(sc)] == \
        (new if name == "potential_e_q2" else []) + clean


def test_sum_scaled_last_term_dropped_on_potential_e(monkeypatch):
    """On potential_e_q2 at its shipped caps and seed, a column sum that
    loses a term escapes leibniz: it decides each input from its one-term
    inputs, whose products have one term, and a lossy sum breaks the
    linearity that carries them to the input.  Its per-case reference
    fails, and curvature-formula fails as its reference does."""
    sc = load_scenario_file(str(SCENARIO_DIR / "potential_e_q2.cfg"))
    sum_scaled_last_term_dropped(monkeypatch)

    def result(check):
        return check(runner.build_objects(sc).pc, sc.caps, sc.seed).to_dict()

    assert result(product.check_connection_leibniz) == {
        "name": "leibniz", "verdict": "pass", "cases": 1168}
    assert result(leibniz_reference) == red(
        "leibniz", 769, "leibniz fails at random acted by 1 ⊗ 1")
    curvature = red("curvature-formula", 2,
                    "curvature formula fails at e_1 x^0 ⊗ y^1")
    assert result(product.check_curvature_formula) == curvature
    assert result(curvature_formula_reference) == curvature


@pytest.mark.parametrize("caps", [Caps(2, 1), None], ids=["caps2,1", "shipped"])
def test_odd_powers_dropped_turns_leibniz_red(monkeypatch, caps):
    """leibniz, called ungated, turns red on bad_hypothesis_q2, whose
    y-side potential meets odd powers of q; it stays green on
    potential_e_q2 (an x-side potential) and on classical_q1 (q = 1)."""
    product_kernel_odd_powers_dropped(monkeypatch)

    def leibniz(name):
        sc = load_scenario_file(str(SCENARIO_DIR / f"{name}.cfg"))
        return product.check_connection_leibniz(
            runner.build_objects(sc).pc, caps or sc.caps, sc.seed).to_dict()

    assert leibniz("bad_hypothesis_q2") == red(
        "leibniz", 88, "leibniz fails at x^0 ⊗ f_1 y^0 acted by x^2 ⊗ 1")
    assert leibniz("potential_e_q2")["verdict"] == "pass"
    assert leibniz("classical_q1")["verdict"] == "pass"


def test_right_normal_matches_recursion():
    """The two-term normal form equals the defining recursion."""
    recursion = _normal_form(1, -1)
    for a in range(7):
        for b in range(7):
            assert bimodule._right_normal(a, b) == recursion(a, b)
