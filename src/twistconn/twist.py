"""The q-commutation twisting map, its lift to forms, and module twists.

The algebra twist interchanges the two polynomial factors by
y x = q x y; on universal forms the unique compatible lift acts on basis
words by

    (y-word) ⊗ (x-word)  ->  (-1)^{deg_x deg_y} q^{letters_x * letters_y}
                               (x-word) ⊗ (y-word),

where the letter count of a word is degree + sum of exponents.  This closed
form is what runs everywhere; the defining recursion (base case plus the
multiplicativity and differential-compatibility rules) is kept in the test
suite as an independent oracle.

Module twists carry the free-module factors across the algebra factors.
The right twist on the rank-n module over the y-algebra is parameterized by
one invertible rational matrix S via  f_k ⊗ x -> x ⊗ sum_l S[k][l] f_l,
giving the closed form

    f_k y^j ⊗ x^i  ->  q^{ij} sum_l (S^i)[k][l]  x^i ⊗ f_l y^j,

with inverse obtained by q -> 1/q, S -> S^{-1}.  The left twist on the
rank-m module over the x-algebra mirrors this with a matrix T whose power
is driven by the y-exponent.  Both are one ``ModuleTwist``: its kernel
``cross(k, own, other, sign)`` is q^{sign·own·other} times row k of
M^{sign·other}, where ``own`` is the exponent on the module's side and
``other`` that of the generator crossed.  The two sides only order its
arguments in ``cross_word`` (and ``uncross_word``, which only the right
side needs), and one checker decides the twisting axioms of either side.

Checkers verify the defining axioms exhaustively on bounded bases and
accept pluggable maps with the same call signature, so deliberately
corrupted maps can be exercised.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

from .forms import (Caps, Form, Word, UNIT_WORD, enumerate_words,
                    iter_word_tuples, render_word, word_degree,
                    word_differential, word_letters, word_mul, words_by_degree)
from .rationals import Matrix, MatrixPowers, identity
from .reports import CheckResult, failed, passed
from .tdga import PairWord, ProductForm

CrossFn = Callable[[Form, Form], ProductForm]
ModuleTwistFn = Callable[[int, int, int], list[tuple[Fraction, int]]]


def word_twist(wy: Word, wx: Word) -> tuple[int, int]:
    """The one word kernel: (sign, q-exponent) of carrying wy past wx.

    sign = (-1)^{deg wx · deg wy} and exponent = letters(wx) · letters(wy),
    so the lift sends wy ⊗ wx to sign · q^exponent · wx ⊗ wy, and the
    pair-word product (ux ⊗ wy)(wx ⊗ vy) has that coefficient.  The
    runtime products and the axiom checks all call it.
    """
    dx = len(wx) - 1
    dy = len(wy) - 1
    return -1 if dx * dy % 2 else 1, (dx + sum(wx)) * (dy + sum(wy))


def _times(c: Fraction, f: Fraction) -> Fraction:
    """c · f, with no rational product for f = ±1."""
    if f == 1:
        return c
    return -c if f == -1 else c * f


class AlgebraTwist:
    """The q-deformation twisting map together with its lift and inverse."""

    def __init__(self, q):
        self.q = Fraction(q)
        if not self.q:
            raise ValueError("q must be nonzero")
        self._powers: dict[int, Fraction] = {0: Fraction(1)}

    def qpow(self, e: int) -> Fraction:
        cache = self._powers
        if e not in cache:
            cache[e] = self.q ** e
        return cache[e]

    # ---- closed forms on words ----------------------------------------
    def cross_coeff(self, wy: Word, wx: Word) -> Fraction:
        sign, e = word_twist(wy, wx)
        return self.qpow(e) if sign > 0 else -self.qpow(e)

    def uncross_coeff(self, wx: Word, wy: Word) -> Fraction:
        sign, e = word_twist(wy, wx)
        return self.qpow(-e) if sign > 0 else -self.qpow(-e)

    # ---- element level -------------------------------------------------
    def cross(self, yform: Form, xform: Form) -> ProductForm:
        """Lifted twisting map: y-forms move right, x-forms move left."""
        if yform.gen != "y" or xform.gen != "x":
            raise ValueError("cross expects (y-form, x-form)")
        # distinct (wy, wx) give distinct keys, so nothing accumulates
        out: dict[PairWord, Fraction] = {}
        for wy, cy in yform.terms.items():
            for wx, cx in xform.terms.items():
                out[(wx, wy)] = _times(_times(self.cross_coeff(wy, wx), cy), cx)
        return ProductForm(out)

    def uncross(self, xform: Form, yform: Form) -> dict[tuple[Word, Word], Fraction]:
        """Inverse crossing; keys are (y-word, x-word) pairs."""
        if yform.gen != "y" or xform.gen != "x":
            raise ValueError("uncross expects (x-form, y-form)")
        out: dict[tuple[Word, Word], Fraction] = {}
        for wx, cx in xform.terms.items():
            for wy, cy in yform.terms.items():
                out[(wy, wx)] = _times(_times(self.uncross_coeff(wx, wy), cy), cx)
        return out

    def mul(self, u: ProductForm, v: ProductForm) -> ProductForm:
        """Twisted product (u_x ⊗ u_y)(v_x ⊗ v_y) via the lift."""
        terms: dict[PairWord, Fraction] = {}
        for (ux, uy), cu in u.terms.items():
            for (vx, vy), cv in v.terms.items():
                sign, e = word_twist(uy, vx)
                c = cu * cv * self.qpow(e)
                if sign < 0:
                    c = -c
                key = (word_mul(ux, vx), word_mul(uy, vy))
                c2 = terms.get(key, Fraction(0)) + c
                if c2:
                    terms[key] = c2
                elif key in terms:
                    del terms[key]
        return ProductForm(terms)


class ModuleTwist:
    """Carries a free module factor across the other polynomial algebra.

    ``matrix`` is the invertible mixing matrix; the rank is its size.  The
    one kernel is :meth:`cross`; a side only orders its arguments.
    """

    def __init__(self, twist: AlgebraTwist, matrix: Matrix | Sequence[Sequence] | None = None,
                 rank: int | None = None):
        self.twist = twist
        if matrix is None:
            if rank is None:
                raise ValueError("need a matrix or a rank")
            matrix = identity(rank)
        self._powers = MatrixPowers(matrix)

    @property
    def rank(self) -> int:
        return self._powers.size

    @property
    def matrix(self) -> Matrix:
        return self._powers.mat

    def matrix_power(self, k: int) -> Matrix:
        return self._powers.power(k)

    def cross(self, k: int, own: int, other: int,
              sign: int = 1) -> list[tuple[Fraction, int]]:
        """Slot k with its own exponent past the other generator's power.

        q^{sign·own·other} times row k of M^{sign·other}, as (coeff, slot)
        pairs; sign -1 gives the inverse crossing.
        """
        q = self.twist.qpow(sign * own * other)
        row = self.matrix_power(sign * other)[k]
        return [(q * row[l], l) for l in range(self.rank) if row[l]]


class RightModuleTwist(ModuleTwist):
    """Carries the free y-module factor across the x-algebra (matrix S)."""

    def cross_word(self, k: int, j: int, i: int) -> list[tuple[Fraction, int]]:
        """f_k y^j ⊗ x^i  ->  sum of (coeff, l) with x^i ⊗ f_l y^j."""
        return self.cross(k, j, i)

    def uncross_word(self, i: int, k: int, j: int) -> list[tuple[Fraction, int]]:
        """x^i ⊗ f_k y^j  ->  sum of (coeff, l) with f_l y^j ⊗ x^i."""
        return self.cross(k, j, i, -1)


class LeftModuleTwist(ModuleTwist):
    """Carries the free x-module factor across the y-algebra (matrix T)."""

    def cross_word(self, j: int, k: int, i: int) -> list[tuple[Fraction, int]]:
        """y^j ⊗ e_k x^i  ->  sum of (coeff, l) with e_l x^i ⊗ y^j."""
        return self.cross(k, i, j)


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------

def _default_cross(twist: AlgebraTwist) -> CrossFn:
    return twist.cross


def _wform(gen: str, w: Word) -> Form:
    return Form.word(gen, w)


def check_twist_axioms(twist: AlgebraTwist, caps: Caps,
                       cross: CrossFn | None = None) -> CheckResult:
    """Unit and multiplicativity axioms of the (lifted) twisting map.

    Units are checked on every word within per-word caps; the two
    multiplicativity conditions are checked on all word triples whose total
    degree stays within caps.max_degree.  For the built-in closed form the
    triple loop compares single scaled word pairs directly (the closed form
    maps words to words); a pluggable map goes through full elements.
    """
    fn = cross or _default_cross(twist)
    cases = 0
    failures: dict[str, str] = {}

    words = enumerate_words(caps.max_degree, caps.max_exponent)
    unit_x = Form.unit("x")
    unit_y = Form.unit("y")
    for w in words:
        cases += 2
        if "unit" in failures:
            break
        got = fn(unit_y, _wform("x", w))
        if got != ProductForm({(w, UNIT_WORD): Fraction(1)}):
            failures["unit"] = f"1 ⊗ {render_word('x', w)} -> {got}"
            continue
        got = fn(_wform("y", w), unit_x)
        if got != ProductForm({(UNIT_WORD, w): Fraction(1)}):
            failures["unit"] = f"{render_word('y', w)} ⊗ 1 -> {got}"

    if cross is None:
        # the merged word's (sign, exponent) must be the product of the two
        # crossing steps'; the rationals decide only unequal pairs (q = ±1)
        qpow = twist.qpow

        def agrees(merged: tuple[int, int], first: tuple[int, int],
                   second: tuple[int, int]) -> bool:
            (s, e), (s1, e1), (s2, e2) = merged, first, second
            return (s == s1 * s2 and e == e1 + e2) or \
                s * qpow(e) == s1 * s2 * qpow(e1) * qpow(e2)

        for wb, wa, wa2 in iter_word_tuples(3, caps):
            cases += 2
            if not agrees(word_twist(wb, word_mul(wa, wa2)),
                          word_twist(wb, wa), word_twist(wb, wa2)):
                failures.setdefault(
                    "product-right",
                    f"b={render_word('y', wb)}, a={render_word('x', wa)}, "
                    f"a'={render_word('x', wa2)}")
                break
            # mirror roles: wb, wa as the two y-words, wa2 as the x-word
            if not agrees(word_twist(word_mul(wb, wa), wa2),
                          word_twist(wb, wa2), word_twist(wa, wa2)):
                failures.setdefault(
                    "product-left",
                    f"b={render_word('y', wb)}, b'={render_word('y', wa)}, "
                    f"a={render_word('x', wa2)}")
                break
    else:
        def compose_right(wb: Word, wa: Word, wa2: Word) -> ProductForm:
            # (mu_A ⊗ B) o (A ⊗ R) o (R ⊗ A)
            out: dict[PairWord, Fraction] = {}
            for (ax, by), c in fn(_wform("y", wb), _wform("x", wa)).terms.items():
                for (ax2, by2), c2 in fn(_wform("y", by),
                                         _wform("x", wa2)).terms.items():
                    key = (word_mul(ax, ax2), by2)
                    out[key] = out.get(key, Fraction(0)) + c * c2
            return ProductForm(out)

        def compose_left(wb: Word, wb2: Word, wa: Word) -> ProductForm:
            # (A ⊗ mu_B) o (R ⊗ B) o (B ⊗ R)
            out: dict[PairWord, Fraction] = {}
            for (ax, by2), c in fn(_wform("y", wb2), _wform("x", wa)).terms.items():
                for (ax2, by), c2 in fn(_wform("y", wb),
                                        _wform("x", ax)).terms.items():
                    key = (ax2, word_mul(by, by2))
                    out[key] = out.get(key, Fraction(0)) + c * c2
            return ProductForm(out)

        for wb, wa, wa2 in iter_word_tuples(3, caps):
            cases += 1
            lhs = fn(_wform("y", wb), _wform("x", word_mul(wa, wa2)))
            if lhs != compose_right(wb, wa, wa2):
                failures.setdefault(
                    "product-right",
                    f"b={render_word('y', wb)}, a={render_word('x', wa)}, "
                    f"a'={render_word('x', wa2)}")
                break
        for wb, wb2, wa in iter_word_tuples(3, caps):
            cases += 1
            lhs = fn(_wform("y", word_mul(wb, wb2)), _wform("x", wa))
            if lhs != compose_left(wb, wb2, wa):
                failures.setdefault(
                    "product-left",
                    f"b={render_word('y', wb)}, b'={render_word('y', wb2)}, "
                    f"a={render_word('x', wa)}")
                break

    name = "twist-axioms"
    if failures:
        axiom, witness = next(iter(failures.items()))
        return failed(name, f"{axiom}: {witness}", cases,
                      failed_axioms=sorted(failures))
    return passed(name, cases)


def check_lift_compat(twist: AlgebraTwist, caps: Caps,
                      cross: CrossFn | None = None) -> CheckResult:
    """Differential compatibility of the lift on bounded word pairs."""
    fn = cross or _default_cross(twist)
    cases = 0
    witness = None
    # each word's form and differential, built once per check
    forms = {gen: {w: (_wform(gen, w), Form(gen, word_differential(w)))
                   for w in enumerate_words(caps.max_degree, caps.max_exponent)}
             for gen in "xy"}

    def apply_d(p: ProductForm, side: int) -> ProductForm:
        # d on the x-factor (side 0) or the y-factor (side 1) of each pair,
        # signed by the degree of the other factor
        out: dict[PairWord, Fraction] = {}
        for pair, c in p.terms.items():
            other = pair[1 - side]
            if len(other) % 2 == 0:
                c = -c
            for nw, s in word_differential(pair[side]).items():
                key = (nw, other) if side == 0 else (other, nw)
                v = _times(c, s)
                out[key] = out[key] + v if key in out else v
        return ProductForm(out)

    for wb, wa in iter_word_tuples(2, caps):
        cases += 2
        (yb, dyb), (xa, dxa) = forms["y"][wb], forms["x"][wa]
        base = fn(yb, xa)
        lhs = fn(dyb, xa)
        rhs = apply_d(base, 1)
        if lhs != rhs:
            witness = (f"d on y-side at ({render_word('y', wb)}, "
                       f"{render_word('x', wa)}): {lhs} != {rhs}")
            break
        lhs = fn(yb, dxa)
        rhs = apply_d(base, 0)
        if lhs != rhs:
            witness = (f"d on x-side at ({render_word('y', wb)}, "
                       f"{render_word('x', wa)}): {lhs} != {rhs}")
            break

    name = "lift-compat"
    if witness:
        return failed(name, witness, cases)
    return passed(name, cases)


def check_right_module_twist(rmt: RightModuleTwist, caps: Caps,
                             twist_map: ModuleTwistFn | None = None) -> CheckResult:
    """Unitality and the two right module twisting conditions."""
    fn = twist_map or rmt.cross_word
    return _check_module_twist(rmt, caps, "right", fn)


def check_left_module_twist(lmt: LeftModuleTwist, caps: Caps,
                            twist_map: ModuleTwistFn | None = None) -> CheckResult:
    """Mirror checks for the left module twisting map."""
    fn = twist_map or lmt.cross_word
    return _check_module_twist(lmt, caps, "left",
                               lambda k, own, other: fn(other, k, own))


# per side: the check name and its unit, multiplicativity and action witnesses
_MODULE_TWIST_SIDES = {
    "right": ("right-module-twist", "unit: f_{k} ⊗ 1 not fixed",
              "multiplicativity at f_{k} y^{own} ⊗ x^{o1} * x^{o2}",
              "module action at f_{k} y^{a} * y^{b} ⊗ x^{o}"),
    "left": ("left-module-twist", "unit: 1 ⊗ e_{k} not fixed",
             "multiplicativity at y^{o1} * y^{o2} ⊗ e_{k} x^{own}",
             "left action at y^{o} ⊗ x^{b} e_{k} x^{a}"),
}


def _check_module_twist(mt: ModuleTwist, caps: Caps, side: str,
                        cross: ModuleTwistFn) -> CheckResult:
    """Shared body of the two module-twist checks, in (slot, own, other) terms.

    ``cross(k, own, other)`` carries slot k with its own-generator exponent
    past a power of the other generator.  Besides the texts, the side fixes
    which crossed factor composes first in the multiplicativity condition
    (the right twist crosses x^{o1} first, the left one y^{o2}) and the
    loop order of the action condition ((a, b, other) on the right, the
    reverse on the left).
    """
    name, unit_text, mult_text, action_text = _MODULE_TWIST_SIDES[side]
    n = mt.rank
    exps = range(caps.max_exponent + 1)
    cases = 0

    def as_vec(terms: list[tuple[Fraction, int]]) -> list[Fraction]:
        vec = [Fraction(0)] * n
        for c, l in terms:
            vec[l] += c
        return vec

    for k in range(n):
        cases += 1
        if as_vec(cross(k, 0, 0)) != as_vec([(Fraction(1), k)]):
            return failed(name, unit_text.format(k=k + 1), cases)

    for k, own, o1, o2 in product(range(n), exps, exps, exps):
        cases += 1
        lhs = as_vec(cross(k, own, o1 + o2))
        first, second = (o1, o2) if side == "right" else (o2, o1)
        rhs = [Fraction(0)] * n
        for c, l in cross(k, own, first):
            for c2, p in cross(l, own, second):
                rhs[p] += c * c2
        if lhs != rhs:
            return failed(name, mult_text.format(k=k + 1, own=own, o1=o1, o2=o2),
                          cases)

    for k, *loop in product(range(n), exps, exps, exps):
        cases += 1
        a, b, o = loop if side == "right" else loop[::-1]
        lhs = as_vec(cross(k, a + b, o))
        scale = mt.twist.qpow(b * o)  # crossing the extra own power b
        rhs = [scale * c for c in as_vec(cross(k, a, o))]
        if lhs != rhs:
            return failed(name, action_text.format(k=k + 1, a=a, b=b, o=o), cases)
    return passed(name, cases)


def check_dga_laws(twist: AlgebraTwist, caps: Caps,
                   letter_budget: int = 8) -> CheckResult:
    """Graded-algebra laws of the product calculus on bounded word bases.

    Verifies, at word level: the unit law and d^2 = 0 on every pair-word
    within per-word caps; the graded Leibniz rule on pair-words of bounded
    total degree; associativity on triples of bounded total degree and
    total letter count; and the degree-0 commutation relation
    (x^a ⊗ y^b)(x^c ⊗ y^d) = q^{bc} x^{a+c} ⊗ y^{b+d} exhaustively.
    """
    qpow = twist.qpow
    by_deg = words_by_degree(caps.max_degree, caps.max_exponent)
    cases = 0

    def d_word(wx: Word, wy: Word) -> dict[PairWord, int]:
        # d(wx ⊗ wy) from the word tables; the two parts never share a key
        out = {(nwx, wy): s for nwx, s in word_differential(wx).items()}
        sx = 1 if len(wx) % 2 else -1
        for nwy, s in word_differential(wy).items():
            out[(wx, nwy)] = sx * s
        return out

    def pair_mul(wx1: Word, wy1: Word, wx2: Word, wy2: Word):
        # (wx1 ⊗ wy1)(wx2 ⊗ wy2) = sign q^e (wx1 wx2 ⊗ wy1 wy2)
        sign, e = word_twist(wy1, wx2)
        return sign, e, word_mul(wx1, wx2), word_mul(wy1, wy2)

    def is_one(sign: int, e: int) -> bool:
        return (sign, e) == (1, 0) or sign * qpow(e) == 1

    def rational(table: dict[tuple[int, PairWord], int]) -> dict[PairWord, Fraction]:
        # the exact value of a table keyed by (q-exponent, pair-word)
        out: dict[PairWord, Fraction] = {}
        for (e, key), s in table.items():
            out[key] = out.get(key, 0) + s * qpow(e)
        return {k: v for k, v in out.items() if v}

    # each basis pair-word with its total degree, letters and differential,
    # sorted by letter count so the pair and triple loops can cut on the budget
    pair_words: list[tuple[int, int, Word, Word]] = []
    for dx in range(caps.max_degree + 1):
        for dy in range(caps.max_degree + 1 - dx):
            for wx in by_deg[dx]:
                lx = word_letters(wx)
                for wy in by_deg[dy]:
                    pair_words.append((dx + dy, lx + word_letters(wy), wx, wy))
    pair_words.sort(key=lambda t: (t[1], t[0], t[2], t[3]))
    diffs = [d_word(wx, wy) for _, _, wx, wy in pair_words]

    # unit law and d^2 = 0 on every pair word
    for (_, _, wx, wy), dw in zip(pair_words, diffs):
        cases += 2
        c, e, mx, my = pair_mul(UNIT_WORD, UNIT_WORD, wx, wy)
        c2, e2, mx2, my2 = pair_mul(wx, wy, UNIT_WORD, UNIT_WORD)
        if not ((mx, my) == (mx2, my2) == (wx, wy) and is_one(c, e)
                and is_one(c2, e2)):
            return failed("dga-laws", f"unit law at ({render_word('x', wx)}, "
                          f"{render_word('y', wy)})", cases)
        acc: dict[PairWord, int] = {}
        for (nwx, nwy), s in dw.items():
            for key, s2 in d_word(nwx, nwy).items():
                acc[key] = acc.get(key, 0) + s * s2
        if any(acc.values()):
            return failed("dga-laws", f"d^2 != 0 at ({render_word('x', wx)}, "
                          f"{render_word('y', wy)})", cases)

    # graded Leibniz on pairs of bounded total degree; both sides as integer
    # tables keyed by (q-exponent, pair-word), decided over the rationals
    # only when the tables differ
    for (d1, l1, ux, uy), du in zip(pair_words, diffs):
        if l1 > letter_budget:
            break
        sign = -1 if d1 % 2 else 1
        for (d2, l2, vx, vy), dv in zip(pair_words, diffs):
            if l1 + l2 > letter_budget:
                break
            if d1 + d2 > caps.max_degree:
                continue
            cases += 1
            cuv, euv, px, py = pair_mul(ux, uy, vx, vy)
            lhs = {(euv, key): cuv * s for key, s in d_word(px, py).items()}
            rhs: dict[tuple[int, PairWord], int] = {}
            for (nux, nuy), s in du.items():
                c, e, mx, my = pair_mul(nux, nuy, vx, vy)
                key = (e, (mx, my))
                rhs[key] = rhs.get(key, 0) + s * c
            for (nvx, nvy), s in dv.items():
                c, e, mx, my = pair_mul(ux, uy, nvx, nvy)
                key = (e, (mx, my))
                rhs[key] = rhs.get(key, 0) + sign * s * c
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs and rational(lhs) != rational(rhs):
                return failed("dga-laws",
                              f"graded Leibniz at ({render_word('x', ux)}, "
                              f"{render_word('y', uy)}) * "
                              f"({render_word('x', vx)}, {render_word('y', vy)})",
                              cases)

    # associativity on bounded triples; integer exponent/sign bookkeeping
    # for both association orders, with the merged words built both ways
    rich = [(dsum, lsum, wx, wy, word_letters(wx), word_letters(wy),
             word_degree(wx), word_degree(wy))
            for dsum, lsum, wx, wy in pair_words]
    max_deg = caps.max_degree
    for d1, l1, ux, uy, lux, luy, dux, duy in rich:
        if l1 > letter_budget:
            break
        for d2, l2, vx, vy, lvx, lvy, dvx, dvy in rich:
            if l1 + l2 > letter_budget:
                break
            if d1 + d2 > max_deg:
                continue
            uvx = word_mul(ux, vx)
            uvy = word_mul(uy, vy)
            for d3, l3, wx, wy, lwx, lwy, dwx, dwy in rich:
                if l1 + l2 + l3 > letter_budget:
                    break
                if d1 + d2 + d3 > max_deg:
                    continue
                cases += 1
                exp_left = lvx * luy + lwx * (luy + lvy)
                exp_right = lwx * lvy + (lvx + lwx) * luy
                sign_left = (dvx * duy + dwx * (duy + dvy)) % 2
                sign_right = (dwx * dvy + (dvx + dwx) * duy) % 2
                if exp_left != exp_right or sign_left != sign_right:
                    if qpow(exp_left) * (-1) ** sign_left != \
                            qpow(exp_right) * (-1) ** sign_right:
                        return failed(
                            "dga-laws",
                            f"associativity at ({render_word('x', ux)}, "
                            f"{render_word('y', uy)}), ({render_word('x', vx)}, "
                            f"{render_word('y', vy)}), ({render_word('x', wx)}, "
                            f"{render_word('y', wy)})", cases)
                if word_mul(uvx, wx) != word_mul(ux, word_mul(vx, wx)) or \
                        word_mul(uvy, wy) != word_mul(uy, word_mul(vy, wy)):
                    return failed(
                        "dga-laws",
                        f"word concatenation not associative at "
                        f"({render_word('x', ux)}, {render_word('y', uy)}), "
                        f"({render_word('x', vx)}, {render_word('y', vy)}), "
                        f"({render_word('x', wx)}, {render_word('y', wy)})",
                        cases)

    # degree-0 commutation relation, exhaustively at the exponent cap
    E = caps.max_exponent
    for a in range(E + 1):
        for b in range(E + 1):
            for c in range(E + 1):
                for d in range(E + 1):
                    cases += 1
                    sign, e, mx, my = pair_mul((a,), (b,), (c,), (d,))
                    if (mx, my) != ((a + c,), (b + d,)) or \
                            sign * qpow(e) != qpow(b * c):
                        return failed("dga-laws",
                                      f"commutation at x^{a} y^{b} * x^{c} y^{d}",
                                      cases)
    return passed("dga-laws", cases)


def check_derived_conditions(rmt: RightModuleTwist, caps: Caps) -> CheckResult:
    """Exchange identities between the module twist and its inverse.

    Four consequences of the module twisting axioms plus invertibility:
    how the inverse interacts with multiplication on the polynomial side,
    with the left y-action, and with the algebra twist.  All are verified
    directly on monomial triples within caps.
    """
    twist = rmt.twist
    n = rmt.rank
    E = caps.max_exponent
    cases = 0
    conditions: dict[str, str] = {}

    def cross_vec(k: int, j: int, i: int) -> list[Fraction]:
        vec = [Fraction(0)] * n
        for c, l in rmt.cross_word(k, j, i):
            vec[l] += c
        return vec

    def uncross_vec(i: int, k: int, j: int) -> list[Fraction]:
        vec = [Fraction(0)] * n
        for c, l in rmt.uncross_word(i, k, j):
            vec[l] += c
        return vec

    for k in range(n):
        for j in range(E + 1):
            for i in range(E + 1):
                for e in range(E + 1):
                    cases += 4
                    # left x-multiplication absorbed by uncross-then-cross
                    lhs = cross_vec(k, j, e)
                    rhs = [Fraction(0)] * n
                    for c, l in rmt.uncross_word(i, k, j):
                        for c2, p in rmt.cross_word(l, j, i + e):
                            rhs[p] += c * c2
                    if lhs != rhs and "mul-exchange" not in conditions:
                        conditions["mul-exchange"] = (
                            f"x^{i} ⊗ f_{k + 1} y^{j} ⊗ x^{e}")
                    # uncrossing after the right y-action reduces to the
                    # inverse algebra-twist scale
                    lhs2 = [Fraction(0)] * n
                    for c, l in rmt.cross_word(k, j, i):
                        for c2, p in rmt.uncross_word(i, l, j + e):
                            lhs2[p] += c * c2
                    rhs2 = [Fraction(0)] * n
                    rhs2[k] = twist.qpow(-i * e)
                    if lhs2 != rhs2 and "y-action-exchange" not in conditions:
                        conditions["y-action-exchange"] = (
                            f"f_{k + 1} y^{j} ⊗ x^{i} ⊗ y^{e}")
                    # uncross of a product of x-powers splits in two steps
                    lhs3 = uncross_vec(i + e, k, j)
                    rhs3 = [Fraction(0)] * n
                    for c, l in rmt.uncross_word(e, k, j):
                        for c2, p in rmt.uncross_word(i, l, j):
                            rhs3[p] += c * c2
                    if lhs3 != rhs3 and "uncross-product" not in conditions:
                        conditions["uncross-product"] = (
                            f"x^{i} * x^{e} ⊗ f_{k + 1} y^{j}")
                    # the crossed left y-action commutes with uncrossing
                    lhs4 = [twist.qpow(i * e) * c for c in uncross_vec(i, k, j + e)]
                    rhs4 = uncross_vec(i, k, j)
                    if lhs4 != rhs4 and "crossed-y-action" not in conditions:
                        conditions["crossed-y-action"] = (
                            f"y^{e} ⊗ x^{i} ⊗ f_{k + 1} y^{j}")

    name = "derived-compat"
    if conditions:
        cond, witness = next(iter(conditions.items()))
        return failed(name, f"{cond} at {witness}", cases,
                      failed_conditions=sorted(conditions))
    return passed(name, cases)
