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

The twisted product has one kernel, ``AlgebraTwist.mul_scaled``, on
integer-scaled tables; ``mul`` and ``product.act_right_form`` wrap it.  The
lift ``AlgebraTwist.cross`` is that product on the embedded factors,
R(b ⊗ a) = (1 ⊗ b)(a ⊗ 1), so it refuses forms in the wrong slots.

Checkers verify the defining axioms exhaustively on bounded bases.  The
products and word-level checks read ``word_twist``, ``word_mul`` and
``word_differential`` as module globals at call time, so a corrupted word
kernel is exercised by patching this module; a corrupted module twist, by
replacing the method on one instance.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import chain, product
from typing import Sequence

from .forms import (Caps, Form, Word, UNIT_WORD, add_scaled, enumerate_words,
                    iter_word_tuples, render_word, scaled_equal, to_scaled,
                    word_differential, word_letters, word_mul, words_by_degree)
from .rationals import Matrix, MatrixPowers, identity
from .reports import CheckResult, failed, passed, run_cases, tally
from .tdga import PairWord, ProductForm, add_column, embed_x, embed_y


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


def parity(w: Word) -> int:
    """e(w) = (-1)^{deg w}."""
    return 1 if len(w) % 2 else -1


def pair_differential(pair: PairWord, sides: str = "xy") -> dict[PairWord, int]:
    """d(wx ⊗ wy) = d wx ⊗ wy + e(wx) wx ⊗ d wy, or its half on the x- or
    y-word alone, as a table of nonzero integers."""
    (wx, wy), out = pair, {}
    if "x" in sides:
        add_column(out, 1, [((w, wy), s) for w, s in word_differential(wx).items()])
    if "y" in sides:
        add_column(out, parity(wx), [((wx, w), s)
                                     for w, s in word_differential(wy).items()])
    return {p: s for p, s in out.items() if s}


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

    def coeff_equal(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        """Whether ±q^e of two (sign, exponent) pairs are equal: as integers,
        else over the rationals (hot loops compare the pairs inline first)."""
        return a == b or a[0] * self.qpow(a[1]) == b[0] * self.qpow(b[1])

    def cross(self, yform: Form, xform: Form) -> ProductForm:
        """Lifted twisting map: y-forms move right, x-forms move left, as the
        product (1 ⊗ yform)(xform ⊗ 1)."""
        return self.mul(embed_y(yform), embed_x(xform))

    def mul_scaled(self, u: tuple[int, dict], v: tuple[int, dict]) -> tuple[int, dict]:
        """The one word-product loop, on scaled tables (``forms.to_scaled``):
        each u-term (slot, pair-word) times v, in its slot, with
        (ux ⊗ uy)(vx ⊗ vy) = ±q^e (ux vx ⊗ uy vy) for (±1, e) =
        word_twist(uy, vx).  Every q^e is an integer over one common
        denominator, a power of q's denominator, so no rational is formed.
        """
        (du, tu), (dv, tv) = u, v
        acc: dict = {}
        den = 1
        for (s, (ux, uy)), nu in tu.items():
            for (vx, vy), nv in tv.items():
                sign, e = word_twist(uy, vx)
                p = self.qpow(e)
                if den % p.denominator:  # a higher power of q's denominator
                    k = p.denominator // math.gcd(den, p.denominator)
                    acc, den = {t: n * k for t, n in acc.items()}, den * k
                n = nu * nv * p.numerator * (den // p.denominator)
                key = (s, (word_mul(ux, vx), word_mul(uy, vy)))
                n = acc.get(key, 0) + (-n if sign < 0 else n)
                if n:
                    acc[key] = n
                else:
                    del acc[key]
        return du * dv * den, acc

    def mul(self, u: ProductForm, v: ProductForm) -> ProductForm:
        """Twisted product (u_x ⊗ u_y)(v_x ⊗ v_y): mul_scaled on Fractions."""
        den, table = self.mul_scaled(to_scaled(((0, p), c) for p, c in u.terms.items()),
                                     to_scaled(v.terms.items()))
        return ProductForm.from_terms({p: Fraction(n, den) for (_, p), n in table.items()})


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

# total letter count that trims the pair and triple loops of dga-laws
_LETTER_BUDGET = 8


def check_twist_axioms(twist: AlgebraTwist, caps: Caps) -> CheckResult:
    """Unit and multiplicativity axioms of the lifted twisting map.

    Units are checked on every word within per-word caps, the product laws
    on the triples (wb, wa, wa2) of ``iter_word_tuples(3, caps)``: with c =
    word_twist, c(wb, wa wa2) against c(wb, wa) c(wb, wa2) (right) and
    c(wb wa, wa2) against c(wb, wa2) c(wa, wa2) (left), through
    ``coeff_equal``.  Each loop stops at its first failure; a triple that
    breaks both laws is one case naming both.

    A passing run is decided per word pair (w1, w2) and its *range*, the
    words u with deg u <= r = max_degree - deg w1 - deg w2.  The right law
    holds at every (u, w1, w2) and the left at every (w1, w2, u) iff the
    column c(u, ·) and the row c(·, u) over the range, the *profiles*, of
    w1 w2 agree elementwise with those of w1 and w2.  These are all the
    triples, once a side, so the run counts 2 cases a triple.  Equal
    profiles are interned, and each distinct triple of them is compared
    once.  If one fails, the triples run in order with no table of their
    own, so cases, order and witnesses are those of each triple alone.
    The product's profile spans r, never a range read off its length: a
    word_mul that changes a product's degree changes no triple, and a range
    of its own would leave out (or add) third words.
    """
    def units():
        # the lift fixes 1 ⊗ w and w ⊗ 1 iff their word coefficients are 1
        for w in enumerate_words(caps.max_degree, caps.max_exponent):
            for wy, wx in (UNIT_WORD, w), (w, UNIT_WORD):
                if not twist.coeff_equal(word_twist(wy, wx), (1, 0)):
                    yield {"unit": f"{render_word('y', wy)} ⊗ {render_word('x', wx)} -> "
                           f"{twist.cross(Form.word('y', wy), Form.word('x', wx))}"}
                    break
            else:
                yield None

    def agrees(merged, first, second):
        # the merged word's (sign, exponent) against the product of the two
        # crossing steps'; the rationals decide only unequal pairs (q = ±1)
        return twist.coeff_equal(merged, (first[0] * second[0], first[1] + second[1]))

    def word_products():
        upto = [enumerate_words(k, caps.max_exponent)
                for k in range(caps.max_degree + 1)]
        interned, decided = {}, {}

        @cache
        def profile(side, w, r):
            p = tuple([word_twist(u, w) if side == "x" else word_twist(w, u)
                       for u in upto[r]])
            return interned.setdefault(p, p)

        def laws_hold(w1, w2, r):
            w12 = word_mul(w1, w2)
            for side in "xy":
                p = [profile(side, w, r) for w in (w1, w2, w12)]
                key = tuple(map(id, p))
                if key not in decided:
                    decided[key] = all(map(agrees, p[2], p[0], p[1]))
                if not decided[key]:
                    return False
            return True

        # each word pair with its range
        pairs = [(w1, w2, len(upto) + 1 - len(w1) - len(w2))
                 for w1 in upto[-1] for w2 in upto[len(upto) - len(w1)]]
        if all(laws_hold(*pair) for pair in pairs):
            yield sum(len(upto[r]) for _, _, r in pairs)
            return
        for wb, wa, wa2 in iter_word_tuples(3, caps):
            # a triple that breaks both laws is one case naming both
            failures = {}
            if not agrees(word_twist(wb, word_mul(wa, wa2)), word_twist(wb, wa),
                          word_twist(wb, wa2)):
                failures["product-right"] = f"b={render_word('y', wb)}, " \
                    f"a={render_word('x', wa)}, a'={render_word('x', wa2)}"
            if not agrees(word_twist(word_mul(wb, wa), wa2), word_twist(wb, wa2),
                          word_twist(wa, wa2)):
                failures["product-left"] = f"b={render_word('y', wb)}, " \
                    f"b'={render_word('y', wa)}, a={render_word('x', wa2)}"
            yield failures or None

    tallies = [tally(units(), 2), tally(word_products(), 2)]
    failures = {axiom: w for _, found in tallies for axiom, w in found.items()}
    cases = sum(count for count, _ in tallies)
    if failures:
        axiom, witness = next(iter(failures.items()))
        return failed("twist-axioms", f"{axiom}: {witness}", cases,
                      failed_axioms=sorted(failures))
    return passed("twist-axioms", cases)


def check_lift_compat(twist: AlgebraTwist, caps: Caps) -> CheckResult:
    """Differential compatibility of the lift on bounded word pairs.

    Each word pair counts two cases, d on the y-side and d on the x-side.
    With c(wy, wx) = ±q^k the lift's coefficient for (±1, k) =
    word_twist(wy, wx) and e(w) = (-1)^{deg w}, d commutes with the
    crossing of (wb, wa), word_twist(wb, wa) = (s, k), when s = ±1, c(w,
    wa) = e(wa) c(wb, wa) for each word w of d(wb) and c(wb, u) = e(wb)
    c(wb, wa) for each word u of d(wa), both with nonzero coefficients.
    Each is decided on integers first (word_twist(w, wa) == (e(wa) s, k)
    gives it, as s = ±1), else on the rationals (q = ±1).  Proof: with t_w
    the coefficients of d(wb), the y-side compares Σ t_w c(w, wa) wa ⊗ w
    with Σ e(wa) t_w c(wb, wa) wa ⊗ w; zero t_w drop from both, the keys
    are distinct and the values nonzero, so the tables are equal exactly
    when c(w, wa) = e(wa) c(wb, wa) for each w; the x-side alike.  When d
    commutes with every crossing the run passes as one block; otherwise
    every pair runs the element comparison, which also renders the witness.
    """
    # the words of d(w) with nonzero coefficients, and e(w)
    steps = cache(lambda w: ([a for a, t in word_differential(w).items() if t], parity(w)))

    def commutes(wb: Word, wa: Word) -> bool:
        s, k = word_twist(wb, wa)
        (dwb, eb), (dwa, ea) = steps(wb), steps(wa)
        on_y, on_x = (ea * s, k), (eb * s, k)  # what d on each side keeps
        return s in (1, -1) and all(
            (got := word_twist(w, wa)) == on_y or twist.coeff_equal(got, on_y)
            for w in dwb) and all(
            (got := word_twist(wb, u)) == on_x or twist.coeff_equal(got, on_x)
            for u in dwa)

    def cases():
        pairs = list(iter_word_tuples(2, caps))
        if all(commutes(wb, wa) for wb, wa in pairs):
            yield len(pairs)
            return
        for wb, wa in pairs:
            yb, xa = Form.word("y", wb), Form.word("x", wa)
            dyb, dxa = Form("y", word_differential(wb)), Form("x", word_differential(wa))
            # d on one word of the crossed pair, signed by the other's degree
            (pair, c), = twist.cross(yb, xa).terms.items()
            side, lhs, rhs = "y", twist.cross(dyb, xa), c * ProductForm(
                pair_differential(pair, "y"))
            if lhs == rhs:
                side, lhs, rhs = "x", twist.cross(yb, dxa), \
                    c * parity(pair[1]) * ProductForm(pair_differential(pair, "x"))
            yield None if lhs == rhs else (
                f"d on {side}-side at ({render_word('y', wb)}, "
                f"{render_word('x', wa)}): {lhs} != {rhs}")

    return run_cases("lift-compat", cases(), 2)


def check_right_module_twist(rmt: RightModuleTwist, caps: Caps) -> CheckResult:
    """Unitality and the two right module twisting conditions."""
    return _check_module_twist(rmt, caps, "right", rmt.cross_word)


def check_left_module_twist(lmt: LeftModuleTwist, caps: Caps) -> CheckResult:
    """Mirror checks for the left module twisting map."""
    fn = lmt.cross_word
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


def _vector(n: int, terms) -> list[Fraction]:
    """The length-n coordinate vector of (coeff, slot) pairs."""
    vec = [Fraction(0)] * n
    for c, l in terms:
        vec[l] += c
    return vec


def _composed(vec: list[Fraction], then) -> list[Fraction]:
    """Σ_l vec[l] · then(l), where ``then`` maps a slot to a vector."""
    return [sum(c * then(l)[p] for l, c in enumerate(vec) if c) for p in range(len(vec))]


def _check_module_twist(mt: ModuleTwist, caps: Caps, side: str, cross) -> CheckResult:
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
    # each crossing's coordinate vector, once per argument tuple
    vec = cache(lambda *args: _vector(n, cross(*args)))

    def cases():
        for k in range(n):
            yield None if vec(k, 0, 0) == _vector(n, [(1, k)]) \
                else unit_text.format(k=k + 1)
        for k, own, o1, o2 in product(range(n), exps, exps, exps):
            first, second = (o1, o2) if side == "right" else (o2, o1)
            rhs = _composed(vec(k, own, first), lambda l: vec(l, own, second))
            yield None if vec(k, own, o1 + o2) == rhs \
                else mult_text.format(k=k + 1, own=own, o1=o1, o2=o2)
        for k, *loop in product(range(n), exps, exps, exps):
            a, b, o = loop if side == "right" else loop[::-1]
            scale = mt.twist.qpow(b * o)  # crossing the extra own power b
            yield None if vec(k, a + b, o) == [scale * c for c in vec(k, a, o)] \
                else action_text.format(k=k + 1, a=a, b=b, o=o)

    return run_cases(name, cases())


def check_dga_laws(twist: AlgebraTwist, caps: Caps) -> CheckResult:
    """Graded-algebra laws of the product calculus on bounded word bases.

    Verifies, at word level: the unit law and d^2 = 0 on every pair-word
    within per-word caps; the graded Leibniz rule on pair-words of bounded
    total degree; associativity on triples of bounded total degree and
    total letter count; and the degree-0 commutation relation
    (x^a ⊗ y^b)(x^c ⊗ y^d) = q^{bc} x^{a+c} ⊗ y^{b+d} exhaustively.

    A passing run of each loop is decided from facts about words and word
    pairs and counted as one block; a loop in which a fact fails runs every
    case in order, each decided by comparing full tables, so cases, order
    and witnesses are those of deciding each case alone, for any kernels.
    Let e(w) = (-1)^{deg w}, and P the word pairs (a, b) of ``budget``:
    letters(a) + letters(b) <= 8 and deg a + deg b <= max_degree.  Each
    pair (u, v) of pair-words that the Leibniz and associativity loops
    visit has (ux, vx), (uy, vy) and (uy, vx) in P; with n[l, d] the budget
    entries of l letters and degree d, they visit n[l1, d1] n[l2, d2] pairs
    for l1 + l2 <= 8 and d1 + d2 <= max_degree.

    Unit and d^2 hold at (wx, wy) when wx and wy keep the unit law on either
    side and are ``nilpotent``: d(d w) = 0 and e(a) = -e(w) for each word a
    of d w, as d^2(wx ⊗ wy) = d(d wx) ⊗ wy + Σ (e(wx) + e(a)) s t a ⊗ b +
    wx ⊗ d(d wy) over the terms s a of d wx and t b of d wy.

    Leibniz at (ux ⊗ uy, vx ⊗ vy) holds if, with (c, k) = word_twist(uy,
    vx), px = ux vx and py = uy vy, (L) d(ab) = d(a) b + e(a) a d(b) as
    tables of nonzero integers, deg ab = deg a + deg b and ab is not in
    d(ab), for (a, b) = (ux, vx), (uy, vy), and (C) c = ±1, word_twist(uy,
    a) = (e(uy) c, k) for a in d vx and word_twist(b, vx) = (e(vx) c, k)
    for b in d uy.  Proof: by (C) all terms of d(u) v + e(ux) e(uy) u d(v)
    have q-exponent k, and by (L) those with y-word py sum to c d px ⊗ py
    and those with x-word px to e(px) c px ⊗ d py, with distinct keys as px
    is not in d px: the table c d(px ⊗ py) of d(u v).  So (L) and (C) on
    all of P decide every case.

    Associativity: both association orders carry one sign and q-power, so a
    triple holds iff its word triples associate.  The third pair-words of
    (u, v) are its room: the budget entries of at most 8 - l letters and
    degree at most max_degree - d, for (l, d) those of u and v together.  A
    room shrinks as l and d grow, so (a, b) of P associating with every word
    of the room of its own (l, d) covers every room in which it occurs.
    """
    by_deg = words_by_degree(caps.max_degree, caps.max_exponent)

    def pairs(*words: tuple[Word, Word]) -> str:
        return ", ".join(f"({render_word('x', wx)}, {render_word('y', wy)})"
                         for wx, wy in words)

    # each basis pair-word as (letters, total degree, wx, wy), sorted so that
    # the pair and triple loops over those within the budget can cut on it
    pair_words = sorted((word_letters(wx) + word_letters(wy), dx + dy, wx, wy)
                        for dx in range(caps.max_degree + 1)
                        for dy in range(caps.max_degree + 1 - dx)
                        for wx, wy in product(by_deg[dx], by_deg[dy]))
    budget = [t for t in pair_words if t[0] <= _LETTER_BUDGET]
    # the pairs (u, v) that both pair loops visit, as (letters, degree, number)
    # per two bins n[l1, d1], n[l2, d2]
    bins = Counter((l, d) for l, d, _, _ in budget)
    visits = [(l1 + l2, d1 + d2, n1 * n2) for (l1, d1), n1 in bins.items()
              for (l2, d2), n2 in bins.items()
              if l1 + l2 <= _LETTER_BUDGET and d1 + d2 <= caps.max_degree]

    def unit_and_nilpotence():
        # the unit law and d^2 = 0 on every pair word, two cases each
        unit = cache(lambda w, wy, wx: word_mul(UNIT_WORD, w) == w ==
                     word_mul(w, UNIT_WORD) and twist.coeff_equal(word_twist(wy, wx), (1, 0)))

        def nilpotent(w: Word) -> bool:
            dd, dw = {}, word_differential(w)
            add_column(dd, 1, ((a2, s * s2) for a, s in dw.items()
                               for a2, s2 in word_differential(a).items()))
            return not any(dd.values()) and all(parity(a) != parity(w) for a in dw)

        if all(unit(w, UNIT_WORD, w) and unit(w, w, UNIT_WORD) and nilpotent(w)
               for w in chain.from_iterable(by_deg.values())):
            yield len(pair_words)
            return
        for _, _, wx, wy in pair_words:
            if not (unit(wx, UNIT_WORD, wx) and unit(wy, wy, UNIT_WORD)):
                yield f"unit law at {pairs((wx, wy))}"
                continue
            dd: dict[PairWord, int] = {}
            add_column(dd, 1, ((p2, s * s2) for p, s in pair_differential((wx, wy)).items()
                               for p2, s2 in pair_differential(p).items()))
            yield f"d^2 != 0 at {pairs((wx, wy))}" if any(dd.values()) else None

    def leibniz():
        # graded Leibniz on pairs of bounded total degree: (L) and (C), else
        # d(uv) against d(u) v + e(u) u d(v) on products of ``mul_scaled``
        mul = cache(lambda u, v: word_mul(u, v))  # globals read at call time
        coeff = cache(lambda wy, wx: word_twist(wy, wx))

        def word_leibniz(a: Word, b: Word) -> bool:  # (L)
            ab, sides = mul(a, b), {}
            add_column(sides, 1, chain(
                ((mul(a2, b), s) for a2, s in word_differential(a).items()),
                ((mul(a, b2), parity(a) * t) for b2, t in word_differential(b).items())))
            return len(ab) == len(a) + len(b) - 1 and ab not in word_differential(ab) \
                and word_differential(ab) == {w: s for w, s in sides.items() if s}

        def commutes(wy: Word, wx: Word) -> bool:  # (C): d commutes with crossing
            c, e = coeff(wy, wx)
            return c in (1, -1) and \
                all(coeff(wy, a) == (parity(wy) * c, e) for a in word_differential(wx)) \
                and all(coeff(b, wx) == (parity(wx) * c, e) for b in word_differential(wy))

        if all(word_leibniz(a, b) and commutes(a, b) for _, _, a, b in budget):
            yield sum(n for _, _, n in visits)
            return
        for l1, d1, ux, uy in budget:
            u = (1, {(0, (ux, uy)): 1})
            du = (1, {(0, p): s for p, s in pair_differential((ux, uy)).items()})
            for l2, d2, vx, vy in budget:
                if l1 + l2 > _LETTER_BUDGET:
                    break
                if d1 + d2 > caps.max_degree:
                    continue
                v = (1, {(vx, vy): 1})
                den, uv = twist.mul_scaled(u, v)
                ((_, p), n), = uv.items()
                lhs = (den, {(0, w): n * s for w, s in pair_differential(p).items()})
                (den, rhs), (dd, extra) = twist.mul_scaled(du, v), \
                    twist.mul_scaled(u, (1, pair_differential((vx, vy))))
                den = add_scaled(rhs, den, -1 if d1 % 2 else 1, dd, extra.items())
                yield None if scaled_equal(lhs, (den, rhs)) else \
                    f"graded Leibniz at {pairs((ux, uy))} * {pairs((vx, vy))}"

    def associativity():
        # bounded triples, decided on word triples.  A room keeps its third
        # pair-words in loop order and the distinct words in them
        @cache
        def room(letters: int, degree: int) -> tuple[list, set]:
            third = [(wx, wy) for l, d, wx, wy in budget
                     if l <= _LETTER_BUDGET - letters and d <= caps.max_degree - degree]
            return third, set(chain.from_iterable(third))

        def associative(a: Word, b: Word, words) -> bool:
            ab = word_mul(a, b)
            return all(word_mul(ab, c) == word_mul(a, word_mul(b, c)) for c in words)

        if all(associative(a, b, room(l, d)[1]) for l, d, a, b in budget):
            yield sum(n * len(room(l, d)[0]) for l, d, n in visits)
            return
        for l1, d1, ux, uy in budget:
            for l2, d2, vx, vy in budget:
                if l1 + l2 > _LETTER_BUDGET:
                    break
                for wx, wy in room(l1 + l2, d1 + d2)[0]:
                    yield None if associative(ux, vx, [wx]) and \
                        associative(uy, vy, [wy]) else (
                            "word concatenation not associative at "
                            f"{pairs((ux, uy), (vx, vy), (wx, wy))}")

    def commutation():
        # the degree-0 commutation relation, exhaustively at the exponent cap
        for a, b, c, d in product(range(caps.max_exponent + 1), repeat=4):
            sign, e = word_twist((b,), (c,))
            yield None if (word_mul((a,), (c,)), word_mul((b,), (d,))) == \
                ((a + c,), (b + d,)) and twist.coeff_equal((sign, e), (1, b * c)) \
                else f"commutation at x^{a} y^{b} * x^{c} y^{d}"

    count, failures = tally(unit_and_nilpotence(), 2)
    if not failures:
        more, failures = tally(chain(leibniz(), associativity(), commutation()))
        count += more
    if failures:
        return failed("dga-laws", failures[None], count)
    return passed("dga-laws", count)


def check_derived_conditions(rmt: RightModuleTwist, caps: Caps) -> CheckResult:
    """Exchange identities between the module twist and its inverse.

    Four consequences of the module twisting axioms plus invertibility:
    how the inverse interacts with multiplication on the polynomial side,
    with the left y-action, and with the algebra twist.  All are verified
    directly on monomial triples within caps; each triple counts four
    cases, and every triple runs, to name each condition that fails.
    """
    twist = rmt.twist
    n = rmt.rank
    exps = range(caps.max_exponent + 1)
    # each crossing's coordinate vector, once per argument tuple
    cross, uncross = [cache(lambda *args, fn=fn: _vector(n, fn(*args)))
                      for fn in (rmt.cross_word, rmt.uncross_word)]

    def cases():
        for k, j, i, e in product(range(n), exps, exps, exps):
            failures = {}
            # left x-multiplication absorbed by uncross-then-cross
            if cross(k, j, e) != _composed(uncross(i, k, j), lambda l: cross(l, j, i + e)):
                failures["mul-exchange"] = f"x^{i} ⊗ f_{k + 1} y^{j} ⊗ x^{e}"
            # uncrossing after the right y-action reduces to the inverse
            # algebra-twist scale
            if _composed(cross(k, j, i), lambda l: uncross(i, l, j + e)) \
                    != _vector(n, [(twist.qpow(-i * e), k)]):
                failures["y-action-exchange"] = f"f_{k + 1} y^{j} ⊗ x^{i} ⊗ y^{e}"
            # uncross of a product of x-powers splits in two steps
            if uncross(i + e, k, j) != _composed(uncross(e, k, j), lambda l: uncross(i, l, j)):
                failures["uncross-product"] = f"x^{i} * x^{e} ⊗ f_{k + 1} y^{j}"
            # the crossed left y-action commutes with uncrossing
            if [twist.qpow(i * e) * c for c in uncross(i, k, j + e)] != uncross(i, k, j):
                failures["crossed-y-action"] = f"y^{e} ⊗ x^{i} ⊗ f_{k + 1} y^{j}"
            yield failures or None

    count, failures = tally(cases(), 4, until=None)
    if failures:
        cond, witness = next(iter(failures.items()))
        return failed("derived-compat", f"{cond} at {witness}", count,
                      failed_conditions=sorted(failures))
    return passed("derived-compat", count)
