"""Bimodule structure on the product module and the induced swap morphism.

The factor swaps (``connections.FormSwap``) carry 1-forms past each free
factor.  The product module becomes a bimodule for the left action that carries the
scalars across with the left module twist (e-block) and the algebra twist
(f-block).  The connection's failure to be left-linear is measured by a
degree-1 swap map assembled from four pieces, one per (form side, block)
pair.  Evaluation normalizes the 1-form input to the generator shapes
d(x^c) ⊗ 1 and x^i ⊗ d(y^c) by moving trailing scalars across the
balanced tensor onto the module argument, which is exactly how the
defining formulas are stated.

Each checker verifies one hypothesis or lemma of the bimodule theory on
bounded monomial bases: the compatibility equations for the outer swap
pieces together with their module-morphism properties (mechanizing the
"if and only if"), the unconditional morphism properties of the two mixed
pieces, the commutation of the two actions, and finally the left Leibniz
identity of the product connection with respect to the assembled swap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .connections import FormSwap, ModuleConnection
from .forms import Caps, ColumnTable, Form, Word, UNIT_WORD, \
    add_scaled, from_scaled, render_word, scaled_equal, scaled_row, \
    sum_scaled, to_scaled, word_degree, word_differential, word_letters, \
    word_mul
from .reports import CheckResult, failed, passed, run_cases, tally
from .tdga import PairWord, ProductForm, enumerate_monomials
from .twist import AlgebraTwist, LeftModuleTwist, RightModuleTwist, word_twist
from .product import _ONE, ProductConnection, ProductVector, Term, \
    _connection_compat, _decided_by_terms, check_ranks, f_free_to_naive, \
    iter_naive_basis, naive_terms_to_free

# a column as integer numerators over one positive denominator, and a
# linear operator as the function from a flat term to its column
ScaledColumn = tuple[int, tuple[tuple[Term, int], ...]]
Operator = Callable[[Term], ScaledColumn]


# ---------------------------------------------------------------------------
# left action on the product module
# ---------------------------------------------------------------------------

def _left_term(twist: AlgebraTwist, rmt: RightModuleTwist,
               lmt: LeftModuleTwist, m: int, i: int, j: int,
               t: Term) -> tuple[int, dict[Term, int]]:
    """x^i ⊗ y^j times one flat term, the kernel of the left action.

    One pair-word product, with its coefficient ±q^e, spread over the slots
    by row k of T^j (e-block slot k) or of S^{-i} (f-block slot k), as a
    scaled table: ±q^e over the row's integer numerators.
    """
    slot, (vx, vy) = t
    sign, e = word_twist((j,), vx)
    p = twist.qpow(e)
    pair = ((i + vx[0],) + vx[1:], word_mul((j,), vy))
    if slot < m:
        base, row = 0, lmt.matrix_power(j)[slot]
    else:
        base, row = m, rmt.matrix_power(-i)[slot - m]
    den, row = scaled_row(row, p)
    return den, {(base + l, pair): sign * r for l, r in enumerate(row) if r}


def act_left(twist: AlgebraTwist, rmt: RightModuleTwist, lmt: LeftModuleTwist,
             w: ProductForm, pv: ProductVector) -> ProductVector:
    """Left action of a degree-0 algebra element on the product module."""
    if not w.is_homogeneous(0):
        raise ValueError("left action needs a degree-0 element")
    check_ranks(pv, (lmt.rank, rmt.rank))
    (dw, tw), (dv, tv) = to_scaled(w.terms.items()), to_scaled(pv.terms.items())
    acc = {}
    den = 1
    for (wx, wy), c in tw.items():
        for t, cv in tv.items():
            dl, column = _left_term(twist, rmt, lmt, pv.m, wx[0], wy[0], t)
            den = add_scaled(acc, den, c * cv, dl, column.items())
    return ProductVector.from_terms(from_scaled(den * dw * dv, acc), pv.m, pv.n)


def _monomials(caps: Caps) -> list[tuple[int, int, ProductForm]]:
    """(i, j, x^i ⊗ y^j) for the degree-0 monomials within caps."""
    return [(wx[0], wy[0], ProductForm.pair(wx, wy))
            for wx, wy in enumerate_monomials(caps.max_exponent)]


def check_bimodule_axiom(ps: ProductSwap, caps: Caps) -> CheckResult:
    """Left and right actions commute on bounded monomial bases.

    Both sides, w_l·(pv·w_r) and (w_l·pv)·w_r, are linear in pv for any
    columns: ``sum_scaled`` sums an operator's columns over the terms of
    its table, in exact integer arithmetic.
    """
    monos = _monomials(caps)

    def cases(label, pv):
        terms = to_scaled(pv.terms.items())
        for il, jl, wl in monos:
            left = ps.left(il, jl)
            moved = sum_scaled(terms, left)
            for ir, jr, wr in monos:
                right = ps.right(ir, jr)
                lhs = sum_scaled(sum_scaled(terms, right), left)
                yield None if scaled_equal(lhs, sum_scaled(moved, right)) \
                    else f"{label} between {wl} and {wr}"

    return run_cases("bimodule-axiom", _decided_by_terms(
        iter_naive_basis(ps.m, ps.rmt, caps), cases, len(monos) ** 2))


# ---------------------------------------------------------------------------
# the degree-1 swap on the product module
# ---------------------------------------------------------------------------

def _right_normal(a: int, b: int) -> tuple[tuple[int, int, int], ...]:
    """t^a dt t^b as a sum of d(t^c) t^e, returned as (c, e, coeff) triples.

    By the Leibniz rule, t^a dt t^b = d(t^{a+1}) t^b - d(t^a) t^{b+1}.
    """
    if a == 0:
        return ((1, b, 1),)
    return ((a, b + 1, -1), (a + 1, b, 1))


class ProductSwap:
    """The degree-1 swap carrying 1-forms past the product module.

    Assembled from the left module twist and the e-factor swap (x-form on
    the e-block), the inverse right module twist (x-form on the f-block),
    the left module twist again (y-form on the e-block) and the f-factor
    swap behind the algebra twist (y-form on the f-block).

    ``ops`` holds the columns over flat terms of every operator the swap
    and its checks apply, for as long as the swap lives: ("L", i, j) is
    act_left(x^i ⊗ y^j, ·), ("R", i, j) act_right_form(·, x^i ⊗ y^j), ("S",
    pair) the swap of a 1-form pair-word, ("Gx", cc) and ("Gy", i, cc) the
    generator images and ("F", gen, cc) the factor-swap images, by (slot,
    word); ("N",) and ("B",) change one f-block term from free to naive
    coordinates and back.  Each column is computed once, by the kernel its
    public operator runs per term (:func:`_left_term`, ``AlgebraTwist.mul_scaled``,
    :meth:`columns`, ``f_free_to_naive``, ``f_naive_to_free``), and kept
    integer-scaled (see ``forms.ColumnTable``); every later use only sums
    columns, over the integers.
    """

    def __init__(self, twist: AlgebraTwist, rmt: RightModuleTwist,
                 lmt: LeftModuleTwist, swap_e: FormSwap, swap_f: FormSwap):
        if swap_e.gen != "x" or swap_f.gen != "y":
            raise ValueError("expected an x-swap and a y-swap")
        if swap_f.rank != rmt.rank or swap_e.rank != lmt.rank:
            raise ValueError("swap ranks must match the module twists")
        self.twist = twist
        self.rmt = rmt
        self.lmt = lmt
        self.swap_e = swap_e
        self.swap_f = swap_f
        self.m, self.n = swap_e.rank, swap_f.rank
        # its operators repeat many columns (half of them at shipped caps)
        self.ops = ColumnTable(share_columns=True)
        # an f-block term in naive coordinates (f-slots from 0), and back
        self._naive = self.ops.from_kernel(("N",), lambda t: f_free_to_naive(
            rmt, {(t[0] - self.m, t[1]): _ONE}).items())
        self._to_free = self.ops.from_kernel(("B",), lambda u: naive_terms_to_free(
            rmt, self.m, {u: _ONE}).items())

    def left(self, i: int, j: int) -> Operator:
        """act_left(x^i ⊗ y^j, ·) on flat terms."""
        args, store = (self.twist, self.rmt, self.lmt, self.m, i, j), self.ops.store
        return self.ops.operator(("L", i, j), lambda t: store(*_left_term(*args, t)))

    def right(self, i: int, j: int) -> Operator:
        """act_right_form(·, x^i ⊗ y^j) on flat terms."""
        w = (1, {((i,), (j,)): 1})
        return self.ops.operator(("R", i, j), lambda t: self.ops.store(
            *self.twist.mul_scaled((1, {t: 1}), w)))

    def apply(self, one_form: ProductForm, pv: ProductVector) -> ProductVector:
        """Evaluate the swap on (1-form) ⊗ (degree-0 module element).

        The swap is bilinear, so the value is a sum of columns, the images
        of the basis tensors in the input, scaled by their coefficients.
        """
        if not one_form.is_zero and not one_form.is_homogeneous(1):
            raise ValueError("swap needs a homogeneous 1-form")
        if not pv.is_degree(0):
            raise ValueError("swap needs a degree-0 module element")
        check_ranks(pv, (self.m, self.n))
        acc: dict[Term, int] = {}
        den = 1
        for pair, c in one_form.terms.items():
            swap = self.columns(pair)
            for t, cw in pv.terms.items():
                cc = c * cw
                d, col = swap(t)
                den = add_scaled(acc, den, cc.numerator, cc.denominator * d, col)
        return ProductVector.from_terms(from_scaled(den, acc), self.m, self.n)

    def columns(self, pair: PairWord) -> Operator:
        """The swap of the 1-form pair-word ``pair`` ⊗ (flat term): normalize
        the 1-form to generators.

        Trailing scalars move across the balanced tensor onto the module
        argument, so the column is the sum of co · G(cc) ∘ L(scalar) over
        the generator shapes, each factor a cached column.
        """
        wx, wy = pair
        # (coefficient, scalar moved onto the module, generator) per shape
        if word_degree(wx) == 1:
            shapes = [(co, self.left(tail, wy[0]), self._generator(("Gx", cc)))
                      for cc, tail, co in _right_normal(wx[0], wx[1])]
        else:
            shapes = [(co, self.left(0, tail), self._generator(("Gy", wx[0], cc)))
                      for cc, tail, co in _right_normal(wy[0], wy[1])]

        def make(t):
            acc = {}
            den = 1
            for co, left, generator in shapes:
                ld, column = left(t)
                for t2, v in column:
                    gd, col = generator(t2)
                    den = add_scaled(acc, den, co * v, ld * gd, col)
            return self.ops.store(den, acc)
        return self.ops.operator(("S", pair), make)

    def _generator(self, tag: tuple) -> Operator:
        def make(t):
            return self.ops.store(*(self._generator_x(tag[1], t)
                                    if tag[0] == "Gx"
                                    else self._generator_y(tag[1], tag[2], t)))
        return self.ops.operator(tag, make)

    def _factor_swap(self, gen: str, cc: int, k: int,
                     word: Word) -> ScaledColumn:
        """The factor swap of d(gen^cc) past e_k·word, cached."""
        swap = self.swap_e if gen == "x" else self.swap_f
        image = self.ops.from_kernel(("F", gen, cc), lambda kw: _swap_image(
            swap, Form.gen_power(gen, cc).d(), *kw))
        return image((k, word))

    def _free(self, naive) -> tuple[int, dict]:
        """Σ (c/den) · (naive term u in free coordinates) over the (u, c,
        den) of ``naive``, each u converted once and cached."""
        acc: dict[Term, int] = {}
        den = 1
        for u, c, d in naive:
            bd, col = self._to_free(u)
            den = add_scaled(acc, den, c, d * bd, col)
        return den, acc

    # -- generator inputs -------------------------------------------------
    def _generator_x(self, cc: int, t: Term) -> tuple[int, dict]:
        """Swap of d(x^cc) ⊗ 1 past one flat term, as a scaled table."""
        slot, (wx, wy) = t
        if slot < self.m:
            # e-block: the e-factor swap acts on the x-form and the coordinate
            fd, image = self._factor_swap("x", cc, slot, wx)
            return fd, {(l, (w, wy)): c for (l, w), c in image}
        # f-block: d(x^cc) joins the naive x-power; two inverse twists
        # compose into one matrix power
        nd, naive = self._naive(t)
        return self._free([((k, (word_mul(w, wxk), wyk)), c * s, nd)
                           for (k, (wxk, wyk)), c in naive
                           for w, s in word_differential((cc,)).items()])

    def _generator_y(self, i: int, cc: int, t: Term) -> tuple[int, dict]:
        """Swap of x^i ⊗ d(y^cc) past one flat term, as a scaled table."""
        twist = self.twist
        slot, (wx, wy) = t
        if slot < self.m:
            # e-block: carry y^cc across with the left module twist, then d
            den, row = scaled_row(self.lmt.matrix_power(cc)[slot],
                                  twist.qpow(cc * wx[0]))
            return den, {(l, ((i + wx[0],), word_mul(w, wy))): s * r
                         for w, s in word_differential((cc,)).items()
                         for l, r in enumerate(row) if r}
        # f-block: algebra twist past the scalar, then the f-factor swap,
        # in naive coordinates
        nd, naive = self._naive(t)
        terms = []
        for (k, (wxk, wyk)), c in naive:
            q = twist.qpow(cc * wxk[0])
            fd, image = self._factor_swap("y", cc, k, wyk)
            terms += [((p, ((i + wxk[0],), w)), q.numerator * c * cw,
                       q.denominator * fd * nd) for (p, w), cw in image]
        return self._free(terms)


# ---------------------------------------------------------------------------
# hypothesis checkers for the bimodule theorem
# ---------------------------------------------------------------------------

def check_left_twist_connection_compat(twist: AlgebraTwist, lmt: LeftModuleTwist,
                                       conn_e: ModuleConnection,
                                       caps: Caps) -> CheckResult:
    """Compatibility of the left module twist with the first connection."""
    return _connection_compat(twist, lmt, conn_e, caps, "left")


def _swap_image(swap: FormSwap, one_form: Form, k: int,
                word: Word) -> list[tuple[tuple[int, Word], Fraction]]:
    """FormSwap.apply(one_form, e_k·word) as ((slot, word), coeff) terms."""
    vec = [Form.zero(swap.gen)] * swap.rank
    vec[k] = Form.word(swap.gen, word)
    return [((l, w), c) for l, res in enumerate(swap.apply(one_form, vec))
            for w, c in res.terms.items()]


def _one_form_words_x(caps: Caps) -> list[Word]:
    E = caps.max_exponent
    return [(a, b) for a in range(E + 1) for b in range(E + 1)]


def check_swap_compat_e(ps: ProductSwap, caps: Caps) -> CheckResult:
    """Compatibility equation for the x-form/e-block swap piece.

    Verifies the displayed exchange identity between the e-factor swap, the
    left module twist and the lifted algebra twist; independently verifies
    the left and right module-morphism property of the piece; and checks
    that the equation verdict and the left-morphism verdict agree.
    """
    return _swap_compat(ps, caps, "e")


def check_swap_compat_f(ps: ProductSwap, caps: Caps) -> CheckResult:
    """Mirror of :func:`check_swap_compat_e` for the y-form/f-block piece."""
    return _swap_compat(ps, caps, "f")


def _swap_compat(ps: ProductSwap, caps: Caps, block: str) -> CheckResult:
    """Shared body of :func:`check_swap_compat_e` and ``_f``.

    The factor swap on ``block`` is exchanged with the module twist that
    carries the scalar of the other generator past that block: the left
    module twist (powers y^j) for the e-block, the right module twist
    (powers x^i) for the f-block.
    """
    twist = ps.twist
    if block == "e":
        gen, swap, mt, iff = "x", ps.swap_e, ps.lmt, "left"
        where = "y^{s} ⊗ {w} ⊗ e_{k}"
    else:
        gen, swap, mt, iff = "y", ps.swap_f, ps.rmt, "right"
        where = "{w} ⊗ f_{k} ⊗ x^{s}"
    words = _one_form_words_x(caps)
    # the factor swap of a 1-form word past a basis vector, as a column
    image = ps.ops.from_kernel(("W", gen), lambda wl: _swap_image(
        swap, Form.word(gen, wl[0]), wl[1], UNIT_WORD))

    def equation():
        # both sides are integer sums of images and of rows of the power
        for s_exp in range(caps.max_exponent + 1):
            power = mt.matrix_power(s_exp)

            def row(p, w):  # row p of the power times q^{s_exp · letters(w)}
                den, entries = scaled_row(power[p], twist.qpow(s_exp * word_letters(w)))
                return den, {l: r for l, r in enumerate(entries) if r}

            def moved(t):  # the image term t = (p, wres) carried by row p
                den, entries = row(*t)
                return den, [((l, t[1]), r) for l, r in entries.items()]

            for w in words:
                for k in range(swap.rank):
                    d, col = image((w, k))
                    yield None if scaled_equal(
                        sum_scaled(row(k, w), lambda l: image((w, l))),
                        sum_scaled((d, dict(col)), moved)) else where.format(
                            s=s_exp, w=render_word(gen, w), k=k + 1)

    # the equation runs on every case, so that its verdict is complete
    eq_cases, eq = tally(equation(), until=None)
    eq_witness = eq.get(None)
    mor_cases, morphism = _piece_morphism(ps, caps, block=block, form_side=gen)
    left_witness, right_witness = morphism.get("left"), morphism.get("right")
    # the equation is equivalent to one morphism property; the other must hold
    tied, other = (left_witness, right_witness) if iff == "left" \
        else (right_witness, left_witness)
    agree = (eq_witness is None) == (tied is None)
    detail = {
        "equation": "pass" if eq_witness is None else "fail",
        "left_morphism": "pass" if left_witness is None else "fail",
        "right_morphism": "pass" if right_witness is None else "fail",
        "equivalence_agrees": agree,
    }
    name = f"swap-compat-{block}"
    cases = eq_cases + mor_cases
    if not agree:
        return failed(name, f"equation and {iff}-morphism verdicts disagree: "
                      f"{eq_witness or tied}", cases, **detail)
    if eq_witness or other:
        return failed(name, eq_witness or other, cases, **detail)
    return passed(name, cases, **detail)


def _piece_morphism(ps: ProductSwap, caps: Caps, block: str,
                    form_side: str) -> tuple[int, dict[str, str]]:
    """Left/right module-morphism cases of one swap piece.

    Each case compares two sides as flat term tables, each a sum of cached
    columns: w·ω ⊗ pv against w · swap(ω ⊗ pv) on the left, and
    ω ⊗ pv·w against swap(ω ⊗ pv) · w on the right.  A case is one such
    comparison, per 1-form, basis vector, monomial w and side; a side is
    not compared again once it failed, and the loop stops at the second
    failure.  Returns the cases and the witness of each failed side
    ("left", "right").
    """
    twist = ps.twist
    E = caps.max_exponent
    monos = _monomials(caps)

    one_forms = [(f"{render_word('x', w)} ⊗ y^{t}", (w, (t,))) if form_side == "x"
                 else (f"x^{t} ⊗ {render_word('y', w)}", ((t,), w))
                 for w in _one_form_words_x(caps) for t in range(E + 1)]

    # each basis vector pv, and pv·w for each monomial w
    basis = [(label, terms, [sum_scaled(terms, ps.right(i, j)) for i, j, _ in monos])
             for label, pv in iter_naive_basis(ps.m, ps.rmt, caps, blocks=block)
             for terms in [to_scaled(pv.terms.items())]]

    def comparisons():
        done: set[str] = set()
        for flabel, pair in one_forms:
            # w·ω is one pair-word with a scaled coefficient, whatever pv is;
            # per monomial, its swap and the two actions of w
            products = [(w, wd, wn, ps.columns(wpair), ps.left(i, j),
                         ps.right(i, j))
                        for i, j, w in monos
                        for wd, table in [twist.mul_scaled(
                            (1, {(0, ((i,), (j,))): 1}), (1, {pair: 1}))]
                        for (_, wpair), wn in table.items()]
            swap = ps.columns(pair)
            for plabel, terms, moved in basis:
                den, table = terms
                base = sum_scaled(terms, swap)
                for (w, wd, wn, wswap, left, right), pvw in zip(products, moved):
                    if "left" not in done:
                        lhs = sum_scaled(
                            (den * wd, {t: wn * n for t, n in table.items()}),
                            wswap)
                        if not scaled_equal(lhs, sum_scaled(base, left)):
                            done.add("left")
                            yield {"left": f"left: {w} . ({flabel}) ⊗ {plabel}"}
                        else:
                            yield None
                    if "right" not in done:
                        if not scaled_equal(sum_scaled(pvw, swap),
                                            sum_scaled(base, right)):
                            done.add("right")
                            yield {"right": f"right: ({flabel}) ⊗ {plabel} . {w}"}
                        else:
                            yield None

    return tally(comparisons(), until=2)


def check_swap_cross_morphisms(ps: ProductSwap, caps: Caps) -> CheckResult:
    """Module-morphism properties of the two mixed swap pieces."""
    pieces = {"yform_eblock": _piece_morphism(ps, caps, block="e", form_side="y"),
              "xform_fblock": _piece_morphism(ps, caps, block="f", form_side="x")}
    sides = ("left", "right")
    detail = {f"{piece}_{side}": "fail" if side in found else "pass"
              for piece, (_, found) in pieces.items() for side in sides}
    witnesses = [found[side] for _, found in pieces.values()
                 for side in sides if side in found]
    cases = sum(count for count, _ in pieces.values())
    name = "swap-cross-morphisms"
    if witnesses:
        return failed(name, witnesses[0], cases, **detail)
    return passed(name, cases, **detail)


def check_bimodule_theorem(pc: ProductConnection, ps: ProductSwap,
                           caps: Caps) -> CheckResult:
    """The bimodule theorem: left Leibniz identity of the connection via the swap.

    Each case states ∇(w·v) = w·∇(v) + swap(dw ⊗ v) on the public
    operators; ∇ and the swap sum the columns their objects keep.  The
    theorem's hypotheses are separate checks; the runner's registry
    reports this one inadmissible when any of them failed in the same run.

    Both sides are linear in v: ``nabla``, ``act_left`` and ``apply`` each
    sum one column per term of the module element, in exact arithmetic.
    """
    twist, rmt, lmt = ps.twist, ps.rmt, ps.lmt
    monos = _monomials(caps)

    def cases(label, pv):
        nabla = pc.nabla(pv)
        for _, _, w in monos:
            lhs = pc.nabla(act_left(twist, rmt, lmt, w, pv))
            rhs = act_left(twist, rmt, lmt, w, nabla) + ps.apply(w.d(), pv)
            yield None if lhs == rhs else f"{w} . ({label})"

    return run_cases("bimodule-theorem", _decided_by_terms(
        iter_naive_basis(pc.m, pc.rmt, caps), cases, len(monos)))
