"""Independent reference implementations used as test oracles.

Everything here is built only from the defining recursions and the base
cases, never from the closed forms under test: the form-level crossing is
extended letter by letter via the unit, multiplicativity and differential
rules; the module twists are extended from their value on a single
generator; the classical product connection and the signs-only tensor
multiplication are written out directly.  The word-level axiom checks,
``lift-compat`` and ``leibniz`` have a literal per-case reference, which
looks up the word kernels in ``twistconn.twist`` at every call, as the
checks do; ``curvature-formula``, ``flatness``, ``bimodule-axiom`` and
``bimodule-theorem`` have their input-by-input loops.  The product
swap has a reference of its columns built from Fraction kernels, and of
the case loop of its morphism checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, product

import twistconn.bimodule as swap_module
import twistconn.forms as forms_module
import twistconn.twist as kernels
from twistconn.forms import (UNIT_WORD, Caps, Form, Word, enumerate_words,
                             iter_word_tuples, render_word, scaled_equal,
                             sum_scaled, to_scaled, word_degree,
                             word_differential, word_letters, word_mul,
                             words_by_degree)
from twistconn.product import (_CURVATURE_RANDOM, _LEIBNIZ_RANDOM, ProductVector,
                               _theorem_inputs, curvature_formula_rhs,
                               iter_naive_basis)
from twistconn.reports import (CheckResult, failed, inadmissible, passed,
                               run_cases, tally)
from twistconn.tdga import ProductForm, add_column, enumerate_monomials


def _first_letter(w: Word):
    """Split off the leftmost letter (generator or differential)."""
    if w[0] > 0:
        return (1,), (w[0] - 1,) + w[1:]
    if len(w) > 1:
        return (0, 0), w[1:]
    return None


def lift_oracle(q: Fraction, wy: Word, wx: Word,
                memo: dict | None = None) -> dict[tuple[Word, Word], Fraction]:
    """Recursive crossing of a y-word past an x-word.

    Base case: y ⊗ x -> q x ⊗ y.  Single letters extend through the two
    differential rules; longer words split off their leftmost letter and
    use the two multiplicativity rules.
    """
    if memo is None:
        memo = {}
    key = (wy, wx)
    if key in memo:
        return memo[key]
    letters = ((1,), (0, 0))
    if wx == (0,):
        res = {((0,), wy): Fraction(1)}
    elif wy == (0,):
        res = {(wx, (0,)): Fraction(1)}
    elif wy in letters and wx in letters:
        if wy == (1,) and wx == (1,):
            res = {((1,), (1,)): q}
        elif wy == (1,):                      # y past dx: differentiate x side
            res = {((0, 0), (1,)): q}
        elif wx == (1,):                      # dy past x: differentiate y side
            res = {((1,), (0, 0)): q}
        else:                                 # dy past dx: x side has degree 1
            res = {((0, 0), (0, 0)): -q}
    elif wx not in letters:
        u, v = _first_letter(wx)
        res = {}
        for (ax, by), c in lift_oracle(q, wy, u, memo).items():
            for (ax2, by2), c2 in lift_oracle(q, by, v, memo).items():
                k2 = (word_mul(ax, ax2), by2)
                res[k2] = res.get(k2, Fraction(0)) + c * c2
    else:
        u, v = _first_letter(wy)
        res = {}
        for (ax, by), c in lift_oracle(q, v, wx, memo).items():
            for (ax2, by2), c2 in lift_oracle(q, u, ax, memo).items():
                k2 = (ax2, word_mul(by2, by))
                res[k2] = res.get(k2, Fraction(0)) + c * c2
    res = {k2: v2 for k2, v2 in res.items() if v2}
    memo[key] = res
    return res


def _algebra_cross_coeff(q: Fraction, j: int, i: int,
                         memo: dict) -> Fraction:
    """Coefficient of y^j past x^i, through the recursive oracle."""
    table = lift_oracle(q, (j,), (i,), memo)
    assert list(table) == [((i,), (j,))]
    return table[((i,), (j,))]


def right_twist_oracle(q: Fraction, s_matrix, k: int, j: int, i: int,
                       memo: dict | None = None) -> list[Fraction]:
    """Coefficient vector of f_k y^j ⊗ x^i -> x^i ⊗ f_l y^j.

    Built from the base value on a single x-letter and the two defining
    module twisting rules.
    """
    if memo is None:
        memo = {}
    n = len(s_matrix)
    if i == 0:
        vec = [Fraction(0)] * n
        vec[k] = Fraction(1)
        return vec
    if j > 0:
        scale = _algebra_cross_coeff(q, j, i, memo)
        return [scale * c for c in right_twist_oracle(q, s_matrix, k, 0, i, memo)]
    if i == 1:
        return [Fraction(s_matrix[k][l]) for l in range(n)]
    inner = right_twist_oracle(q, s_matrix, k, 0, i - 1, memo)
    vec = [Fraction(0)] * n
    for l, c in enumerate(inner):
        if c:
            for p, c2 in enumerate(right_twist_oracle(q, s_matrix, l, 0, 1, memo)):
                vec[p] += c * c2
    return vec


def left_twist_oracle(q: Fraction, t_matrix, j: int, k: int, i: int,
                      memo: dict | None = None) -> list[Fraction]:
    """Coefficient vector of y^j ⊗ e_k x^i -> e_l x^i ⊗ y^j (mirror)."""
    if memo is None:
        memo = {}
    m = len(t_matrix)
    if j == 0:
        vec = [Fraction(0)] * m
        vec[k] = Fraction(1)
        return vec
    if i > 0:
        scale = _algebra_cross_coeff(q, j, i, memo)
        return [scale * c for c in left_twist_oracle(q, t_matrix, j, k, 0, memo)]
    if j == 1:
        return [Fraction(t_matrix[k][l]) for l in range(m)]
    inner = left_twist_oracle(q, t_matrix, j - 1, k, 0, memo)
    vec = [Fraction(0)] * m
    for l, c in enumerate(inner):
        if c:
            for p, c2 in enumerate(left_twist_oracle(q, t_matrix, 1, l, 0, memo)):
                vec[p] += c * c2
    return vec


def untwisted_mul(u: ProductForm, v: ProductForm) -> ProductForm:
    """Graded tensor-product multiplication with Koszul signs only."""
    terms = {}
    for (ux, uy), cu in u.terms.items():
        duy = len(uy) - 1
        for (vx, vy), cv in v.terms.items():
            c = cu * cv
            if ((len(vx) - 1) * duy) % 2:
                c = -c
            key = (word_mul(ux, vx), word_mul(uy, vy))
            terms[key] = terms.get(key, Fraction(0)) + c
    return ProductForm(terms)


def classical_product_nabla(potential_e, potential_f, e_coords,
                            f_coords) -> tuple[list[ProductForm], list[ProductForm]]:
    """The untwisted product connection on degree-0 coordinates.

    Componentwise differentials on both tensor legs plus the two gauge
    potentials, with scalars crossing freely (the flip).
    """
    m, n = len(potential_e), len(potential_f)

    def d_block(w: ProductForm) -> ProductForm:
        terms = {}
        for (wx, wy), c in w.terms.items():
            for nwx, s in word_differential(wx).items():
                key = (nwx, wy)
                terms[key] = terms.get(key, Fraction(0)) + s * c
            for nwy, s in word_differential(wy).items():
                key = (wx, nwy)
                terms[key] = terms.get(key, Fraction(0)) + s * c
        return ProductForm(terms)

    def pot_mul(alpha: Form, w: ProductForm, side: str) -> ProductForm:
        terms = {}
        for wa, ca in alpha.terms.items():
            for (wx, wy), c in w.terms.items():
                key = (word_mul(wa, wx), wy) if side == "x" else \
                    (wx, word_mul(wa, wy))
                terms[key] = terms.get(key, Fraction(0)) + ca * c
        return ProductForm(terms)

    e_out = [d_block(e_coords[k]) for k in range(m)]
    for k in range(m):
        for l in range(m):
            if not potential_e[k][l].is_zero:
                e_out[k] = e_out[k] + pot_mul(potential_e[k][l], e_coords[l], "x")
    f_out = [d_block(f_coords[k]) for k in range(n)]
    for k in range(n):
        for l in range(n):
            if not potential_f[k][l].is_zero:
                f_out[k] = f_out[k] + pot_mul(potential_f[k][l], f_coords[l], "y")
    return e_out, f_out


# ---------------------------------------------------------------------------
# per-case references of the word-level axiom checks
# ---------------------------------------------------------------------------

_LETTER_BUDGET = 8


def dga_laws_reference(twist, caps: Caps) -> CheckResult:
    """check_dga_laws decided case by case, with no memo table: every case
    calls the kernels and compares its full tables."""
    qpow = twist.qpow
    by_deg = words_by_degree(caps.max_degree, caps.max_exponent)

    def pair_mul(wx1, wy1, wx2, wy2):
        sign, e = coeff(wy1, wx2)
        return sign, e, mul(wx1, wx2), mul(wy1, wy2)

    def is_one(sign, e):
        return (sign, e) == (1, 0) or sign * qpow(e) == 1

    def rational(table):
        out = {}
        for (e, key), s in table.items():
            out[key] = out.get(key, 0) + s * qpow(e)
        return {k: v for k, v in out.items() if v}

    def pairs(*words):
        return ", ".join(f"({render_word('x', wx)}, {render_word('y', wy)})"
                         for wx, wy in words)

    def d(w):
        return kernels.word_differential(w).items()

    def mul(u, v):
        return kernels.word_mul(u, v)

    def coeff(wy, wx):
        return kernels.word_twist(wy, wx)

    pair_words = sorted((word_letters(wx) + word_letters(wy), dx + dy, wx, wy)
                        for dx in range(caps.max_degree + 1)
                        for dy in range(caps.max_degree + 1 - dx)
                        for wx, wy in product(by_deg[dx], by_deg[dy]))
    budget = [t for t in pair_words if t[0] <= _LETTER_BUDGET]

    def unit_and_nilpotence():
        for _, _, wx, wy in pair_words:
            c, e, mx, my = pair_mul(UNIT_WORD, UNIT_WORD, wx, wy)
            c2, e2, mx2, my2 = pair_mul(wx, wy, UNIT_WORD, UNIT_WORD)
            if not ((mx, my) == (mx2, my2) == (wx, wy) and is_one(c, e)
                    and is_one(c2, e2)):
                yield f"unit law at {pairs((wx, wy))}"
                continue
            acc = {}
            sx = 1 if len(wx) % 2 else -1
            add_column(acc, 1, chain(
                (((a2, wy), s * s2) for a, s in d(wx) for a2, s2 in d(a)),
                (((a, b), (sx + (1 if len(a) % 2 else -1)) * s * t)
                 for a, s in d(wx) for b, t in d(wy)),
                (((wx, b2), t * t2) for b, t in d(wy) for b2, t2 in d(b))))
            yield f"d^2 != 0 at {pairs((wx, wy))}" if any(acc.values()) else None

    def leibniz():
        for l1, d1, ux, uy in budget:
            sign = -1 if d1 % 2 else 1
            su = 1 if len(ux) % 2 else -1
            for l2, d2, vx, vy in budget:
                if l1 + l2 > _LETTER_BUDGET:
                    break
                if d1 + d2 > caps.max_degree:
                    continue
                cuv, euv = coeff(uy, vx)
                px, py = mul(ux, vx), mul(uy, vy)
                lhs = {(euv, (a, py)): cuv * s for a, s in d(px)}
                lhs.update(((euv, (px, b)), (cuv if len(px) % 2 else -cuv) * t)
                           for b, t in d(py))
                rhs = {}
                add_column(rhs, 1, chain(
                    (((euv, (mul(a, vx), py)), s * cuv) for a, s in d(ux)),
                    (((e, (px, mul(b, vy))), su * t * c)
                     for b, t in d(uy) for c, e in [coeff(b, vx)]),
                    (((e, (mul(ux, a), py)), sign * s * c)
                     for a, s in d(vx) for c, e in [coeff(uy, a)]),
                    (((euv, (px, mul(uy, b))),
                      (sign if len(vx) % 2 else -sign) * cuv * t)
                     for b, t in d(vy))))
                rhs = {k: v for k, v in rhs.items() if v}
                yield f"graded Leibniz at {pairs((ux, uy))} * {pairs((vx, vy))}" \
                    if lhs != rhs and rational(lhs) != rational(rhs) else None

    def associativity():
        def associative(a, b, c):
            return mul(mul(a, b), c) == mul(a, mul(b, c))

        rich = [(d, l, wx, wy, word_letters(wx), word_letters(wy),
                 word_degree(wx), word_degree(wy)) for l, d, wx, wy in budget]
        for d1, l1, ux, uy, lux, luy, dux, duy in rich:
            for d2, l2, vx, vy, lvx, lvy, dvx, dvy in rich:
                if l1 + l2 > _LETTER_BUDGET:
                    break
                if d1 + d2 > caps.max_degree:
                    continue
                for d3, l3, wx, wy, lwx, lwy, dwx, dwy in rich:
                    if l1 + l2 + l3 > _LETTER_BUDGET:
                        break
                    if d1 + d2 + d3 > caps.max_degree:
                        continue
                    exp_left = lvx * luy + lwx * (luy + lvy)
                    exp_right = lwx * lvy + (lvx + lwx) * luy
                    sign_left = (dvx * duy + dwx * (duy + dvy)) % 2
                    sign_right = (dwx * dvy + (dvx + dwx) * duy) % 2
                    if (exp_left != exp_right or sign_left != sign_right) and \
                            qpow(exp_left) * (-1) ** sign_left != \
                            qpow(exp_right) * (-1) ** sign_right:
                        yield f"associativity at {pairs((ux, uy), (vx, vy), (wx, wy))}"
                    elif not (associative(ux, vx, wx) and associative(uy, vy, wy)):
                        yield ("word concatenation not associative at "
                               f"{pairs((ux, uy), (vx, vy), (wx, wy))}")
                    else:
                        yield None

    def commutation():
        for a, b, c, dd in product(range(caps.max_exponent + 1), repeat=4):
            sign, e, mx, my = pair_mul((a,), (b,), (c,), (dd,))
            yield None if (mx, my) == ((a + c,), (b + dd,)) and \
                sign * qpow(e) == qpow(b * c) \
                else f"commutation at x^{a} y^{b} * x^{c} y^{dd}"

    count, failures = tally(unit_and_nilpotence(), 2)
    if not failures:
        more, failures = tally(chain(leibniz(), associativity(), commutation()))
        count += more
    if failures:
        return failed("dga-laws", failures[None], count)
    return passed("dga-laws", count)


def twist_axioms_reference(twist, caps: Caps) -> CheckResult:
    """check_twist_axioms with the built-in lift, decided case by case over
    the recursive word-triple enumeration, with no memo table."""
    qpow = twist.qpow

    def crossed(wy, wx):
        return twist.cross(Form.word("y", wy), Form.word("x", wx))

    def units():
        for w in enumerate_words(caps.max_degree, caps.max_exponent):
            got = crossed(UNIT_WORD, w)
            if got != ProductForm({(w, UNIT_WORD): Fraction(1)}):
                yield {"unit": f"1 ⊗ {render_word('x', w)} -> {got}"}
            else:
                got = crossed(w, UNIT_WORD)
                yield None if got == ProductForm({(UNIT_WORD, w): Fraction(1)}) \
                    else {"unit": f"{render_word('y', w)} ⊗ 1 -> {got}"}

    def agrees(merged, first, second):
        (s, e), (s1, e1), (s2, e2) = merged, first, second
        return (s == s1 * s2 and e == e1 + e2) or \
            s * qpow(e) == s1 * s2 * qpow(e1) * qpow(e2)

    def coeff(wy, wx):
        return kernels.word_twist(wy, wx)

    def mul(u, v):
        return kernels.word_mul(u, v)

    def word_products():
        # a triple that breaks both laws is one case naming both
        for wb, wa, wa2 in iter_word_tuples(3, caps):
            failures = {}
            if not agrees(coeff(wb, mul(wa, wa2)), coeff(wb, wa),
                          coeff(wb, wa2)):
                failures["product-right"] = f"b={render_word('y', wb)}, " \
                    f"a={render_word('x', wa)}, a'={render_word('x', wa2)}"
            if not agrees(coeff(mul(wb, wa), wa2), coeff(wb, wa2),
                          coeff(wa, wa2)):
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


# ---------------------------------------------------------------------------
# per-case references of lift-compat and leibniz, on Fraction elements, and
# the input-by-input loops of curvature-formula, flatness, bimodule-axiom
# and bimodule-theorem
# ---------------------------------------------------------------------------

def lift_compat_reference(twist, caps: Caps) -> CheckResult:
    """check_lift_compat decided case by case on elements: every word pair
    crosses its forms and their differentials with a private copy of the
    lift and compares full tables."""

    def d(w):
        return kernels.word_differential(w)

    def cross(yform, xform):
        out = {}
        for wy, cy in yform.terms.items():
            for wx, cx in xform.terms.items():
                sign, e = kernels.word_twist(wy, wx)
                c = twist.qpow(e) if sign > 0 else -twist.qpow(e)
                out[(wx, wy)] = c * cy * cx
        return ProductForm(out)

    def apply_d(p, side):
        out = {}
        for pair, c in p.terms.items():
            other = pair[1 - side]
            c = c if len(other) % 2 else -c
            add_column(out, 1, [((nw, other) if side == 0 else (other, nw), c * s)
                                for nw, s in d(pair[side]).items()])
        return ProductForm(out)

    def cases():
        for wb, wa in iter_word_tuples(2, caps):
            yb, dyb = Form.word("y", wb), Form("y", d(wb))
            xa, dxa = Form.word("x", wa), Form("x", d(wa))
            base = cross(yb, xa)
            side, lhs, rhs = "y", cross(dyb, xa), apply_d(base, 1)
            if lhs == rhs:
                side, lhs, rhs = "x", cross(yb, dxa), apply_d(base, 0)
            yield None if lhs == rhs else (
                f"d on {side}-side at ({render_word('y', wb)}, "
                f"{render_word('x', wa)}): {lhs} != {rhs}")

    return run_cases("lift-compat", cases(), 2)


def leibniz_reference(pc, caps: Caps, seed: int = 0) -> CheckResult:
    """check_connection_leibniz decided case by case on Fraction elements:
    v·w, ∇(v)·w and v·dw through a private copy of the twisted product,
    ∇(v·w) summed from the connection's columns."""
    twist = pc.twist

    def mul(u, v):
        terms = {}
        for (ux, uy), cu in u.terms.items():
            for (vx, vy), cv in v.terms.items():
                sign, e = kernels.word_twist(uy, vx)
                c = cu * cv * twist.qpow(e)
                add_column(terms, 1, [((kernels.word_mul(ux, vx),
                                        kernels.word_mul(uy, vy)),
                                       -c if sign < 0 else c)])
        return ProductForm(terms)

    def act(pv, w):
        slots = {}
        for (s, pair), c in pv.terms.items():
            slots.setdefault(s, {})[pair] = c
        return ProductVector.from_terms(
            {(s, p): c for s, coord in slots.items()
             for p, c in mul(ProductForm(coord), w).terms.items()}, pv.m, pv.n)

    monomials = [ProductForm.pair(wx, wy)
                 for wx, wy in enumerate_monomials(caps.max_exponent)]

    def cases():
        for label, pv in _theorem_inputs(pc, caps, seed, _LEIBNIZ_RANDOM):
            nabla = pc.nabla(pv)
            for w in monomials:
                lhs = sum_scaled(to_scaled(act(pv, w).terms.items()),
                                 pc.scaled_nabla)
                rhs = act(nabla, w) + act(pv, w.d())
                yield None if scaled_equal(lhs, to_scaled(rhs.terms.items())) \
                    else f"leibniz fails at {label} acted by {w}"

    return run_cases("leibniz", cases())


def curvature_formula_reference(pc, caps: Caps, seed: int = 0) -> CheckResult:
    """check_curvature_formula decided input by input: the curvature of
    each input against the blockwise formula."""
    return run_cases("curvature-formula", (
        None if pc.curvature(pv) == curvature_formula_rhs(pc, pv)
        else f"curvature formula fails at {label}"
        for label, pv in _theorem_inputs(pc, caps, seed, _CURVATURE_RANDOM)))


def flatness_reference(pc, caps: Caps) -> CheckResult:
    """check_flatness decided input by input: the curvature of each naive
    basis vector."""
    if not (pc.conn_e.is_grassmann and pc.conn_f.is_grassmann):
        return inadmissible("flatness", "connections are not both Grassmann")
    return run_cases("flatness", (
        None if pc.curvature(pv).is_zero else f"nonzero curvature at {label}"
        for label, pv in iter_naive_basis(pc.m, pc.rmt, caps)))


def _monomials(caps: Caps):
    """(i, j, x^i ⊗ y^j) for the degree-0 monomials within caps."""
    return [(wx[0], wy[0], ProductForm.pair(wx, wy))
            for wx, wy in enumerate_monomials(caps.max_exponent)]


def bimodule_axiom_reference(ps, caps: Caps) -> CheckResult:
    """check_bimodule_axiom decided input by input: both orders of the two
    actions on each naive basis vector, for each pair of monomials."""
    monos = _monomials(caps)

    def cases():
        for label, pv in iter_naive_basis(ps.m, ps.rmt, caps):
            terms = to_scaled(pv.terms.items())
            for il, jl, wl in monos:
                left = ps.left(il, jl)
                moved = sum_scaled(terms, left)
                for ir, jr, wr in monos:
                    right = ps.right(ir, jr)
                    lhs = sum_scaled(sum_scaled(terms, right), left)
                    yield None if scaled_equal(lhs, sum_scaled(moved, right)) \
                        else f"{label} between {wl} and {wr}"

    return run_cases("bimodule-axiom", cases())


def bimodule_theorem_reference(pc, ps, caps: Caps) -> CheckResult:
    """check_bimodule_theorem decided input by input: ∇(w·v) against
    w·∇(v) + swap(dw ⊗ v) on each naive basis vector v."""
    twist, rmt, lmt = ps.twist, ps.rmt, ps.lmt
    monos = _monomials(caps)

    def cases():
        for label, pv in iter_naive_basis(pc.m, pc.rmt, caps):
            nabla = pc.nabla(pv)
            for _, _, w in monos:
                lhs = pc.nabla(swap_module.act_left(twist, rmt, lmt, w, pv))
                rhs = swap_module.act_left(twist, rmt, lmt, w, nabla) + \
                    ps.apply(w.d(), pv)
                yield None if lhs == rhs else f"{w} . ({label})"

    return run_cases("bimodule-theorem", cases())


# ---------------------------------------------------------------------------
# a Fraction-kernel reference of the product swap's columns
# ---------------------------------------------------------------------------

def left_term(twist, rmt, lmt, m, i, j, t):
    """x^i ⊗ y^j times one flat term, as a Fraction c and (term, row entry)
    pairs whose values are c times the entries: row k of T^j on e-block
    slot k, of S^{-i} on f-block slot k."""
    slot, (vx, vy) = t
    sign, e = swap_module.word_twist((j,), vx)
    c = twist.qpow(e)
    pair = ((i + vx[0],) + vx[1:], swap_module.word_mul((j,), vy))
    if slot < m:
        base, row = 0, lmt.matrix_power(j)[slot]
    else:
        base, row = m, rmt.matrix_power(-i)[slot - m]
    return -c if sign < 0 else c, [((base + l, pair), r)
                                   for l, r in enumerate(row) if r]


def _lowest(den, table):
    """A scaled table as a scaled column in lowest terms."""
    g = math.gcd(den, *table.values())
    return den // g, tuple((t, n // g) for t, n in table.items())


class SwapReference:
    """The columns of a ``bimodule.ProductSwap``, each built from a Fraction
    kernel through ``to_scaled`` and summed with ``forms.add_scaled``.

    It reads the swap's twists and factor swaps only.  The word kernels,
    ``_right_normal`` and the coordinate changes are looked up on
    ``bimodule`` at call time, the left action through :func:`left_term`
    here, the right action and w·ω through ``AlgebraTwist.mul_scaled``, and
    the factor swaps through ``FormSwap.apply``, so a patch of any of them
    reaches the reference as it reaches the swap.  Each column is built
    once per reference.
    """

    def __init__(self, ps):
        self.twist, self.rmt, self.lmt = ps.twist, ps.rmt, ps.lmt
        self.swap_e, self.swap_f, self.m = ps.swap_e, ps.swap_f, ps.m
        self.memo = {}

    def operator(self, tag, make):
        cols = self.memo.setdefault(tag, {})

        def column(t):
            col = cols.get(t)
            if col is None:
                col = cols[t] = make(t)
            return col
        return column

    def from_kernel(self, tag, kernel):
        return self.operator(tag, lambda t: _lowest(*to_scaled(kernel(t))))

    def left(self, i, j):
        def kernel(t):
            c, pairs = left_term(self.twist, self.rmt, self.lmt, self.m, i, j, t)
            return [(u, c * r) for u, r in pairs]
        return self.from_kernel(("L", i, j), kernel)

    def right(self, i, j):
        w = (1, {((i,), (j,)): 1})
        return self.operator(("R", i, j), lambda t: _lowest(
            *self.twist.mul_scaled((1, {t: 1}), w)))

    def columns(self, pair):
        def make(t):
            acc = {}
            den = 1
            wx, wy = pair
            if word_degree(wx) == 1:
                shapes = [(("Gx", cc), (tail, wy[0]), co)
                          for cc, tail, co in swap_module._right_normal(wx[0], wx[1])]
            else:
                shapes = [(("Gy", wx[0], cc), (0, tail), co)
                          for cc, tail, co in swap_module._right_normal(wy[0], wy[1])]
            for tag, scalar, co in shapes:
                ld, left = self.left(*scalar)(t)
                for t2, v in left:
                    gd, col = self._generator(tag)(t2)
                    den = forms_module.add_scaled(acc, den, co * v, ld * gd, col)
            return _lowest(den, acc)
        return self.operator(("S", pair), make)

    def _generator(self, tag):
        return self.operator(tag, lambda t: _lowest(
            *(self._generator_x(tag[1], t) if tag[0] == "Gx"
              else self._generator_y(tag[1], tag[2], t))))

    def _factor_swap(self, gen, cc, k, word):
        swap = self.swap_e if gen == "x" else self.swap_f

        def image(kw):
            vec = [Form.zero(gen)] * swap.rank
            vec[kw[0]] = Form.word(gen, kw[1])
            return [((l, w), c) for l, res in enumerate(
                swap.apply(Form.gen_power(gen, cc).d(), vec))
                for w, c in res.terms.items()]
        return self.from_kernel(("F", gen, cc), image)((k, word))

    def _naive(self, t):
        return self.from_kernel(("N",), lambda t: swap_module.f_free_to_naive(
            self.rmt, {(t[0] - self.m, t[1]): Fraction(1)}).items())(t)

    def _free(self, naive):
        acc = {}
        den = 1
        free = self.from_kernel(("B",), lambda u: swap_module.naive_terms_to_free(
            self.rmt, self.m, {u: Fraction(1)}).items())
        for u, c, d in naive:
            bd, col = free(u)
            den = forms_module.add_scaled(acc, den, c, d * bd, col)
        return den, acc

    def _generator_x(self, cc, t):
        slot, (wx, wy) = t
        if slot < self.m:
            fd, image = self._factor_swap("x", cc, slot, wx)
            return fd, {(l, (w, wy)): c for (l, w), c in image}
        nd, naive = self._naive(t)
        return self._free([((k, (swap_module.word_mul(w, wxk), wyk)), c * s, nd)
                           for (k, (wxk, wyk)), c in naive
                           for w, s in swap_module.word_differential((cc,)).items()])

    def _generator_y(self, i, cc, t):
        twist = self.twist
        slot, (wx, wy) = t
        if slot < self.m:
            row = self.lmt.matrix_power(cc)[slot]
            return to_scaled([((l, ((i + wx[0],), swap_module.word_mul(w, wy))), s * r)
                              for w, s in swap_module.word_differential((cc,)).items()
                              for l, r in enumerate(row) if r],
                             twist.qpow(cc * wx[0]))
        nd, naive = self._naive(t)
        terms = []
        for (k, (wxk, wyk)), c in naive:
            q = twist.qpow(cc * wxk[0])
            fd, image = self._factor_swap("y", cc, k, wyk)
            terms += [((p, ((i + wxk[0],), w)), q.numerator * c * cw,
                       q.denominator * fd * nd) for (p, w), cw in image]
        return self._free(terms)


def one_form_pairs(caps: Caps, form_side: str):
    """(label, pair-word) of the 1-forms of one side, in the checks' order."""
    E = caps.max_exponent
    words = [(a, b) for a in range(E + 1) for b in range(E + 1)]
    return [(f"{render_word('x', w)} ⊗ y^{t}", (w, (t,))) if form_side == "x"
            else (f"x^{t} ⊗ {render_word('y', w)}", ((t,), w))
            for w in words for t in range(E + 1)]


def piece_morphism_reference(ref: SwapReference, caps: Caps, block: str,
                             form_side: str) -> tuple[int, dict]:
    """``bimodule._piece_morphism`` case by case on the reference's columns:
    each case sums its columns afresh."""
    twist = ref.twist
    monos = _monomials(caps)
    basis = [(label, to_scaled(pv.terms.items()))
             for label, pv in iter_naive_basis(ref.m, ref.rmt, caps, blocks=block)]

    def comparisons():
        done = set()
        for flabel, pair in one_form_pairs(caps, form_side):
            products = [(i, j, w, wd, *next(iter(table.items())))
                        for i, j, w in monos
                        for wd, table in [twist.mul_scaled(
                            (1, {(0, ((i,), (j,))): 1}), (1, {pair: 1}))]]
            swap = ref.columns(pair)
            for plabel, terms in basis:
                den, table = terms
                base = sum_scaled(terms, swap)
                for i, j, w, wd, (_, wpair), wn in products:
                    if "left" not in done:
                        lhs = sum_scaled(
                            (den * wd, {t: wn * n for t, n in table.items()}),
                            ref.columns(wpair))
                        if not scaled_equal(lhs, sum_scaled(base, ref.left(i, j))):
                            done.add("left")
                            yield {"left": f"left: {w} . ({flabel}) ⊗ {plabel}"}
                        else:
                            yield None
                    if "right" not in done:
                        right = ref.right(i, j)
                        lhs = sum_scaled(sum_scaled(terms, right), swap)
                        if not scaled_equal(lhs, sum_scaled(base, right)):
                            done.add("right")
                            yield {"right": f"right: ({flabel}) ⊗ {plabel} . {w}"}
                        else:
                            yield None

    return tally(comparisons(), until=2)
