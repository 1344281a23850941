"""The product module, the twisted product connection, and its curvature.

The module is (E ⊗ B) + (A ⊗ F) for free modules E = A^m, F = B^n.
Internally both blocks are stored in *free coordinates*: an element is

    sum_k (e_k ⊗ 1) . W_k  [+]  sum_k (1 ⊗ f_k) . W_k,

with each coordinate W_k an element of the product calculus.  The right
module action is then componentwise multiplication; for the f-block the
change to naive coordinates (sums  x^i ⊗ f_l y^j) mixes slots by powers
of the module-twist matrix S and is invertible degree by degree, so table
equality of free coordinates decides equality in the quotient.

The connection applies the gauge potential of each factor plus the
componentwise differential on the e-block, while the degree-0 part of the
f-block goes through the inverse module twist exactly as the construction
prescribes (the two routes agree precisely when the compatibility
hypothesis between the module twist and the second connection holds, which
is what `check_twist_connection_compat` decides).  Higher-degree
coordinates extend by nabla(s . w) = nabla(s) . w + s . dw.  Each flat
term (slot, pair-word) has its image computed once per connection and kept
integer-scaled in the connection's column table, so nabla is a sum of
cached columns over the integers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .connections import ModuleConnection
from .forms import Caps, ColumnTable, Form, Terms, Word, UNIT_WORD, \
    add_column, add_scaled, from_scaled, scaled_equal, sum_scaled, to_scaled, \
    word_differential, word_letters
from .reports import CheckResult, inadmissible, run_cases
from .tdga import PairWord, ProductForm, embed_x, embed_y, \
    enumerate_monomials, pair_degree
from .twist import AlgebraTwist, ModuleTwist, RightModuleTwist, \
    check_right_module_twist


# A flat term of the module is (slot, pair-word), with the e-block slots
# first, then the f-block.
Term = tuple[int, PairWord]

_ONE = Fraction(1)


class ProductVector(Terms):
    """Free-basis coordinates of an element of (E ⊗ B) + (A ⊗ F), as one
    flat table from terms (slot, pair-word) to nonzero Fractions.

    ``e`` and ``f`` are read-only views, one ProductForm per slot.  There
    is no ``d``: the componentwise differential of free coordinates is not
    the product connection.
    """

    __slots__ = ("m", "n")

    d = None

    def __init__(self, e, f):
        e, f = tuple(e), tuple(f)
        super().__init__({(s, w): c for s, coord in enumerate(e + f)
                          for w, c in coord.terms.items()})
        self.m, self.n = len(e), len(f)

    @classmethod
    def from_terms(cls, terms: dict[Term, Fraction], m: int,
                   n: int) -> "ProductVector":
        """The element of ranks (m, n) with flat term table ``terms``, which
        holds no zero and is kept as it is (the sums of columns build such
        tables)."""
        pv = cls.__new__(cls)
        pv.terms, pv.m, pv.n = terms, m, n
        return pv

    def _like(self, terms: dict) -> "ProductVector":
        return ProductVector.from_terms(terms, self.m, self.n)

    @staticmethod
    def key_degree(t: Term) -> int:
        return pair_degree(t[1])

    @classmethod
    def zero(cls, m: int, n: int) -> "ProductVector":
        return cls.from_terms({}, m, n)

    @property
    def ranks(self) -> tuple[int, int]:
        return self.m, self.n

    kind = ranks

    def is_degree(self, degree: int) -> bool:
        return self.is_homogeneous(degree)

    def _slots(self) -> list[ProductForm]:
        coords: list[dict[PairWord, Fraction]] = [{} for _ in range(self.m + self.n)]
        for (s, w), c in self.terms.items():
            coords[s][w] = c
        return [ProductForm(t) for t in coords]

    @property
    def e(self) -> tuple[ProductForm, ...]:
        return tuple(self._slots()[:self.m])

    @property
    def f(self) -> tuple[ProductForm, ...]:
        return tuple(self._slots()[self.m:])

    def __str__(self) -> str:
        names = [f"e_{k + 1}" for k in range(self.m)] + \
            [f"f_{k + 1}" for k in range(self.n)]
        parts = [f"{name}: {w}" for name, w in zip(names, self._slots())
                 if not w.is_zero]
        return "; ".join(parts) if parts else "0"

    render = __str__


def check_ranks(pv: ProductVector, ranks: tuple[int, int]) -> None:
    """Refuse an element whose ranks are not those of the operator."""
    if pv.ranks != ranks:
        raise ValueError(f"rank mismatch: {pv.ranks} != {ranks}")


# ---------------------------------------------------------------------------
# coordinate changes and module actions
# ---------------------------------------------------------------------------

def _spread(rmt: RightModuleTwist, table, power) -> dict[Term, Fraction]:
    """Each f-block term (l, wx ⊗ wy) spread over the slots by row l of
    S^{power(wx)}: the one kernel of both f-coordinate changes."""
    out: dict[Term, Fraction] = {}
    for (l, pair), c in table.items():
        add_column(out, c, [((k, pair), r) for k, r in
                            enumerate(rmt.matrix_power(power(pair[0]))[l]) if r])
    return out


def f_free_to_naive(rmt: RightModuleTwist, table) -> dict[Term, Fraction]:
    """Free f-block terms -> naive terms x^i ⊗ f_l y^j (degree 0 only).

    Both are flat term tables whose f-slots count from 0.
    """
    if any(pair_degree(pair) for _, pair in table):
        raise ValueError("naive conversion needs degree-0 coordinates")
    return _spread(rmt, table, lambda wx: wx[0])


def f_naive_to_free(rmt: RightModuleTwist, table) -> dict[Term, Fraction]:
    """Naive f-block terms of any degree -> free ones (f-slots from 0).

    A term wx ⊗ f_l wy whose x-word has L letters goes back by row l of
    S^{-L}; on degree 0 this inverts :func:`f_free_to_naive`.
    """
    return _spread(rmt, table, lambda wx: -word_letters(wx))


def naive_terms_to_free(rmt: RightModuleTwist, m: int,
                        naive: dict[Term, Fraction]) -> dict[Term, Fraction]:
    """:func:`f_naive_to_free` with the f-slots moved after the m e-slots."""
    return {(m + l, pair): c
            for (l, pair), c in f_naive_to_free(rmt, naive).items()}


def act_right(twist: AlgebraTwist, pv: ProductVector, w: ProductForm) -> ProductVector:
    """Right action of a degree-0 algebra element; componentwise in free coords."""
    if not w.is_homogeneous(0):
        raise ValueError("right action needs a degree-0 element")
    return act_right_form(twist, pv, w)


def act_right_form(twist: AlgebraTwist, pv: ProductVector,
                   w: ProductForm) -> ProductVector:
    """Right multiplication by an arbitrary form (the right calculus action):
    each slot's terms times w, in that slot, by ``AlgebraTwist.mul_scaled``."""
    return ProductVector.from_terms(from_scaled(*twist.mul_scaled(
        to_scaled(pv.terms.items()), to_scaled(w.terms.items()))), pv.m, pv.n)


def e_matrix_image(twist: AlgebraTwist, coords, matrix) -> list[ProductForm]:
    """Slot k gets sum_l (matrix[k][l] ⊗ 1) · coords[l]: x-forms on free
    e-coordinates, the mirror of :func:`f_matrix_image`."""
    out = []
    for row in matrix:
        acc = ProductForm.zero()
        for entry, coord in zip(row, coords):
            if not entry.is_zero and not coord.is_zero:
                acc = acc + twist.mul(embed_x(entry), coord)
        out.append(acc)
    return out


def f_matrix_image(rmt: RightModuleTwist, coords, matrix) -> list[ProductForm]:
    """x^i ⊗ f_l y^j  ->  sum_p x^i ⊗ f_p matrix[p][l] y^j, in free coordinates.

    ``matrix`` holds y-forms (a potential or a curvature matrix) acting
    inside A ⊗ F on degree-0 f-coordinates.
    """
    out: dict[Term, Fraction] = {}
    for (l, (wx, wy)), c in f_free_to_naive(
            rmt, ProductVector((), coords).terms).items():
        y_pow = Form.gen_power("y", wy[0])
        for p, row in enumerate(matrix):
            add_column(out, c, [((p, (wx, w)), cw)
                                for w, cw in (row[l] * y_pow).terms.items()])
    return list(ProductVector.from_terms(f_naive_to_free(rmt, out), 0,
                                         rmt.rank).f)


# ---------------------------------------------------------------------------
# the product connection
# ---------------------------------------------------------------------------

class ProductConnection:
    """Product of two free-module connections across the algebra twist."""

    def __init__(self, twist: AlgebraTwist, rmt: RightModuleTwist,
                 conn_e: ModuleConnection, conn_f: ModuleConnection):
        if conn_e.gen != "x" or conn_f.gen != "y":
            raise ValueError("expected an x-module and a y-module connection")
        if rmt.rank != conn_f.rank:
            raise ValueError("module twist rank must match the y-module rank")
        if rmt.twist is not twist:
            raise ValueError("module twist must share the algebra twist")
        self.twist = twist
        self.rmt = rmt
        self.conn_e = conn_e
        self.conn_f = conn_f
        # ∇ of each flat term, kept like the factor connections' monomials
        self.ops = ColumnTable()
        self.scaled_nabla = self.ops.from_kernel(
            ("∇",), lambda t: self._nabla_term(*t).items())

    @property
    def m(self) -> int:
        return self.conn_e.rank

    @property
    def n(self) -> int:
        return self.conn_f.rank

    def grassmann_part(self) -> "ProductConnection":
        return ProductConnection(
            self.twist, self.rmt,
            ModuleConnection.grassmann("x", self.m),
            ModuleConnection.grassmann("y", self.n))

    def nabla(self, pv: ProductVector) -> ProductVector:
        """The product connection, extended to all form degrees: the sum of
        the ∇ columns of pv's flat terms."""
        return self._power(pv, 1)

    def _power(self, pv: ProductVector, k: int) -> ProductVector:
        """∇ applied k times, summed over the integers and converted to
        Fractions once."""
        check_ranks(pv, (self.m, self.n))
        table = to_scaled(pv.terms.items())
        for _ in range(k):
            table = sum_scaled(table, self.scaled_nabla)
        return ProductVector.from_terms(from_scaled(*table), self.m, self.n)

    def _nabla_term(self, slot: int, pair: PairWord) -> dict[Term, Fraction]:
        """∇ of one flat term: the kernel of :meth:`nabla`.

        An e-term, or an f-term of degree >= 1, gets its differential plus
        the embedded potential of its factor.  A degree-0 f-term goes
        through the inverse module twist exactly as constructed: in naive
        coordinates the factor connection acts inside A ⊗ F, and the
        differential of the x-polynomial is carried back by the inverse
        twist.
        """
        m = self.m
        if slot >= m and pair_degree(pair) == 0:
            naive: dict[Term, Fraction] = {}
            for (l, (wx, wy)), c in f_free_to_naive(
                    self.rmt, {(slot - m, pair): _ONE}).items():
                # factor-connection term: x^i ⊗ nabla_F(f_l y^j)
                for p, eta in enumerate(self.conn_f.nabla_monomial(l, wy[0])):
                    add_column(naive, c, [((p, (wx, v)), cv)
                                          for v, cv in eta.terms.items()])
                # inverse-twist term: d(x^i) ⊗ f_l y^j
                add_column(naive, c, [((l, (u, wy)), s) for u, s
                                      in word_differential(wx).items()])
            return naive_terms_to_free(self.rmt, m, naive)
        one = ProductForm({pair: _ONE})
        conn, embed, base = (self.conn_e, embed_x, 0) if slot < m \
            else (self.conn_f, embed_y, m)
        out = {(slot, w): c for w, c in one.d().terms.items()}
        for k, row in enumerate(conn.potential):
            entry = row[slot - base]
            if not entry.is_zero:
                image = self.twist.mul(embed(entry), one)
                add_column(out, 1, [((base + k, w), c)
                                    for w, c in image.terms.items()])
        return out

    def curvature(self, pv: ProductVector) -> ProductVector:
        """nabla twice on a degree-0 element."""
        if not pv.is_degree(0):
            raise ValueError("curvature is evaluated on degree-0 elements")
        return self._power(pv, 2)


def naive_vector(m: int, rmt: RightModuleTwist, block: str,
                 k: int, i: int, j: int) -> ProductVector:
    """e_k x^i ⊗ y^j (block "e") or x^i ⊗ f_k y^j (block "f"), free coordinates."""
    mono = {(k, ((i,), (j,))): _ONE}
    return ProductVector.from_terms(
        mono if block == "e" else naive_terms_to_free(rmt, m, mono), m, rmt.rank)


def reduced_presentation(twist: AlgebraTwist, rmt: RightModuleTwist,
                         pv: ProductVector) -> dict:
    """Twist-independent normal form used to compare across module twists.

    e-block coordinates are already canonical.  Each f-block term is
    rewritten over the naive module monomials x^i ⊗ f_l y^j with a form
    part whose leading exponents are zero, which removes every reference to
    the mixing matrix from the keys.
    """
    out: dict[tuple, Fraction] = {}
    for (s, (wx, wy)), c in pv.terms.items():
        if s < pv.m:
            out[("e", s, (wx, wy))] = c
            continue
        i, u = wx[0], ((0,) + wx[1:] if len(wx) > 1 else UNIT_WORD)
        j, v = wy[0], ((0,) + wy[1:] if len(wy) > 1 else UNIT_WORD)
        add_column(out, c * twist.qpow(-j * word_letters(u)),
                   [(("f", l, i, j, u, v), r)
                    for l, r in enumerate(rmt.matrix_power(i)[s - pv.m]) if r])
    return out


# ---------------------------------------------------------------------------
# hypothesis checker for the second block
# ---------------------------------------------------------------------------

def check_twist_connection_compat(twist: AlgebraTwist, rmt: RightModuleTwist,
                                  conn_f: ModuleConnection, caps: Caps) -> CheckResult:
    """Compatibility of the module twist with the second factor connection.

    Both the defining condition (connection after twist equals twist after
    connection, with the lift carrying the 1-forms across) and its inverse
    form are verified exhaustively on module monomials within caps.
    """
    return _connection_compat(twist, rmt, conn_f, caps, "right")


# per side: the check name and the witness of the defining condition
_COMPAT_SIDES = {
    "right": ("f-connection-compat", "f_{k} y^{own} ⊗ x^{other}: twist-then-"
              "connect differs from connect-then-twist (q-weight mismatch)"),
    "left": ("e-connection-compat", "y^{other} ⊗ e_{k} x^{own}: twist and "
             "connection do not commute"),
}


def _connection_compat(twist: AlgebraTwist, mt: ModuleTwist,
                       conn: ModuleConnection, caps: Caps,
                       side: str) -> CheckResult:
    """Shared body of the two twist/connection compatibility checks.

    On each module monomial (slot k, own exponent) crossed past the other
    generator's power: crossing then applying nabla equals applying nabla
    then crossing each 1-form, which picks up q^{other · letters}.  The
    right side loops (own, other) and also checks the inverse form (sign
    -1, the weight on the other route); the left side loops (other, own).
    """
    name, text = _COMPAT_SIDES[side]
    exps = range(caps.max_exponent + 1)

    def nabla_terms(k, own, weight):
        # nabla of the monomial in slot k as (slot, word) terms, each scaled
        # by q^{weight · letters}
        return [((p, w), cw * twist.qpow(weight * word_letters(w)))
                for p, eta in enumerate(conn.nabla_monomial(k, own))
                for w, cw in eta.terms.items()]

    def twist_then_connect(k, own, other, sign=1, weight=0):
        out: dict[tuple[int, Word], Fraction] = {}
        for c, l in mt.cross(k, own, other, sign):
            add_column(out, c, nabla_terms(l, own, weight))
        return out

    def connect_then_twist(k, own, other, sign=1, weight=0):
        out: dict[tuple[int, Word], Fraction] = {}
        for (p, w), scale in nabla_terms(k, own, weight):
            add_column(out, scale, [((l, w), c) for c, l in mt.cross(p, 0, other, sign)])
        return out

    def cases():
        for k, *loop in product(range(mt.rank), exps, exps):
            own, other = loop if side == "right" else loop[::-1]
            yield None if twist_then_connect(k, own, other) == \
                connect_then_twist(k, own, other, weight=other) \
                else text.format(k=k + 1, own=own, other=other)
            if side == "right":
                yield None if connect_then_twist(k, own, other, -1) == \
                    twist_then_connect(k, own, other, -1, weight=other) \
                    else f"inverse form fails at x^{other} ⊗ f_{k + 1} y^{own}"

    return run_cases(name, cases())


# ---------------------------------------------------------------------------
# theorem-level checks
# ---------------------------------------------------------------------------

def _random_degree0_form(rng: random.Random, caps: Caps) -> ProductForm:
    coeffs = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]
    terms = {}
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, caps.max_exponent)
        j = rng.randint(0, caps.max_exponent)
        terms[((i,), (j,))] = rng.choice(coeffs)
    return ProductForm(terms)


def random_degree0_vector(rng: random.Random, m: int, n: int,
                          caps: Caps) -> ProductVector:
    return ProductVector([_random_degree0_form(rng, caps) for _ in range(m)],
                         [_random_degree0_form(rng, caps) for _ in range(n)])


def iter_naive_basis(m: int, rmt: RightModuleTwist, caps: Caps,
                     blocks: str = "ef"):
    """Labelled naive monomials: e_k x^i ⊗ y^j, then x^i ⊗ f_k y^j.

    ``blocks`` picks the e-block, the f-block or both.
    """
    E = caps.max_exponent
    for block in blocks:
        for k in range(m if block == "e" else rmt.rank):
            for i in range(E + 1):
                for j in range(E + 1):
                    label = f"e_{k + 1} x^{i} ⊗ y^{j}" if block == "e" \
                        else f"x^{i} ⊗ f_{k + 1} y^{j}"
                    yield label, naive_vector(m, rmt, block, k, i, j)


# seeded random degree-0 inputs after the naive basis, per check
_LEIBNIZ_RANDOM = 25
_CURVATURE_RANDOM = 10


def _theorem_inputs(pc: ProductConnection, caps: Caps, seed: int, count: int):
    """The labelled naive basis, then ``count`` random vectors from ``seed``."""
    yield from iter_naive_basis(pc.m, pc.rmt, caps)
    rng = random.Random(seed)
    for _ in range(count):
        yield "random", random_degree0_vector(rng, pc.m, pc.n, caps)


def _decided_by_terms(inputs, cases, per_input: int):
    """The entries of a check over the labelled module elements ``inputs``,
    decided from one fact per flat term.

    ``cases(label, pv)`` yields the ``per_input`` entries of the input pv,
    each comparing two sides linear in pv (each caller says why).  The fact
    at a flat term t is that every case of the one-term input t, of pv's
    ranks, holds; it is evaluated once, on the first input that contains t
    (on that input itself when it is c·t: its sides are c ≠ 0 times those
    at t), and kept in a table local to the call.  An input pv = Σ c_t t
    whose terms all hold is one int entry of held cases: each side at pv
    is Σ c_t times that side at t, so the sides are equal at pv.  An input
    with a failing term runs ``cases`` in order, so cases, order and
    witnesses are those of deciding each case alone.
    """
    facts: dict[Term, bool] = {}
    for label, pv in inputs:
        for t in pv.terms:
            if t not in facts:
                # witnesses are nonempty strings, so any() finds a failing case
                one = pv if len(pv.terms) == 1 else \
                    ProductVector.from_terms({t: _ONE}, pv.m, pv.n)
                facts[t] = not any(cases("", one))
            if not facts[t]:
                yield from cases(label, pv)
                break
        else:
            yield per_input


def check_connection_leibniz(pc: ProductConnection, caps: Caps,
                             seed: int = 0) -> CheckResult:
    """Right Leibniz rule of the product connection on bounded bases:
    nabla(v . w) = nabla(v) . w + v . dw, for each input v and degree-0
    monomial w, with nabla(v) taken once per input.

    Both sides are integer-scaled tables: the products come from
    ``AlgebraTwist.mul_scaled``, and nabla(v . w) is summed from the
    connection's columns.  Both are linear in v, for any word kernels and
    any ∇ columns: ``mul_scaled`` sums its products over the terms of its
    first table, ``sum_scaled`` (and so ``ProductConnection.nabla``) sums
    columns over the terms of its table, all in exact integer arithmetic.
    """
    mul = pc.twist.mul_scaled
    monomials = [(w, to_scaled(w.terms.items()), to_scaled(w.d().terms.items()))
                 for w in (ProductForm.pair(wx, wy)
                           for wx, wy in enumerate_monomials(caps.max_exponent))]

    def cases(label, pv):
        v, nabla = to_scaled(pv.terms.items()), to_scaled(pc.nabla(pv).terms.items())
        for w, sw, dw in monomials:
            lhs = sum_scaled(mul(v, sw), pc.scaled_nabla)
            (den, rhs), (dd, extra) = mul(nabla, sw), mul(v, dw)
            den = add_scaled(rhs, den, 1, dd, extra.items())
            yield None if scaled_equal(lhs, (den, rhs)) \
                else f"leibniz fails at {label} acted by {w}"

    inputs = _theorem_inputs(pc, caps, seed, _LEIBNIZ_RANDOM)
    return run_cases("leibniz", _decided_by_terms(inputs, cases, len(monomials)))


def curvature_formula_rhs(pc: ProductConnection, pv: ProductVector) -> ProductVector:
    """Curvature of each factor, included blockwise and acted by the scalars.

    Assembled independently of the connection: only the factor curvature
    matrices, the block inclusions and the module actions are used.
    """
    return ProductVector(
        e_matrix_image(pc.twist, pv.e, pc.conn_e.curvature_matrix()),
        f_matrix_image(pc.rmt, pv.f, pc.conn_f.curvature_matrix()))


def check_curvature_formula(pc: ProductConnection, caps: Caps,
                            seed: int = 0) -> CheckResult:
    """Main identity: the product curvature equals the blockwise formula.

    Both sides are linear in the input: ``curvature`` sums ∇ columns twice,
    and :func:`curvature_formula_rhs` sums, slot by slot and term by term,
    twisted products and coordinate changes of each coordinate, all in
    exact arithmetic.
    """
    def cases(label, pv):
        yield None if pc.curvature(pv) == curvature_formula_rhs(pc, pv) \
            else f"curvature formula fails at {label}"

    inputs = _theorem_inputs(pc, caps, seed, _CURVATURE_RANDOM)
    return run_cases("curvature-formula", _decided_by_terms(inputs, cases, 1))


def check_flatness(pc: ProductConnection, caps: Caps) -> CheckResult:
    """Zero potentials must give identically zero product curvature, which
    is linear in the input: ``curvature`` sums ∇ columns twice, exactly."""
    name = "flatness"
    if not (pc.conn_e.is_grassmann and pc.conn_f.is_grassmann):
        return inadmissible(name, "connections are not both Grassmann")

    def cases(label, pv):
        yield None if pc.curvature(pv).is_zero else f"nonzero curvature at {label}"

    return run_cases(name, _decided_by_terms(iter_naive_basis(pc.m, pc.rmt, caps),
                                             cases, 1))


def check_twist_independence(pc: ProductConnection, rmt2: RightModuleTwist,
                             caps: Caps, axioms1: CheckResult,
                             compat1: CheckResult) -> CheckResult:
    """Curvature tables agree for two admissible module twists.

    ``pc`` is the run's connection, with the first twist; its ∇ columns
    serve this check too.  ``axioms1`` and ``compat1`` are the first twist's
    results of :func:`check_right_module_twist` and
    :func:`check_twist_connection_compat` at ``caps``; the second twist is
    decided here, once the first is admissible.
    """
    name = "independence"
    twist = pc.twist

    def admissibility():
        yield "first", axioms1, compat1
        yield "second", check_right_module_twist(rmt2, caps), \
            check_twist_connection_compat(twist, rmt2, pc.conn_f, caps)

    for tag, axioms, compat in admissibility():
        if not (axioms.passed and compat.passed):
            why = axioms.witness if not axioms.passed else compat.witness
            return inadmissible(name, f"inadmissible pair: {tag} twist: {why}")

    pc2 = ProductConnection(twist, rmt2, pc.conn_e, pc.conn_f)
    return run_cases(name, (
        None if reduced_presentation(twist, pc.rmt, pc.curvature(pv1)) ==
        reduced_presentation(twist, rmt2, pc2.curvature(pv2))
        else f"{block}-input {label}"
        for block in "ef"
        for (label, pv1), (_, pv2) in zip(
            iter_naive_basis(pc.m, pc.rmt, caps, block),
            iter_naive_basis(pc.m, rmt2, caps, block))))


# ---------------------------------------------------------------------------
# quantum-plane report
# ---------------------------------------------------------------------------

def _q_power_str(e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return "q"
    return f"q^{e}"


def quantum_plane_report(pc: ProductConnection, caps: Caps, compat: CheckResult,
                         f_exponents: list[int] | None = None,
                         remark_power: int = 2) -> tuple[dict, list[str]]:
    """Symbolic description of the product connection on the quantum plane.

    Returns a JSON-able payload plus rendered text lines: the product of
    the Grassmann connections on  x ⊗ (y^{i_1}, ..., y^{i_n})  with its
    inverse-twist coefficients, the rescaling form of that term for a
    higher power of x, and the potential decomposition with the
    compatibility verdict for the supplied potentials, taken from
    ``compat``, the result of :func:`check_twist_connection_compat`.
    """
    twist, rmt, n = pc.twist, pc.rmt, pc.n
    if f_exponents is None:
        f_exponents = [min(k + 1, caps.max_exponent) for k in range(n)]
    if len(f_exponents) != n:
        raise ValueError("need one exponent per f-slot")
    gr = pc.grassmann_part()
    lines: list[str] = []
    payload: dict = {}

    def on_x_power(j: int, polys: list[Form]) -> tuple[ProductVector, bool]:
        """gr.nabla on x^j ⊗ (b_1, ..., b_n), and whether it equals
        sum_k x^j ⊗ f_k ⊗ 1 ⊗ d(b_k) plus the inverse-twist terms, the free
        normal forms of sum_l (S^-j)[k][l] (1 ⊗ f_l b_k(q^-j y)) . (d(x^j) ⊗ 1).
        """
        m = pc.m
        naive = {(k, p): c for k, b in enumerate(polys) for p, c in
                 twist.mul(ProductForm.monomial(j, 0), embed_y(b)).terms.items()}
        computed = gr.nabla(ProductVector.from_terms(
            naive_terms_to_free(rmt, m, naive), m, n))
        dxj = ProductForm({(w, UNIT_WORD): Fraction(s) for w, s in
                           word_differential((j,)).items()})
        expected = naive_terms_to_free(rmt, m, {
            (k, ((j,), w)): c for k, b in enumerate(polys)
            for w, c in b.d().terms.items()})
        for k, b in enumerate(polys):
            piece = twist.mul(embed_y(b.scaled_generator(twist.qpow(-j))), dxj)
            for c, l in rmt.uncross_word(j, k, 0):
                add_column(expected, c, [((m + l, p), v)
                                         for p, v in piece.terms.items()])
        return computed, computed.terms == expected

    # --- Grassmann display on x ⊗ (y^{i_1}, ..., y^{i_n}) -------------
    computed, grassmann_matches = on_x_power(
        1, [Form.gen_power("y", ik) for ik in f_exponents])

    vec = ", ".join(f"{_q_power_str(-ik) or '1'} "
                    + ("y" if ik == 1 else f"y^{ik}") for ik in f_exponents)
    gr_display = (f"nabla_gr(x ⊗ f) = "
                  + " + ".join(f"x ⊗ f_{k + 1} ⊗ 1 ⊗ d(y^{ik})"
                               for k, ik in enumerate(f_exponents))
                  + f" + 1 ⊗ ({vec}) ⊗ dx ⊗ 1")
    back_coeffs = {}
    reduced = reduced_presentation(twist, rmt, computed)
    for k, ik in enumerate(f_exponents):
        key = ("f", k, 0, ik, (0, 0), UNIT_WORD)
        back_coeffs[f"f_{k + 1}"] = str(reduced.get(key, Fraction(0)))
    payload["grassmann_display"] = {
        "input": "x ⊗ (" + ", ".join(f"y^{ik}" for ik in f_exponents) + ")",
        "formula": gr_display,
        "inverse_twist_coefficients": back_coeffs,
        "expected_inverse_twist_coefficients": {
            f"f_{k + 1}": str(twist.qpow(-ik))
            for k, ik in enumerate(f_exponents)},
        "verified": grassmann_matches,
    }
    lines.append(gr_display)

    # --- rescaling form for a = x^j -------------------------------------
    jpow = remark_power
    remark_polys = [Form.unit("y") + Form.gen_power("y", k + 1) for k in range(n)]
    _, remark_matches = on_x_power(jpow, remark_polys)
    remark_display = (f"nabla_gr(x^{jpow} ⊗ (b_1, ..., b_n)) = "
                      f"sum_k x^{jpow} ⊗ f_k ⊗ 1 ⊗ d(b_k) "
                      f"+ sum_k 1 ⊗ b_k(q^-{jpow} y) f_k ⊗ d(x^{jpow}) ⊗ 1")
    payload["rescaling_display"] = {
        "power": jpow,
        "polys": [str(b) for b in remark_polys],
        "formula": remark_display,
        "verified": remark_matches,
    }
    lines.append(remark_display)

    # --- potential decomposition ----------------------------------------
    delta_ok = True
    E = caps.max_exponent
    small = Caps(min(E, 2), caps.max_degree)
    for label, pv in iter_naive_basis(pc.m, rmt, small):
        delta = pc.nabla(pv) - gr.nabla(pv)
        if list(delta.e) != e_matrix_image(twist, pv.e, pc.conn_e.potential) or \
                list(delta.f) != f_matrix_image(rmt, pv.f, pc.conn_f.potential):
            delta_ok = False
            break
    pot_display = ("nabla = nabla_gr + sum_{k,l} alphaE[k][l] e-terms "
                   "+ sum_{k,l} alphaF[k][l] f-terms")
    payload["potential_decomposition"] = {
        "formula": pot_display,
        "potential_E": [[str(e) for e in row] for row in pc.conn_e.potential],
        "potential_F": [[str(e) for e in row] for row in pc.conn_f.potential],
        "verified": delta_ok,
        "compat_verdict": compat.verdict,
        "compat_witness": compat.witness,
    }
    lines.append(pot_display)
    lines.append(f"compatibility verdict for the supplied potentials: "
                 f"{compat.verdict}")
    payload["all_verified"] = grassmann_matches and remark_matches and delta_ok
    return payload, lines
