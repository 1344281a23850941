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
coordinates extend by nabla(s . w) = nabla(s) . w + s . dw.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .connections import ModuleConnection
from .forms import Caps, Form, Word, UNIT_WORD, word_degree, \
    word_differential, word_letters
from .rationals import format_rational
from .reports import CheckResult, failed, inadmissible, passed
from .tdga import PairWord, ProductForm, embed_x, embed_y, enumerate_monomials
from .twist import AlgebraTwist, ModuleTwist, RightModuleTwist, \
    check_right_module_twist


class ProductVector:
    """Free-basis coordinates of an element of (E ⊗ B) + (A ⊗ F)."""

    __slots__ = ("e", "f")

    def __init__(self, e, f):
        self.e: tuple[ProductForm, ...] = tuple(e)
        self.f: tuple[ProductForm, ...] = tuple(f)

    @classmethod
    def zero(cls, m: int, n: int) -> "ProductVector":
        return cls([ProductForm.zero()] * m, [ProductForm.zero()] * n)

    @classmethod
    def e_basis(cls, m: int, n: int, k: int,
                coord: ProductForm | None = None) -> "ProductVector":
        e = [ProductForm.zero()] * m
        e[k] = coord if coord is not None else ProductForm.unit()
        return cls(e, [ProductForm.zero()] * n)

    @property
    def ranks(self) -> tuple[int, int]:
        return len(self.e), len(self.f)

    @property
    def is_zero(self) -> bool:
        return all(w.is_zero for w in self.e) and all(w.is_zero for w in self.f)

    def is_degree(self, degree: int) -> bool:
        return all(w.is_homogeneous(degree) for w in self.e) and \
            all(w.is_homogeneous(degree) for w in self.f)

    def __add__(self, other: "ProductVector") -> "ProductVector":
        return ProductVector([a + b for a, b in zip(self.e, other.e)],
                             [a + b for a, b in zip(self.f, other.f)])

    def __sub__(self, other: "ProductVector") -> "ProductVector":
        return ProductVector([a - b for a, b in zip(self.e, other.e)],
                             [a - b for a, b in zip(self.f, other.f)])

    def scale(self, c) -> "ProductVector":
        return ProductVector([w.scale(c) for w in self.e],
                             [w.scale(c) for w in self.f])

    def __eq__(self, other) -> bool:
        return (isinstance(other, ProductVector)
                and self.e == other.e and self.f == other.f)

    def __repr__(self):
        return f"ProductVector(e={list(self.e)!r}, f={list(self.f)!r})"

    def render(self) -> str:
        parts = []
        for k, w in enumerate(self.e):
            if not w.is_zero:
                parts.append(f"e_{k + 1}: {w}")
        for k, w in enumerate(self.f):
            if not w.is_zero:
                parts.append(f"f_{k + 1}: {w}")
        return "; ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# coordinate changes and module actions
# ---------------------------------------------------------------------------

def f_free_to_naive(rmt: RightModuleTwist, coords) -> list[ProductForm]:
    """Free f-coordinates -> naive sums x^i ⊗ f_l y^j (degree 0 only)."""
    n = rmt.rank
    out: list[dict[PairWord, Fraction]] = [{} for _ in range(n)]
    for k, w in enumerate(coords):
        for (wx, wy), c in w.terms.items():
            if word_degree(wx) or word_degree(wy):
                raise ValueError("naive conversion needs degree-0 coordinates")
            row = rmt.matrix_power(wx[0])[k]
            for l in range(n):
                if row[l]:
                    key = (wx, wy)
                    out[l][key] = out[l].get(key, Fraction(0)) + c * row[l]
    return [ProductForm(t) for t in out]


def f_naive_to_free(rmt: RightModuleTwist, coords) -> list[ProductForm]:
    """Naive f-coordinates of any degree -> free ones.

    A term wx ⊗ f_l wy whose x-word has L letters goes back by row l of
    S^{-L}; on degree 0 this inverts :func:`f_free_to_naive`.
    """
    n = rmt.rank
    out: list[dict[PairWord, Fraction]] = [{} for _ in range(n)]
    for l, w in enumerate(coords):
        for (wx, wy), c in w.terms.items():
            row = rmt.matrix_power(-word_letters(wx))[l]
            for k in range(n):
                if row[k]:
                    key = (wx, wy)
                    out[k][key] = out[k].get(key, Fraction(0)) + c * row[k]
    return [ProductForm(t) for t in out]


def x_tensor(wx: Word, yform: Form, c=1) -> ProductForm:
    """c · (x-word ⊗ y-form)."""
    return ProductForm({(wx, w): c * cw for w, cw in yform.terms.items()})


def act_right(twist: AlgebraTwist, pv: ProductVector, w: ProductForm) -> ProductVector:
    """Right action of a degree-0 algebra element; componentwise in free coords."""
    if not w.is_homogeneous(0):
        raise ValueError("right action needs a degree-0 element")
    return act_right_form(twist, pv, w)


def act_right_form(twist: AlgebraTwist, pv: ProductVector,
                   w: ProductForm) -> ProductVector:
    """Right multiplication by an arbitrary form (the right calculus action)."""
    return ProductVector([twist.mul(c, w) for c in pv.e],
                         [twist.mul(c, w) for c in pv.f])


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
    naive = f_free_to_naive(rmt, coords)
    out = [ProductForm.zero() for _ in range(rmt.rank)]
    for l in range(rmt.rank):
        for (wx, wy), c in naive[l].terms.items():
            y_pow = Form.gen_power("y", wy[0])
            for p, row in enumerate(matrix):
                out[p] = out[p] + x_tensor(wx, row[l] * y_pow, c)
    return f_naive_to_free(rmt, out)


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

    def zero_vector(self) -> ProductVector:
        return ProductVector.zero(self.m, self.n)

    def _check_ranks(self, pv: ProductVector) -> None:
        if pv.ranks != (self.m, self.n):
            raise ValueError(f"rank mismatch: {pv.ranks} != {(self.m, self.n)}")

    # -- the two degree-0 blocks -----------------------------------------
    def _potential_block(self, conn: ModuleConnection, coords) -> list[ProductForm]:
        """Differential plus the embedded potential of ``conn``, slotwise."""
        embed = embed_x if conn.gen == "x" else embed_y
        out = []
        for k in range(conn.rank):
            acc = coords[k].d()
            for l in range(conn.rank):
                entry = conn.potential[k][l]
                if not entry.is_zero and not coords[l].is_zero:
                    acc = acc + self.twist.mul(embed(entry), coords[l])
            out.append(acc)
        return out

    def nabla_e_block(self, coords) -> list[ProductForm]:
        """First block of the connection: potential of E plus differential."""
        return self._potential_block(self.conn_e, coords)

    def nabla_f_block(self, coords) -> list[ProductForm]:
        """Second block on degree-0 coordinates, via the inverse module twist.

        Computed in naive coordinates exactly as constructed: the factor
        connection acts inside A ⊗ F, and the differential of the
        x-polynomial is carried back through the inverse twist.
        """
        for w in coords:
            if not w.is_homogeneous(0):
                raise ValueError("second block is defined on degree-0 input")
        naive = f_free_to_naive(self.rmt, coords)
        out = [ProductForm.zero() for _ in range(self.n)]
        for l in range(self.n):
            for (wx, wy), c in naive[l].terms.items():
                # factor-connection term: x^i ⊗ nabla_F(f_l y^j)
                for p, eta in enumerate(self.conn_f.nabla_monomial(l, wy[0])):
                    out[p] = out[p] + x_tensor(wx, eta, c)
                # inverse-twist term: d(x^i) ⊗ f_l y^j
                out[l] = out[l] + ProductForm(
                    {(w, wy): c * s for w, s in word_differential(wx).items()})
        return f_naive_to_free(self.rmt, out)

    def nabla1(self, pv: ProductVector) -> ProductVector:
        """First block map on a degree-0 e-block element."""
        self._check_ranks(pv)
        if not all(w.is_homogeneous(0) for w in pv.e):
            raise ValueError("first block map is defined on degree-0 input")
        return ProductVector(self.nabla_e_block(pv.e),
                             [ProductForm.zero()] * self.n)

    def nabla2(self, pv: ProductVector) -> ProductVector:
        """Second block map on a degree-0 f-block element."""
        self._check_ranks(pv)
        return ProductVector([ProductForm.zero()] * self.m,
                             self.nabla_f_block(pv.f))

    def nabla(self, pv: ProductVector) -> ProductVector:
        """The product connection, extended to all form degrees."""
        self._check_ranks(pv)
        e_out = self.nabla_e_block(pv.e)
        f_deg0 = [w.degree_part(0) for w in pv.f]
        f_rest = [w - d0 for w, d0 in zip(pv.f, f_deg0)]
        f_out = self.nabla_f_block(f_deg0)
        rest = self._potential_block(self.conn_f, f_rest)
        f_out = [a + b for a, b in zip(f_out, rest)]
        return ProductVector(e_out, f_out)

    def curvature(self, pv: ProductVector) -> ProductVector:
        """nabla twice on a degree-0 element."""
        if not pv.is_degree(0):
            raise ValueError("curvature is evaluated on degree-0 elements")
        return self.nabla(self.nabla(pv))

    # -- naive basis inputs ----------------------------------------------
    def e_naive_basis(self, k: int, i: int, j: int) -> ProductVector:
        return naive_vector(self.m, self.rmt, "e", k, i, j)

    def f_naive_basis(self, k: int, i: int, j: int) -> ProductVector:
        return naive_vector(self.m, self.rmt, "f", k, i, j)


def naive_vector(m: int, rmt: RightModuleTwist, block: str,
                 k: int, i: int, j: int) -> ProductVector:
    """e_k x^i ⊗ y^j (block "e") or x^i ⊗ f_k y^j (block "f"), free coordinates."""
    n, mono = rmt.rank, ProductForm.monomial(i, j)
    if block == "e":
        return ProductVector.e_basis(m, n, k, mono)
    naive = [ProductForm.zero()] * n
    naive[k] = mono
    return ProductVector([ProductForm.zero()] * m, f_naive_to_free(rmt, naive))


def reduced_presentation(twist: AlgebraTwist, rmt: RightModuleTwist,
                         pv: ProductVector) -> dict:
    """Twist-independent normal form used to compare across module twists.

    e-block coordinates are already canonical.  Each f-block term is
    rewritten over the naive module monomials x^i ⊗ f_l y^j with a form
    part whose leading exponents are zero, which removes every reference to
    the mixing matrix from the keys.
    """
    out: dict[tuple, Fraction] = {}
    for k, w in enumerate(pv.e):
        for pair, c in w.terms.items():
            key = ("e", k, pair)
            out[key] = out.get(key, Fraction(0)) + c
    for k, w in enumerate(pv.f):
        for (wx, wy), c in w.terms.items():
            i, u = wx[0], ((0,) + wx[1:] if len(wx) > 1 else UNIT_WORD)
            j, v = wy[0], ((0,) + wy[1:] if len(wy) > 1 else UNIT_WORD)
            base = c * twist.qpow(-j * word_letters(u))
            row = rmt.matrix_power(i)[k]
            for l in range(rmt.rank):
                if row[l]:
                    key = ("f", l, i, j, u, v)
                    out[key] = out.get(key, Fraction(0)) + base * row[l]
    return {key: c for key, c in out.items() if c}


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
    cases = 0

    def twist_then_connect(k, own, other, sign=1, weight=0):
        out: dict[tuple[int, Word], Fraction] = {}
        for c, l in mt.cross(k, own, other, sign):
            for p, eta in enumerate(conn.nabla_monomial(l, own)):
                for w, cw in eta.terms.items():
                    key = (p, w)
                    out[key] = out.get(key, Fraction(0)) + \
                        c * cw * twist.qpow(weight * word_letters(w))
        return {key: v for key, v in out.items() if v}

    def connect_then_twist(k, own, other, sign=1, weight=0):
        out: dict[tuple[int, Word], Fraction] = {}
        for p, eta in enumerate(conn.nabla_monomial(k, own)):
            for w, cw in eta.terms.items():
                scale = cw * twist.qpow(weight * word_letters(w))
                for c, l in mt.cross(p, 0, other, sign):
                    key = (l, w)
                    out[key] = out.get(key, Fraction(0)) + c * scale
        return {key: v for key, v in out.items() if v}

    for k, *loop in product(range(mt.rank), exps, exps):
        own, other = loop if side == "right" else loop[::-1]
        cases += 1
        if twist_then_connect(k, own, other) != \
                connect_then_twist(k, own, other, weight=other):
            return failed(name, text.format(k=k + 1, own=own, other=other), cases)
        if side == "right":
            cases += 1
            if connect_then_twist(k, own, other, -1) != \
                    twist_then_connect(k, own, other, -1, weight=other):
                return failed(name, f"inverse form fails at x^{other} ⊗ "
                              f"f_{k + 1} y^{own}", cases)
    return passed(name, cases)


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


def check_connection_leibniz(pc: ProductConnection, caps: Caps,
                             seed: int = 0, random_cases: int = 25) -> CheckResult:
    """Right Leibniz rule of the product connection on bounded bases."""
    twist = pc.twist
    cases = 0
    witness = None
    monomials = [ProductForm.pair(wx, wy)
                 for wx, wy in enumerate_monomials(caps.max_exponent)]

    def leibniz_holds(pv: ProductVector, w: ProductForm) -> bool:
        lhs = pc.nabla(act_right(twist, pv, w))
        rhs = act_right_form(twist, pc.nabla(pv), w) + \
            act_right_form(twist, pv, w.d())
        return lhs == rhs

    inputs = list(iter_naive_basis(pc.m, pc.rmt, caps))
    rng = random.Random(seed)
    for _ in range(random_cases):
        inputs.append(("random", random_degree0_vector(rng, pc.m, pc.n, caps)))
    for label, pv in inputs:
        for w in monomials:
            cases += 1
            if not leibniz_holds(pv, w):
                witness = f"leibniz fails at {label} acted by {w}"
                break
        if witness:
            break

    name = "leibniz"
    if witness:
        return failed(name, witness, cases)
    return passed(name, cases)


def curvature_formula_rhs(pc: ProductConnection, pv: ProductVector) -> ProductVector:
    """Curvature of each factor, included blockwise and acted by the scalars.

    Assembled independently of the connection: only the factor curvature
    matrices, the block inclusions and the module actions are used.
    """
    return ProductVector(
        e_matrix_image(pc.twist, pv.e, pc.conn_e.curvature_matrix()),
        f_matrix_image(pc.rmt, pv.f, pc.conn_f.curvature_matrix()))


def check_curvature_formula(pc: ProductConnection, caps: Caps,
                            seed: int = 0, random_cases: int = 10) -> CheckResult:
    """Main identity: the product curvature equals the blockwise formula."""
    cases = 0
    witness = None
    inputs = list(iter_naive_basis(pc.m, pc.rmt, caps))
    rng = random.Random(seed)
    for _ in range(random_cases):
        inputs.append(("random", random_degree0_vector(rng, pc.m, pc.n, caps)))
    for label, pv in inputs:
        cases += 1
        lhs = pc.curvature(pv)
        rhs = curvature_formula_rhs(pc, pv)
        if lhs != rhs:
            witness = f"curvature formula fails at {label}"
            break
    name = "curvature-formula"
    if witness:
        return failed(name, witness, cases)
    return passed(name, cases)


def check_flatness(pc: ProductConnection, caps: Caps) -> CheckResult:
    """Zero potentials must give identically zero product curvature."""
    name = "flatness"
    if not (pc.conn_e.is_grassmann and pc.conn_f.is_grassmann):
        return inadmissible(name, "connections are not both Grassmann")
    cases = 0
    for label, pv in iter_naive_basis(pc.m, pc.rmt, caps):
        cases += 1
        if not pc.curvature(pv).is_zero:
            return failed(name, f"nonzero curvature at {label}", cases)
    return passed(name, cases)


def check_twist_independence(twist: AlgebraTwist, conn_e: ModuleConnection,
                             conn_f: ModuleConnection, rmt1: RightModuleTwist,
                             rmt2: RightModuleTwist, caps: Caps,
                             axioms1: CheckResult,
                             compat1: CheckResult) -> CheckResult:
    """Curvature tables agree for two admissible module twists.

    ``axioms1`` and ``compat1`` are the first twist's results of
    :func:`check_right_module_twist` and :func:`check_twist_connection_compat`
    at ``caps``; the second twist is decided here, once the first is
    admissible.
    """
    name = "independence"

    def admissibility():
        yield "first", axioms1, compat1
        yield "second", check_right_module_twist(rmt2, caps), \
            check_twist_connection_compat(twist, rmt2, conn_f, caps)

    for tag, axioms, compat in admissibility():
        if not (axioms.passed and compat.passed):
            why = axioms.witness if not axioms.passed else compat.witness
            return inadmissible(name, f"inadmissible pair: {tag} twist: {why}")

    pc1 = ProductConnection(twist, rmt1, conn_e, conn_f)
    pc2 = ProductConnection(twist, rmt2, conn_e, conn_f)
    cases = 0
    m = conn_e.rank
    for block in "ef":
        for (label, pv1), (_, pv2) in zip(iter_naive_basis(m, rmt1, caps, block),
                                          iter_naive_basis(m, rmt2, caps, block)):
            cases += 1
            t1 = reduced_presentation(twist, rmt1, pc1.curvature(pv1))
            t2 = reduced_presentation(twist, rmt2, pc2.curvature(pv2))
            if t1 != t2:
                return failed(name, f"{block}-input {label}", cases)
    return passed(name, cases)


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
                         remark_power: int = 2,
                         remark_polys: list[Form] | None = None) -> tuple[dict, list[str]]:
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

    # --- Grassmann display on x ⊗ (y^{i_1}, ..., y^{i_n}) -------------
    naive_in = [ProductForm.zero() for _ in range(n)]
    for k, ik in enumerate(f_exponents):
        naive_in[k] = ProductForm.monomial(1, ik)
    pv_in = ProductVector([ProductForm.zero()] * pc.m, f_naive_to_free(rmt, naive_in))
    computed = gr.nabla2(pv_in)

    expected_f = f_naive_to_free(
        rmt, [x_tensor((1,), Form.gen_power("y", ik).d()) for ik in f_exponents])
    for k, ik in enumerate(f_exponents):
        # inverse-twist term: the free normal form of
        #   q^{-i_k} sum_l (S^-1)[k][l] (1 ⊗ f_l y^{i_k}) . (dx ⊗ 1)
        back_term = twist.qpow(-ik) * twist.mul(
            ProductForm.pair(UNIT_WORD, (ik,)), ProductForm.pair((0, 0), UNIT_WORD))
        for c, l in rmt.uncross_word(1, k, 0):
            expected_f[l] = expected_f[l] + back_term.scale(c)
    grassmann_matches = list(computed.f) == expected_f

    vec = ", ".join(f"{_q_power_str(-ik) or '1'} y^{ik}".replace("y^1", "y")
                    for ik in f_exponents)
    gr_display = (f"nabla_gr(x ⊗ f) = "
                  + " + ".join(f"x ⊗ f_{k + 1} ⊗ 1 ⊗ d(y^{ik})"
                               for k, ik in enumerate(f_exponents))
                  + f" + 1 ⊗ ({vec}) ⊗ dx ⊗ 1")
    back_coeffs = {}
    reduced = reduced_presentation(twist, rmt, computed)
    for k, ik in enumerate(f_exponents):
        key = ("f", k, 0, ik, (0, 0), UNIT_WORD)
        back_coeffs[f"f_{k + 1}"] = format_rational(reduced.get(key, Fraction(0)))
    payload["grassmann_display"] = {
        "input": "x ⊗ (" + ", ".join(f"y^{ik}" for ik in f_exponents) + ")",
        "formula": gr_display,
        "inverse_twist_coefficients": back_coeffs,
        "expected_inverse_twist_coefficients": {
            f"f_{k + 1}": format_rational(twist.qpow(-ik))
            for k, ik in enumerate(f_exponents)},
        "verified": grassmann_matches,
    }
    lines.append(gr_display)

    # --- rescaling form for a = x^j -------------------------------------
    jpow = remark_power
    if remark_polys is None:
        remark_polys = [Form.unit("y") + Form.gen_power("y", k + 1) for k in range(n)]
    naive_in2 = [twist.mul(ProductForm.monomial(jpow, 0), embed_y(b))
                 for b in remark_polys]
    pv_in2 = ProductVector([ProductForm.zero()] * pc.m, f_naive_to_free(rmt, naive_in2))
    computed2 = gr.nabla2(pv_in2)
    dxj = ProductForm({(w, UNIT_WORD): Fraction(s) for w, s in
                       word_differential((jpow,)).items()})
    expected2 = f_naive_to_free(rmt, [x_tensor((jpow,), b.d()) for b in remark_polys])
    lam = twist.qpow(-jpow)
    for k, b in enumerate(remark_polys):
        scaled = b.scaled_generator(lam)  # b(q^{-j} y)
        piece0 = twist.mul(embed_y(scaled), dxj)
        for c, l in rmt.uncross_word(jpow, k, 0):
            expected2[l] = expected2[l] + piece0.scale(c)
    remark_matches = list(computed2.f) == expected2
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
