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

from .connections import ModuleConnection
from .forms import Caps, Form, Word, UNIT_WORD, word_degree, \
    word_differential, word_letters
from .rationals import format_rational
from .reports import CheckResult, failed, inadmissible, passed
from .tdga import PairWord, ProductForm, embed_x, embed_y, enumerate_monomials
from .twist import AlgebraTwist, RightModuleTwist, check_right_module_twist


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
    """Inverse of :func:`f_free_to_naive`."""
    n = rmt.rank
    out: list[dict[PairWord, Fraction]] = [{} for _ in range(n)]
    for l, w in enumerate(coords):
        for (wx, wy), c in w.terms.items():
            if word_degree(wx) or word_degree(wy):
                raise ValueError("naive conversion needs degree-0 coordinates")
            row = rmt.matrix_power(-wx[0])[l]
            for k in range(n):
                if row[k]:
                    key = (wx, wy)
                    out[k][key] = out[k].get(key, Fraction(0)) + c * row[k]
    return [ProductForm(t) for t in out]


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


def add_row(out: list[ProductForm], row, piece: ProductForm, c=1) -> None:
    """out[q] += c · row[q] · piece for every nonzero entry of a matrix row.

    This is how a term in one slot spreads over the free slots when a matrix
    (a power of S or T) carries the slot across.
    """
    for q, r in enumerate(row):
        if r:
            out[q] = out[q] + piece.scale(c * r)


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
    def nabla_e_block(self, coords) -> list[ProductForm]:
        """First block of the connection: potential of E plus differential."""
        out = []
        for k in range(self.m):
            acc = coords[k].d()
            for l in range(self.m):
                entry = self.conn_e.potential[k][l]
                if not entry.is_zero and not coords[l].is_zero:
                    acc = acc + self.twist.mul(embed_x(entry), coords[l])
            out.append(acc)
        return out

    def nabla_f_block(self, coords) -> list[ProductForm]:
        """Second block on degree-0 coordinates, via the inverse module twist.

        Computed in naive coordinates exactly as constructed: the factor
        connection acts inside A ⊗ F, and the differential of the
        x-polynomial is carried back through the inverse twist.
        """
        twist, rmt, n = self.twist, self.rmt, self.n
        for w in coords:
            if not w.is_homogeneous(0):
                raise ValueError("second block is defined on degree-0 input")
        naive = f_free_to_naive(rmt, coords)
        out = [ProductForm.zero() for _ in range(n)]
        for l in range(n):
            for (wx, wy), c in naive[l].terms.items():
                i, j = wx[0], wy[0]
                y_pow = Form.gen_power("y", j)
                back = rmt.matrix_power(-i)
                # factor-connection term: x^i ⊗ nabla_F(f_l y^j)
                for p in range(n):
                    eta = self.conn_f.potential[p][l] * y_pow
                    if p == l:
                        eta = eta + y_pow.d()
                    if eta.is_zero:
                        continue
                    piece = ProductForm({(wx, weta): ceta
                                         for weta, ceta in eta.terms.items()})
                    add_row(out, back[p], piece, c)
                # inverse-twist term: carries d(x^i) to the left of the slot
                if i:
                    dx_terms = word_differential(wx)
                    piece = ProductForm({(wdx, wy): Fraction(s)
                                         for wdx, s in dx_terms.items()})
                    add_row(out, back[l], piece, c)
        return out

    def _f_extension(self, coords) -> list[ProductForm]:
        """Higher-degree second block: potential of F plus differential."""
        out = []
        for k in range(self.n):
            acc = coords[k].d()
            for l in range(self.n):
                entry = self.conn_f.potential[k][l]
                if not entry.is_zero and not coords[l].is_zero:
                    acc = acc + self.twist.mul(embed_y(entry), coords[l])
            out.append(acc)
        return out

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
        rest = self._f_extension(f_rest)
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
    n = rmt.rank
    E = caps.max_exponent
    cases = 0
    witness = None

    def nabla_terms(l: int, j: int) -> list[tuple[int, Form]]:
        """nabla_F(f_l y^j) as (slot, 1-form) pairs in the free basis."""
        y_pow = Form.gen_power("y", j)
        out = []
        for p in range(n):
            eta = conn_f.potential[p][l] * y_pow
            if p == l:
                eta = eta + y_pow.d()
            if not eta.is_zero:
                out.append((p, eta))
        return out

    for k in range(n):
        for j in range(E + 1):
            for i in range(E + 1):
                cases += 1
                # direct condition on f_k y^j ⊗ x^i
                lhs: dict[tuple[int, Word], Fraction] = {}
                for c, l in rmt.cross_word(k, j, i):
                    for p, eta in nabla_terms(l, j):
                        for weta, ceta in eta.terms.items():
                            key = (p, weta)
                            lhs[key] = lhs.get(key, Fraction(0)) + c * ceta
                rhs: dict[tuple[int, Word], Fraction] = {}
                for p, eta in nabla_terms(k, j):
                    for weta, ceta in eta.terms.items():
                        scale = twist.qpow(i * word_letters(weta))
                        for c, l in rmt.cross_word(p, 0, i):
                            key = (l, weta)
                            rhs[key] = rhs.get(key, Fraction(0)) + c * ceta * scale
                lhs = {key: v for key, v in lhs.items() if v}
                rhs = {key: v for key, v in rhs.items() if v}
                if lhs != rhs:
                    witness = (f"f_{k + 1} y^{j} ⊗ x^{i}: twist-then-connect "
                               f"differs from connect-then-twist "
                               f"(q-weight mismatch)")
                    break
                cases += 1
                # inverse form on x^i ⊗ f_k y^j
                lhs2: dict[tuple[int, Word], Fraction] = {}
                for p, eta in nabla_terms(k, j):
                    for c, l in rmt.uncross_word(i, p, 0):
                        for weta, ceta in eta.terms.items():
                            key = (l, weta)
                            lhs2[key] = lhs2.get(key, Fraction(0)) + c * ceta
                rhs2: dict[tuple[int, Word], Fraction] = {}
                for c, l in rmt.uncross_word(i, k, j):
                    for p, eta in nabla_terms(l, j):
                        for weta, ceta in eta.terms.items():
                            scale = twist.qpow(i * word_letters(weta))
                            key = (p, weta)
                            rhs2[key] = rhs2.get(key, Fraction(0)) + c * ceta * scale
                lhs2 = {key: v for key, v in lhs2.items() if v}
                rhs2 = {key: v for key, v in rhs2.items() if v}
                if lhs2 != rhs2:
                    witness = f"inverse form fails at x^{i} ⊗ f_{k + 1} y^{j}"
                    break
            if witness:
                break
        if witness:
            break

    name = "f-connection-compat"
    if witness:
        return failed(name, witness, cases)
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
    theta_e = pc.conn_e.curvature_matrix()
    theta_f = pc.conn_f.curvature_matrix()
    e_out = [ProductForm.zero() for _ in range(pc.m)]
    f_out = [ProductForm.zero() for _ in range(pc.n)]
    for k in range(pc.m):
        if pv.e[k].is_zero:
            continue
        for l in range(pc.m):
            entry = theta_e[l][k]
            if not entry.is_zero:
                e_out[l] = e_out[l] + pc.twist.mul(embed_x(entry), pv.e[k])
    naive = f_free_to_naive(pc.rmt, pv.f)
    for l in range(pc.n):
        for (wx, wy), c in naive[l].terms.items():
            i, j = wx[0], wy[0]
            back = pc.rmt.matrix_power(-i)
            y_pow = Form.gen_power("y", j)
            for p in range(pc.n):
                entry = theta_f[p][l] * y_pow
                if entry.is_zero:
                    continue
                piece = ProductForm({(wx, weta): ceta
                                     for weta, ceta in entry.terms.items()})
                add_row(f_out, back[p], piece, c)
    return ProductVector(e_out, f_out)


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
                             rmt2: RightModuleTwist, caps: Caps) -> CheckResult:
    """Curvature tables agree for two admissible module twists."""
    name = "independence"
    for tag, rmt in (("first", rmt1), ("second", rmt2)):
        axioms = check_right_module_twist(rmt, caps)
        compat = check_twist_connection_compat(twist, rmt, conn_f, caps)
        if not (axioms.passed and compat.passed):
            why = axioms.witness if not axioms.passed else compat.witness
            return inadmissible(name, f"inadmissible pair: {tag} twist: {why}")

    pc1 = ProductConnection(twist, rmt1, conn_e, conn_f)
    pc2 = ProductConnection(twist, rmt2, conn_e, conn_f)
    cases = 0
    E = caps.max_exponent
    for k in range(conn_e.rank):
        for i in range(E + 1):
            for j in range(E + 1):
                cases += 1
                t1 = reduced_presentation(
                    twist, rmt1, pc1.curvature(pc1.e_naive_basis(k, i, j)))
                t2 = reduced_presentation(
                    twist, rmt2, pc2.curvature(pc2.e_naive_basis(k, i, j)))
                if t1 != t2:
                    return failed(name, f"e-input e_{k + 1} x^{i} ⊗ y^{j}", cases)
    for k in range(conn_f.rank):
        for i in range(E + 1):
            for j in range(E + 1):
                cases += 1
                t1 = reduced_presentation(
                    twist, rmt1, pc1.curvature(pc1.f_naive_basis(k, i, j)))
                t2 = reduced_presentation(
                    twist, rmt2, pc2.curvature(pc2.f_naive_basis(k, i, j)))
                if t1 != t2:
                    return failed(name, f"f-input x^{i} ⊗ f_{k + 1} y^{j}", cases)
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


def quantum_plane_report(pc: ProductConnection, caps: Caps,
                         f_exponents: list[int] | None = None,
                         remark_power: int = 2,
                         remark_polys: list[Form] | None = None) -> tuple[dict, list[str]]:
    """Symbolic description of the product connection on the quantum plane.

    Returns a JSON-able payload plus rendered text lines: the product of
    the Grassmann connections on  x ⊗ (y^{i_1}, ..., y^{i_n})  with its
    inverse-twist coefficients, the rescaling form of that term for a
    higher power of x, and the potential decomposition with the
    compatibility verdict for the supplied potentials.
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

    expected_f = [ProductForm.zero() for _ in range(n)]
    for k, ik in enumerate(f_exponents):
        d_y = Form.gen_power("y", ik).d()
        piece = ProductForm({((1,), w): c for w, c in d_y.terms.items()})
        add_row(expected_f, rmt.matrix_power(-1)[k], piece)
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
    expected2 = [ProductForm.zero() for _ in range(n)]
    lam = twist.qpow(-jpow)
    for k, b in enumerate(remark_polys):
        scaled = b.scaled_generator(lam)  # b(q^{-j} y)
        piece0 = twist.mul(embed_y(scaled), dxj)
        for c, l in rmt.uncross_word(jpow, k, 0):
            expected2[l] = expected2[l] + piece0.scale(c)
        d_b = b.d()
        if not d_b.is_zero:
            piece = ProductForm({((jpow,), w): c for w, c in d_b.terms.items()})
            add_row(expected2, rmt.matrix_power(-jpow)[k], piece)
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
    compat = check_twist_connection_compat(twist, rmt, pc.conn_f, caps)
    delta_ok = True
    E = caps.max_exponent
    small = Caps(min(E, 2), caps.max_degree)
    for label, pv in iter_naive_basis(pc.m, rmt, small):
        delta = pc.nabla(pv) - gr.nabla(pv)
        expected_e = [ProductForm.zero() for _ in range(pc.m)]
        for k in range(pc.m):
            for l in range(pc.m):
                entry = pc.conn_e.potential[k][l]
                if not entry.is_zero and not pv.e[l].is_zero:
                    expected_e[k] = expected_e[k] + twist.mul(embed_x(entry), pv.e[l])
        naive = f_free_to_naive(rmt, pv.f)
        expected_f2 = [ProductForm.zero() for _ in range(pc.n)]
        for l in range(pc.n):
            for (wx, wy), c in naive[l].terms.items():
                back = rmt.matrix_power(-wx[0])
                y_pow = Form.gen_power("y", wy[0])
                for p in range(pc.n):
                    eta = pc.conn_f.potential[p][l] * y_pow
                    if eta.is_zero:
                        continue
                    piece = ProductForm({(wx, w): cc for w, cc in eta.terms.items()})
                    add_row(expected_f2, back[p], piece, c)
        if list(delta.e) != expected_e or list(delta.f) != expected_f2:
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
