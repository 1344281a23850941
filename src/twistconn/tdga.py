"""Bigraded elements of the product calculus.

A ``ProductForm`` is a sparse rational sum of pairs (x-word, y-word),
normal-ordered with the x-factor on the left.  The bidegree of a pair is
(degree of the x-word, degree of the y-word).  Multiplication depends on
the deformation parameter q and therefore lives on
:class:`twistconn.twist.AlgebraTwist`; everything q-free (addition, the
differential, embeddings, enumeration, rendering) lives here.

The differential is d(u ⊗ v) = du ⊗ v + (-1)^{deg u} u ⊗ dv; it
squares to zero and satisfies the graded Leibniz rule for the twisted
product.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .forms import (Form, Word, UNIT_WORD, render_terms, render_word,
                    word_degree, word_differential)

PairWord = tuple[Word, Word]

UNIT_PAIR: PairWord = (UNIT_WORD, UNIT_WORD)


def pair_degree(pair: PairWord) -> int:
    return word_degree(pair[0]) + word_degree(pair[1])


class ProductForm:
    """Sparse exact element of the bigraded product calculus."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[PairWord, Fraction] | None = None):
        self.terms: dict[PairWord, Fraction] = {}
        if terms:
            for p, c in terms.items():
                if c:
                    self.terms[p] = c if type(c) is Fraction else Fraction(c)

    @classmethod
    def zero(cls) -> "ProductForm":
        return cls()

    @classmethod
    def unit(cls) -> "ProductForm":
        return cls({UNIT_PAIR: Fraction(1)})

    @classmethod
    def pair(cls, xword: Iterable[int], yword: Iterable[int], coeff=1) -> "ProductForm":
        return cls({(tuple(xword), tuple(yword)): Fraction(coeff)})

    @classmethod
    def monomial(cls, i: int, j: int, coeff=1) -> "ProductForm":
        """Degree-0 monomial x^i ⊗ y^j."""
        return cls({((i,), (j,)): Fraction(coeff)})

    # ---- structure ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {pair_degree(p) for p in self.terms}

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = self.degrees()
        if degree is None:
            return len(degs) <= 1
        return degs <= {degree}

    # ---- arithmetic ---------------------------------------------------
    def __add__(self, other: "ProductForm") -> "ProductForm":
        terms = dict(self.terms)
        for p, c in other.terms.items():
            c2 = terms.get(p, Fraction(0)) + c
            if c2:
                terms[p] = c2
            elif p in terms:
                del terms[p]
        return ProductForm(terms)

    def __neg__(self) -> "ProductForm":
        return ProductForm({p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "ProductForm") -> "ProductForm":
        return self + (-other)

    def scale(self, c) -> "ProductForm":
        c = Fraction(c)
        if not c:
            return ProductForm()
        return ProductForm({p: c * v for p, v in self.terms.items()})

    def __rmul__(self, c) -> "ProductForm":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def d(self) -> "ProductForm":
        """d(u ⊗ v) = du ⊗ v + (-1)^{deg u} u ⊗ dv."""
        terms: dict[PairWord, Fraction] = {}

        def put(pair: PairWord, c: Fraction):
            v = terms.get(pair, Fraction(0)) + c
            if v:
                terms[pair] = v
            elif pair in terms:
                del terms[pair]

        for (wx, wy), c in self.terms.items():
            for nwx, sign in word_differential(wx).items():
                put((nwx, wy), sign * c)
            sign_x = -1 if word_degree(wx) % 2 else 1
            for nwy, sign in word_differential(wy).items():
                put((wx, nwy), sign_x * sign * c)
        return ProductForm(terms)

    # ---- comparisons / rendering --------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, ProductForm) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> list[tuple[PairWord, Fraction]]:
        return sorted(self.terms.items(),
                      key=lambda kv: (pair_degree(kv[0]), kv[0]))

    def __str__(self) -> str:
        return render_terms(
            [(c, render_pair(p)) for p, c in self.sorted_terms()])

    def __repr__(self) -> str:
        return f"ProductForm({self.terms!r})"


def render_pair(pair: PairWord) -> str:
    return f"{render_word('x', pair[0])} ⊗ {render_word('y', pair[1])}"


def embed_x(form: Form) -> ProductForm:
    """Inclusion of the x-calculus, u -> u ⊗ 1."""
    if form.gen != "x":
        raise ValueError("embed_x expects an x-form")
    return ProductForm({(w, UNIT_WORD): c for w, c in form.terms.items()})


def embed_y(form: Form) -> ProductForm:
    """Inclusion of the y-calculus, v -> 1 ⊗ v."""
    if form.gen != "y":
        raise ValueError("embed_y expects a y-form")
    return ProductForm({(UNIT_WORD, w): c for w, c in form.terms.items()})


def add_column(acc: dict, c: Fraction, column) -> None:
    """acc += c · column over (key, coefficient) pairs, dropping the terms
    that cancel.

    The one summation step of sparse term tables; for c = 1 it adds the
    column as it is, with no rational product.
    """
    if c != 1:
        column = [(t, c * v) for t, v in column]
    for t, v in column:
        old = acc.get(t)
        if old is None:
            acc[t] = v
        else:
            v += old
            if v:
                acc[t] = v
            else:
                del acc[t]


def enumerate_monomials(max_exponent: int) -> list[PairWord]:
    """Degree-0 monomials x^i ⊗ y^j with i, j <= max_exponent."""
    return [((i,), (j,)) for i in range(max_exponent + 1)
            for j in range(max_exponent + 1)]
