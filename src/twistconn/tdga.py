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

# add_column, the summation step of every term table, is re-exported here
from .forms import (Form, Terms, Word, UNIT_WORD, add_column, render_word,
                    word_degree, word_differential)

PairWord = tuple[Word, Word]

UNIT_PAIR: PairWord = (UNIT_WORD, UNIT_WORD)


def pair_degree(pair: PairWord) -> int:
    return word_degree(pair[0]) + word_degree(pair[1])


def render_pair(pair: PairWord) -> str:
    return f"{render_word('x', pair[0])} ⊗ {render_word('y', pair[1])}"


class ProductForm(Terms):
    """Sparse exact element of the bigraded product calculus: a table from
    pair-words to nonzero Fractions."""

    __slots__ = ()

    key_degree = staticmethod(pair_degree)
    render_key = staticmethod(render_pair)

    @staticmethod
    def key_differential(pair: PairWord) -> list[tuple[PairWord, int]]:
        """d(u ⊗ v) = du ⊗ v + (-1)^{deg u} u ⊗ dv on one pair-word."""
        wx, wy = pair
        sign = -1 if word_degree(wx) % 2 else 1
        return [((w, wy), s) for w, s in word_differential(wx).items()] + \
            [((wx, w), sign * s) for w, s in word_differential(wy).items()]

    @classmethod
    def from_terms(cls, terms: dict[PairWord, Fraction]) -> "ProductForm":
        """The element with table ``terms``, which holds only nonzero
        Fractions and is kept as it is (the products of ``AlgebraTwist``
        build such tables)."""
        pf = cls.__new__(cls)
        pf.terms = terms
        return pf

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


def enumerate_monomials(max_exponent: int) -> list[PairWord]:
    """Degree-0 monomials x^i ⊗ y^j with i, j <= max_exponent."""
    return [((i,), (j,)) for i in range(max_exponent + 1)
            for j in range(max_exponent + 1)]
