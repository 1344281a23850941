"""The one sparse-table base: Form, ProductForm and ProductVector share its
arithmetic, differential and comparisons."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistconn.forms import Form
from twistconn.product import ProductVector
from twistconn.tdga import ProductForm
from twistconn.twist import AlgebraTwist

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
words = st.integers(0, 2).flatmap(
    lambda degree: st.tuples(*[st.integers(0, 2)] * (degree + 1)))
pairs = st.tuples(words, words)


def nonzero(table):
    return {k: c for k, c in table.items() if c}


@st.composite
def kinds(draw):
    """A way to build values of one kind (a Form over one generator, a
    ProductForm, or a ProductVector of one pair of ranks) and its keys."""
    kind = draw(st.sampled_from(["form", "product", "vector"]))
    if kind == "form":
        gen = draw(st.sampled_from("xy"))
        return (lambda table: Form(gen, table)), words
    if kind == "product":
        return ProductForm, pairs
    m, n = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    return ((lambda table: ProductVector.from_terms(nonzero(table), m, n)),
            st.tuples(st.integers(0, m + n - 1), pairs))


@st.composite
def values(draw, count=2):
    """``count`` values of one randomly chosen kind."""
    make, keys = draw(kinds())
    return [make(draw(st.dictionaries(keys, coeffs, max_size=4)))
            for _ in range(count)]


forms = st.one_of(
    st.builds(Form, st.sampled_from("xy"), st.dictionaries(words, coeffs, max_size=4)),
    st.builds(ProductForm, st.dictionaries(pairs, coeffs, max_size=4)))


@settings(max_examples=100, deadline=None)
@given(values())
def test_adding_then_subtracting_gives_back(ab):
    a, b = ab
    assert (a + b) - b == a
    assert a + b == b + a


@settings(max_examples=100, deadline=None)
@given(values(count=1))
def test_a_value_plus_its_negative_is_zero(a):
    (a,) = a
    total = a + (-a)
    assert total.is_zero and total == a - a
    assert not any(c == 0 for c in a.terms.values())
    assert all(type(c) is Fraction for c in a.terms.values())


@settings(max_examples=100, deadline=None)
@given(values(), coeffs)
def test_scale_distributes_over_addition(ab, c):
    a, b = ab
    assert (a + b).scale(c) == a.scale(c) + b.scale(c)
    assert c * (a + b) == (a + b).scale(c)


@settings(max_examples=100, deadline=None)
@given(forms)
def test_differential_squares_to_zero(a):
    assert a.d().d().is_zero
    assert a.d().degrees() <= {p + 1 for p in a.degrees()}


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(words, coeffs, max_size=4),
       st.dictionaries(st.tuples(st.just(0), pairs), coeffs, max_size=4))
def test_equality_separates_generators_and_ranks(table, flat):
    x, y = Form("x", table), Form("y", table)
    assert x != y and x == Form("x", table) and hash(x) == hash(Form("x", table))
    assert ProductForm() != Form.zero("x") and ProductForm() == ProductForm()
    pv = ProductVector.from_terms(nonzero(flat), 1, 1)
    assert pv != ProductVector.from_terms(nonzero(flat), 1, 2)
    assert pv != ProductVector.from_terms(nonzero(flat), 2, 1)
    assert pv == ProductVector(pv.e, pv.f)
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        pv + ProductVector.zero(2, 1)


def test_product_vector_has_no_differential():
    assert ProductVector.zero(1, 1).d is None


twists = st.sampled_from([AlgebraTwist(q) for q in
                          (2, -3, Fraction(3, 2), Fraction(-2, 3), 1, -1)])


@settings(max_examples=100, deadline=None)
@given(twists, st.dictionaries(pairs, coeffs, max_size=4),
       st.dictionaries(pairs, coeffs, max_size=4),
       st.dictionaries(words, coeffs, max_size=4),
       st.dictionaries(words, coeffs, max_size=4))
def test_twisted_products_keep_normal_tables(twist, u, v, wy, wx):
    """mul and cross return their tables as built: only nonzero Fractions,
    so the same value the normalizing constructor gives."""
    for result in (twist.mul(ProductForm(u), ProductForm(v)),
                   twist.cross(Form("y", wy), Form("x", wx))):
        assert result == ProductForm(dict(result.terms))
        assert all(type(c) is Fraction and c for c in result.terms.values())
