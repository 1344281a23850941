"""Word arithmetic and the universal differential on one generator."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_mutants import _last_term_dropped, _unscaled_add
from twistconn import forms
from twistconn.forms import (Caps, Form, add_column, add_scaled, enumerate_words,
                             from_scaled, parse_form, scaled_equal, sum_scaled,
                             word_degree, word_differential, word_letters,
                             word_mul)


def w(gen, *exps):
    return Form.word(gen, exps)


class TestMultiply:
    def test_polynomial_product(self):
        assert w("x", 1) * w("x", 1) == w("x", 2)

    def test_differential_times_generator(self):
        assert w("x", 0, 0) * w("x", 1) == w("x", 0, 1)

    def test_boundary_merge(self):
        assert w("x", 1, 0) * w("x", 0, 2) == w("x", 1, 0, 2)

    def test_generator_mismatch_rejected(self):
        with pytest.raises(ValueError):
            w("x", 1) * w("y", 1)

    def test_unit_word(self):
        u = w("x", 2, 1) + 3 * w("x", 0, 0)
        one = Form.unit("x")
        assert one * u == u
        assert u * one == u


class TestDifferential:
    def test_square_of_generator(self):
        assert w("x", 2).d() == w("x", 1, 0) + w("x", 0, 1)

    def test_d_of_differential_is_zero(self):
        assert w("x", 0, 0).d().is_zero

    def test_generator_times_differential(self):
        # forced by the graded Leibniz rule on x * dx
        assert w("x", 1, 0).d() == w("x", 0, 0, 0)

    def test_nilpotent_on_words(self):
        for word in enumerate_words(3, 2):
            assert Form.word("x", word).d().d().is_zero

    def test_graded_leibniz_exhaustive(self):
        words = enumerate_words(2, 2)
        for wu in words:
            u = Form.word("y", wu)
            sign = -1 if word_degree(wu) % 2 else 1
            for wv in words:
                if word_degree(wu) + word_degree(wv) > 2:
                    continue
                v = Form.word("y", wv)
                assert (u * v).d() == u.d() * v + sign * (u * v.d())

    def test_word_differential_is_read_only(self):
        # the table is memoized and shared, so no caller may change it
        table = word_differential((2, 1))
        assert dict(table.items()) == {(0, 1, 1): 1, (1, 0, 1): 1,
                                       (2, 0, 0): -1}
        with pytest.raises(TypeError):
            table[(0,)] = 1
        with pytest.raises(TypeError):
            del table[(0, 1, 1)]
        assert word_differential((2, 1)) == table

    def test_associativity_exhaustive(self):
        words = enumerate_words(1, 2)
        for wu in words:
            for wv in words:
                for ww in words:
                    u, v, t = (Form.word("x", s) for s in (wu, wv, ww))
                    assert (u * v) * t == u * (v * t)


class TestEnumeration:
    def test_degree_zero(self):
        assert enumerate_words(0, 1) == [(0,), (1,)]

    def test_exponent_zero(self):
        assert enumerate_words(1, 0) == [(0,), (0, 0)]

    def test_degree_one_exponent_one(self):
        assert enumerate_words(1, 1) == [
            (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_counts(self):
        assert len(enumerate_words(3, 4)) == 5 + 25 + 125 + 625


class TestWordHelpers:
    def test_letters(self):
        assert word_letters((2, 1)) == 4  # x^2 dx x
        assert word_letters((0,)) == 0

    def test_mul_keeps_letters(self):
        assert word_letters(word_mul((2, 1), (1, 3))) == \
            word_letters((2, 1)) + word_letters((1, 3))


class TestRendering:
    @pytest.mark.parametrize("word,text", [
        ((0,), "1"),
        ((2,), "x^2"),
        ((2, 1), "x^2 dx x"),
        ((0, 0, 0), "dx dx"),
        ((1, 0), "x dx"),
    ])
    def test_render(self, word, text):
        assert str(Form.word("x", word)) == text

    def test_signed_sum(self):
        u = w("x", 2, 1) - Fraction(3, 2) * w("x", 0, 0, 0)
        assert str(u) == "x^2 dx x - 3/2 dx dx"

    @pytest.mark.parametrize("text", [
        "x^2 dx x - 3/2 dx dx",
        "1 + x",
        "-2 dy y^3",
        "dy dy + y dy y",
    ])
    def test_parse_render_roundtrip(self, text):
        gen = "y" if "y" in text else "x"
        form = parse_form(gen, text)
        assert parse_form(gen, str(form)) == form

    def test_parse_rejects_unknown_factor(self):
        with pytest.raises(ValueError):
            parse_form("x", "x dz")

    @pytest.mark.parametrize("text", ["dx -", "dx +", "+", "-", "x - - dx",
                                      "dx + - x"])
    def test_parse_rejects_dangling_sign(self, text):
        with pytest.raises(ValueError, match="sign without a term"):
            parse_form("x", text)

    @pytest.mark.parametrize("text,form", [
        ("- dx", -w("x", 0, 0)),
        ("-dx", -w("x", 0, 0)),
        ("+ dx", w("x", 0, 0)),
        ("x - 3/2 dx", w("x", 1) - Fraction(3, 2) * w("x", 0, 0)),
        ("-3/2 dx", Fraction(-3, 2) * w("x", 0, 0)),
    ])
    def test_parse_leading_and_inner_signs(self, text, form):
        assert parse_form("x", text) == form


def small_forms(gen):
    words = st.lists(st.integers(min_value=0, max_value=2),
                     min_size=1, max_size=3).map(tuple)
    coeffs = st.fractions(min_value=-3, max_value=3).filter(bool)
    return st.dictionaries(words, coeffs, max_size=3).map(
        lambda terms: Form(gen, terms))


@given(small_forms("x"), small_forms("x"))
@settings(max_examples=60, deadline=None)
def test_differential_additive(u, v):
    assert (u + v).d() == u.d() + v.d()


@given(small_forms("x"), small_forms("x"), small_forms("x"))
@settings(max_examples=40, deadline=None)
def test_multiplication_distributes(u, v, t):
    assert u * (v + t) == u * v + u * t
    assert (u + v) * t == u * t + v * t


def test_scaled_generator():
    b = Form.gen_power("y", 2) + 2 * Form.gen_power("y", 1)
    lam = b.scaled_generator(Fraction(1, 2))
    assert lam == Fraction(1, 4) * Form.gen_power("y", 2) + Form.gen_power("y", 1)
    with pytest.raises(ValueError):
        Form.d_gen("y").scaled_generator(Fraction(2))


@given(st.dictionaries(
    st.lists(st.integers(min_value=0, max_value=2), min_size=1,
             max_size=3).map(tuple),
    st.sampled_from([Fraction(1), Fraction(-1)])
    | st.fractions(min_value=-3, max_value=3).filter(bool),
    max_size=3).map(lambda terms: Form("x", terms)))
@settings(max_examples=100, deadline=None)
def test_render_parses_back(u):
    # unit coefficients render without a number, a leading -1 as "-dx"
    assert parse_form("x", str(u)) == u


def scaled_tables():
    """Scaled tables (den, {key: nonzero int}) of one to four terms, with
    denominators 2 to 6."""
    return st.tuples(st.integers(min_value=2, max_value=6),
                     st.dictionaries(st.integers(min_value=0, max_value=5),
                                     st.integers(min_value=-4, max_value=4).filter(bool),
                                     min_size=1, max_size=4))


@given(scaled_tables(), st.lists(scaled_tables(), min_size=6, max_size=6),
       st.integers(min_value=-3, max_value=3).filter(bool))
@example((2, {0: 1, 1: 1}), [(3, {0: 1})] * 6, 1)
@settings(max_examples=100, deadline=None)
def test_scaled_kernels_agree_with_fractions(table, columns, c):
    """add_scaled, sum_scaled and scaled_equal agree with the same sums and
    comparisons over Fractions; the table's key t picks the column
    columns[t].  The lossy sum and the unscaled lcm merge of
    tests/test_mutants.py fail the same comparisons: the first wherever the
    table has two terms or more, the second wherever the merge of one
    column into the table must rescale it."""
    (den, terms), (cden, cterms) = table, columns[0]

    def column(t):
        cd, col = columns[t]
        return cd, tuple(col.items())

    want_add, want_sum = {}, {}
    add_column(want_add, 1, from_scaled(den, terms).items())
    add_column(want_add, Fraction(c), from_scaled(cden, cterms).items())
    for t, n in terms.items():
        add_column(want_sum, Fraction(n, den), from_scaled(*columns[t]).items())

    def agrees(add, total) -> bool:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forms, "add_scaled", add)
            acc = dict(terms)
            got_add = add(acc, den, c, cden, cterms.items()), acc
            got_sum = total(table, column)
        return from_scaled(*got_add) == want_add and from_scaled(*got_sum) == want_sum

    got = sum_scaled(table, column)
    for other in (got, (3 * got[0], {t: 3 * n for t, n in got[1].items()}), table):
        assert scaled_equal(got, other) == (from_scaled(*got) == from_scaled(*other))
    assert agrees(add_scaled, sum_scaled)
    assert agrees(add_scaled, _last_term_dropped) == (len(terms) == 1)
    if den % cden:  # lcm(den, cden) > den, so the table is rescaled
        assert not agrees(_unscaled_add, sum_scaled)
