"""The bigraded product calculus: multiplication, differential, embeddings."""

from fractions import Fraction

import pytest

from twistconn.forms import (Caps, Form, enumerate_words, iter_word_tuples,
                             word_degree)
from twistconn.tdga import ProductForm, embed_x, embed_y, enumerate_monomials
from twistconn.twist import AlgebraTwist

from oracles import untwisted_mul

Q2 = AlgebraTwist(2)


class TestMultiply:
    def test_crossing_generators(self):
        u = embed_y(Form.gen_power("y", 1))
        v = embed_x(Form.gen_power("x", 1))
        assert Q2.mul(u, v) == ProductForm.monomial(1, 1, 2)

    def test_normal_order_no_crossing(self):
        u = embed_x(Form.gen_power("x", 1))
        v = embed_y(Form.gen_power("y", 1))
        assert Q2.mul(u, v) == ProductForm.monomial(1, 1)

    def test_differentials_cross_with_sign(self):
        u = embed_y(Form.d_gen("y"))
        v = embed_x(Form.d_gen("x"))
        assert Q2.mul(u, v) == ProductForm.pair((0, 0), (0, 0), -2)

    def test_unit(self):
        u = ProductForm.pair((1, 0), (2,)) + 3 * ProductForm.monomial(0, 1)
        one = ProductForm.unit()
        assert Q2.mul(one, u) == u
        assert Q2.mul(u, one) == u

    def test_associativity_bounded(self):
        pairs = list(iter_word_tuples(2, Caps(1, 2)))
        small = [p for p in pairs if sum(p[0]) + sum(p[1]) <= 2]
        for a in small:
            for b in small:
                for c in small:
                    u, v, w = (ProductForm({p: Fraction(1)}) for p in (a, b, c))
                    assert Q2.mul(Q2.mul(u, v), w) == Q2.mul(u, Q2.mul(v, w))

    def test_quantum_plane_relation(self):
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    for d in range(4):
                        lhs = Q2.mul(ProductForm.monomial(a, b),
                                     ProductForm.monomial(c, d))
                        rhs = ProductForm.monomial(a + c, b + d,
                                                   Fraction(2) ** (b * c))
                        assert lhs == rhs

    def test_untwisted_at_q_one(self):
        twist = AlgebraTwist(1)
        pairs = list(iter_word_tuples(2, Caps(2, 2)))
        for p1 in pairs:
            u = ProductForm({p1: Fraction(1)})
            for p2 in pairs:
                v = ProductForm({p2: Fraction(1)})
                assert twist.mul(u, v) == untwisted_mul(u, v)


class TestDifferential:
    def test_degree_zero_pair(self):
        u = ProductForm.monomial(1, 1)
        assert u.d() == ProductForm.pair((0, 0), (1,)) + \
            ProductForm.pair((1,), (0, 0))

    def test_x_differential_is_closed(self):
        assert ProductForm.pair((0, 0), (0,)).d().is_zero

    def test_sign_on_second_leg(self):
        u = ProductForm.pair((1,), (0, 0))
        assert u.d() == ProductForm.pair((0, 0), (0, 0))

    def test_nilpotent(self):
        for pair in iter_word_tuples(2, Caps(2, 2)):
            assert ProductForm({pair: Fraction(1)}).d().d().is_zero

    def test_graded_leibniz(self):
        pairs = list(iter_word_tuples(2, Caps(2, 2)))
        for p1 in pairs:
            u = ProductForm({p1: Fraction(1)})
            sign = -1 if (word_degree(p1[0]) + word_degree(p1[1])) % 2 else 1
            for p2 in pairs:
                if word_degree(p1[0]) + word_degree(p1[1]) + \
                        word_degree(p2[0]) + word_degree(p2[1]) > 2:
                    continue
                v = ProductForm({p2: Fraction(1)})
                assert Q2.mul(u, v).d() == \
                    Q2.mul(u.d(), v) + sign * Q2.mul(u, v.d())


class TestEmbeddings:
    def test_images(self):
        assert embed_x(Form.gen_power("x", 2)) == ProductForm.monomial(2, 0)
        assert embed_y(Form.d_gen("y")) == ProductForm.pair((0,), (0, 0))

    def test_multiplicative(self):
        for words in (enumerate_words(1, 2),):
            for w1 in words:
                for w2 in words:
                    if word_degree(w1) + word_degree(w2) > 2:
                        continue
                    u, v = Form.word("x", w1), Form.word("x", w2)
                    assert Q2.mul(embed_x(u), embed_x(v)) == embed_x(u * v)
                    uy, vy = Form.word("y", w1), Form.word("y", w2)
                    assert Q2.mul(embed_y(uy), embed_y(vy)) == embed_y(uy * vy)

    def test_commutes_with_differential(self):
        u = Form.word("x", (2, 1)) + Form.gen_power("x", 3)
        assert embed_x(u).d() == embed_x(u.d())
        v = Form.word("y", (1, 2))
        assert embed_y(v).d() == embed_y(v.d())

    def test_no_crossing_between_embeddings(self):
        got = Q2.mul(embed_x(Form.d_gen("x")), embed_y(Form.d_gen("y")))
        assert got == ProductForm.pair((0, 0), (0, 0))


def test_monomial_enumeration():
    assert len(enumerate_monomials(2)) == 9
    assert ((0,), (0,)) in enumerate_monomials(1)


def test_rendering():
    u = ProductForm.pair((1, 0), (1,)) - 2 * ProductForm.monomial(0, 2)
    assert str(u) == "-2 1 ⊗ y^2 + x dx ⊗ y"
