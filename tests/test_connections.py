"""Free-module connections: Leibniz rule, curvature, matrix identities."""

from fractions import Fraction

import pytest

from twistconn.connections import ModuleConnection
from twistconn.forms import Form, enumerate_words, parse_form, word_degree


def form(text):
    return parse_form("x", text)


class TestNabla:
    def test_grassmann_is_componentwise_differential(self):
        conn = ModuleConnection.grassmann("x", 3)
        vec = [form("x^2"), form("1 + x"), form("x^3")]
        assert conn.nabla(vec) == [v.d() for v in vec]

    def test_potential_acts_on_unit(self):
        conn = ModuleConnection("x", 1, [[form("x dx")]])
        assert conn.nabla([Form.unit("x")]) == [form("x dx")]

    def test_closed_one_form_input(self):
        conn = ModuleConnection.grassmann("x", 1)
        assert conn.nabla([Form.d_gen("x")]) == [Form.zero("x")]

    def test_rank_mismatch_rejected(self):
        conn = ModuleConnection.grassmann("x", 2)
        with pytest.raises(ValueError):
            conn.nabla([Form.unit("x")])

    def test_potential_degree_validated(self):
        with pytest.raises(ValueError):
            ModuleConnection("x", 1, [[form("x^2")]])

    def test_leibniz_rule(self):
        conn = ModuleConnection("x", 2, [[form("dx"), form("x dx")],
                                         [Form.zero("x"), form("dx x")]])
        for k in range(2):
            vec = conn.basis_vector(k)
            for exp in range(3):
                a = Form.gen_power("x", exp)
                lhs = conn.nabla([e * a for e in vec])
                rhs = [w * a for w in conn.nabla(vec)]
                rhs[k] = rhs[k] + a.d()
                assert lhs == rhs

    def test_graded_leibniz_extension(self):
        conn = ModuleConnection("x", 1, [[form("x dx")]])
        for word in enumerate_words(2, 2):
            omega = Form.word("x", word)
            vec = [Form.gen_power("x", 1)]
            lhs = conn.nabla([vec[0] * omega])
            rhs = [conn.nabla(vec)[0] * omega + vec[0] * omega.d()]
            assert lhs == rhs


class TestCurvature:
    def test_grassmann_flat(self):
        conn = ModuleConnection.grassmann("x", 2)
        assert all(e.is_zero for row in conn.curvature_matrix() for e in row)
        vec = [form("x^2 + 1"), form("x")]
        assert all(w.is_zero for w in conn.curvature_apply(vec))

    def test_single_potential_value(self):
        conn = ModuleConnection("x", 1, [[form("x dx")]])
        assert conn.curvature_apply([Form.unit("x")]) == \
            [form("dx dx + x dx x dx")]
        assert conn.curvature_matrix() == [[form("dx dx + x dx x dx")]]

    def test_constant_potential(self):
        # d(dx) = 0, so only the square of the potential remains
        conn = ModuleConnection("x", 1, [[form("dx")]])
        assert conn.curvature_matrix() == [[form("dx dx")]]

    def test_right_linearity(self):
        conn = ModuleConnection("x", 1, [[form("x dx")]])
        for exp in range(4):
            a = Form.gen_power("x", exp)
            vec = [Form.gen_power("x", 1)]
            lhs = conn.curvature_apply([e * a for e in vec])
            rhs = [w * a for w in conn.curvature_apply(vec)]
            assert lhs == rhs

    def test_extension_contracts_through_matrix(self):
        conn = ModuleConnection("x", 2, [[form("dx"), form("x dx")],
                                         [form("dx x"), Form.zero("x")]])
        theta = conn.curvature_matrix()
        for word in enumerate_words(1, 2):
            omega = Form.word("x", word)
            for k in range(2):
                vec = [omega if l == k else Form.zero("x") for l in range(2)]
                got = conn.curvature_apply(vec)
                expected = [theta[l][k] * omega for l in range(2)]
                assert got == expected

    def test_matrix_identity(self):
        conn = ModuleConnection("x", 2, [[form("dx"), form("x dx")],
                                         [form("dx x"), form("x dx x")]])
        alpha = conn.potential
        for k in range(2):
            for l in range(2):
                expected = alpha[k][l].d()
                for p in range(2):
                    expected = expected + alpha[k][p] * alpha[p][l]
                assert conn.curvature_matrix()[k][l] == expected
