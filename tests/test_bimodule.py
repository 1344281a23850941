"""Bimodule structure, the degree-1 swap, and the bimodule theorem."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SwapReference
from twistconn import bimodule, runner
from twistconn.bimodule import (ProductSwap, act_left,
                                check_bimodule_axiom,
                                check_bimodule_theorem,
                                check_left_twist_connection_compat,
                                check_swap_compat_e, check_swap_compat_f,
                                check_swap_cross_morphisms)
from twistconn.connections import (FormSwap, ModuleConnection,
                                   check_bimodule_connection)
from twistconn.forms import Caps, Form, from_scaled, parse_form, \
    scaled_equal, sum_scaled, to_scaled
from twistconn.tdga import ProductForm
from twistconn.twist import AlgebraTwist, LeftModuleTwist, RightModuleTwist
from twistconn.product import ProductConnection, ProductVector, \
    act_right_form, iter_naive_basis, naive_terms_to_free, naive_vector
from twistconn.runner import run_checks
from twistconn.scenario import load_scenario

Q2 = AlgebraTwist(2)
CAPS = Caps(2, 2)
SMALL = Caps(2, 1)


def canonical(q, m=1, n=1):
    twist = AlgebraTwist(q)
    rmt = RightModuleTwist(twist, rank=n)
    lmt = LeftModuleTwist(twist, rank=m)
    conn_e = ModuleConnection.grassmann("x", m)
    conn_f = ModuleConnection.grassmann("y", n)
    ps = ProductSwap(twist, rmt, lmt, FormSwap.flip("x", m),
                     FormSwap.flip("y", n))
    pc = ProductConnection(twist, rmt, conn_e, conn_f)
    return twist, rmt, lmt, pc, ps


def e_vector(coord=None):
    """The rank (1, 1) vector with e-coordinate ``coord`` (default 1 ⊗ 1)."""
    coord = ProductForm.unit() if coord is None else coord
    return ProductVector.from_terms({(0, w): c for w, c in coord.terms.items()}, 1, 1)


class TestFormSwap:
    def test_flip_on_generator(self):
        swap = FormSwap.flip("x", 2)
        out = swap.apply(Form.d_gen("x"), [Form.unit("x"), Form.zero("x")])
        assert out == [Form.d_gen("x"), Form.zero("x")]

    def test_bimodule_linearity(self):
        swap = FormSwap.flip("x", 1)
        out = swap.apply(parse_form("x", "x dx x^2"), [Form.gen_power("x", 1)])
        assert out == [parse_form("x", "x dx x^3")]

    def test_degree_validated(self):
        swap = FormSwap.flip("x", 1)
        with pytest.raises(ValueError):
            swap.apply(Form.gen_power("x", 2), [Form.unit("x")])

    def test_bimodule_connection_identity(self):
        conn = ModuleConnection.grassmann("x", 2)
        assert check_bimodule_connection(conn, FormSwap.flip("x", 2), CAPS).passed

    def test_noncentral_potential_breaks_flip(self):
        conn = ModuleConnection("x", 1, [[parse_form("x", "x dx")]])
        assert check_bimodule_connection(conn, FormSwap.flip("x", 1), CAPS).failed


class TestLeftAction:
    def test_unital(self):
        twist, rmt, lmt, pc, _ = canonical(2, m=1, n=1)
        pv = naive_vector(pc.m, pc.rmt, "f", 0, 1, 1) + e_vector(
            ProductForm.monomial(2, 0))
        assert act_left(twist, rmt, lmt, ProductForm.unit(), pv) == pv

    def test_e_block_plain_x(self):
        twist, rmt, lmt, _, _ = canonical(2)
        pv = e_vector()
        out = act_left(twist, rmt, lmt, ProductForm.monomial(1, 0), pv)
        assert out.e[0] == ProductForm.monomial(1, 0)

    def test_e_block_y_crosses_with_q(self):
        twist, rmt, lmt, _, _ = canonical(2)
        pv = e_vector(ProductForm.monomial(1, 0))
        out = act_left(twist, rmt, lmt, ProductForm.monomial(0, 1), pv)
        assert out.e[0] == ProductForm.monomial(1, 1, 2)

    def test_f_block_left_multiplication(self):
        twist, rmt, lmt, pc, _ = canonical(2)
        pv = naive_vector(pc.m, pc.rmt, "f", 0, 0, 1)
        out = act_left(twist, rmt, lmt, ProductForm.monomial(1, 0), pv)
        assert out.terms == naive_terms_to_free(rmt, 1, {(0, ((1,), (1,))): 1})

    @pytest.mark.parametrize("q", [1, 2])
    def test_actions_commute(self, q):
        _, _, _, _, ps = canonical(q)
        assert check_bimodule_axiom(ps, SMALL).passed

    def test_rank_mismatch_rejected(self):
        # a (1, 2) vector must not be read as one of ranks (2, 2)
        twist = AlgebraTwist(2)
        rmt = RightModuleTwist(twist, rank=2)
        lmt = LeftModuleTwist(twist, rank=2)
        pv = ProductVector([ProductForm.unit()], [ProductForm.unit(),
                                                  ProductForm.zero()])
        with pytest.raises(ValueError, match="rank mismatch"):
            act_left(twist, rmt, lmt, ProductForm.monomial(1, 0), pv)


class TestProductSwap:
    def test_x_form_on_e_block_classical(self):
        twist, rmt, lmt, _, ps = canonical(1)
        pv = e_vector()
        out = ps.apply(ProductForm.pair((0, 0), (0,)), pv)
        assert out.e[0] == ProductForm.pair((0, 0), (0,))
        assert all(w.is_zero for w in out.f)

    def test_y_form_on_e_block_classical(self):
        twist, rmt, lmt, _, ps = canonical(1)
        pv = e_vector()
        out = ps.apply(ProductForm.pair((0,), (0, 0)), pv)
        assert out.e[0] == ProductForm.pair((0,), (0, 0))

    def test_zero_module_argument(self):
        _, _, _, _, ps = canonical(2)
        out = ps.apply(ProductForm.pair((0, 0), (0,)), ProductVector.zero(1, 1))
        assert out.is_zero

    def test_rank_mismatch_rejected(self):
        # the f_1 of a (1, 2) vector must not be read as the e_2 of a (2, 2)
        twist = AlgebraTwist(2)
        ps = ProductSwap(twist, RightModuleTwist(twist, rank=2),
                         LeftModuleTwist(twist, rank=2), FormSwap.flip("x", 2),
                         FormSwap.flip("y", 2))
        pv = ProductVector([ProductForm.unit()], [ProductForm.unit(),
                                                  ProductForm.zero()])
        with pytest.raises(ValueError, match="rank mismatch"):
            ps.apply(ProductForm.pair((0, 0), (0,)), pv)

    def test_linearity_in_one_form(self):
        twist, rmt, lmt, pc, ps = canonical(2)
        pv = naive_vector(pc.m, pc.rmt, "f", 0, 1, 1)
        w1 = ProductForm.pair((1, 0), (1,))
        w2 = ProductForm.pair((2,), (0, 1))
        assert ps.apply(w1 + w2, pv) == ps.apply(w1, pv) + ps.apply(w2, pv)


class TestLeftConnectionCompat:
    def test_grassmann_passes(self):
        twist, _, lmt, _, _ = canonical(2)
        conn_e = ModuleConnection.grassmann("x", 1)
        assert check_left_twist_connection_compat(twist, lmt, conn_e, CAPS).passed

    def test_dx_potential_fails_at_generic_q(self):
        twist, _, lmt, _, _ = canonical(2)
        conn_e = ModuleConnection("x", 1, [[Form.d_gen("x")]])
        result = check_left_twist_connection_compat(twist, lmt, conn_e, CAPS)
        assert result.failed
        assert "e_1" in result.witness

    def test_any_potential_passes_at_q_one(self):
        twist, _, lmt, _, _ = canonical(1)
        conn_e = ModuleConnection("x", 1, [[parse_form("x", "dx + x dx x")]])
        assert check_left_twist_connection_compat(twist, lmt, conn_e, CAPS).passed


class TestSwapCompat:
    @pytest.mark.parametrize("q", [1, 2])
    def test_canonical_configuration_passes(self, q):
        _, _, _, _, ps = canonical(q)
        for check in (check_swap_compat_e, check_swap_compat_f):
            result = check(ps, SMALL)
            assert result.passed
            assert result.detail["equivalence_agrees"]

    def test_broken_e_swap_fails_both_sides(self):
        twist, rmt, lmt, _, _ = canonical(2)
        bad = FormSwap("x", 1, [[parse_form("x", "dx + x dx")]])
        ps = ProductSwap(twist, rmt, lmt, bad, FormSwap.flip("y", 1))
        result = check_swap_compat_e(ps, SMALL)
        assert result.failed
        assert result.detail["equation"] == "fail"
        assert result.detail["left_morphism"] == "fail"
        assert result.detail["equivalence_agrees"]

    def test_broken_f_swap_fails_both_sides(self):
        twist, rmt, lmt, _, _ = canonical(2)
        bad = FormSwap("y", 1, [[parse_form("y", "dy + y dy")]])
        ps = ProductSwap(twist, rmt, lmt, FormSwap.flip("x", 1), bad)
        result = check_swap_compat_f(ps, SMALL)
        assert result.failed
        assert result.detail["equation"] == "fail"
        assert result.detail["right_morphism"] == "fail"
        assert result.detail["equivalence_agrees"]

    @pytest.mark.parametrize("q", [1, 2])
    def test_cross_morphisms(self, q):
        _, _, _, _, ps = canonical(q)
        result = check_swap_cross_morphisms(ps, SMALL)
        assert result.passed


class TestBimoduleTheorem:
    @pytest.mark.parametrize("q", [1, 2])
    def test_leibniz_identity(self, q):
        _, _, _, pc, ps = canonical(q)
        result = check_bimodule_theorem(pc, ps, SMALL)
        assert result.name == "bimodule-theorem" and result.passed

    def test_gated_on_hypotheses(self):
        # the gate lives in the runner's registry, not in the check; the
        # groups are those of the check-bimodule subcommand
        _, _, _, pc, ps = canonical(2)
        assert check_bimodule_theorem(pc, ps, SMALL).passed
        report = run_checks(load_scenario(
            "q: 2\nmax_exponent: 1\nmax_degree: 1\n"
            "[phi]\n(1,1): dx + x dx\n"), ["bimodule"])
        assert report.exit_code == 1
        assert report.find("swap-compat-e").failed
        gated = report.find("bimodule-theorem")
        assert gated.verdict == "inadmissible"
        assert gated.witness == "hypothesis failed: bimodule-connection-x"


SYMMETRIC_S = [[2, 1], [1, 1]]
NON_SYMMETRIC_S = [[2, 1], [3, 2]]
# det 2: S^{-1} has halves, which no unimodular S gives
HALVING_S = [[2, 0], [1, 1]]


def dense(q, s=SYMMETRIC_S):
    """Rank 2 on both sides with S and dense unimodular T, flip swaps."""
    twist = AlgebraTwist(q)
    rmt = RightModuleTwist(twist, s)
    lmt = LeftModuleTwist(twist, [[1, 2], [1, 3]])
    ps = ProductSwap(twist, rmt, lmt, FormSwap.flip("x", 2),
                     FormSwap.flip("y", 2))
    pc = ProductConnection(twist, rmt, ModuleConnection.grassmann("x", 2),
                           ModuleConnection.grassmann("y", 2))
    return pc, ps


class DroppedQ(ProductSwap):
    """The y-form/e-block piece without its q^{cc·i2} factor.

    That piece reads the algebra twist only through that factor, so it is
    evaluated at q = 1; the y-form/f-block piece is left intact.
    """

    def _generator_y(self, i, cc, t):
        if t[0] >= self.m:
            return super()._generator_y(i, cc, t)
        flat = ProductSwap(AlgebraTwist(1), self.rmt, self.lmt, self.swap_e,
                           self.swap_f)
        return flat._generator_y(i, cc, t)


class TestDenseSwap:
    TINY = Caps(1, 1)
    S = SYMMETRIC_S

    @pytest.mark.parametrize("q", [2, -3])
    def test_swap_checks_pass(self, q):
        pc, ps = dense(q, self.S)
        results = [check_swap_compat_e(ps, self.TINY),
                   check_swap_compat_f(ps, self.TINY),
                   check_swap_cross_morphisms(ps, self.TINY),
                   check_bimodule_theorem(pc, ps, self.TINY)]
        assert all(r.passed for r in results)
        assert [r.cases for r in results] == [528, 528, 1024, 64]

    def test_dropped_q_factor_fails_cross_morphisms(self):
        _, ps = dense(2, self.S)
        bad = DroppedQ(ps.twist, ps.rmt, ps.lmt, ps.swap_e, ps.swap_f)
        result = check_swap_cross_morphisms(bad, self.TINY)
        assert result.failed
        assert result.detail["yform_eblock_left"] == "fail"
        assert result.detail["yform_eblock_right"] == "fail"
        assert result.detail["xform_fblock_left"] == "pass"

    def test_no_columns_leak_between_swaps(self):
        _, ps = dense(2, self.S)
        bad = DroppedQ(ps.twist, ps.rmt, ps.lmt, ps.swap_e, ps.swap_f)
        assert check_swap_cross_morphisms(ps, self.TINY).passed
        assert check_swap_cross_morphisms(bad, self.TINY).failed
        assert check_swap_cross_morphisms(ps, self.TINY).passed

    def test_columns_match_per_call_evaluation(self):
        pc, ps = dense(2, self.S)
        pv = naive_vector(pc.m, pc.rmt, "f", 1, 1, 0) + naive_vector(pc.m, pc.rmt, "e", 0, 0, 1)
        w = ProductForm.pair((1, 0), (1,), 3) + ProductForm.pair((1,), (0, 1))
        first = ps.apply(w, pv)
        assert ps.ops.table
        # the swap's kept columns, and a fresh swap's
        assert ps.apply(w, pv) == first == dense(2, self.S)[1].apply(w, pv)
        assert first == ps.apply(ProductForm.pair((1, 0), (1,), 3), pv) + \
            ps.apply(ProductForm.pair((1,), (0, 1)), pv)

    def test_one_table_serves_every_check(self, monkeypatch):
        """Every bimodule-group check on one swap builds each left-action
        column once: the swap's table lives as long as the swap."""
        built: dict = {}
        in_act_left = []
        kernel, public = bimodule._left_term, bimodule.act_left

        def counted(twist, rmt, lmt, m, i, j, t):
            if not in_act_left:  # act_left calls the kernel, not columns
                built[i, j, t] = built.get((i, j, t), 0) + 1
            return kernel(twist, rmt, lmt, m, i, j, t)

        def uncounted(*args):
            in_act_left.append(True)
            try:
                return public(*args)
            finally:
                in_act_left.pop()

        monkeypatch.setattr(bimodule, "_left_term", counted)
        monkeypatch.setattr(bimodule, "act_left", uncounted)
        rows = "".join(f"{a} {b}\n" for a, b in self.S)
        scenario = load_scenario("q: 2\nm: 2\nn: 2\nmax_exponent: 1\n"
                                 f"max_degree: 1\n[S]\n{rows}[T]\n1 2\n1 3\n")
        objs = runner.build_objects(scenario)
        for check in runner.CHECKS:
            if check.group == "bimodule":
                assert check.run(objs, scenario, None).passed, check.name
        assert built and set(built.values()) == {1}

    def test_integer_kernels_form_no_fraction(self, monkeypatch):
        """With the twists' powers and the F, N and B columns warm, building
        the L, S, Gx and Gy columns that the three swap checks use forms no
        Fraction, and act_left forms one per term of its value."""
        _, ps = dense(Fraction(3, 2), self.S)
        for check in (check_swap_compat_e, check_swap_compat_f,
                      check_swap_cross_morphisms):
            assert check(ps, self.TINY).passed
        fresh = ProductSwap(ps.twist, ps.rmt, ps.lmt, ps.swap_e, ps.swap_f)
        built = {}
        for tag, entry in list(ps.ops.table.items()):
            kind = tag[:1]  # the table also holds its interned keys
            if kind in (("F",), ("N",), ("B",)):
                warm = fresh.ops.table.setdefault(tag, ({}, {}))
                warm[0].update(entry[0])
                warm[1].update(entry[1])
            elif kind in (("L",), ("S",), ("Gx",), ("Gy",)):
                built[tag] = list(entry[0])
        inputs = [(w, pv) for _, pv in iter_naive_basis(2, ps.rmt, self.TINY)
                  for w in (ProductForm.monomial(1, 0, Fraction(2, 3)),
                            ProductForm.monomial(1, 1) + ProductForm.unit())]
        made = []  # on Python 3.11 every Fraction is made by __new__
        monkeypatch.setattr(Fraction, "__new__", counted(Fraction.__new__, made))
        for tag, keys in built.items():
            operator = fresh.columns(tag[1]) if tag[0] == "S" else \
                fresh.left(*tag[1:]) if tag[0] == "L" else fresh._generator(tag)
            for t in keys:
                operator(t)
        assert made == []
        for w, pv in inputs:
            out = act_left(ps.twist, ps.rmt, ps.lmt, w, pv)
            assert len(made) == len(out.terms) > 0
            made.clear()


def counted(kernel, made):
    """``kernel`` with each call recorded in ``made``."""
    def call(*args, **kwargs):
        made.append(args)
        return kernel(*args, **kwargs)
    return call


class TestDenseSwapNonSymmetric(TestDenseSwap):
    """Every pin of :class:`TestDenseSwap` again with a non-symmetric S.

    A symmetric S hides a transposed power of S (see tests/test_mutants.py).
    """
    S = NON_SYMMETRIC_S


exponents = st.integers(min_value=0, max_value=2)
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
monomials = st.tuples(exponents, exponents)
degree0_forms = st.dictionaries(
    monomials.map(lambda ij: ((ij[0],), (ij[1],))), coeffs,
    max_size=2).map(ProductForm)
degree0_vectors = st.lists(degree0_forms, min_size=4, max_size=4).map(
    lambda coords: ProductVector(coords[:2], coords[2:]))
one_form_words = st.one_of(
    st.tuples(st.tuples(exponents, exponents), exponents.map(lambda t: (t,))),
    st.tuples(exponents.map(lambda t: (t,)), st.tuples(exponents, exponents)))


@cache
def dense_swap(q, s):
    """The swap of :func:`dense` at (q, S), whose column table serves every
    draw at that (q, S) as it serves every check of a run."""
    return dense(q, [list(row) for row in s])[1]


# the benchmark's integer and fractional q, and the q it never draws
twists = st.tuples(
    st.sampled_from([2, -3, Fraction(3, 2), Fraction(-2, 3)]),
    st.sampled_from([tuple(map(tuple, s))
                     for s in (NON_SYMMETRIC_S, HALVING_S)])).map(
    lambda qs: dense_swap(*qs))


def image(column, vector, c=1):
    """c · vector, mapped term by term through cached scaled columns and
    summed over the integers."""
    table = to_scaled(vector.terms.items(), Fraction(c))
    return ProductVector.from_terms(from_scaled(*sum_scaled(table, column)),
                                    2, 2)


@cache
def reference(ps):
    """The Fraction-kernel reference of the columns of ``ps``, kept as long
    as ``ps`` is."""
    return SwapReference(ps)


class TestFlatColumns:
    """Integer sums of cached columns equal the public operators on random
    input, and the swap's columns equal those of the Fraction-kernel
    reference; ``act_right_form`` sums ``AlgebraTwist.mul_scaled``'s
    products."""

    @given(twists, degree0_vectors, one_form_words)
    @settings(max_examples=80, deadline=None)
    def test_swap(self, ps, pv, pair):
        assert image(ps.columns(pair), pv) == image(reference(ps).columns(pair), pv)

    @given(twists, degree0_vectors, one_form_words, monomials, coeffs)
    @settings(max_examples=80, deadline=None)
    def test_left_action(self, ps, pv, pair, ij, c):
        w = ProductForm.monomial(*ij, c)
        # degree 0, and degree 1 as the swap's images are
        for vector in (pv, ps.apply(ProductForm({pair: 1}), pv)):
            assert image(ps.left(*ij), vector, c) == \
                act_left(ps.twist, ps.rmt, ps.lmt, w, vector)

    @given(twists, degree0_vectors, one_form_words, monomials, coeffs)
    @settings(max_examples=80, deadline=None)
    def test_right_action(self, ps, pv, pair, ij, c):
        w = ProductForm.monomial(*ij, c)
        for vector in (pv, ps.apply(ProductForm({pair: 1}), pv)):
            assert image(ps.right(*ij), vector, c) == \
                act_right_form(ps.twist, vector, w)

    def test_halving_s_gives_fractional_columns(self):
        ps = dense_swap(Fraction(3, 2), tuple(map(tuple, HALVING_S)))
        pv = naive_vector(2, ps.rmt, "f", 1, 1, 0)
        assert {c.denominator for c in pv.terms.values()} == {1, 2}
        den, _ = sum_scaled(to_scaled(pv.terms.items()),
                            ps.columns(((1, 0), (1,))))
        assert den > 1


class TestScaledEqual:
    """Two scaled tables are equal exactly when their values are."""

    def test_same_value_over_other_denominators(self):
        a = (2, {"u": 1, "v": -3})
        b = (6, {"u": 3, "v": -9})
        assert scaled_equal(a, b) and scaled_equal(b, a)
        assert from_scaled(*a) == from_scaled(*b)

    def test_one_numerator_off_by_one(self):
        a = (2, {"u": 1, "v": -3})
        for b in [(6, {"u": 3, "v": -8}), (6, {"u": 4, "v": -9}),
                  (2, {"u": 1, "v": -2})]:
            assert not scaled_equal(a, b) and not scaled_equal(b, a)

    def test_keys_must_match(self):
        assert not scaled_equal((2, {"u": 1}), (2, {"u": 1, "v": 2}))
        assert not scaled_equal((1, {"u": 1}), (2, {"v": 2}))

    @given(st.dictionaries(st.integers(0, 5), coeffs, min_size=1, max_size=4),
           st.integers(1, 30), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rescaled_tables(self, table, k, data):
        den, nums = to_scaled(table.items())
        assert from_scaled(den, nums) == table
        rescaled = {t: k * n for t, n in nums.items()}
        assert scaled_equal((den, nums), (k * den, rescaled))
        t = data.draw(st.sampled_from(sorted(rescaled)))
        rescaled[t] += 1
        assert not scaled_equal((den, nums), (k * den, rescaled))


class TestCheckNames:
    def test_bimodule_connection_name_on_pass_and_fail(self):
        good = ModuleConnection.grassmann("x", 1)
        bad = ModuleConnection("x", 1, [[parse_form("x", "x dx")]])
        flip = FormSwap.flip("x", 1)
        names = {check_bimodule_connection(conn, flip, CAPS).name
                 for conn in (good, bad)}
        assert names == {"bimodule-connection-x"}
