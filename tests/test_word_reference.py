"""The word-level and theorem checks against their per-case reference.

``check_dga_laws``, ``check_twist_axioms`` and ``check_lift_compat`` decide
most cases from facts about words and word pairs, and
``check_connection_leibniz`` and ``check_curvature_formula`` decide most
inputs from facts about their flat terms.  Under corrupted word kernels,
patched where both the checks and the reference look them up, their full
``to_dict()`` (verdict, cases, witness and detail) must equal that of the
reference in tests/oracles.py, which calls the kernels and compares full
tables for every case.  Each mutant corrupts only the inputs that a seeded
hash selects, so it fails somewhere inside a loop, or nowhere.  The theorem
checks are also held to their references under the ∇-layer mutants of
tests/test_mutants.py and with ∇ corrupted at one flat term at a time.
"""

from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

import twistconn.twist as twist_module
from oracles import (curvature_formula_reference, dga_laws_reference,
                     leibniz_reference, lift_compat_reference,
                     twist_axioms_reference)
from test_bimodule import HALVING_S, NON_SYMMETRIC_S, SYMMETRIC_S
from test_fail_paths import drop_letter, merge_equal_exponents
from test_mutants import (Y_POTENTIAL, _kernel_replaced, f_rest_negated,
                          free_to_naive_transposed, inverse_twist_dropped,
                          koszul_sign_dropped, lcm_merge_unscaled)
from test_mutants import scenario as mutation_scenario
from twistconn import product
from twistconn.forms import UNIT_WORD, Caps, add_column
from twistconn.product import check_connection_leibniz, check_curvature_formula
from twistconn.runner import build_objects
from twistconn.scenario import load_scenario, load_scenario_file
from twistconn.tdga import enumerate_monomials
from twistconn.twist import (AlgebraTwist, check_dga_laws, check_lift_compat,
                             check_twist_axioms)

KERNEL = twist_module.word_twist
PRODUCT = twist_module.word_mul
DIFFERENTIAL = twist_module.word_differential


def _hit(seed, rate, *args) -> bool:
    """Whether the mutant corrupts these inputs.  The unit word is spared,
    so that most mutants get past the unit law.  Hashes of int tuples do
    not depend on the process, so every run selects the same inputs."""
    return UNIT_WORD not in args and hash((seed, rate, args)) % rate == 0


def twist_mutants(seed, rate):
    def exponent(wy, wx):
        sign, e = KERNEL(wy, wx)
        return (sign, e + 1) if _hit(seed, rate, wy, wx) else (sign, e)

    def sign(wy, wx):
        s, e = KERNEL(wy, wx)
        return (-s, e) if _hit(seed, rate, wy, wx) else (s, e)

    def random(wy, wx):
        if _hit(seed, rate, wy, wx):
            h = hash((seed, wy, wx))
            return (1 if h % 2 else -1), h // 2 % 4
        return KERNEL(wy, wx)

    return [exponent, sign, random]


def mul_mutants(seed, rate):
    def swap(u, v):
        return PRODUCT(v, u) if _hit(seed, rate, u, v) else PRODUCT(u, v)

    def random(u, v):
        if _hit(seed, rate, u, v):
            h = hash((seed, u, v))
            return tuple(h // 3 ** k % 3 for k in range(1 + h % 3))
        return PRODUCT(u, v)

    return [merge_equal_exponents, drop_letter, swap, random]


def differential_mutants(seed, rate):
    def changed(edit):
        def mutant(word):
            table = DIFFERENTIAL(word)
            if not _hit(seed, rate, word):
                return table
            out = dict(table)
            edit(word, out)
            return MappingProxyType(out)
        mutant.__name__ = edit.__name__
        return mutant

    def first(out):
        return next(iter(out), None)

    def flip(word, out):
        if out:
            out[first(out)] *= -1

    def drop(word, out):
        if out:
            del out[first(out)]

    def double(word, out):
        for w in out:
            out[w] *= 2

    def self_term(word, out):
        out[word] = 1

    def zero(word, out):
        if out:
            out[first(out)] = 0

    return [changed(edit) for edit in (flip, drop, double, self_term, zero)]


MUTANTS = ([("word_twist", m) for m in ("exponent", "sign", "random")]
           + [("word_mul", m) for m in ("merge_equal_exponents", "drop_letter",
                                        "swap", "random")]
           + [("word_differential", m) for m in ("flip", "drop", "double",
                                                 "self_term", "zero")])
FAMILIES = {"word_twist": twist_mutants, "word_mul": mul_mutants,
            "word_differential": differential_mutants}


def mutant(kernel, name, seed, rate):
    return next(m for m in FAMILIES[kernel](seed, rate) if m.__name__ == name)


@pytest.mark.parametrize("q", [2, -3, 1])
@pytest.mark.parametrize("kernel, name", MUTANTS,
                         ids=[f"{k}-{n}" for k, n in MUTANTS])
def test_checks_match_reference(monkeypatch, kernel, name, q):
    twist = AlgebraTwist(q)
    for seed, rate in [(1, 5), (2, 40), (3, 300)]:
        monkeypatch.setattr(twist_module, kernel, mutant(kernel, name, seed, rate))
        for caps in [Caps(1, 1), Caps(2, 2), Caps(1, 3)]:
            assert check_dga_laws(twist, caps).to_dict() == \
                dga_laws_reference(twist, caps).to_dict()
            assert check_twist_axioms(twist, caps).to_dict() == \
                twist_axioms_reference(twist, caps).to_dict()


@pytest.mark.parametrize("q", [2, -3, 1])
def test_unmutated_checks_match_reference(q):
    twist = AlgebraTwist(q)
    for caps in [Caps(1, 1), Caps(2, 2), Caps(1, 3)]:
        assert check_dga_laws(twist, caps).to_dict() == \
            dga_laws_reference(twist, caps).to_dict()
        assert check_twist_axioms(twist, caps).to_dict() == \
            twist_axioms_reference(twist, caps).to_dict()


LIFT_MUTANTS = [(k, n) for k, n in MUTANTS if k != "word_mul"]


@pytest.mark.parametrize("q", [2, -3, 1])
@pytest.mark.parametrize("kernel, name", LIFT_MUTANTS,
                         ids=[f"{k}-{n}" for k, n in LIFT_MUTANTS])
def test_lift_compat_matches_reference(monkeypatch, kernel, name, q):
    twist = AlgebraTwist(q)
    for seed, rate in [(1, 5), (2, 40), (3, 300)]:
        monkeypatch.setattr(twist_module, kernel, mutant(kernel, name, seed, rate))
        for caps in [Caps(1, 1), Caps(2, 2), Caps(1, 3)]:
            assert check_lift_compat(twist, caps).to_dict() == \
                lift_compat_reference(twist, caps).to_dict()


@pytest.mark.parametrize("q", [2, -3, 1])
def test_unmutated_lift_compat_matches_reference(q):
    twist = AlgebraTwist(q)
    for caps in [Caps(1, 1), Caps(2, 2), Caps(1, 3)]:
        assert check_lift_compat(twist, caps).to_dict() == \
            lift_compat_reference(twist, caps).to_dict()


# the shipped scenarios with an x-side potential, a y-side potential and q = 1
SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"
SCENARIOS = [SCENARIO_DIR / f"{name}.cfg"
             for name in ("potential_e_q2", "bad_hypothesis_q2", "classical_q1")]
ORIGINAL = {"word_twist": KERNEL, "word_mul": PRODUCT,
            "word_differential": DIFFERENTIAL}
# three --seed values: the random inputs after the naive basis
SEEDS = (0, 1, 2)
THEOREM_CHECKS = {
    "leibniz": (check_connection_leibniz, leibniz_reference),
    "curvature-formula": (check_curvature_formula, curvature_formula_reference)}


def theorem_pairs(name, sc, caps=None, seeds=SEEDS):
    """The theorem check ``name`` and its reference on scenario ``sc`` at
    each seed, each on its own objects built under the kernels patched
    now."""
    check, reference = THEOREM_CHECKS[name]
    caps = caps or sc.caps
    return [(check(build_objects(sc).pc, caps, seed).to_dict(),
             reference(build_objects(sc).pc, caps, seed).to_dict())
            for seed in seeds]


def assert_theorem_check_matches(name, kernel, mutant_name, path):
    # patched in every twistconn module that holds the kernel
    sc = load_scenario_file(str(path))
    for seed, rate in [(1, 5), (2, 40)]:
        with pytest.MonkeyPatch.context() as mp:
            _kernel_replaced(mp, ORIGINAL[kernel],
                             mutant(kernel, mutant_name, seed, rate))
            for got, want in theorem_pairs(name, sc, Caps(2, 1)):
                assert got == want


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
@pytest.mark.parametrize("kernel, name", MUTANTS,
                         ids=[f"{k}-{n}" for k, n in MUTANTS])
def test_leibniz_matches_reference(kernel, name, path):
    assert_theorem_check_matches("leibniz", kernel, name, path)


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
@pytest.mark.parametrize("kernel, name", MUTANTS,
                         ids=[f"{k}-{n}" for k, n in MUTANTS])
def test_curvature_formula_matches_reference(kernel, name, path):
    assert_theorem_check_matches("curvature-formula", kernel, name, path)


def test_unmutated_leibniz_matches_reference():
    sc = load_scenario_file(str(SCENARIO_DIR / "potential_e_q2.cfg"))
    [(got, want)] = theorem_pairs("leibniz", sc, seeds=[sc.seed])
    assert got == want
    assert got == {"name": "leibniz", "verdict": "pass", "cases": 1168}


def test_unmutated_curvature_formula_matches_reference():
    sc = load_scenario_file(str(SCENARIO_DIR / "potential_e_q2.cfg"))
    for got, want in theorem_pairs("curvature-formula", sc):
        assert got == want
        assert got == {"name": "curvature-formula", "verdict": "pass",
                       "cases": 58}


# the mutants of the ∇ layer, on the mutation scenario of tests/test_mutants.py
# (m = n = 2, dense S and T, caps 1,1) and on the y-potential scenario, where
# f_rest_negated turns curvature-formula red
NABLA_MUTANTS = [inverse_twist_dropped, f_rest_negated, koszul_sign_dropped,
                 free_to_naive_transposed]
NABLA_INPUTS = [(2, NON_SYMMETRIC_S), (-3, SYMMETRIC_S), (-3, NON_SYMMETRIC_S)]


@pytest.mark.parametrize("check", THEOREM_CHECKS)
@pytest.mark.parametrize("mutate", NABLA_MUTANTS,
                         ids=[m.__name__ for m in NABLA_MUTANTS])
def test_theorem_checks_match_reference_under_nabla_mutants(monkeypatch, mutate,
                                                           check):
    mutate(monkeypatch)
    scenarios = [mutation_scenario(q, s) for q, s in NABLA_INPUTS] + \
        [load_scenario(Y_POTENTIAL)] + \
        [load_scenario_file(str(path)) for path in SCENARIOS]
    for sc in scenarios:
        for got, want in theorem_pairs(check, sc):
            assert got == want


@pytest.mark.parametrize("check", THEOREM_CHECKS)
@pytest.mark.parametrize("caps", [Caps(1, 1), Caps(2, 1)], ids=["caps1,1", "caps2,1"])
def test_theorem_checks_match_reference_under_lcm_merge_unscaled(monkeypatch,
                                                                 caps, check):
    """q = 3/2 and S = [[2, 0], [1, 1]] (det 2), where the swap's columns
    have denominators.  No sum of ∇ columns in either check or reference
    rescales a nonempty accumulator there, so the mutant changes no value
    and both pass; a ∇ column with a new denominator would show here."""
    lcm_merge_unscaled(monkeypatch)
    for got, want in theorem_pairs(check, mutation_scenario(Fraction(3, 2), HALVING_S),
                                   caps):
        assert got == want


def one_column_corrupted(monkeypatch, target):
    """∇ of the flat term ``target`` gains x dx ⊗ 1 in its own slot, which
    breaks both the Leibniz rule and the curvature formula at that term."""
    kernel = product.ProductConnection._nabla_term

    def corrupted(self, slot, pair):
        out = kernel(self, slot, pair)
        if (slot, pair) == target:
            out = dict(out)
            add_column(out, 1, [((slot, ((1, 0), UNIT_WORD)), 1)])
        return out

    monkeypatch.setattr(product.ProductConnection, "_nabla_term", corrupted)


@pytest.mark.parametrize("check", THEOREM_CHECKS)
def test_each_failing_term_decides_like_the_reference(check):
    """∇ corrupted at one flat term, for each term in turn: the input that
    first contains it, as a term of several in free coordinates (dense S) or
    alone, fails as the reference fails, with the same witness and cases."""
    sc = mutation_scenario(2, NON_SYMMETRIC_S)
    terms = [(slot, pair) for slot in range(4)
             for pair in enumerate_monomials(sc.caps.max_exponent)]
    verdicts = set()
    for t in terms:
        with pytest.MonkeyPatch.context() as mp:
            one_column_corrupted(mp, t)
            for got, want in theorem_pairs(check, sc):
                assert got == want
                verdicts.add(got["verdict"])
    assert verdicts == {"fail"}


WORD_CHECKS = [(check_dga_laws, dga_laws_reference),
               (check_twist_axioms, twist_axioms_reference),
               (check_lift_compat, lift_compat_reference)]


@pytest.mark.parametrize("caps", [Caps(3, 2), Caps(3, 3)], ids=["caps3,2", "caps3,3"])
def test_unmutated_checks_match_reference_at_workload_caps(caps):
    # the caps of the benchmark's theorem (3,2) and axioms (3,3) runs
    twist = AlgebraTwist(2)
    for check, reference in WORD_CHECKS:
        assert check(twist, caps).to_dict() == reference(twist, caps).to_dict()


# one mutant of each kernel family; at q = 1 the exponent mutant breaks the
# integer comparisons while the rationals still agree
FAMILY_MUTANTS = [("word_twist", "exponent"), ("word_mul", "random"),
                  ("word_differential", "self_term")]


@pytest.mark.parametrize("kernel, name", FAMILY_MUTANTS,
                         ids=[f"{k}-{n}" for k, n in FAMILY_MUTANTS])
def test_mutated_checks_match_reference_at_q1(monkeypatch, kernel, name):
    twist, caps = AlgebraTwist(1), Caps(3, 2)
    monkeypatch.setattr(twist_module, kernel, mutant(kernel, name, 2, 40))
    for check, reference in WORD_CHECKS:
        assert check(twist, caps).to_dict() == reference(twist, caps).to_dict()


def degree_raising(max_degree):
    """word_mul that raises the degree of a product of two non-unit words
    of total degree max_degree - 1 by one and keeps its letters: a nonzero
    last exponent n of the product becomes n - 1 followed by 0."""
    def mutant(u, v):
        w = PRODUCT(u, v)
        if UNIT_WORD not in (u, v) and len(u) + len(v) == max_degree + 1 and w[-1]:
            return w[:-1] + (w[-1] - 1, 0)
        return w
    return mutant


@pytest.mark.parametrize("q", [2, -3, 1])
@pytest.mark.parametrize("max_degree", [1, 2, 3])
def test_twist_axioms_sizes_products_by_the_pair(monkeypatch, max_degree, q):
    """twist-axioms compares the profile of a pair's product over the
    pair's own range of third words, whatever the product's degree: sized
    by the product's own length, the range of a degree-raising product is
    too short, and the check passes (564 cases at caps 2,1) where the
    reference fails."""
    monkeypatch.setattr(twist_module, "word_mul", degree_raising(max_degree))
    twist, caps = AlgebraTwist(q), Caps(2, max_degree)
    want = twist_axioms_reference(twist, caps).to_dict()
    assert check_twist_axioms(twist, caps).to_dict() == want
    assert want["verdict"] == "fail"
    if max_degree == 1:
        assert (want["cases"], want["witness"]) == (182, "product-left: b=y, b'=y, a=dx")
