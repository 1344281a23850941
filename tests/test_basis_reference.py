"""flatness, bimodule-axiom and bimodule-theorem against their per-input
reference.

The three checks decide most naive basis vectors from facts about their
flat terms (``product._decided_by_terms``).  On dense S an f-block basis
vector has several terms in free coordinates, and the f-block vectors at
one (i, j) share them.  There the full ``to_dict()`` (verdict, cases,
witness) of each check must equal that of its input-by-input loop in
tests/oracles.py: under the swap-layer and ∇-layer mutants of
tests/test_mutants.py, and with ∇ or the left action corrupted at one flat
term at a time.
"""

from fractions import Fraction

import pytest

from oracles import (bimodule_axiom_reference, bimodule_theorem_reference,
                     flatness_reference)
from test_bimodule import HALVING_S, NON_SYMMETRIC_S
from test_mutants import (dropped_q, f_rest_negated, form_swap_right_power_first,
                          free_to_naive_transposed, generator_x_form_after_power,
                          generator_y_untwisted, inverse_twist_dropped,
                          koszul_sign_dropped, left_with_s_forward,
                          left_with_t_inverse)
from test_mutants import scenario as mutation_scenario
from test_word_reference import one_column_corrupted
from twistconn import bimodule
from twistconn.bimodule import check_bimodule_axiom, check_bimodule_theorem
from twistconn.product import check_flatness
from twistconn.runner import build_objects
from twistconn.tdga import enumerate_monomials

CHECKS = {
    "flatness": (lambda o, caps: check_flatness(o.pc, caps),
                 lambda o, caps: flatness_reference(o.pc, caps)),
    "bimodule-axiom": (lambda o, caps: check_bimodule_axiom(o.product_swap, caps),
                       lambda o, caps: bimodule_axiom_reference(o.product_swap, caps)),
    "bimodule-theorem": (
        lambda o, caps: check_bimodule_theorem(o.pc, o.product_swap, caps),
        lambda o, caps: bimodule_theorem_reference(o.pc, o.product_swap, caps)),
}
# dense S of det 1 and of det 2, at an integer and a fractional q
INPUTS = [(q, s) for q in (2, Fraction(3, 2)) for s in (NON_SYMMETRIC_S, HALVING_S)]


def check_pairs(sc, names=tuple(CHECKS)):
    """Each check of ``names`` and its reference on scenario ``sc``, each on
    its own objects built under the patches in force."""
    return {name: (CHECKS[name][0](build_objects(sc), sc.caps).to_dict(),
                   CHECKS[name][1](build_objects(sc), sc.caps).to_dict())
            for name in names}


def unmutated(monkeypatch):
    pass


SWAP_MUTANTS = [left_with_t_inverse, left_with_s_forward, dropped_q,
                generator_x_form_after_power, generator_y_untwisted,
                form_swap_right_power_first, free_to_naive_transposed]
NABLA_MUTANTS = [inverse_twist_dropped, f_rest_negated, koszul_sign_dropped]
MUTANTS = [unmutated] + SWAP_MUTANTS + NABLA_MUTANTS


@pytest.mark.parametrize("mutate", MUTANTS, ids=[m.__name__ for m in MUTANTS])
def test_checks_match_reference_under_mutants(monkeypatch, mutate):
    mutate(monkeypatch)
    for q, s in INPUTS:
        for name, (got, want) in check_pairs(mutation_scenario(q, s)).items():
            assert got == want, (name, q, s)


def left_term_corrupted(monkeypatch, target):
    """The left action's kernel on the flat term ``target`` doubled, for
    every monomial but the unit, which breaks bimodule-axiom and
    bimodule-theorem at that term."""
    kernel = bimodule._left_term

    def corrupted(twist, rmt, lmt, m, i, j, t):
        den, column = kernel(twist, rmt, lmt, m, i, j, t)
        return (den, {u: 2 * n for u, n in column.items()}) \
            if t == target and (i, j) != (0, 0) else (den, column)

    monkeypatch.setattr(bimodule, "_left_term", corrupted)


# each corruption and the checks that read what it corrupts
CORRUPTIONS = [(one_column_corrupted, ("flatness", "bimodule-theorem")),
               (left_term_corrupted, ("bimodule-axiom", "bimodule-theorem"))]


@pytest.mark.parametrize("q, s", INPUTS, ids=[f"q{q}-S{s}" for q, s in INPUTS])
@pytest.mark.parametrize("corrupt, names", CORRUPTIONS,
                         ids=[c.__name__ for c, _ in CORRUPTIONS])
def test_each_failing_term_decides_like_the_reference(corrupt, names, q, s):
    """One flat term corrupted at a time: the basis vector that first
    contains it, as a term of several in free coordinates or alone, fails
    as the reference fails, with the same witness and cases."""
    sc = mutation_scenario(q, s)
    terms = [(slot, pair) for slot in range(4)
             for pair in enumerate_monomials(sc.caps.max_exponent)]
    verdicts = {name: set() for name in names}
    for t in terms:
        with pytest.MonkeyPatch.context() as mp:
            corrupt(mp, t)
            for name, (got, want) in check_pairs(sc, names).items():
                assert got == want, (name, t)
                verdicts[name].add(got["verdict"])
    assert verdicts == {name: {"fail"} for name in names}
