"""The product swap's integer columns and its three checks against the
Fraction-kernel reference in tests/oracles.py.

``ProductSwap`` builds its left-action and generator columns from integer
kernels.  Its ``columns``, ``left`` and ``right`` must equal the
reference's, column by column and in lowest terms, and ``swap-compat-e``,
``swap-compat-f`` and ``swap-cross-morphisms`` must give the same
``to_dict()`` as with ``_piece_morphism`` replaced by the reference's case
loop: unmutated, and under the mutants of tests/test_mutants.py that reach
the swap's kernels.
"""

from fractions import Fraction

import pytest

import oracles
from oracles import SwapReference, left_term, one_form_pairs, \
    piece_morphism_reference
from test_bimodule import HALVING_S, NON_SYMMETRIC_S
from test_mutants import (form_swap_right_power_first, lcm_merge_unscaled,
                          left_with_s_forward, left_with_t_inverse,
                          product_kernel_odd_powers_dropped,
                          right_normal_base_sign_flipped)
from twistconn import bimodule, runner
from twistconn.bimodule import (check_swap_compat_e, check_swap_compat_f,
                                check_swap_cross_morphisms)
from twistconn.forms import Caps
from twistconn.scenario import load_scenario
from twistconn.tdga import enumerate_monomials

CHECKS = (check_swap_compat_e, check_swap_compat_f, check_swap_cross_morphisms)


def unmutated(monkeypatch):
    pass


MUTANTS = [unmutated, left_with_t_inverse, left_with_s_forward,
           form_swap_right_power_first, product_kernel_odd_powers_dropped,
           lcm_merge_unscaled, right_normal_base_sign_flipped]


def mutate(monkeypatch, mutant):
    """Apply ``mutant``; one that wraps ``bimodule._left_term`` wraps the
    reference's copy of the kernel the same way."""
    kernel = bimodule._left_term
    monkeypatch.setattr(bimodule, "_left_term", left_term)
    mutant(monkeypatch)
    monkeypatch.setattr(oracles, "left_term", bimodule._left_term)
    monkeypatch.setattr(bimodule, "_left_term", kernel)
    mutant(monkeypatch)


def swap(q, s):
    """The swap of the mutation scenario (dense T, flip swaps) at (q, S)."""
    rows = "".join(f"{a} {b}\n" for a, b in s)
    return runner.build_objects(load_scenario(
        f"q: {q}\nm: 2\nn: 2\nmax_exponent: 1\nmax_degree: 1\n"
        f"[S]\n{rows}[T]\n1 2\n1 3\n")).product_swap


def scaled(column):
    den, pairs = column
    return den, dict(pairs)


def assert_columns_match(ps, ref, caps):
    """Every S, L and R column on the flat terms of degree 0 and 1 that the
    checks meet, equal as lowest-terms scaled columns."""
    monos = list(enumerate_monomials(caps.max_exponent))
    pairs = [p for side in "xy" for _, p in one_form_pairs(caps, side)]
    slots = range(ps.m + ps.n)
    degree0 = [(k, p) for k in slots for p in monos]
    degree1 = [(k, p) for k in slots for p in pairs]
    for pair in pairs:
        for t in degree0:
            assert scaled(ps.columns(pair)(t)) == scaled(ref.columns(pair)(t))
    for (wx, wy) in monos:
        for t in degree0 + degree1:
            for op in ("left", "right"):
                got = getattr(ps, op)(wx[0], wy[0])(t)
                assert scaled(got) == scaled(getattr(ref, op)(wx[0], wy[0])(t))


INPUTS = [(q, s) for q in (2, -3, Fraction(3, 2), Fraction(-2, 3))
          for s in (NON_SYMMETRIC_S, HALVING_S)]
# every mutant on every input at caps 1,1; at caps 2,1, where a check takes
# about half a second, each mutant on the fractional q and S, and the
# unmutated swap on one more input
CASES = [(mutant, q, s, Caps(1, 1)) for mutant in MUTANTS for q, s in INPUTS] + \
    [(mutant, Fraction(3, 2), HALVING_S, Caps(2, 1)) for mutant in MUTANTS] + \
    [(unmutated, -3, NON_SYMMETRIC_S, Caps(2, 1))]


@pytest.mark.parametrize("mutant, q, s, caps", CASES, ids=[
    f"{mutant.__name__}-q{q}-S{s}-caps{caps.max_exponent},{caps.max_degree}"
    for mutant, q, s, caps in CASES])
def test_swap_matches_reference(monkeypatch, mutant, q, s, caps):
    mutate(monkeypatch, mutant)
    ps, other = swap(q, s), swap(q, s)
    got = [check(ps, caps).to_dict() for check in CHECKS]
    ref = SwapReference(other)
    monkeypatch.setattr(bimodule, "_piece_morphism",
                        lambda _, caps, block, form_side: piece_morphism_reference(
                            ref, caps, block, form_side))
    assert [check(other, caps).to_dict() for check in CHECKS] == got
    assert_columns_match(ps, ref, caps)
