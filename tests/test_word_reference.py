"""The word-level checks against their per-case reference.

``check_dga_laws``, ``check_twist_axioms`` and ``check_lift_compat`` decide
most cases from facts about words and word pairs, and
``check_connection_leibniz`` compares integer-scaled tables.  Under
corrupted word kernels, patched where both the checks and the reference
look them up, their full ``to_dict()`` (verdict, cases, witness and detail)
must equal that of the reference in tests/oracles.py, which calls the
kernels and compares full tables for every case.  Each mutant corrupts only
the inputs that a seeded hash selects, so it fails somewhere inside a loop,
or nowhere.
"""

from pathlib import Path
from types import MappingProxyType

import pytest

import twistconn.twist as twist_module
from oracles import (dga_laws_reference, leibniz_reference,
                     lift_compat_reference, twist_axioms_reference)
from test_fail_paths import drop_letter, merge_equal_exponents
from test_mutants import _kernel_replaced
from twistconn.forms import UNIT_WORD, Caps
from twistconn.product import check_connection_leibniz
from twistconn.runner import build_objects
from twistconn.scenario import load_scenario_file
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


def leibniz_pair(path, caps=None):
    """check_connection_leibniz and its reference on the scenario at
    ``path``, on objects built under the kernels patched now."""
    sc = load_scenario_file(str(path))
    caps = caps or sc.caps
    pc = build_objects(sc).pc
    return check_connection_leibniz(pc, caps, sc.seed).to_dict(), \
        leibniz_reference(pc, caps, sc.seed).to_dict()


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
@pytest.mark.parametrize("kernel, name", MUTANTS,
                         ids=[f"{k}-{n}" for k, n in MUTANTS])
def test_leibniz_matches_reference(kernel, name, path):
    # patched in every twistconn module that holds the kernel
    for seed, rate in [(1, 5), (2, 40)]:
        with pytest.MonkeyPatch.context() as mp:
            _kernel_replaced(mp, ORIGINAL[kernel], mutant(kernel, name, seed, rate))
            got, want = leibniz_pair(path, Caps(2, 1))
            assert got == want


def test_unmutated_leibniz_matches_reference():
    got, want = leibniz_pair(SCENARIO_DIR / "potential_e_q2.cfg")
    assert got == want
    assert got == {"name": "leibniz", "verdict": "pass", "cases": 1168}


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
