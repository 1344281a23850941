"""Scenario parsing, validation, and the check runner."""

import tempfile
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistconn.bimodule import ProductSwap
from twistconn.cli import main
from twistconn.connections import FormSwap, ModuleConnection
from twistconn.forms import Caps
from twistconn.product import ProductConnection, iter_naive_basis
from twistconn.scenario import (KNOWN_CHECKS, Scenario, ScenarioError,
                                load_scenario, load_scenario_file)
from twistconn.runner import (CHECKS, BuiltObjects, build_objects,
                              resolve_checks, run_checks)
from twistconn.tdga import ProductForm
from twistconn.twist import AlgebraTwist, LeftModuleTwist, RightModuleTwist

SHIPPED = sorted((Path(__file__).resolve().parent.parent / "scenarios")
                 .glob("*.cfg"))
# the objects build_objects leaves to their first use
LAZY = [name for name, attr in vars(BuiltObjects).items()
        if isinstance(attr, cached_property)]


def build_all(scenario):
    """build_objects with every lazily built object forced."""
    objs = build_objects(scenario)
    for name in LAZY:
        getattr(objs, name)
    return objs

MINIMAL = """
q: 2
m: 1
n: 1
max_exponent: 2
max_degree: 2
checks: axioms
"""

FULL = """
# a full scenario with every section
q: 3/2
m: 2
n: 2
max_exponent: 2
max_degree: 2
seed: 11
checks: axioms, hypotheses

[potential_E]
(1,1): x dx
(1,2): dx

[potential_F]

[S]
1 1
0 1

[S_alt]
1 0
0 1

[T]
1 0
2 1

[phi]
(1,1): dx
(2,2): dx

[psi]
(1,1): dy
(2,2): dy
"""


class TestParsing:
    def test_minimal(self):
        s = load_scenario(MINIMAL)
        assert s.q == 2 and (s.m, s.n) == (1, 1)
        assert s.caps == Caps(2, 2)
        assert s.checks == ["axioms"]
        assert s.is_grassmann

    def test_full(self):
        s = load_scenario(FULL)
        assert s.q == Fraction(3, 2)
        assert s.s_matrix[0][1] == 1
        assert s.s_alt is not None
        assert s.t_matrix[1][0] == 2
        assert str(s.potential_e[(0, 0)]) == "x dx"
        assert str(s.phi[(0, 0)]) == "dx"
        assert not s.is_grassmann

    def test_defaults(self):
        s = load_scenario("q: 1")
        assert s.caps == Caps(4, 3)
        assert s.checks == ["axioms", "hypotheses", "leibniz", "theorem"]

    def test_empty_text_keeps_every_default(self):
        loaded, fresh = load_scenario(""), Scenario()
        for field in Scenario.__slots__:
            assert getattr(loaded, field) == getattr(fresh, field), field

    def test_config_echo_is_jsonable(self):
        import json
        echo = load_scenario(FULL).config_echo()
        assert json.loads(json.dumps(echo)) == echo


class TestValidation:
    def test_singular_matrix_rejected(self):
        with pytest.raises(ScenarioError, match="S not invertible"):
            load_scenario("n: 2\n[S]\n1 1\n1 1\n")

    def test_zero_q_rejected(self):
        with pytest.raises(ScenarioError, match="q must be nonzero"):
            load_scenario("q: 0")

    def test_potential_degree_rejected(self):
        with pytest.raises(ScenarioError, match="1-form"):
            load_scenario("m: 1\n[potential_E]\n(1,1): x^2\n")

    def test_unknown_check_rejected(self):
        with pytest.raises(ScenarioError, match="unknown check"):
            load_scenario("checks: everything")

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_scenario("qq: 2")

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ScenarioError, match="out of range"):
            load_scenario("m: 1\n[potential_E]\n(2,1): dx\n")

    def test_bad_matrix_shape_rejected(self):
        with pytest.raises(ScenarioError, match="must be 2x2"):
            load_scenario("n: 2\n[S]\n1\n")

    def test_wrong_f_exponent_count(self):
        with pytest.raises(ScenarioError, match="one exponent per"):
            load_scenario("n: 2\nf_exponents: 1\n")

    @pytest.mark.parametrize("text,message", [
        ("q: 2\nqq: 2\n", "line 2: unknown keys: qq"),
        ("q: 2\nzz: 1\naa: 2\n", "line 2: unknown keys: aa, zz"),
        ("n: 2\n\n[S]\n1 0\n0\n", "line 3: S must be square"),
        ("m: 2\n[T]\n1 2\n", "line 2: T must be square"),
        ("n: 1\n[S]\n# no rows\n", "line 2: S section is empty"),
        ("n: 2\n[S]\n1\n", "line 2: S must be 2x2"),
        ("m: 1\n[T]\n1 0\n0 1\n", "line 2: T must be 1x1"),
        ("n: 1\n# comment\n[S_alt]\n2 1\n4 2\n", "line 3: S_alt must be 1x1"),
        ("n: 2\n[S]\n1 1\n1 1\n", "line 2: S not invertible"),
        ("n: 2\n[S_alt]\n1 2\n2 4\n", "line 2: S_alt not invertible"),
        ("m: 1\n\n\n[T]\n0\n", "line 4: T not invertible"),
        ("n: 2\nf_exponents: 1\n",
         "line 2: f_exponents must list one exponent per f-slot"),
        ("q: 2\nq: 3\n", "line 2: duplicate key 'q' (first on line 1)"),
        ("n: 2\n[S]\n1 0\n[S]\n0 1\n",
         "line 4: duplicate section [S] (first on line 2)"),
        ("q: 2\n[potential_E]\n(1,1): x dx\n(1,1): dx\n",
         "line 4: duplicate entry (1,1) in [potential_E]"),
        ("q: 2\nchecks:\n", "line 2: checks names no group"),
        ("q: 2\n\nchecks: , ,\n", "line 3: checks names no group"),
    ])
    def test_errors_carry_line_numbers(self, text, message):
        with pytest.raises(ScenarioError) as err:
            load_scenario(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text,message", [
        ("q: 0.5\n", "line 1: bad rational '0.5'"),
        ("q: 1_000\n", "line 1: bad rational '1_000'"),
        ("\nq: 1/0\n", "line 2: zero denominator in '1/0'"),
        ("n: 1\n[S]\n1e0\n", "line 3: S: bad rational '1e0'"),
        ("m: 2\n[T]\n1 0\n0 2/0\n", "line 4: T: zero denominator in '2/0'"),
        ("m: 1\n[potential_E]\n(1,1): 1/0 dx\n",
         "line 3: zero denominator in '1/0'"),
    ])
    def test_rationals_share_the_coefficient_grammar(self, tmp_path, capsys,
                                                     text, message):
        """q, matrix entries and form coefficients all take
        [+-]?[0-9]+(/[0-9]+)?; anything else exits 2 naming its line."""
        path = tmp_path / "bad.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["check-axioms", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("text,message", [
        ("q: \u0663\n", "line 1: bad rational '\u0663'"),
        ("q: \uff12/3\n", "line 1: bad rational '\uff12/3'"),
        ("n: 1\n[S]\n\u0663\n", "line 3: S: bad rational '\u0663'"),
        ("q: 2\n[potential_E]\n(1,1): \u0663 x dx\n",
         "line 3: bad factor '\u0663' for generator 'x'"),
        ("q: 2\n[potential_E]\n(\u0661,1): dx\n",
         "line 3: expected '(k,l): <form>' in [potential_E]"),
        ("max_exponent: 1_0\n", "line 1: max_exponent must be an integer"),
        ("\nmax_degree: 0_1\n", "line 2: max_degree must be an integer"),
        ("seed: \u0663\n", "line 1: seed must be an integer"),
        ("m: \uff12\n", "line 1: m must be an integer"),
        ("n: 2\nf_exponents: 1_0 1\n", "line 2: f_exponents must be integers"),
        ("f_exponents: \u0663\n", "line 1: f_exponents must be integers"),
        ("q: 2\n[potential_E]\n(1,1): x^1_0 dx\n",
         "line 3: bad integer '1_0'"),
        ("q: 2\n[potential_E]\n(1,1): x^\u0663 dx\n",
         "line 3: bad integer '\u0663'"),
    ], ids=["q-arabic-indic", "q-fullwidth", "matrix-entry", "coefficient",
            "entry-index", "underscore-cap", "underscore-degree", "seed",
            "fullwidth-rank", "underscore-f-exponent", "f-exponent",
            "underscore-power", "arabic-indic-power"])
    def test_numbers_take_ascii_digits_only(self, tmp_path, capsys, text,
                                            message):
        """Every number of scenario text is read with one ASCII grammar,
        [+-]?[0-9]+ for integers (with /[0-9]+ for rationals); a Unicode
        digit or a Python literal form exits 2 naming its line."""
        path = tmp_path / "bad.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["check-axioms", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("value,q", [("3/2", Fraction(3, 2)),
                                         ("-2", Fraction(-2)),
                                         ("+4/6", Fraction(2, 3))])
    def test_q_grammar_accepts_signed_fractions(self, value, q):
        assert load_scenario(f"q: {value}\n").q == q


class TestRunner:
    def test_resolution_orders_dependencies(self):
        names = resolve_checks(["theorem"])
        assert names.index("twist-axioms") < names.index("f-connection-compat")
        assert names.index("f-connection-compat") < \
            names.index("curvature-formula")

    def test_registry_groups_are_known_checks(self):
        assert tuple(dict.fromkeys(c.group for c in CHECKS)) == KNOWN_CHECKS
        names = [c.name for c in CHECKS]
        assert len(set(names)) == len(names)
        assert all(set(c.gates) <= set(names) for c in CHECKS)

    def test_prerequisites_come_from_registry(self):
        axioms = ["twist-axioms", "lift-compat", "dga-laws",
                  "right-module-twist", "left-module-twist", "derived-compat"]
        assert resolve_checks(["hypotheses"]) == axioms + ["f-connection-compat"]
        assert resolve_checks(["leibniz", "theorem"]) == axioms + [
            "f-connection-compat", "leibniz", "curvature-formula"]
        assert resolve_checks(["bimodule", "axioms"]) == axioms + [
            "f-connection-compat", "e-connection-compat",
            "bimodule-connection-x", "bimodule-connection-y", "swap-compat-e",
            "swap-compat-f", "swap-cross-morphisms", "bimodule-axiom",
            "bimodule-theorem"]
        assert resolve_checks(["independence"]) == axioms + [
            "f-connection-compat", "independence"]

    def test_all_pass_on_grassmann(self):
        s = load_scenario("""
q: 2
n: 2
max_exponent: 2
max_degree: 2
checks: axioms, hypotheses, leibniz, theorem, flatness
""")
        report = run_checks(s)
        assert report.exit_code == 0
        assert all(r.passed for r in report.results)

    def test_failed_hypothesis_gates_theorems(self):
        s = load_scenario("""
q: 2
max_exponent: 2
max_degree: 2
checks: hypotheses, leibniz, theorem

[potential_F]
(1,1): dy
""")
        report = run_checks(s)
        assert report.exit_code == 1
        assert report.find("f-connection-compat").failed
        assert report.find("leibniz").verdict == "inadmissible"
        assert report.find("curvature-formula").verdict == "inadmissible"

    def test_independence_needs_alternate(self):
        s = load_scenario("checks: independence\nmax_exponent: 1\nmax_degree: 1")
        report = run_checks(s)
        assert report.find("independence").verdict == "inadmissible"

    def test_classical_bimodule_suite(self):
        s = load_scenario("""
q: 1
max_exponent: 2
max_degree: 1
checks: bimodule
""")
        report = run_checks(s)
        assert report.exit_code == 0
        assert report.find("bimodule-theorem").passed

    def test_deterministic_reports(self):
        s1 = load_scenario(FULL)
        s2 = load_scenario(FULL)
        assert run_checks(s1).to_json() == run_checks(s2).to_json()

    def test_report_payload(self):
        s = load_scenario("""
q: 2
n: 2
max_exponent: 2
max_degree: 2
f_exponents: 1 2
checks: report
""")
        report = run_checks(s)
        assert report.find("quantum-plane-report").passed
        payload = report.payloads["quantum-plane"]
        assert payload["grassmann_display"]["verified"]


# lines of scenario text that are well formed on their own ...
KEYS = ("q: 2", "q: -3/2", "m: 1", "m: 2", "n: 1", "n: 2", "max_exponent: 1",
        "max_degree: 1", "seed: 3", "checks: axioms, hypotheses",
        "f_exponents: 2", "f_exponents: 1 2", "remark_power: 3")
SECTIONS = ("[S]", "[S_alt]", "[T]", "[potential_E]", "[potential_F]",
            "[phi]", "[psi]")
BODIES = ("1 0", "0 1", "1 1", "2 1", "1", "(1,1): x dx", "(1,1): dy",
          "(2,1): y dy", "(1,2): dx", "# a comment", "")
# ... and broken ones: bad values, unknown keys and sections, bad rows and
# entries
BROKEN = (
    "q: 0", "q: 1/0", "q: abc", "q:", "m: 0", "m: -1", "n: x",
    "max_exponent: 0", "max_exponent: 1.5", "max_degree: -2", "seed: x",
    "checks: nope", "f_exponents: -1", "remark_power: x", "foo: 1", "q 2",
    ":", "[bogus]", "[S", "0 0", "1/2 x", "(1,2): dx -", "(3,3): dx",
    "(1,1): x", "(1,1) dx", "(0,1): dy")
VOCABULARY = KEYS + SECTIONS + BODIES + BROKEN

lines = st.one_of(st.sampled_from(VOCABULARY),
                  st.text(st.characters(blacklist_categories=("Cs",)),
                          max_size=12))
# distinct keys, then distinct sections with well-formed bodies: these load
# far more often than shuffled lines
laid_out = st.tuples(
    st.lists(st.sampled_from(KEYS), unique_by=lambda k: k.split(":")[0]),
    st.lists(st.tuples(st.sampled_from(SECTIONS),
                       st.lists(st.sampled_from(BODIES), max_size=3)),
             unique_by=lambda sec: sec[0], max_size=4),
).map(lambda ks: list(ks[0]) + [line for head, body in ks[1]
                                for line in (head, *body)])
scenario_texts = st.one_of(laid_out, st.lists(st.sampled_from(VOCABULARY),
                                              max_size=12),
                           st.lists(lines, max_size=12)).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(scenario_texts)
def test_arbitrary_text_loads_builds_or_exits_2(text):
    """Scenario text either loads and builds, or raises ScenarioError, on
    which the CLI exits 2."""
    try:
        scenario = load_scenario(text)
    except ScenarioError:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.cfg"
            path.write_text(text, encoding="utf-8", newline="")
            assert main(["check-axioms", "--scenario", str(path)]) == 2
        return
    build_all(scenario)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
def test_lazy_objects_match_eager_construction(path):
    s = load_scenario_file(path)
    objs = build_objects(s)
    assert LAZY and not set(LAZY) & set(vars(objs))
    twist = AlgebraTwist(s.q)
    rmt = RightModuleTwist(twist, s.s_matrix, rank=s.n)
    lmt = LeftModuleTwist(twist, s.t_matrix, rank=s.m)
    conns = [ModuleConnection("x", s.m, s.potential_matrix("e")),
             ModuleConnection("y", s.n, s.potential_matrix("f"))]
    swaps = [FormSwap.flip(gen, rank) if values is None
             else FormSwap(gen, rank, values)
             for gen, rank, values in (("x", s.m, s.swap_matrix("e")),
                                       ("y", s.n, s.swap_matrix("f")))]
    pc = ProductConnection(twist, rmt, *conns)
    ps = ProductSwap(twist, rmt, lmt, *swaps)
    for lazy, eager in zip((objs.conn_e, objs.conn_f), conns):
        assert (lazy.gen, lazy.rank, lazy.potential) == \
            (eager.gen, eager.rank, eager.potential)
    for lazy, eager in zip((objs.swap_e, objs.swap_f), swaps):
        assert (lazy.gen, lazy.rank, lazy.values) == \
            (eager.gen, eager.rank, eager.values)
    # built from the run's own twists and factors
    assert [objs.pc.twist, objs.pc.rmt, objs.pc.conn_e, objs.pc.conn_f] == \
        [objs.twist, objs.rmt, objs.conn_e, objs.conn_f]
    swap = objs.product_swap
    assert [swap.twist, swap.rmt, swap.lmt, swap.swap_e, swap.swap_f] == \
        [objs.twist, objs.rmt, objs.lmt, objs.swap_e, objs.swap_f]
    one_form = ProductForm.monomial(1, 1).d()
    for _, pv in iter_naive_basis(s.m, rmt, Caps(1, 1)):
        assert objs.pc.nabla(pv) == pc.nabla(pv)
        assert swap.apply(one_form, pv) == ps.apply(one_form, pv)
