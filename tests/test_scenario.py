"""Scenario parsing, validation, and the check runner."""

from fractions import Fraction

import pytest

from twistconn.forms import Caps
from twistconn.scenario import (KNOWN_CHECKS, Scenario, ScenarioError,
                                load_scenario)
from twistconn.runner import CHECKS, resolve_checks, run_checks

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
    ])
    def test_errors_carry_line_numbers(self, text, message):
        with pytest.raises(ScenarioError) as err:
            load_scenario(text)
        assert str(err.value) == message


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
