"""End-to-end CLI behavior: subcommands, formats, exit codes."""

import json
from pathlib import Path

import pytest

from twistconn.cli import main

GRASSMANN = """
q: 2
m: 1
n: 2
max_exponent: 2
max_degree: 2
checks: axioms, hypotheses, leibniz, theorem

[S_alt]
1 1
0 1
"""

BROKEN_HYPOTHESIS = """
q: 2
max_exponent: 2
max_degree: 2

[potential_F]
(1,1): dy
"""


@pytest.fixture
def grassmann_file(tmp_path):
    path = tmp_path / "grassmann.cfg"
    path.write_text(GRASSMANN)
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text(BROKEN_HYPOTHESIS)
    return str(path)


def test_theorem_passes(grassmann_file, capsys):
    assert main(["theorem", "--scenario", grassmann_file]) == 0
    out = capsys.readouterr().out
    assert "curvature-formula" in out
    assert "FAIL" not in out
    assert "independence" in out  # alternate mixing matrix present
    assert "flatness" in out

def test_counterexample_exit_code(broken_file, capsys):
    assert main(["theorem", "--scenario", broken_file]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "INADMISSIBLE" in out


def test_invalid_scenario_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("n: 2\n[S]\n1 1\n1 1\n")
    assert main(["check-axioms", "--scenario", str(path)]) == 2
    assert "not invertible" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("q: 2\n[potential_E]\n(1,1): 3/0 dx\n", "line 3: zero denominator"),
    ("q: 2\nf_exponents: -1\n", "line 2: f_exponents must be >= 0"),
    ("q: 2\n[potential_E]\n(1,1): x^-1 dx\n", "line 3: negative exponent"),
    ("q: 2\n\n[potential_E]\n(1,1): dx -\n", "line 4: sign without a term"),
    ("q: 2\n\n[potential_E]\n(1,1): dx +\n", "line 4: sign without a term"),
    ("q: 2\n[potential_E]\n(1,1): +\n", "line 3: sign without a term"),
    ("q: 2\n[potential_E]\n(1,1): -\n", "line 3: sign without a term"),
    ("q: 2\nq: 3\n", "line 2: duplicate key 'q'"),
    ("q: 2\nchecks:\n", "line 2: checks names no group"),
    ("q: 2\nchecks: , ,\n", "line 2: checks names no group"),
], ids=["zero-denominator", "negative-f-exponent", "negative-exponent",
        "trailing-minus", "trailing-plus", "lone-plus", "lone-minus",
        "duplicate-key", "empty-checks", "comma-only-checks"])
def test_malformed_value_exit_code(tmp_path, capsys, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["report", "--scenario", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_non_utf8_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"q: 2\n\xff\n")
    assert main(["check-axioms", "--scenario", str(path)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["check-axioms", "--scenario", "/nonexistent.cfg"]) == 2


def test_json_format(grassmann_file, capsys):
    assert main(["check-hypotheses", "--scenario", grassmann_file,
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "twistconn-report/1"
    names = [c["name"] for c in payload["checks"]]
    assert "f-connection-compat" in names
    assert payload["summary"]["exit_code"] == 0


def test_caps_and_seed_override(grassmann_file, capsys):
    assert main(["check-axioms", "--scenario", grassmann_file,
                 "--caps", "1,1", "--seed", "9", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["max_exponent"] == 1
    assert payload["config"]["seed"] == 9


def test_bad_caps_rejected(grassmann_file, capsys):
    assert main(["check-axioms", "--scenario", grassmann_file,
                 "--caps", "zero"]) == 2


@pytest.mark.parametrize("caps", ["1_1,1", "\u0663,1", "1,\uff12", "+1_0,1"])
def test_caps_take_ascii_digits_only(grassmann_file, capsys, caps):
    assert main(["check-axioms", "--scenario", grassmann_file,
                 "--caps", caps]) == 2
    assert capsys.readouterr().err == "error: --caps expects E,D integers\n"


@pytest.mark.parametrize("seed", ["1_0", "\u0663", "nine", "-1"])
def test_bad_seed_rejected(grassmann_file, capsys, seed):
    with pytest.raises(SystemExit) as exit_:
        main(["check-axioms", "--scenario", grassmann_file, "--seed", seed])
    assert exit_.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_report_subcommand(tmp_path, capsys):
    path = tmp_path / "report.cfg"
    path.write_text("""
q: 2
n: 2
max_exponent: 2
max_degree: 2
f_exponents: 1 2
""")
    assert main(["report", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert "q^-1 y, q^-2 y^2" in out
    assert "quantum-plane-report" in out


def test_curvature_subcommand(tmp_path, capsys):
    path = tmp_path / "curv.cfg"
    path.write_text("""
q: 2
max_exponent: 2
max_degree: 2

[potential_E]
(1,1): x dx
""")
    assert main(["curvature", "--scenario", str(path),
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    curv = payload["payloads"]["curvature"]
    assert curv["factor_curvature_x"] == [["dx dx + x dx x dx"]]


def test_bimodule_subcommand(tmp_path, capsys):
    path = tmp_path / "bimodule.cfg"
    path.write_text("""
q: 2
max_exponent: 2
max_degree: 1
""")
    assert main(["check-bimodule", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert "bimodule-theorem" in out


def test_curvature_not_guaranteed_on_bad_hypothesis(capsys):
    # the payload is computed, but the failed f-connection-compat verdict in
    # the same report marks it not guaranteed
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / \
        "bad_hypothesis_q2.cfg"
    assert main(["curvature", "--scenario", str(scenario),
                 "--format", "json", "--caps", "1,1"]) == 1
    payload = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["f-connection-compat"]["verdict"] == "fail"
    assert checks["curvature-payload"]["verdict"] == "not-guaranteed"
    assert checks["curvature-payload"]["witness"] == \
        "hypotheses violated; symbolic output only"
    assert payload["payloads"]["curvature"]["product_curvature"]

