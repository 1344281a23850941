"""Golden guard: every shipped scenario × subcommand, byte for byte.

``tests/golden/<scenario>.<subcommand>.json`` holds the ``--format json
--caps 1,1`` stdout of the CLI and ``exit_codes.json`` its exit code.  A
refactor must leave both unchanged; a deliberate change of behaviour
regenerates the files and says so in CHANGES.md.

The benchmark's golden ``theorem`` runs (``perfbench/golden/theorem.json``,
read only) replay here too: potential_e_q2 at its shipped caps with seeded
random vectors, the byte guard of ``leibniz`` and ``curvature-formula``
beyond caps 1,1.  So do two of its golden ``bimodule`` runs
(``perfbench/golden/bimodule.json``): ``check-bimodule`` on generated
scenarios with dense S and T at fractional q, which no shipped scenario
has, rebuilt by the benchmark's own generator.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from twistconn.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = ("bad_hypothesis_q2", "bimodule_q2", "classical_q1",
             "grassmann_q2", "potential_e_q2")
SUBCOMMANDS = ("check-axioms", "check-hypotheses", "theorem", "curvature",
               "report", "check-bimodule", "run")
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
THEOREM_RUNS = json.loads(
    (ROOT / "perfbench" / "golden" / "theorem.json").read_text())["runs"]
BIMODULE_GOLDEN = json.loads(
    (ROOT / "perfbench" / "golden" / "bimodule.json").read_text())


def benchmark_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is made
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_golden_json(scenario, subcommand, capsys):
    key = f"{scenario}.{subcommand}"
    code = main([subcommand, "--scenario", str(ROOT / "scenarios" / f"{scenario}.cfg"),
                 "--format", "json", "--caps", "1,1"])
    assert capsys.readouterr().out == (GOLDEN / f"{key}.json").read_text()
    assert code == EXIT_CODES[key]


def test_golden_set_is_complete():
    assert sorted(EXIT_CODES) == sorted(f"{s}.{c}" for s in SCENARIOS
                                        for c in SUBCOMMANDS)
    assert sorted(p.stem for p in GOLDEN.glob("*.*.json")) == sorted(EXIT_CODES)


@pytest.mark.parametrize("run", [THEOREM_RUNS[0], THEOREM_RUNS[-1]],
                         ids=lambda run: run["input"])
def test_benchmark_theorem_run(run, capsys):
    code = main(["theorem", "--scenario",
                 str(ROOT / "scenarios" / "potential_e_q2.cfg"),
                 *run["input"].split(), "--format", "json"])
    assert capsys.readouterr().out == run["stdout"]
    assert code == run["exit"]


@pytest.mark.parametrize("index", [0, 5])
def test_benchmark_bimodule_run(index, tmp_path, capsys):
    workloads = benchmark_workloads()
    inp = workloads.make_inputs(workloads.WORKLOADS["bimodule"],
                                BIMODULE_GOLDEN["seed"])[index]
    run = BIMODULE_GOLDEN["runs"][index]
    assert inp.label == run["input"]
    scenario = tmp_path / "input.cfg"
    scenario.write_text(inp.scenario_text)
    code = main(["check-bimodule", "--scenario", str(scenario), *inp.args])
    assert capsys.readouterr().out == run["stdout"]
    assert code == run["exit"]
