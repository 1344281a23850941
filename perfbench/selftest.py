#!/usr/bin/env python3
"""Quick self-test of the benchmark: gate and tracer, each workload at caps 1,1.

    python3 perfbench/selftest.py

For every workload it runs input 0 of the default-seed pool at ``--caps 1,1``
and shows that

- the gate passes the program's own output, and fails it once the output,
  its exit code, a verdict or the cases table is corrupted, both on the
  golden path (default seed) and on the invariant path (other seeds), and
  the loop's failed count turns nonzero on a corrupted golden;
- a traced invocation prints the same bytes as an untraced one, reports
  every check with the cases of the report, and counts known calls:
  ``ProductSwap.apply`` only on ``bimodule``, ``ProductConnection.nabla``
  not on ``axioms``, and one call of each set-up phase.

Exits 0 when every claim holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT_DIR, Loop, check_checkout, cli_argv, spawn, write_inputs
from workloads import (DEFAULT_SEED, WORKLOADS, cases_table, judge,
                       make_inputs)

CAPS = "1,1"
ONCE = ("cli.main", "scenario.load_scenario_file", "runner.build_objects",
        "runner.run_checks", "reports.Report.to_json")
# (traced function, workloads on which it must be called); not called elsewhere
KNOWN_CALLS = (
    ("bimodule.ProductSwap.apply", {"bimodule"}),
    ("bimodule.act_left", {"bimodule"}),
    ("product.ProductConnection.nabla", {"bimodule", "theorem"}),
    ("twist.AlgebraTwist.qpow", {"bimodule", "theorem", "axioms"}),
    ("forms.word_differential", {"bimodule", "theorem", "axioms"}),
)


def corruptions(stdout: bytes) -> dict[str, bytes]:
    text = stdout.decode("utf-8")
    report = json.loads(text)
    report["checks"][-1]["cases"] += 1
    return {
        "one byte": stdout[:-2] + bytes([stdout[-2] ^ 1]) + stdout[-1:],
        "verdict": text.replace('"verdict": "pass"', '"verdict": "fail"',
                                1).encode("utf-8"),
        "cases": (json.dumps(report, sort_keys=True, indent=2)
                  + "\n").encode("utf-8"),
    }


def check_workload(name: str, work_dir: Path) -> list[str]:
    problems: list[str] = []

    def claim(ok: bool, what: str) -> None:
        print(f"  [{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            problems.append(f"{name}: {what}")

    workload = WORKLOADS[name]
    inputs = make_inputs(workload, DEFAULT_SEED, caps=CAPS)[:1]
    write_inputs(inputs, work_dir)
    inp = inputs[0]
    print(f"{name}: {workload.subcommand} {' '.join(inp.args)}")

    # the program's own output, stored as this run's golden
    code, _, _ = spawn(cli_argv(workload, inp, 0, work_dir), work_dir / "stdout")
    stdout = (work_dir / "stdout").read_bytes()
    claim(code == 0, f"untraced invocation exits 0 (got {code})")
    report = json.loads(stdout)
    cases = cases_table(report)
    golden = {"runs": [{"stdout": stdout.decode("utf-8"), "exit": 0}]}

    claim(judge(inp, 0, stdout, golden["runs"][0], cases) is None,
          "golden path passes the program's output")
    claim(judge(inp, 0, stdout, None, cases) is None,
          "invariant path passes the program's output")
    for label, bad in corruptions(stdout).items():
        claim(judge(inp, 0, bad, golden["runs"][0], cases) is not None,
              f"golden path flags a corrupted {label}")
        if label != "one byte":  # a flipped byte may sit in a coefficient
            claim(judge(inp, 0, bad, None, cases) is not None,
                  f"invariant path flags a corrupted {label}")
    claim(judge(inp, 1, stdout, golden["runs"][0], cases) is not None
          and judge(inp, 1, stdout, None, cases) is not None,
          "both paths flag a wrong exit code")

    good = Loop(workload, DEFAULT_SEED, inputs, work_dir, golden)
    good.invoke(0, 0)
    wrong = json.loads(json.dumps(golden))
    wrong["runs"][0]["stdout"] = corruptions(stdout)["verdict"].decode("utf-8")
    bad = Loop(workload, DEFAULT_SEED, inputs, work_dir, wrong)
    bad.invoke(0, 0)
    claim(good.failures == [] and len(bad.failures) == 1,
          f"loop failed count {len(good.failures)}/{good.attempted} on the "
          f"golden, {len(bad.failures)}/{bad.attempted} on a corrupted one")

    trace_path = work_dir / "trace.json"
    good.invoke(1, 0, trace_path)
    claim(good.failures == [], "traced invocation passes the golden gate")
    with open(trace_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    def calls(fn: str) -> int:
        return trace["funcs"].get(fn, {}).get("calls", 0)

    claim(trace["missing"] == [], f"every target found {trace['missing']}")
    claim(all(calls(fn) == 1 for fn in ONCE),
          "one call of each set-up phase, run_checks and to_json")
    for fn, on in KNOWN_CALLS:
        expect_called = name in on
        claim((calls(fn) > 0) == expect_called,
              f"{fn}.calls = {calls(fn)} ({'> 0' if expect_called else '0'} "
              f"expected)")
    claim([[c["name"], c["cases"]] for c in trace["checks"]] == cases,
          "check.<name>.cases equals the report's cases for every check")
    return problems


def main() -> int:
    check_checkout()
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT_DIR))
    try:
        problems = [p for name in WORKLOADS
                    for p in check_workload(name, work_dir)]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("self-test " + ("passed" if not problems else
                          f"FAILED: {len(problems)} claims"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
