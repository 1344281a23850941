#!/usr/bin/env python3
"""The twistconn benchmark: a closed loop of CLI invocations on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden

One client runs one ``twistconn`` invocation at a time, each in a fresh
Python process; the next starts only after the previous one has exited, and
no new one starts once ``--seconds`` have passed.  Invocation k runs input
k mod 6 of the workload's seeded pool (see workloads.py), and every output
goes through the gate.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json:
``wall_s`` (median wall time of one invocation, spawn to exit),
``peak_rss_mb`` (median peak resident set of one invocation, from wait4)
and ``setup_s`` (median of SETUP_PROBES fresh processes that only start the
interpreter, import twistconn, load the scenario and build the objects).
``--trace 1`` alternates untraced invocations with invocations run under
tracer.py and reports the per-layer metrics.  The last stdout line is the
result JSON; the lines before it record the environment, the seed and the
inputs.  ``failed``/``attempted`` in it is the failed fraction: an
invocation fails on a wrong exit code, a wrong output, a crash or a timeout.

``--write-golden`` stores the outputs at the default seed as the golden
table; run it only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import (DEFAULT_SEED, THEOREM_SCENARIO, WORKLOADS, Input,
                       Workload, cases_table, golden_path, judge, load_golden,
                       make_inputs)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 9
INVOCATION_TIMEOUT_S = 90
SETUP_CODE = ("import sys, twistconn\n"
              "from twistconn.runner import build_objects\n"
              "from twistconn.scenario import load_scenario_file\n"
              "build_objects(load_scenario_file(sys.argv[1]))\n")


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def spawn(argv: list[str], stdout_path: Path) -> tuple[int | None, float, object]:
    """Run argv to completion; return (exit code, wall seconds, rusage).

    A run past INVOCATION_TIMEOUT_S is killed and reported with exit code
    None.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _alarm)
    with open(stdout_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                cwd=ROOT, env=env)
        signal.alarm(INVOCATION_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            code = os.waitstatus_to_exitcode(status)
        except Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            code = None
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return code, wall, usage


def scenario_path(inp: Input, index: int, work_dir: Path) -> Path:
    if inp.scenario_text is None:
        return ROOT / THEOREM_SCENARIO
    return work_dir / f"input{index}.cfg"


def cli_argv(workload: Workload, inp: Input, index: int, work_dir: Path,
             tracer_out: Path | None = None, invocation: int = 0) -> list[str]:
    """The command of one invocation, under tracer.py if ``tracer_out``."""
    cli_args = [workload.subcommand, "--scenario",
                str(scenario_path(inp, index, work_dir)), *inp.args]
    if tracer_out is None:
        return [sys.executable, "-m", "twistconn.cli", *cli_args]
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(tracer_out),
            str(invocation), "--", *cli_args]


class Loop:
    """Runs invocations and judges each output against the golden table."""

    def __init__(self, workload: Workload, seed: int, inputs: list[Input],
                 work_dir: Path, golden: dict):
        self.workload, self.seed, self.inputs = workload, seed, inputs
        self.work_dir = work_dir
        self.golden_runs = golden["runs"] if seed == DEFAULT_SEED else None
        self.cases = cases_table(json.loads(golden["runs"][0]["stdout"]))
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, k: int, index: int, tracer_out: Path | None = None):
        """Run invocation k on input ``index``; return (wall, rusage), or
        None after a timeout.  Failures are counted and kept in ``failures``.
        """
        inp = self.inputs[index]
        stdout_path = self.work_dir / "stdout"
        code, wall, usage = spawn(cli_argv(self.workload, inp, index,
                                           self.work_dir, tracer_out, k),
                                  stdout_path)
        golden = self.golden_runs[index] if self.golden_runs else None
        why = ("timeout" if code is None else
               judge(inp, code, stdout_path.read_bytes(), golden, self.cases))
        self.attempted += 1
        if why is not None:
            self.failures.append(f"invocation {k} ({inp.label}): {why}")
        return None if code is None else (wall, usage)


def measure_setup(inputs: list[Input], work_dir: Path) -> float:
    """Median cold set-up time over SETUP_PROBES fresh processes."""
    times = []
    for k in range(SETUP_PROBES + 1):
        path = scenario_path(inputs[k % len(inputs)], k % len(inputs), work_dir)
        code, wall, _ = spawn([sys.executable, "-c", SETUP_CODE, str(path)],
                              work_dir / "stdout")
        if code != 0:
            raise SystemExit(f"set-up probe failed with exit {code}")
        if k:  # the first probe also writes the bytecode caches
            times.append(wall)
    print(f"# setup_s: {' '.join(f'{t:.4f}' for t in times)}")
    return statistics.median(times)


def run_end_to_end(loop: Loop, seconds: float) -> dict:
    walls, rss = [], []
    started = time.perf_counter()
    k = 0
    while time.perf_counter() - started < seconds:
        sample = loop.invoke(k, k % len(loop.inputs))
        if sample is not None:
            walls.append(sample[0])
            rss.append(sample[1].ru_maxrss / 1024)
        k += 1
    if not walls:
        return {}
    print(f"# {k} invocations, wall_s: {' '.join(f'{w:.4f}' for w in walls)}")
    return {"wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(rss)}


def run_traced(loop: Loop, seconds: float) -> dict:
    """Alternate plain and traced invocations, each pair on the same input."""
    plain_wall, plain_cpu, traced_wall, traces = [], [], [], []
    started = time.perf_counter()
    k = 0
    while time.perf_counter() - started < seconds or k < 2:
        index = (k // 2) % len(loop.inputs)
        if k % 2 == 0:
            sample = loop.invoke(k, index)
            if sample is not None:
                plain_wall.append(sample[0])
                plain_cpu.append(sample[1].ru_utime + sample[1].ru_stime)
        else:
            trace_path = loop.work_dir / f"trace{k}.json"
            sample = loop.invoke(k, index, trace_path)
            if sample is not None and trace_path.exists():
                traced_wall.append(sample[0])
                with open(trace_path, encoding="utf-8") as handle:
                    traces.append(json.load(handle))
        k += 1
    if not plain_wall or not traces:
        return {}
    print(f"# {k} invocations, {len(traces)} traced")
    metrics = per_invocation_medians(traces)
    metrics["proc.cpu_s"] = statistics.median(plain_cpu)
    metrics["trace.overhead_frac"] = (statistics.median(traced_wall)
                                      / statistics.median(plain_wall) - 1)
    write_trace_file(loop, traces, metrics)
    missing = sorted({m for t in traces for m in t["missing"]})
    if missing:
        print(f"warning: traced functions not found: {', '.join(missing)}",
              file=sys.stderr)
    return metrics


def per_invocation_medians(traces: list[dict]) -> dict:
    samples: dict[str, list[float]] = {}
    for trace in traces:
        one: dict[str, float] = {}
        for name, entry in trace["funcs"].items():
            one[f"{name}.calls"] = entry["calls"]
            one[f"{name}.self_s"] = entry["self_s"]
        for check in trace["checks"]:
            one[f"check.{check['name']}.s"] = check["s"]
            one[f"check.{check['name']}.cases"] = check["cases"]
        for module, self_s in trace["layers"].items():
            one[f"layer.{module}.self_s"] = self_s
        qpow = trace["qpow"]
        one["twist.qpow.hit_frac"] = (1 - qpow["distinct"] / qpow["calls"]
                                      if qpow["calls"] else 0.0)
        for name, value in one.items():
            samples.setdefault(name, []).append(value)
    # a name missing from some invocations counts 0 there
    return {name: statistics.median(values + [0] * (len(traces) - len(values)))
            for name, values in samples.items()}


def write_trace_file(loop: Loop, traces: list[dict], metrics: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{loop.workload.name}-seed{loop.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": loop.workload.name, "seed": loop.seed,
                   "environment": environment(),
                   "inputs": [{"label": inp.label, "args": inp.args,
                               "scenario": inp.scenario_text}
                              for inp in loop.inputs],
                   "metrics": metrics, "invocations": traces}, handle)
    print(f"# trace written to {path.relative_to(ROOT)}")


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit}


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_checkout() -> None:
    for needed in (ROOT / "src" / "twistconn" / "cli.py",
                   ROOT / THEOREM_SCENARIO):
        if not needed.is_file():
            raise SystemExit(f"error: {needed.relative_to(ROOT)} not found; "
                             "run from a twistconn checkout")


def write_inputs(inputs: list[Input], work_dir: Path) -> None:
    for index, inp in enumerate(inputs):
        if inp.scenario_text is not None:
            scenario_path(inp, index, work_dir).write_text(inp.scenario_text,
                                                           encoding="utf-8")


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    declared = declared_metrics(trace)
    inputs = make_inputs(workload, seed)
    print(f"# environment: {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {workload.name}, seed {seed}, {seconds:g} s, "
          f"trace {int(trace)}")
    for index, inp in enumerate(inputs):
        print(f"# input {index}: {workload.subcommand} {' '.join(inp.args)}")
        for line in (inp.scenario_text or "").splitlines():
            print(f"#   {line}")
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        write_inputs(inputs, work_dir)
        loop = Loop(workload, seed, inputs, work_dir, load_golden(workload))
        if trace:
            metrics = run_traced(loop, seconds)
        else:
            setup_s = measure_setup(inputs, work_dir)
            metrics = run_end_to_end(loop, seconds)
            if metrics:
                metrics["setup_s"] = setup_s
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in loop.failures:
        print(f"# FAILED {line}")
    undeclared = set(metrics) - set(declared)
    if undeclared:
        raise SystemExit(f"error: metrics not in BENCHMARK.json: "
                         f"{', '.join(sorted(undeclared))}")
    failed = len(loop.failures)
    # every invocation timed out: nothing was measured
    values = {name: metrics.get(name, 0) for name in declared} if metrics else {}
    return {"correct": failed == 0, "attempted": loop.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": declared[name]}
                        for name, value in values.items()}}


def write_golden() -> None:
    for workload in WORKLOADS.values():
        inputs = make_inputs(workload, DEFAULT_SEED)
        OUT_DIR.mkdir(exist_ok=True)
        work_dir = Path(tempfile.mkdtemp(prefix="golden-", dir=OUT_DIR))
        runs = []
        try:
            write_inputs(inputs, work_dir)
            for index, inp in enumerate(inputs):
                code, _, _ = spawn(cli_argv(workload, inp, index, work_dir),
                                   work_dir / "stdout")
                stdout = (work_dir / "stdout").read_text(encoding="utf-8")
                runs.append({"input": inp.label, "exit": code, "stdout": stdout})
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        golden_path(workload).parent.mkdir(exist_ok=True)
        with open(golden_path(workload), "w", encoding="utf-8") as handle:
            json.dump({"workload": workload.name, "seed": DEFAULT_SEED,
                       "runs": runs}, handle, indent=1)
            handle.write("\n")
        print(f"wrote {golden_path(workload).relative_to(ROOT)}: exits "
              f"{[r['exit'] for r in runs]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    check_checkout()
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
