"""Seeded inputs of the twistconn benchmark and the gate that judges outputs.

Each workload is one CLI subcommand run on a pool of six inputs made from the
run's seed.  A run cycles through the pool in order, so every run covers the
same mix of inputs whatever its length.  The same seed always gives the same
pool.

Generated scenarios (``bimodule``, ``axioms``) have m = n = 2, Grassmann
connections (no potentials), flip swaps (no ``[phi]``/``[psi]``), one q from
``Q_VALUES`` per input and dense unimodular 2x2 matrices ``[S]`` and ``[T]``.
Under those choices every hypothesis holds, so every verdict must be ``pass``.
Dense S/T keep an identity shortcut from showing gains real inputs would not
get; every shipped scenario uses identity S/T.

The gate: at ``DEFAULT_SEED`` every stdout must equal the stored golden byte
for byte, with the golden exit code.  At any other seed an output must exit 0,
give ``pass`` on every check, echo the generated input, and carry the golden
per-check ``cases`` table, which depends only on the caps and the ranks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0
POOL_SIZE = 6
Q_VALUES = ("2", "3", "3/2", "-2", "2/3", "-3/2")
ENTRIES = (-3, -2, -1, 1, 2, 3)
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
THEOREM_SCENARIO = "scenarios/potential_e_q2.cfg"


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    caps: str | None  # None: the scenario's own caps
    generated: bool   # False: the shipped THEOREM_SCENARIO with --seed


# Why each exists is recorded in perfbench/README.md.
WORKLOADS = {
    "bimodule": Workload("bimodule", "check-bimodule", "1,1", True),
    "theorem": Workload("theorem", "theorem", None, False),
    "axioms": Workload("axioms", "check-axioms", "3,3", True),
}


@dataclass(frozen=True)
class Input:
    """One invocation's input: CLI arguments and, if generated, the scenario."""
    label: str
    args: tuple[str, ...]          # after the scenario path
    scenario_text: str | None      # None: THEOREM_SCENARIO is used as shipped
    echo: dict                     # config fields the report must echo


def dense_unimodular(rng: random.Random) -> tuple[tuple[int, int], tuple[int, int]]:
    """A 2x2 integer matrix, entries nonzero in [-3, 3], determinant +-1."""
    while True:
        a, b, c, d = (rng.choice(ENTRIES) for _ in range(4))
        if a * d - b * c in (1, -1):
            return ((a, b), (c, d))


def _check_dense_unimodular(mat) -> None:
    (a, b), (c, d) = mat
    if not all(v and -3 <= v <= 3 for v in (a, b, c, d)):
        raise RuntimeError(f"generated matrix not dense in [-3, 3]: {mat}")
    if a * d - b * c not in (1, -1):
        raise RuntimeError(f"generated matrix not unimodular: {mat}")


def _rows(mat) -> str:
    _check_dense_unimodular(mat)
    return "".join(f"{a} {b}\n" for a, b in mat)


def scenario_text(q: str, s, t, seed: int) -> str:
    return (f"# generated by perfbench/workloads.py\n"
            f"q: {q}\nm: 2\nn: 2\nmax_exponent: 2\nmax_degree: 1\n"
            f"seed: {seed}\nchecks: axioms, hypotheses, bimodule\n"
            f"\n[S]\n{_rows(s)}\n[T]\n{_rows(t)}")


def make_inputs(workload: Workload, seed: int,
                caps: str | None = None) -> list[Input]:
    """The pool of inputs for one run; ``caps`` overrides the workload's."""
    rng = random.Random(seed)
    caps = caps or workload.caps
    tail = ("--caps", caps) if caps else ()
    pool = []
    if workload.generated:
        qs = list(Q_VALUES)
        rng.shuffle(qs)
        for q in qs:
            s, t = dense_unimodular(rng), dense_unimodular(rng)
            echo = {"q": str(Fraction(q)), "seed": seed,
                    "S": [[str(v) for v in row] for row in s],
                    "T": [[str(v) for v in row] for row in t]}
            pool.append(Input(f"q={q} S={s} T={t}",
                              tail + ("--format", "json"),
                              scenario_text(q, s, t, seed), echo))
    else:
        for _ in range(POOL_SIZE):
            cli_seed = rng.randrange(1_000_000)
            pool.append(Input(f"--seed {cli_seed}",
                              tail + ("--seed", str(cli_seed),
                                      "--format", "json"),
                              None, {"seed": cli_seed}))
    return pool


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------

def golden_path(workload: Workload) -> Path:
    return GOLDEN_DIR / f"{workload.name}.json"


def load_golden(workload: Workload) -> dict:
    with open(golden_path(workload), encoding="utf-8") as handle:
        return json.load(handle)


def cases_table(report: dict) -> list[list]:
    return [[c["name"], c["cases"]] for c in report["checks"]]


def judge(inp: Input, exit_code: int, stdout: bytes,
          golden: dict | None, cases: list[list]) -> str | None:
    """None if the output is right, else why it is wrong.

    ``golden`` is the stored run for this input at the default seed (byte
    comparison); otherwise ``cases`` is the expected per-check table.
    """
    if golden is not None:
        if exit_code != golden["exit"]:
            return f"exit {exit_code}, golden {golden['exit']}"
        if stdout != golden["stdout"].encode("utf-8"):
            return "stdout differs from golden"
        return None
    if exit_code != 0:
        return f"exit {exit_code}"
    try:
        report = json.loads(stdout)
        config = dict(report["config"])
        verdicts = [(c["name"], c["verdict"]) for c in report["checks"]]
        table = cases_table(report)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    bad = [str(name) for name, verdict in verdicts if verdict != "pass"]
    if bad:
        return f"verdict not pass: {', '.join(bad)}"
    for key, value in inp.echo.items():
        if config.get(key) != value:
            return f"config {key} = {config.get(key)!r}, input {value!r}"
    if table != cases:
        return "per-check cases table differs"
    return None
