"""Check verdicts and report assembly.

A ``CheckResult`` records one verification outcome: ``pass``, ``fail``
(with a rendered witness), ``inadmissible`` (prerequisites failed, so the
statement was not judged) or ``not-guaranteed`` (computed, but hypotheses
are known to be violated).  A ``Report`` bundles results with the scenario
echo.  The machine-readable JSON payload is canonical (sorted keys, no
wall-clock data) so that identical scenario + seed give byte-identical
output; elapsed time is only shown in the text rendering.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

PASS = "pass"
FAIL = "fail"
INADMISSIBLE = "inadmissible"
NOT_GUARANTEED = "not-guaranteed"


class CheckResult(NamedTuple):
    name: str
    verdict: str
    witness: str | None = None
    cases: int = 0
    detail: Mapping = MappingProxyType({})  # a shared default: read-only

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL

    def to_dict(self) -> dict:
        out = {"name": self.name, "verdict": self.verdict, "cases": self.cases}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = self.detail
        return out

    def __str__(self) -> str:
        line = f"[{self.verdict.upper():>14}] {self.name} ({self.cases} cases)"
        if self.witness:
            line += f"\n    witness: {self.witness}"
        return line


def passed(name: str, cases: int, **detail) -> CheckResult:
    return CheckResult(name, PASS, cases=cases, detail=detail)


def failed(name: str, witness: str, cases: int, **detail) -> CheckResult:
    return CheckResult(name, FAIL, witness=witness, cases=cases, detail=detail)


def inadmissible(name: str, why: str) -> CheckResult:
    return CheckResult(name, INADMISSIBLE, witness=why)


def tally(cases: Iterable, weight: int = 1,
          until: int | None = 1) -> tuple[int, dict]:
    """The one case loop of every check.

    ``cases`` yields one entry per step of a check, and each step counts
    ``weight`` cases.  An entry is None when the step holds, or an ``int``
    n when n steps held (a check that decides a block of steps at once, or
    counts held steps inline, sends their number before its next witness);
    otherwise it is the witness of the failure, or a dict from each
    condition that failed at that step to its witness.  A check formats a
    witness only when a case fails.  The loop stops once ``until``
    conditions have failed (None: after the last step).  Returns the cases
    counted and the first witness of each failed condition, in the order
    they failed; a bare witness is condition None.
    """
    count = 0
    failures: dict = {}
    for entry in cases:
        if entry is None:
            count += weight
        elif entry.__class__ is int:
            count += entry * weight
        else:
            count += weight
            if not isinstance(entry, dict):
                entry = {None: entry}
            for condition, witness in entry.items():
                failures.setdefault(condition, witness)
            if until is not None and len(failures) >= until:
                break
    return count, failures


def run_cases(name: str, cases: Iterable, weight: int = 1,
              **detail) -> CheckResult:
    """Pass, or fail at the first failing case with ``detail``; see
    :func:`tally`."""
    count, failures = tally(cases, weight)
    if failures:
        return failed(name, failures[None], count, **detail)
    return passed(name, count)


class Report:
    def __init__(self, config: dict, results: list[CheckResult] | None = None,
                 payloads: dict | None = None, elapsed: float = 0.0):
        self.config = config
        self.results = [] if results is None else results
        self.payloads = {} if payloads is None else payloads
        self.elapsed = elapsed

    def add(self, result: CheckResult) -> CheckResult:
        self.results.append(result)
        return result

    def find(self, name: str) -> CheckResult | None:
        for r in self.results:
            if r.name == name:
                return r
        return None

    @property
    def exit_code(self) -> int:
        return 1 if any(r.failed for r in self.results) else 0

    def summary(self) -> dict:
        counts: dict[str, int] = {}
        for r in self.results:
            counts[r.verdict] = counts.get(r.verdict, 0) + 1
        return {"verdicts": counts, "exit_code": self.exit_code}

    def to_dict(self) -> dict:
        return {
            "schema": "twistconn-report/1",
            "config": self.config,
            "checks": [r.to_dict() for r in self.results],
            "payloads": self.payloads,
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        # canonical: sorted keys, no timing, trailing newline
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = ["twistconn report", "================"]
        for key in sorted(self.config):
            lines.append(f"  {key}: {self.config[key]}")
        lines.append("")
        for r in self.results:
            lines.append(str(r))
        for key in sorted(self.payloads):
            lines.append("")
            lines.append(f"-- {key} --")
            payload = self.payloads[key]
            if isinstance(payload, list):
                lines.extend(str(item) for item in payload)
            else:
                lines.append(json.dumps(payload, sort_keys=True, indent=2))
        lines.append("")
        lines.append(f"summary: {self.summary()['verdicts']} "
                     f"(elapsed {self.elapsed:.2f}s)")
        return "\n".join(lines) + "\n"
