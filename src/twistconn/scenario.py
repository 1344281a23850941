"""Scenario files: the textual configuration for every CLI run.

Format: top-level ``key: value`` lines plus ``[section]`` blocks.  Matrix
sections (``[S]``, ``[S_alt]``, ``[T]``) hold one row of rational entries
per line; potential and swap sections (``[potential_E]``, ``[potential_F]``,
``[phi]``, ``[psi]``) hold ``(k,l): <form expression>`` entries with
1-based indices.  ``#`` starts a comment.  Example::

    q: 2
    m: 1
    n: 2
    max_exponent: 3
    max_degree: 2
    seed: 0
    checks: axioms, hypotheses, leibniz, theorem

    [potential_E]
    (1,1): x dx

    [S]
    1 0
    0 1

All rationals are exact ("3/2"); potentials must be homogeneous 1-forms;
matrices must be invertible.  Violations raise ScenarioError with the
offending line.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .forms import Caps, Form, parse_form
from .rationals import Matrix, mat_inv, parse_int, parse_rational

KNOWN_CHECKS = ("axioms", "hypotheses", "leibniz", "theorem", "flatness",
                "independence", "curvature", "report", "bimodule")

_SECTION_RE = re.compile(r"^\[([A-Za-z_]+)\]$")
_ENTRY_RE = re.compile(r"^\(([0-9]+)\s*,\s*([0-9]+)\)\s*:\s*(.*)$")

_MATRIX_SECTIONS = {"S": "s_matrix", "S_alt": "s_alt", "T": "t_matrix"}
_FORM_SECTIONS = {"potential_E": ("x", "potential_e"),
                  "potential_F": ("y", "potential_f"),
                  "phi": ("x", "phi"),
                  "psi": ("y", "psi")}


class ScenarioError(ValueError):
    """Raised on malformed or invalid scenario input."""


class Scenario:
    """One scenario's settings: the defaults of empty text, overridden by
    keyword."""

    __slots__ = ("q", "m", "n", "caps", "seed", "checks", "potential_e",
                 "potential_f", "s_matrix", "s_alt", "t_matrix", "phi", "psi",
                 "f_exponents", "remark_power")

    def __init__(self, **fields):
        self.q, self.m, self.n, self.caps, self.seed = \
            Fraction(2), 1, 1, Caps(4, 3), 0
        self.checks = ["axioms", "hypotheses", "leibniz", "theorem"]
        self.potential_e, self.potential_f = {}, {}
        self.s_matrix = self.s_alt = self.t_matrix = self.phi = self.psi = None
        self.f_exponents, self.remark_power = None, 2
        for name, value in fields.items():
            setattr(self, name, value)

    def _form_matrix(self, which: str, entries) -> list[list[Form]]:
        """The rank x rank matrix of the e side (x-forms) or the f side
        (y-forms) with ``entries`` and zeros elsewhere."""
        gen, rank = ("x", self.m) if which == "e" else ("y", self.n)
        mat = [[Form.zero(gen) for _ in range(rank)] for _ in range(rank)]
        for (k, l), form in entries.items():
            mat[k][l] = form
        return mat

    def potential_matrix(self, which: str) -> list[list[Form]]:
        return self._form_matrix(
            which, self.potential_e if which == "e" else self.potential_f)

    def swap_matrix(self, which: str) -> list[list[Form]] | None:
        entries = self.phi if which == "e" else self.psi
        return None if entries is None else self._form_matrix(which, entries)

    @property
    def is_grassmann(self) -> bool:
        return not self.potential_e and not self.potential_f

    def config_echo(self) -> dict:
        echo = {
            "q": str(self.q),
            "m": self.m,
            "n": self.n,
            "max_exponent": self.caps.max_exponent,
            "max_degree": self.caps.max_degree,
            "seed": self.seed,
            "checks": list(self.checks),
        }
        for label, mat in (("S", self.s_matrix), ("S_alt", self.s_alt),
                           ("T", self.t_matrix)):
            if mat is not None:
                echo[label] = [[str(v) for v in row] for row in mat]
        for label, entries in (("potential_E", self.potential_e),
                               ("potential_F", self.potential_f),
                               ("phi", self.phi), ("psi", self.psi)):
            if entries is not None:
                echo[label] = {f"({k + 1},{l + 1})": str(f)
                               for (k, l), f in sorted(entries.items())}
        return echo


def _parse_matrix_rows(rows: list[tuple[int, str]], label: str,
                       header: int) -> Matrix:
    mat = []
    for lineno, row in rows:
        try:
            mat.append([parse_rational(tok) for tok in row.split()])
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {label}: {exc}") from None
    if not mat:
        raise ScenarioError(f"line {header}: {label} section is empty")
    width = len(mat[0])
    if any(len(r) != width for r in mat) or width != len(mat):
        raise ScenarioError(f"line {header}: {label} must be square")
    return tuple(tuple(v for v in row) for row in mat)


def load_scenario(text: str) -> Scenario:
    """Parse and validate scenario text."""
    top: dict[str, tuple[int, str]] = {}
    matrix_rows: dict[str, list[tuple[int, str]]] = {}
    form_entries: dict[str, list[tuple[int, int, int, str]]] = {}
    headers: dict[str, int] = {}  # section -> line of its header
    section: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        sec = _SECTION_RE.match(line)
        if sec:
            section = sec.group(1)
            if section not in _MATRIX_SECTIONS and section not in _FORM_SECTIONS:
                raise ScenarioError(f"line {lineno}: unknown section [{section}]")
            if section in headers:
                raise ScenarioError(f"line {lineno}: duplicate section "
                                    f"[{section}] (first on line "
                                    f"{headers[section]})")
            headers[section] = lineno
            matrix_rows[section] = []
            form_entries[section] = []
            continue
        if section is None:
            if ":" not in line:
                raise ScenarioError(f"line {lineno}: expected 'key: value'")
            key, value = (part.strip() for part in line.split(":", 1))
            if key in top:
                raise ScenarioError(f"line {lineno}: duplicate key {key!r} "
                                    f"(first on line {top[key][0]})")
            top[key] = (lineno, value)
        elif section in _MATRIX_SECTIONS:
            matrix_rows[section].append((lineno, line))
        else:
            entry = _ENTRY_RE.match(line)
            if not entry:
                raise ScenarioError(
                    f"line {lineno}: expected '(k,l): <form>' in [{section}]")
            form_entries[section].append(
                (lineno, int(entry.group(1)), int(entry.group(2)),
                 entry.group(3).strip()))

    scenario = Scenario()  # every key left out keeps its default here

    def take_int(key: str, default: int, minimum: int) -> int:
        if key not in top:
            return default
        lineno, value = top[key]
        try:
            out = parse_int(value)
        except ValueError:
            raise ScenarioError(f"line {lineno}: {key} must be an integer") from None
        if out < minimum:
            raise ScenarioError(f"line {lineno}: {key} must be >= {minimum}")
        return out

    if "q" in top:
        lineno, value = top["q"]
        try:
            scenario.q = parse_rational(value)
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None
        if not scenario.q:
            raise ScenarioError(f"line {lineno}: q must be nonzero")
    scenario.m = take_int("m", scenario.m, 1)
    scenario.n = take_int("n", scenario.n, 1)
    scenario.caps = Caps(take_int("max_exponent", scenario.caps.max_exponent, 1),
                         take_int("max_degree", scenario.caps.max_degree, 1))
    scenario.seed = take_int("seed", scenario.seed, 0)
    scenario.remark_power = take_int("remark_power", scenario.remark_power, 1)
    if "checks" in top:
        lineno, value = top["checks"]
        checks = [c.strip() for c in value.replace(",", " ").split() if c.strip()]
        if not checks:
            raise ScenarioError(f"line {lineno}: checks names no group")
        for c in checks:
            if c not in KNOWN_CHECKS:
                raise ScenarioError(f"line {lineno}: unknown check {c!r} "
                                    f"(known: {', '.join(KNOWN_CHECKS)})")
        scenario.checks = checks
    if "f_exponents" in top:
        lineno, value = top["f_exponents"]
        try:
            scenario.f_exponents = [parse_int(v) for v in value.replace(",", " ").split()]
        except ValueError:
            raise ScenarioError(f"line {lineno}: f_exponents must be integers") \
                from None
        if any(v < 0 for v in scenario.f_exponents):
            raise ScenarioError(f"line {lineno}: f_exponents must be >= 0")
    unknown = set(top) - {"q", "m", "n", "max_exponent", "max_degree", "seed",
                          "checks", "f_exponents", "remark_power"}
    if unknown:
        lineno = min(top[key][0] for key in unknown)
        raise ScenarioError(f"line {lineno}: unknown keys: "
                            f"{', '.join(sorted(unknown))}")

    for label, attr in _MATRIX_SECTIONS.items():
        if label in matrix_rows:
            header = headers[label]
            mat = _parse_matrix_rows(matrix_rows[label], label, header)
            expected = scenario.n if label.startswith("S") else scenario.m
            if len(mat) != expected:
                raise ScenarioError(f"line {header}: {label} must be "
                                    f"{expected}x{expected}")
            try:
                mat_inv(mat)
            except ValueError:
                raise ScenarioError(f"line {header}: {label} not invertible") \
                    from None
            setattr(scenario, attr, mat)

    for label, (gen, attr) in _FORM_SECTIONS.items():
        if label not in form_entries:
            continue
        rank = scenario.m if gen == "x" else scenario.n
        entries: dict[tuple[int, int], Form] = {}
        for lineno, k, l, expr in form_entries[label]:
            if not (1 <= k <= rank and 1 <= l <= rank):
                raise ScenarioError(f"line {lineno}: index ({k},{l}) out of "
                                    f"range for rank {rank}")
            if (k - 1, l - 1) in entries:
                raise ScenarioError(f"line {lineno}: duplicate entry ({k},{l}) "
                                    f"in [{label}]")
            try:
                form = parse_form(gen, expr)
            except ValueError as exc:
                raise ScenarioError(f"line {lineno}: {exc}") from None
            if not form.is_zero and not form.is_homogeneous(1):
                raise ScenarioError(
                    f"line {lineno}: entry ({k},{l}) must be a 1-form")
            entries[(k - 1, l - 1)] = form
        if attr in ("phi", "psi"):
            setattr(scenario, attr, entries)
        else:
            setattr(scenario, attr, {kl: f for kl, f in entries.items()
                                     if not f.is_zero})

    if scenario.f_exponents is not None and len(scenario.f_exponents) != scenario.n:
        raise ScenarioError(f"line {top['f_exponents'][0]}: f_exponents must "
                            f"list one exponent per f-slot")
    return scenario


def load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path}: not UTF-8 text ({exc.reason} at "
                                f"byte {exc.start})") from None
    return load_scenario(text)
