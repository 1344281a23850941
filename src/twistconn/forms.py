"""Universal differential forms over a one-variable polynomial algebra.

The calculus over k[t] has, in each degree p, the monomial basis

    t^{i0} dt t^{i1} dt ... dt t^{ip},   i_k >= 0,

encoded as the exponent word ``(i0, ..., ip)``.  Degree is ``len(word)-1``
and the *letter count* (number of t's plus dt's) is ``degree + sum(word)``;
the letter count drives the q-powers of the lifted twisting map.  Products
concatenate words, merging the touching exponents; the differential acts by
the graded Leibniz rule with d(t^n) = sum_{a+b=n-1} t^a dt t^b.

Elements are sparse rational sums of words over a fixed generator symbol
('x' or 'y').  All values are immutable by convention and all arithmetic is
exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

Word = tuple[int, ...]

UNIT_WORD: Word = (0,)


class Caps(NamedTuple):
    """Bounds for exhaustive basis enumeration."""

    max_exponent: int
    max_degree: int


def word_degree(word: Word) -> int:
    return len(word) - 1


def word_letters(word: Word) -> int:
    return len(word) - 1 + sum(word)


def word_mul(u: Word, v: Word) -> Word:
    """Concatenate two words, merging the boundary exponents."""
    return u[:-1] + (u[-1] + v[0],) + v[1:]


@cache
def word_differential(word: Word) -> Mapping[Word, int]:
    """d on a basis word, as a read-only word -> (+1|-1) table.

    Memoized per word, so every caller shares one table; nothing is cached
    for pairs or products of words (see the README's memo tables).
    """
    out: dict[Word, int] = {}
    for k, n in enumerate(word):
        sign = -1 if k % 2 else 1
        for a in range(n):
            new = word[:k] + (a, n - 1 - a) + word[k + 1:]
            c = out.get(new, 0) + sign
            if c:
                out[new] = c
            else:
                del out[new]
    return MappingProxyType(out)


def enumerate_words(max_degree: int, max_exponent: int) -> list[Word]:
    """All words with degree <= max_degree and every exponent <= max_exponent.

    Ordered by degree, then lexicographically on the exponent tuple.
    """
    if max_degree < 0 or max_exponent < 0:
        raise ValueError("caps must be nonnegative")
    out: list[Word] = []
    for p in range(max_degree + 1):
        level = [()]
        for _ in range(p + 1):
            level = [w + (i,) for w in level for i in range(max_exponent + 1)]
        out.extend(sorted(level))
    return out


def words_by_degree(max_degree: int, max_exponent: int) -> dict[int, list[Word]]:
    table: dict[int, list[Word]] = {p: [] for p in range(max_degree + 1)}
    for w in enumerate_words(max_degree, max_exponent):
        table[word_degree(w)].append(w)
    return table


def iter_word_tuples(count: int, caps: Caps,
                     letter_budget: int | None = None) -> Iterator[tuple[Word, ...]]:
    """Tuples of words with *total* degree <= caps.max_degree.

    Per-word exponent entries are capped by caps.max_exponent; an optional
    total letter budget trims the combinatorial blow-up of triple checks.
    """
    by_deg = words_by_degree(caps.max_degree, caps.max_exponent)

    def rec(prefix: tuple[Word, ...], deg_left: int, letters_left: int | None):
        if len(prefix) == count:
            yield prefix
            return
        for d in range(deg_left + 1):
            for w in by_deg[d]:
                if letters_left is not None:
                    used = word_letters(w)
                    if used > letters_left:
                        continue
                    yield from rec(prefix + (w,), deg_left - d, letters_left - used)
                else:
                    yield from rec(prefix + (w,), deg_left - d, None)

    yield from rec((), caps.max_degree, letter_budget)


class Form:
    """A sparse exact-coefficient element of the calculus over k[gen].

    ``terms`` maps exponent words to nonzero Fractions; the zero element is
    the empty table.  Elements may be inhomogeneous; graded operations act
    componentwise.
    """

    __slots__ = ("gen", "terms")

    def __init__(self, gen: str, terms: dict[Word, Fraction] | None = None):
        self.gen = gen
        self.terms: dict[Word, Fraction] = {}
        if terms:
            for w, c in terms.items():
                if c:
                    self.terms[w] = c if type(c) is Fraction else Fraction(c)

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, gen: str) -> "Form":
        return cls(gen)

    @classmethod
    def unit(cls, gen: str) -> "Form":
        return cls(gen, {UNIT_WORD: Fraction(1)})

    @classmethod
    def word(cls, gen: str, word: Iterable[int], coeff=1) -> "Form":
        return cls(gen, {tuple(word): Fraction(coeff)})

    @classmethod
    def gen_power(cls, gen: str, n: int) -> "Form":
        return cls(gen, {(n,): Fraction(1)})

    @classmethod
    def d_gen(cls, gen: str) -> "Form":
        return cls(gen, {(0, 0): Fraction(1)})

    # ---- structure ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {word_degree(w) for w in self.terms}

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = self.degrees()
        if degree is None:
            return len(degs) <= 1
        return degs <= {degree}

    def _require_same_gen(self, other: "Form") -> None:
        if self.gen != other.gen:
            raise ValueError(f"generator mismatch: {self.gen!r} vs {other.gen!r}")

    # ---- arithmetic ---------------------------------------------------
    def __add__(self, other: "Form") -> "Form":
        self._require_same_gen(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            c2 = terms.get(w, Fraction(0)) + c
            if c2:
                terms[w] = c2
            elif w in terms:
                del terms[w]
        return Form(self.gen, terms)

    def __neg__(self) -> "Form":
        return Form(self.gen, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c) -> "Form":
        c = Fraction(c)
        if not c:
            return Form.zero(self.gen)
        return Form(self.gen, {w: c * v for w, v in self.terms.items()})

    def __rmul__(self, c) -> "Form":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other) -> "Form":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same_gen(other)
        terms: dict[Word, Fraction] = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = word_mul(u, v)
                c = terms.get(w, Fraction(0)) + cu * cv
                if c:
                    terms[w] = c
                elif w in terms:
                    del terms[w]
        return Form(self.gen, terms)

    def d(self) -> "Form":
        """Universal differential (graded Leibniz, d^2 = 0)."""
        terms: dict[Word, Fraction] = {}
        for w, c in self.terms.items():
            for nw, sign in word_differential(w).items():
                v = terms.get(nw, Fraction(0)) + sign * c
                if v:
                    terms[nw] = v
                elif nw in terms:
                    del terms[nw]
        return Form(self.gen, terms)

    def grade_involution(self) -> "Form":
        """Multiply each degree-p component by (-1)^p."""
        return Form(self.gen, {w: -c if word_degree(w) % 2 else c
                               for w, c in self.terms.items()})

    def scaled_generator(self, factor: Fraction) -> "Form":
        """Substitute t -> factor * t; defined on degree-0 elements only."""
        if not self.is_homogeneous(0) and not self.is_zero:
            raise ValueError("generator substitution needs a degree-0 element")
        return Form(self.gen, {w: c * factor ** w[0] for w, c in self.terms.items()})

    # ---- comparisons / rendering --------------------------------------
    def __eq__(self, other) -> bool:
        return (isinstance(other, Form) and self.gen == other.gen
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.gen, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: (word_degree(kv[0]), kv[0]))

    def __str__(self) -> str:
        return render_terms(
            [(c, render_word(self.gen, w)) for w, c in self.sorted_terms()])

    def __repr__(self) -> str:
        return f"Form({self.gen!r}, {self.terms!r})"


def render_word(gen: str, word: Word) -> str:
    parts: list[str] = []
    for k, n in enumerate(word):
        if k:
            parts.append(f"d{gen}")
        if n == 1:
            parts.append(gen)
        elif n > 1:
            parts.append(f"{gen}^{n}")
    return " ".join(parts) if parts else "1"


def render_terms(terms: list[tuple[Fraction, str]]) -> str:
    """Render a list of (coefficient, monomial-string) as a signed sum."""
    if not terms:
        return "0"
    pieces: list[str] = []
    for i, (c, mono) in enumerate(terms):
        mag = abs(c)
        body = mono if mag == 1 and mono != "1" else (
            str(mag) if mono == "1" else f"{mag} {mono}")
        if i == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(pieces)


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_form(gen: str, text: str) -> Form:
    """Parse the rendered syntax, e.g. ``"x^2 dx x - 3/2 dx dx"``.

    Terms are separated by (whitespace-delimited) '+'/'-'; a term is an
    optional rational coefficient followed by whitespace-separated factors
    ``gen``, ``gen^k`` or ``dgen``; ``1`` denotes the unit word.  Every
    sign must be followed by a term.
    """
    tokens: list[str] = []
    for tok in text.replace("+", " + ").replace("- ", " - ").split():
        # a sign glued to a coefficient stays on it ("-3/2"); one glued to a
        # monomial ("-dx", how a leading -1 renders) is a separate token
        if tok[0] == "-" and len(tok) > 1 and not _RATIONAL_RE.match(tok):
            tokens += ["-", tok[1:]]
        else:
            tokens.append(tok)
    result = Form.zero(gen)
    sign = Fraction(1)
    coeff: Fraction | None = None
    word: list[int] | None = None
    dangling = False  # a sign seen, its term not yet

    def flush():
        nonlocal result, sign, coeff, word
        if coeff is None and word is None:
            return
        c = sign * (coeff if coeff is not None else Fraction(1))
        w = tuple(word) if word is not None else UNIT_WORD
        result = result + Form(gen, {w: c})
        sign, coeff, word = Fraction(1), None, None

    for tok in tokens:
        if tok in ("+", "-"):
            if dangling:
                raise ValueError(f"sign without a term in {text!r}")
            flush()
            dangling = True
            if tok == "-":
                sign = Fraction(-1)
            continue
        dangling = False
        if _RATIONAL_RE.match(tok):
            if word is not None or coeff is not None:
                raise ValueError(f"unexpected coefficient {tok!r} in {text!r}")
            try:
                coeff = Fraction(tok)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {tok!r}") from None
        else:
            if word is None:
                word = [0]
            if tok == "1":
                continue
            if tok == f"d{gen}":
                word.append(0)
            elif tok == gen:
                word[-1] += 1
            elif tok.startswith(f"{gen}^"):
                exponent = int(tok[len(gen) + 1:])
                if exponent < 0:
                    raise ValueError(f"negative exponent in {tok!r}")
                word[-1] += exponent
            else:
                raise ValueError(f"bad factor {tok!r} for generator {gen!r}")
    if dangling:
        raise ValueError(f"sign without a term in {text!r}")
    flush()
    return result
