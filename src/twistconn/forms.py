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
exact.  ``Terms`` is the one sparse table type of the package, for words
here, for pair-words in ``tdga`` and for flat module terms in ``product``;
``add_column`` is its one summation step.  ``ColumnTable`` memoizes the
columns of linear operators integer-scaled, one denominator over integer
numerators, and ``add_scaled`` is the summation step of those columns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

from .rationals import RATIONAL_RE, parse_int, parse_rational

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

    Memoized per word, so every caller shares one table.  Word pairs are
    memoized per call inside ``dga-laws`` (2,494 at caps 3,3), and
    ``twist-axioms`` keeps 2,774 word profiles per call (62 distinct) for
    its 5,008 word pairs; see the README's memo tables.
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


def iter_word_tuples(count: int, caps: Caps) -> Iterator[tuple[Word, ...]]:
    """Tuples of words with *total* degree <= caps.max_degree.

    Per-word exponent entries are capped by caps.max_exponent.
    """
    by_deg = words_by_degree(caps.max_degree, caps.max_exponent)

    def rec(prefix: tuple[Word, ...], deg_left: int):
        if len(prefix) == count:
            yield prefix
            return
        for d in range(deg_left + 1):
            for w in by_deg[d]:
                yield from rec(prefix + (w,), deg_left - d)

    yield from rec((), caps.max_degree)


def add_column(acc: dict, c: Fraction, column) -> None:
    """acc += c · column over (key, coefficient) pairs, dropping the terms
    that cancel.

    The one summation step of sparse term tables; for c = 1 it adds the
    column as it is, with no rational product.
    """
    if c != 1:
        column = [(t, c * v) for t, v in column]
    for t, v in column:
        old = acc.get(t)
        if old is None:
            acc[t] = v
        else:
            v += old
            if v:
                acc[t] = v
            else:
                del acc[t]


# Integer-scaled tables.  A scaled table (den, table) stands for the table
# {t: n / den}: den is a positive int and every n a nonzero int.  A scaled
# column (den, ((t, n), ...)) is the same with the pairs in a tuple.  Sums
# merge denominators by their lcm, so no rational is formed while summing.

def add_scaled(acc: dict, den: int, c: int, cden: int, column) -> int:
    """acc/den += (c/cden) · column over (key, integer) pairs; returns the
    denominator of the sum, lcm(den, cden), to which acc is rescaled.

    The integer counterpart of :func:`add_column`.
    """
    if cden != den:
        lcm = math.lcm(den, cden)
        if lcm != den:
            scale = lcm // den
            for t in acc:
                acc[t] *= scale
            den = lcm
        c *= den // cden
    for t, v in column:
        v *= c
        old = acc.get(t)
        if old is None:
            acc[t] = v
        else:
            v += old
            if v:
                acc[t] = v
            else:
                del acc[t]
    return den


def sum_scaled(table: tuple[int, dict], column) -> tuple[int, dict]:
    """Σ (n/den) · column(t) over the scaled ``table``, where column(t) is
    a scaled column, as one scaled table."""
    den, terms = table
    acc: dict = {}
    d = 1
    for t, n in terms.items():
        cd, col = column(t)
        d = add_scaled(acc, d, n, cd, col)
    return d * den, acc


def scaled_equal(a: tuple[int, dict], b: tuple[int, dict]) -> bool:
    """Whether two scaled tables stand for the same table: the same keys,
    and n_a · den_b == n_b · den_a at each key."""
    (da, ta), (db, tb) = a, b
    if da == db:
        return ta == tb
    return ta.keys() == tb.keys() and \
        all(n * db == tb[t] * da for t, n in ta.items())


def to_scaled(pairs, c=1) -> tuple[int, dict]:
    """c times rational (key, coefficient) pairs with distinct keys and
    nonzero coefficients, as a scaled table."""
    pairs = [(t, v.numerator, v.denominator) for t, v in pairs]
    den = math.lcm(*[d for _, _, d in pairs])
    n = c.numerator
    return den * c.denominator, {t: n * v * (den // d) for t, v, d in pairs}


def scaled_row(row, c) -> tuple[int, list[int]]:
    """c times a row of rationals as (den, integer numerators), den > 0."""
    den = math.lcm(*[r.denominator for r in row])
    n = c.numerator
    return den * c.denominator, [n * r.numerator * (den // r.denominator) for r in row]


def from_scaled(den: int, table: dict) -> dict:
    """A scaled table as a table of Fractions."""
    return {t: Fraction(n, den) for t, n in table.items()}


class ColumnTable:
    """A memo of scaled columns, by operator tag and then by input key.

    ``table`` maps a tag to the operator's pairs by input key and its
    denominators other than 1, kept apart so that the common column with
    denominator 1 costs no more than its pairs.  It also maps each stored
    key to itself, so that equal keys in different columns share one
    object, and with ``share_columns`` each stored column too, for tables
    whose operators give many equal columns.  Callers give each operator a
    tag that is neither a key nor a column.  ``made`` keeps the function of
    each tag.  The object that defines the operators owns the table, and
    it lives as long as that object does.
    """

    def __init__(self, share_columns: bool = False):
        self.table: dict = {}
        self.made: dict = {}
        self.share_columns = share_columns

    def operator(self, tag: tuple, make):
        """Operator ``tag`` as a function from an input key to its scaled
        column; ``make(t)`` gives the column of t once.  The function is
        made on the first request for ``tag`` and returned again after."""
        column = self.made.get(tag)
        if column is not None:
            return column
        cols = self.table.get(tag)
        if cols is None:
            cols = self.table[tag] = ({}, {})
        pairs, dens = cols

        def column(t):
            col = pairs.get(t)
            if col is None:
                den, col = make(t)
                pairs[t] = col
                if den != 1:
                    dens[t] = den
                return den, col
            return dens.get(t, 1) if dens else 1, col
        self.made[tag] = column
        return column

    def from_kernel(self, tag: tuple, kernel):
        """Operator ``tag`` of a ``Fraction`` kernel: ``kernel(t)`` gives the
        column of t as rational (key, coefficient) pairs with distinct keys
        and nonzero coefficients, stored scaled on first use."""
        return self.operator(tag, lambda t: self.store(*to_scaled(kernel(t))))

    def store(self, den: int, table: dict) -> tuple[int, tuple]:
        """A scaled table as a scaled column, in lowest terms, with its keys
        interned, and the column too if columns are shared."""
        g = math.gcd(den, *table.values()) if den != 1 else 1
        intern = self.table.setdefault
        col = tuple([(intern(t, t), n // g) for t, n in table.items()])
        return den // g, intern(col, col) if self.share_columns else col


class Terms:
    """A sparse exact linear combination of basis keys.

    ``terms`` maps each key to a nonzero Fraction; the zero element is the
    empty table.  Elements may be inhomogeneous; graded operations act
    componentwise.  A subclass supplies its keys' degree (``key_degree``),
    differential (``key_differential``, as (key, coefficient) pairs) and
    rendering (``render_key``), what else tells its values apart (``kind``)
    and how to build a value of its own kind (``_like``); everything else
    is written here once.
    """

    __slots__ = ("terms",)

    kind = None

    def __init__(self, terms: dict | None = None):
        self.terms: dict = {
            k: c if type(c) is Fraction else Fraction(c)
            for k, c in terms.items() if c} if terms else {}

    def _like(self, terms: dict):
        return type(self)(terms)

    def _require_kind(self, other: "Terms") -> None:
        if type(other) is not type(self) or other.kind != self.kind:
            raise ValueError(f"{type(self).__name__} mismatch: "
                             f"{self.kind!r} vs {other.kind!r}")

    # ---- structure ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {self.key_degree(k) for k in self.terms}

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = self.degrees()
        if degree is None:
            return len(degs) <= 1
        return degs <= {degree}

    # ---- arithmetic ---------------------------------------------------
    def __add__(self, other):
        self._require_kind(other)
        terms = dict(self.terms)
        add_column(terms, 1, other.terms.items())
        return self._like(terms)

    def __sub__(self, other):
        self._require_kind(other)
        terms = dict(self.terms)
        add_column(terms, -1, other.terms.items())
        return self._like(terms)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        return self._like({k: c * v for k, v in self.terms.items()} if c else {})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def d(self):
        """The differential: the sum of each key's differential."""
        out: dict = {}
        for k, c in self.terms.items():
            add_column(out, c, self.key_differential(k))
        return self._like(out)

    # ---- comparisons / rendering --------------------------------------
    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.kind == self.kind \
            and other.terms == self.terms

    def __hash__(self):
        return hash((self.kind, frozenset(self.terms.items())))

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(),
                      key=lambda kv: (self.key_degree(kv[0]), kv[0]))

    def __str__(self) -> str:
        return render_terms(
            [(c, self.render_key(k)) for k, c in self.sorted_terms()])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.kind!r}, {self.terms!r})"


class Form(Terms):
    """A sparse exact-coefficient element of the calculus over k[gen]: a
    table from exponent words to nonzero Fractions."""

    __slots__ = ("gen",)

    def __init__(self, gen: str, terms: dict[Word, Fraction] | None = None):
        self.gen = gen
        super().__init__(terms)

    def _like(self, terms: dict) -> "Form":
        return Form(self.gen, terms)

    @property
    def kind(self) -> str:
        return self.gen

    key_degree = staticmethod(word_degree)

    @staticmethod
    def key_differential(word: Word):
        return word_differential(word).items()

    def render_key(self, word: Word) -> str:
        return render_word(self.gen, word)

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

    # ---- product ------------------------------------------------------
    def __mul__(self, other) -> "Form":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_kind(other)
        terms: dict[Word, Fraction] = {}
        for u, cu in self.terms.items():
            add_column(terms, cu, [(word_mul(u, v), cv)
                                   for v, cv in other.terms.items()])
        return Form(self.gen, terms)

    def scaled_generator(self, factor: Fraction) -> "Form":
        """Substitute t -> factor * t; defined on degree-0 elements only."""
        if not self.is_homogeneous(0) and not self.is_zero:
            raise ValueError("generator substitution needs a degree-0 element")
        return Form(self.gen, {w: c * factor ** w[0] for w, c in self.terms.items()})


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
        if tok[0] == "-" and len(tok) > 1 and not RATIONAL_RE.fullmatch(tok):
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
        if RATIONAL_RE.fullmatch(tok):
            if word is not None or coeff is not None:
                raise ValueError(f"unexpected coefficient {tok!r} in {text!r}")
            coeff = parse_rational(tok)
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
                exponent = parse_int(tok[len(gen) + 1:])
                if exponent < 0:
                    raise ValueError(f"negative exponent in {tok!r}")
                word[-1] += exponent
            else:
                raise ValueError(f"bad factor {tok!r} for generator {gen!r}")
    if dangling:
        raise ValueError(f"sign without a term in {text!r}")
    flush()
    return result
