"""Exact rational scalars and small dense matrices.

Everything downstream is exact: scalars are ``fractions.Fraction`` (always
reduced, positive denominator) and matrices are immutable tuples of tuples
of Fractions.  Only the handful of dense operations the module twisting
maps need are provided.
"""

from __future__ import annotations

import re
from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]

# the one number grammar of scenario text and the command line, in ASCII
# digits (\d takes any Unicode digit); rationals for q, matrices and forms
RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_int(text: str) -> int:
    """Parse ``"3"``, ``"-1"`` style integers, ``[+-]?[0-9]+``."""
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise ValueError(f"bad integer {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse ``"3"``, ``"-3/2"`` style rationals, ``[+-]?[0-9]+(/[0-9]+)?``."""
    text = text.strip()
    if not RATIONAL_RE.fullmatch(text):
        raise ValueError(f"bad rational {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def to_matrix(rows) -> Matrix:
    mat = tuple(tuple(Fraction(v) for v in row) for row in rows)
    if not mat or any(len(row) != len(mat) for row in mat):
        raise ValueError("matrix must be square and nonempty")
    return mat


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def mat_inv(a: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises ValueError on a singular matrix."""
    n = len(a)
    aug = [list(a[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is not invertible")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class MatrixPowers:
    """Cached integer powers (both signs) of an invertible matrix."""

    def __init__(self, mat: Matrix):
        self.mat = to_matrix(mat)
        self._inv = mat_inv(self.mat)  # validates invertibility up front
        self._cache: dict[int, Matrix] = {0: identity(len(self.mat))}

    @property
    def size(self) -> int:
        return len(self.mat)

    def power(self, k: int) -> Matrix:
        cache = self._cache
        if k not in cache:
            if k > 0:
                cache[k] = mat_mul(self.power(k - 1), self.mat)
            else:
                cache[k] = mat_mul(self.power(k + 1), self._inv)
        return cache[k]
