"""Connections on free one-sided modules over a single polynomial algebra.

A rank-m free module is represented by its coordinate vectors: length-m
sequences of forms over the module's generator.  A connection is the
componentwise differential plus a gauge potential, an m x m matrix of
1-forms acting by matrix multiplication from the left of the coordinates:

    nabla(v)_k = d(v_k) + sum_l potential[k][l] * v_l.

The zero potential gives the Grassmann connection, which is flat.  The same
formula extends the connection to coordinates of any form degree, and the
curvature is the square of that extension; on degree-0 vectors it acts by
the right-linear curvature matrix d(potential) + potential * potential.
"""

from __future__ import annotations

from typing import Sequence

from .forms import Form

Vector = list[Form]


class ModuleConnection:
    """Free-module connection: generator symbol, rank, gauge potential."""

    def __init__(self, gen: str, rank: int,
                 potential: Sequence[Sequence[Form]] | None = None):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.gen = gen
        self.rank = rank
        if potential is None:
            potential = [[Form.zero(gen) for _ in range(rank)] for _ in range(rank)]
        self.potential = [list(row) for row in potential]
        if len(self.potential) != rank or any(len(r) != rank for r in self.potential):
            raise ValueError("potential must be a rank x rank matrix")
        for row in self.potential:
            for entry in row:
                if entry.gen != gen:
                    raise ValueError("potential generator mismatch")
                if not entry.is_zero and not entry.is_homogeneous(1):
                    raise ValueError("potential entries must be 1-forms")
        self._curvature: list[list[Form]] | None = None
        self._monomials: dict[tuple[int, int], Vector] = {}

    @classmethod
    def grassmann(cls, gen: str, rank: int) -> "ModuleConnection":
        return cls(gen, rank)

    @property
    def is_grassmann(self) -> bool:
        return all(e.is_zero for row in self.potential for e in row)

    def _check_vector(self, vec: Sequence[Form]) -> None:
        if len(vec) != self.rank:
            raise ValueError(f"vector rank {len(vec)} != module rank {self.rank}")
        for entry in vec:
            if entry.gen != self.gen:
                raise ValueError("vector generator mismatch")

    def zero_vector(self) -> Vector:
        return [Form.zero(self.gen) for _ in range(self.rank)]

    def basis_vector(self, k: int) -> Vector:
        vec = self.zero_vector()
        vec[k] = Form.unit(self.gen)
        return vec

    def nabla(self, vec: Sequence[Form]) -> Vector:
        """Covariant derivative; raises the form degree by one."""
        self._check_vector(vec)
        out = []
        for k in range(self.rank):
            acc = vec[k].d()
            for l in range(self.rank):
                entry = self.potential[k][l]
                if not entry.is_zero and not vec[l].is_zero:
                    acc = acc + entry * vec[l]
            out.append(acc)
        return out

    def nabla_monomial(self, k: int, e: int) -> Vector:
        """nabla of gen^e in slot k; kept, as the potential never changes."""
        if (k, e) not in self._monomials:
            vec = self.zero_vector()
            vec[k] = Form.gen_power(self.gen, e)
            self._monomials[(k, e)] = self.nabla(vec)
        return self._monomials[(k, e)]

    def curvature_apply(self, vec: Sequence[Form]) -> Vector:
        """nabla twice; degree +2."""
        return self.nabla(self.nabla(vec))

    def curvature_matrix(self) -> list[list[Form]]:
        """Columns are the curvature of the standard basis vectors.

        Equals d(potential) + potential * potential.
        """
        if self._curvature is None:
            cols = [self.curvature_apply(self.basis_vector(k))
                    for k in range(self.rank)]
            self._curvature = [[cols[k][l] for k in range(self.rank)]
                               for l in range(self.rank)]
        return self._curvature
