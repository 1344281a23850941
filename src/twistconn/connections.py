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

Free modules carry the symmetric bimodule structure (a . e_k = e_k . a).
A bimodule connection is a connection together with a swap map from
1-forms-tensor-module to module-tensor-1-forms, specified by its values on
d(gen) ⊗ e_k and extended by bimodule linearity; the classical choice is
the flip.  The checkers here decide the identities of one factor; the
product module's swap lives in ``bimodule``.
"""

from __future__ import annotations

from typing import Sequence

from .forms import Caps, Form, add_column, word_mul
from .reports import CheckResult, run_cases

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


class FormSwap:
    """Bimodule morphism on a free module, given on d(gen) ⊗ basis.

    ``values[l][k]`` is the 1-form paired with e_l in the image of
    d(gen) ⊗ e_k; extension to general inputs uses bimodule linearity
    over the symmetric structure.  The classical flip has identity-times-dgen
    values.
    """

    def __init__(self, gen: str, rank: int, values):
        self.gen = gen
        self.rank = rank
        self.values = [list(row) for row in values]
        if len(self.values) != rank or any(len(r) != rank for r in self.values):
            raise ValueError("swap values must be a rank x rank matrix")
        for row in self.values:
            for entry in row:
                if entry.gen != gen:
                    raise ValueError("swap generator mismatch")
                if not entry.is_zero and not entry.is_homogeneous(1):
                    raise ValueError("swap values must be 1-forms")

    @classmethod
    def flip(cls, gen: str, rank: int) -> "FormSwap":
        d = Form.d_gen(gen)
        zero = Form.zero(gen)
        return cls(gen, rank,
                   [[d if i == j else zero for j in range(rank)]
                    for i in range(rank)])

    def apply(self, one_form: Form, coords) -> list[Form]:
        """Swap a 1-form past a coordinate vector of degree-0 entries."""
        if one_form.gen != self.gen:
            raise ValueError("swap generator mismatch")
        if not one_form.is_zero and not one_form.is_homogeneous(1):
            raise ValueError("swap needs a homogeneous 1-form")
        # out[l] += c t^a · values[l][k] · t^b coords[k], word by word
        out: list[dict] = [{} for _ in range(self.rank)]
        for (a, b), c in one_form.terms.items():
            for k, coord in enumerate(coords):
                tail = [(word_mul((b,), v), cv) for v, cv in coord.terms.items()]
                for l, acc in enumerate(out):
                    for u, cu in self.values[l][k].terms.items():
                        head = word_mul((a,), u)
                        add_column(acc, c * cu, [(word_mul(head, v), cv)
                                                 for v, cv in tail])
        return [Form(self.gen, acc) for acc in out]


def check_bimodule_connection(conn: ModuleConnection, swap: FormSwap,
                              caps: Caps) -> CheckResult:
    """Defining identity of a bimodule connection on monomial inputs."""
    if swap.gen != conn.gen or swap.rank != conn.rank:
        raise ValueError("swap and connection must share module data")
    gen = conn.gen
    E = caps.max_exponent

    def cases():
        for c_exp in range(E + 1):
            a = Form.gen_power(gen, c_exp)
            da = a.d()
            for k in range(conn.rank):
                for i in range(E + 1):
                    vec = conn.zero_vector()
                    vec[k] = Form.gen_power(gen, i)
                    rhs = [a * w + extra for w, extra in
                           zip(conn.nabla_monomial(k, i), swap.apply(da, vec))]
                    yield None if conn.nabla_monomial(k, c_exp + i) == rhs \
                        else f"gen^{c_exp} . e_{k + 1} gen^{i}"

    return run_cases(f"bimodule-connection-{gen}", cases(), generator=gen)
