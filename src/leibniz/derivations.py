"""Derivation and right-derivation spaces as kernels of linear systems.

A linear map f is a derivation when f([a,b]) = [f(a), b] + [a, f(b)], and a
right derivation when g([x,y]) = [x, g(y)] - [y, g(x)].  Both identities are
bilinear in (a, b), so they hold everywhere once they hold on basis pairs,
and the vectors a on which they hold for every b form a subalgebra
(`core` module docstring).  So they are imposed on the pairs (e_g, e_j)
with g in a generating set G (`core._generators`) and every j: a
|G|·n^2 x n^2 linear system in the matrix entries, in place of n^3 x n^2,
whose kernel is the derivation space.  The unknowns are the matrix entries
in row-major order, and the kernel basis is the canonical (RREF) one, so
it is the same for any generating set and any order of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    LeibnizAlgebra,
    _generators,
    center,
    leibniz_kernel,
    left_center,
    right_center,
    upper_central_series,
)
from .cyclic import is_canonical_cyclic
from .linalg import Matrix, Scalar, Subspace, _kernel, basis_vector, linear_combination, vec_add, vec_sub


def left_mult_matrix(algebra: LeibnizAlgebra, a: Sequence[Scalar]) -> Matrix:
    """Matrix of x -> [a, x] in the standard basis: column m is [a, e_m]."""
    field = algebra.field
    a = tuple(field.of(v) for v in a)
    cols = [algebra.bracket(a, e) for e in Subspace.full(field, algebra.dim).rows]
    return Matrix(field, zip(*cols), _coerced=True)


def right_mult_matrix(algebra: LeibnizAlgebra, a: Sequence[Scalar]) -> Matrix:
    """Matrix of x -> [x, a] in the standard basis: column m is [e_m, a]."""
    field = algebra.field
    a = tuple(field.of(v) for v in a)
    cols = [algebra.bracket(e, a) for e in Subspace.full(field, algebra.dim).rows]
    return Matrix(field, zip(*cols), _coerced=True)


@dataclass(frozen=True)
class DerivationBasis:
    """Canonical kernel basis of a derivation constraint system."""

    kind: str  # "left-derivation" | "right-derivation"
    basis: tuple[Matrix, ...]
    dim: int


def _constraint_rows(algebra: LeibnizAlgebra, kind: str, firsts: Sequence[int]) -> list[dict[int, Scalar]]:
    """The nonzero constraint rows of the pairs (e_i, e_j), i in firsts, as ``{unknown: nonzero value}``.

    They are filled from the nonzero table entries.  Every row is linear in
    the tensor, so the rows are taken from the integer table c·T: c times
    the true rows, in integers, with the same kernel.  With firsts a
    generating set the kernel is the whole derivation space; with
    ``range(n)`` it is the full system.
    """
    n = algebra.dim
    nz = algebra._table
    left = kind == "left-derivation"
    # only the nonzero cells (m, entries) that the rows read, found once per
    # call: -[e_i, e_m] for i in firsts, and for every j -[e_m, e_j] (left
    # kind) or [e_j, e_m] (right kind)
    neg_row = {i: [(m, [(l, -c) for l, c in cell]) for m, cell in enumerate(nz[i]) if cell] for i in firsts}
    if left:
        jcells = [[(m, [(l, -c) for l, c in nz[m][j]]) for m in range(n) if nz[m][j]] for j in range(n)]
    else:
        jcells = [[(m, cell) for m, cell in enumerate(plane) if cell] for plane in nz]
    rows = []
    for i in firsts:
        for j in range(n):
            # the rows (i, j, l) for every l
            acc: list[dict[int, Scalar]] = [{} for _ in range(n)]
            for m, c in nz[i][j]:
                for l in range(n):
                    acc[l][l * n + m] = c
            terms = ((jcells[j], i), (neg_row[i], j)) if left else ((neg_row[i], j), (jcells[j], i))
            for cells, col in terms:
                for m, entries in cells:
                    k = m * n + col
                    for l, c in entries:
                        row = acc[l]
                        row[k] = row[k] + c if k in row else c
            for row in acc:
                if not all(row.values()):
                    row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


def _kernel_basis(algebra: LeibnizAlgebra, kind: str, gens: Sequence[int]) -> DerivationBasis:
    """The derivations of the given kind, from the rows of the generators gens."""
    n = algebra.dim
    field = algebra.field
    kern = _kernel(field, n * n, _constraint_rows(algebra, kind, gens))
    mats = tuple([
        Matrix(field, [row[r * n : (r + 1) * n] for r in range(n)], _coerced=True)
        for row in kern.rows
    ])
    return DerivationBasis(kind, mats, kern.dim)


def derivation_space(algebra: LeibnizAlgebra) -> DerivationBasis:
    return _kernel_basis(algebra, "left-derivation", _generators(algebra))


def right_derivation_space(algebra: LeibnizAlgebra) -> DerivationBasis:
    return _kernel_basis(algebra, "right-derivation", _generators(algebra))


def is_derivation(algebra: LeibnizAlgebra, m: Matrix) -> bool:
    """Exact check of f([a,b]) = [f(a), b] + [a, f(b)] on all basis pairs."""
    return _satisfies(algebra, m, "left-derivation")


def is_right_derivation(algebra: LeibnizAlgebra, m: Matrix) -> bool:
    """Exact check of g([x,y]) = [x, g(y)] - [y, g(x)] on all basis pairs."""
    return _satisfies(algebra, m, "right-derivation")


def _satisfies(algebra: LeibnizAlgebra, m: Matrix, kind: str) -> bool:
    n = algebra.dim
    field = algebra.field
    if m.field != field or (m.nrows, m.ncols) != (n, n):
        raise ValueError("matrix shape or field differs from the algebra")
    cols = [m.column(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = linear_combination(field, algebra.basis_bracket(i, j), cols)
            e_i, e_j = basis_vector(field, n, i), basis_vector(field, n, j)
            if kind == "left-derivation":
                rhs = vec_add(field, algebra.bracket(cols[i], e_j), algebra.bracket(e_i, cols[j]))
            else:
                rhs = vec_sub(field, algebra.bracket(e_i, cols[j]), algebra.bracket(e_j, cols[i]))
            if lhs != rhs:
                return False
    return True


# -- structure of derivations of the canonical cyclic algebra ---------------

@dataclass(frozen=True)
class CyclicDerivationProfile:
    """Banded lower-triangular shape of a derivation of the canonical cyclic algebra.

    The matrix is determined by its first column (gamma_1 .. gamma_n): the
    diagonal is (gamma_1, 2 gamma_1, ..., n gamma_1) and each lower band is
    constant, f(a_k) = k gamma_1 a_k + sum_{t>=2} gamma_t a_{t+k-1}.
    """

    gammas: tuple[Scalar, ...]


@dataclass(frozen=True)
class CyclicRightDerivationProfile:
    """Right derivations of the canonical cyclic algebra: free on a_1, zero beyond.

    g(a_1) = rho_1 a_1 + ... + rho_n a_n and g(a_j) = 0 for j >= 2.
    """

    rhos: tuple[Scalar, ...]


def _require_canonical_cyclic(algebra: LeibnizAlgebra) -> None:
    if not is_canonical_cyclic(algebra, Subspace.full(algebra.field, algebra.dim).rows):
        raise ValueError("algebra is not the canonical cyclic nilpotent table")


def extract_cyclic_derivation_profile(
    algebra: LeibnizAlgebra, m: Matrix
) -> CyclicDerivationProfile | None:
    """Read gammas off the first column and verify the banded pattern; None on mismatch."""
    _require_canonical_cyclic(algebra)
    if not is_derivation(algebra, m):
        raise ValueError("matrix is not a derivation")
    reduce = algebra.field.reduce
    n = algebra.dim
    gammas = m.column(0)
    for k in range(1, n + 1):
        expected = [0] * n
        expected[k - 1] = k * gammas[0]
        for t in range(2, n - k + 2):
            expected[t + k - 2] += gammas[t - 1]
        if m.column(k - 1) != tuple(map(reduce, expected)):
            return None
    return CyclicDerivationProfile(tuple(gammas))


def extract_cyclic_right_derivation_profile(
    algebra: LeibnizAlgebra, m: Matrix
) -> CyclicRightDerivationProfile | None:
    """Read rhos off the first column; columns 2..n must vanish.  None on mismatch."""
    _require_canonical_cyclic(algebra)
    if not is_right_derivation(algebra, m):
        raise ValueError("matrix is not a right derivation")
    for k in range(1, algebra.dim):
        if any(m.column(k)):
            return None
    return CyclicRightDerivationProfile(tuple(m.column(0)))


# -- invariance of the distinguished subspaces ------------------------------

@dataclass(frozen=True)
class InvarianceReport:
    """Containment checks for the image of a (right) derivation."""

    kind: str
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def check_invariance(algebra: LeibnizAlgebra, m: Matrix, kind: str) -> InvarianceReport:
    """Verify the invariance theorems for one derivation of the given kind.

    Left derivations must preserve the left/right centers, the center and
    every upper central series term; right derivations must map the left
    center into the right center and annihilate the Leibniz kernel.
    """

    cols = [m.column(i) for i in range(m.ncols)]

    def maps_into(source: Subspace, target: Subspace) -> bool:
        return target._contains_all(linear_combination(algebra.field, r, cols) for r in source.rows)

    checks: list[tuple[str, bool]] = []
    if kind == "left-derivation":
        if not is_derivation(algebra, m):
            raise ValueError("matrix is not a derivation")
        checks.append(("left_center", maps_into(left_center(algebra), left_center(algebra))))
        checks.append(("right_center", maps_into(right_center(algebra), right_center(algebra))))
        checks.append(("center", maps_into(center(algebra), center(algebra))))
        for k, term in enumerate(upper_central_series(algebra), start=1):
            checks.append((f"upper_series_{k}", maps_into(term, term)))
    elif kind == "right-derivation":
        if not is_right_derivation(algebra, m):
            raise ValueError("matrix is not a right derivation")
        checks.append(("left_center_into_right_center", maps_into(left_center(algebra), right_center(algebra))))
        zero = Subspace.zero(algebra.field, algebra.dim)
        checks.append(("leibniz_kernel_annihilated", maps_into(leibniz_kernel(algebra), zero)))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return InvarianceReport(kind, tuple(checks))
