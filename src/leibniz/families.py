"""Constructors for the classified algebra families and the proof procedures.

Family ids follow the classification: `cyclic` (the canonical nilpotent
cyclic algebra), the two 2-dimensional algebras `L1`/`L2`, the nilpotent
extensions `A-i` / `A-ii` / `A-iii` of a maximal cyclic subalgebra, the
non-nilpotent scaling extension `B`, and its characteristic-0 eigenbasis
form `C`.  The `A-iii` table carries a documented index ambiguity for the
[a1, s] product, selected by the `convention` flag ("printed" vs
"derived"); the `B` table is valid only for gamma_2 = 0.  Every
constructor ends in `LeibnizAlgebra`, which checks the identity, so
parameters off the valid locus (gamma_2 != 0 for `B`, a nonzero "printed"
tau for `A-iii`) raise `LeibnizIdentityError` with the violated triples.
Table entries may be plain ints such as -1 or j: `LeibnizAlgebra` brings
every entry into the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import LeibnizAlgebra
from .cyclic import is_canonical_cyclic
from .linalg import (
    Field,
    Matrix,
    Scalar,
    Subspace,
    Vector,
    linear_combination,
    solve,
    vec_scale,
    vec_sub,
)

CONVENTIONS = ("printed", "derived")


def _cyclic_entries(field: Field, n: int) -> dict:
    entries: dict = {}
    for m in range(n - 1):
        entries[(0, m)] = {m + 1: field.one}
    return entries


def abelian(n: int, field: Field) -> LeibnizAlgebra:
    """Zero bracket in dimension n."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return LeibnizAlgebra.from_brackets(field, n, {})


def cyclic_nilpotent(n: int, field: Field) -> LeibnizAlgebra:
    """Canonical cyclic nilpotent table: [a1, a1] = a2, [a1, a_{j-1}] = a_j."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return LeibnizAlgebra.from_brackets(field, n, _cyclic_entries(field, n))


def dim2_l1(field: Field) -> LeibnizAlgebra:
    """L1: [a, a] = b, everything else zero; nilpotent of class 2."""
    return LeibnizAlgebra.from_brackets(field, 2, {(0, 0): {1: field.one}})


def dim2_l2(field: Field) -> LeibnizAlgebra:
    """L2: [c, c] = [c, d] = d, everything else zero; not nilpotent."""
    return LeibnizAlgebra.from_brackets(field, 2, {(0, 0): {1: field.one}, (0, 1): {1: field.one}})


def family_a_i(n: int, field: Field) -> LeibnizAlgebra:
    """Type A-i: K + <d> with [d, d] = 0 and [K, d] = [d, K] = 0."""
    if n < 2:
        raise ValueError("the cyclic part must have dimension >= 2")
    return LeibnizAlgebra.from_brackets(field, n + 1, _cyclic_entries(field, n))


def family_a_ii(n: int, field: Field) -> LeibnizAlgebra:
    """Type A-ii: as A-i but [d, d] = a_n (a definite representative of the family)."""
    if n < 2:
        raise ValueError("the cyclic part must have dimension >= 2")
    entries = _cyclic_entries(field, n)
    entries[(n, n)] = {n - 1: field.one}
    return LeibnizAlgebra.from_brackets(field, n + 1, entries)


def quaternion_analog(field: Field) -> LeibnizAlgebra:
    """The 3-dimensional sum of two cyclic 2-dimensional ideals meeting in the center."""
    return family_a_ii(2, field)


def family_a_iii(
    n: int,
    t: int,
    gammas: Sequence[Scalar],
    tau: Scalar,
    field: Field,
    convention: str,
) -> LeibnizAlgebra:
    """Type A-iii: s shifts the cyclic chain by t - 1 with a gamma band.

    `convention` selects the index of the single [a1, s] product: "printed"
    places it at a_{n-t}, "derived" at a_{n-t+2}; "printed" with t = n names
    a_0, so a nonzero tau there is a ValueError.  The identity is
    parameter-dependent: a table that violates it raises
    `LeibnizIdentityError`.
    """
    if n < 2:
        raise ValueError("the cyclic part must have dimension >= 2")
    if not 2 <= t <= n:
        raise ValueError("need 2 <= t <= n")
    if len(gammas) != n - t:
        raise ValueError(f"expected {n - t} gamma coefficients, got {len(gammas)}")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    gammas = tuple(field.of(g) for g in gammas)
    tau = field.of(tau)
    entries = _cyclic_entries(field, n)
    for j in range(1, n - t + 2):  # [s, a_j], 1-based j
        vec = {t + j - 2: field.one}
        for u in range(t + 1, n - j + 2):
            g = gammas[u - t - 1]
            if g:
                vec[u + j - 2] = g
        entries[(n, j - 1)] = vec
    if tau:
        idx = n - t if convention == "printed" else n - t + 2
        if idx < 1:
            raise ValueError("printed tau needs t < n: its index a_{n-t} would be a_0")
        entries[(0, n)] = {idx - 1: tau}
    return LeibnizAlgebra.from_brackets(field, n + 1, entries)


def family_b(
    n: int, gammas: Sequence[Scalar], delta: Scalar, field: Field
) -> LeibnizAlgebra:
    """Type B: d scales a_j by j, with a gamma band and the compensating [d, d].

    `gammas` lists gamma_2 .. gamma_n.  The table is the displayed one:
    [a1, d] = -a1, [d, a_j] = j a_j + sum_u gamma_u a_{u+j-1}, and
    [d, d] = -(gamma_3 a_2 + ... + gamma_n a_{n-1}) + delta a_n.  Only
    gamma_2 = 0 satisfies the identity; any other value raises
    `LeibnizIdentityError`, whose violations show the forcing.
    """
    if n < 2:
        raise ValueError("the cyclic part must have dimension >= 2")
    if len(gammas) != n - 1:
        raise ValueError(f"expected {n - 1} gamma coefficients, got {len(gammas)}")
    gammas = tuple(field.of(g) for g in gammas)
    delta = field.of(delta)
    entries = _cyclic_entries(field, n)
    entries[(0, n)] = {0: -1}
    for j in range(1, n + 1):  # [d, a_j]
        vec = {j - 1: j}
        for u in range(2, n - j + 2):
            g = gammas[u - 2]
            if g:
                vec[u + j - 2] = vec.get(u + j - 2, 0) + g
        entries[(n, j - 1)] = vec
    dd = {}
    for u in range(3, n + 1):
        g = gammas[u - 2]
        if g:
            dd[u - 2] = -g
    if delta:
        dd[n - 1] = dd.get(n - 1, 0) + delta
    if dd:
        entries[(n, n)] = dd
    return LeibnizAlgebra.from_brackets(field, n + 1, entries)


def family_c(n: int, field: Field) -> LeibnizAlgebra:
    """Type C: [s, b_j] = j b_j, [b1, s] = -b1 over a characteristic-0 field.

    This is the type-B table with every gamma and delta zero.
    """
    if field.characteristic != 0:
        raise ValueError("this family requires characteristic 0")
    return family_b(n, [0] * (n - 1), 0, field)


# -- proof procedures -------------------------------------------------------

def _coerced_chain(algebra: LeibnizAlgebra, k_rows: Sequence[Vector], b: Vector) -> tuple[list[Vector], Vector]:
    """The caller's K basis and b as field values; raises unless K is canonical cyclic and b is outside K."""
    field = algebra.field
    k_rows = [tuple([field.of(v) for v in row]) for row in k_rows]
    if not is_canonical_cyclic(algebra, k_rows):
        raise ValueError("basis is not a canonical cyclic chain")
    k = Subspace._span(field, algebra.dim, k_rows)
    b = tuple(k._field_values(b))
    if k._contains_all((b,)):
        raise ValueError("b must lie outside K")
    return k_rows, b


def _k_coords(field: Field, k_rows: Sequence[Vector], v: Vector) -> Vector | None:
    return solve(Matrix(field, k_rows, _coerced=True).transpose(), v)


def nilpotent_complement(
    algebra: LeibnizAlgebra, k_rows: Sequence[Vector], b: Vector
) -> Vector:
    """Shift b by an element of K so that the result d satisfies [K, d] = 0.

    Requires a canonical cyclic basis of the ideal K and [a1, b] in
    span{a2..an}; returns d = b - (beta_2 a_1 + ... + beta_n a_{n-1}).
    """
    field = algebra.field
    k_rows, b = _coerced_chain(algebra, k_rows, b)
    coords = _k_coords(field, k_rows, algebra.bracket(k_rows[0], b))
    if coords is None:
        raise ValueError("[a1, b] does not lie in K")
    if coords[0]:
        raise ValueError("[a1, b] has an a1-component; the nilpotency hypothesis fails")
    # d = b - (beta_2 a_1 + ... + beta_n a_{n-1})
    d = vec_sub(field, b, linear_combination(field, (*coords[1:], 0), k_rows))
    if any(algebra.bracket(k_rows[0], d)):
        raise AssertionError("normalization failed to annihilate [a1, d]")
    if any(any(algebra.bracket(k, d)) for k in k_rows):
        raise ValueError("[K, d] != 0; K is not acting as in the nilpotent case")
    return d


def scaling_complement(
    algebra: LeibnizAlgebra, k_rows: Sequence[Vector], b: Vector
) -> Vector:
    """Rescale and shift b so that the result d satisfies [a1, d] = -a1 exactly.

    Requires [b, a1] = beta_1 a1 + ... with beta_1 != 0 (the non-nilpotent
    case split).
    """
    field = algebra.field
    k_rows, b = _coerced_chain(algebra, k_rows, b)
    coords = _k_coords(field, k_rows, algebra.bracket(b, k_rows[0]))
    if coords is None:
        raise ValueError("[b, a1] does not lie in K")
    beta1 = coords[0]
    if not beta1:
        raise ValueError("[b, a1] has no a1-component; the algebra is in the nilpotent case")
    b = vec_scale(field, field.inv(beta1), b)
    coords = _k_coords(field, k_rows, algebra.bracket(k_rows[0], b))
    if coords is None:
        raise ValueError("[a1, b] does not lie in K")
    if coords[0] != field.reduce(-1):
        raise AssertionError("[a1, b] is not -a1 modulo Leib after rescaling")
    # d = b - (sigma_2 a_1 + ... + sigma_n a_{n-1})
    d = vec_sub(field, b, linear_combination(field, (*coords[1:], 0), k_rows))
    a1 = k_rows[0]
    expected = vec_scale(field, -1, a1)
    if algebra.bracket(a1, d) != expected:
        raise AssertionError("normalization failed to reach [a1, d] = -a1")
    return d


@dataclass(frozen=True)
class EigenReduction:
    """Result of reducing a type-B algebra to its type-C eigenbasis."""

    lambdas: tuple[Scalar, ...]  # lambda_2 .. lambda_n
    s: Vector
    b_rows: tuple[Vector, ...]
    transition: Matrix


def _require_b_form(algebra: LeibnizAlgebra) -> None:
    """Raise unless the table is `family_b`'s for the gammas and delta it carries."""
    field = algebra.field
    n = algebra.dim - 1
    if n < 2:
        raise ValueError("need total dimension >= 3")
    t = algebra.tensor
    gammas = t[n][0][1:n]  # [d, a1] = a1 + gamma_2 a2 + ... + gamma_n an
    if gammas[0]:
        raise ValueError("type-B input must have gamma_2 = 0")
    if t != family_b(n, gammas, t[n][n][n - 1], field).tensor:
        raise ValueError("input is not in type-B form")


def eigenbasis_reduction(algebra: LeibnizAlgebra) -> EigenReduction:
    """Solve for x with [d, d] = [d, x], set s = d - x, and build the eigenbasis.

    The linear system is triangular with diagonal 2, 3, ..., n, hence
    uniquely solvable whenever the characteristic divides none of them.
    Postconditions are verified exactly: [s, s] = 0, [b1, s] = -b1,
    [s, b_j] = j b_j, [b1, b_{j-1}] = b_j, [b1, b_n] = 0.
    """
    field = algebra.field
    n = algebra.dim - 1
    if 0 < field.characteristic <= n:
        raise ValueError(
            f"a diagonal coefficient vanishes in GF({field.characteristic}); need characteristic 0 or > n"
        )
    _require_b_form(algebra)
    t = algebra.tensor
    rows = [[t[n][j - 1][l] for j in range(2, n + 1)] for l in range(1, n)]
    rhs = [t[n][n][l] for l in range(1, n)]
    lambdas = solve(Matrix(field, rows, _coerced=True), rhs)
    if lambdas is None:
        raise AssertionError("the triangular system is singular")

    def ambient(coeffs: dict[int, Scalar]) -> Vector:
        v = [field.zero] * (n + 1)
        for k, c in coeffs.items():
            v[k] = c
        return tuple(v)

    x = ambient({j - 1: lambdas[j - 2] for j in range(2, n + 1)})
    d = ambient({n: field.one})
    s = vec_sub(field, d, x)
    if any(algebra.bracket(s, s)):
        raise AssertionError("[s, s] != 0 after reduction")

    b1 = ambient({0: field.one} | {j: lambdas[j - 2] for j in range(2, n)})
    b_rows = [b1]
    for _ in range(n - 1):
        b_rows.append(algebra.bracket(b1, b_rows[-1]))
    if any(algebra.bracket(b1, b_rows[-1])):
        raise AssertionError("[b1, b_n] != 0 after reduction")
    minus_b1 = vec_scale(field, -1, b1)
    if algebra.bracket(b1, s) != minus_b1:
        raise AssertionError("[b1, s] != -b1 after reduction")
    for j, bj in enumerate(b_rows, start=1):
        if algebra.bracket(s, bj) != vec_scale(field, j, bj):
            raise AssertionError(f"[s, b_{j}] != {j} b_{j} after reduction")
        if bj[n]:
            raise AssertionError("eigenbasis vector leaves K")
    transition = Matrix(field, [row[:n] for row in b_rows], _coerced=True)
    if transition.rank() != n:
        raise AssertionError("transition matrix is singular")
    return EigenReduction(tuple(lambdas), s, tuple(b_rows), transition)
