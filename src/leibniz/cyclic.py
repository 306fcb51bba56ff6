"""Left-normed commutators and single-generator subalgebras.

The chain ln_1(a) = a, ln_{k+1}(a) = [a, ln_k(a)] spans the subalgebra
generated by a.  Cyclicity has one decision, `is_cyclic_subalgebra`, on
every field: a nilpotent S is cyclic iff dim S/[S,S] = 1, and then every
element outside the derived subspace [S,S] generates S ([S,S] lies in
every maximal subalgebra).  A non-nilpotent S is decided by the exhaustive
generator scan over a prime field and reported as `UNKNOWN` over the
rationals rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    LeibnizAlgebra,
    is_subalgebra,
    lower_central_series,
    nilpotency_class,
    product_subspace,
    restrict_to_subalgebra,
)
from .linalg import (
    Scalar,
    Subspace,
    Vector,
    basis_vector,
    linear_combination,
    nonzero_elements,
    zero_vector,
)

UNKNOWN = "unknown"
_MAX_COPIES = 5


def left_normed(algebra: LeibnizAlgebra, a: Sequence[Scalar], k: int) -> Vector:
    """ln_k(a): ln_1 = a, ln_{k+1} = [a, ln_k]."""
    if k < 1:
        raise ValueError("the commutator index must be >= 1")
    if len(a) != algebra.dim:
        raise ValueError("vector length differs from the algebra dimension")
    algebra.ensure_checked()
    v = tuple(algebra.field.of(x) for x in a)
    out = v
    for _ in range(k - 1):
        out = algebra.bracket(v, out)
    return out


@dataclass(frozen=True)
class CyclicProbe:
    """Generator, its independent ln-chain, and the subalgebra they span."""

    generator: Vector
    chain: tuple[Vector, ...]
    span: Subspace


def generated_subalgebra(algebra: LeibnizAlgebra, a: Sequence[Scalar]) -> CyclicProbe:
    """The subalgebra <a> = span{ln_k(a)}, with bracket closure verified.

    ln_1..ln_n suffice, n the dimension: once ln_{m+1} lies in
    span{ln_1..ln_m} that span is invariant under [a, -], so every later
    term lies in it too, and the chain is the first dim <a> terms.
    """
    algebra.ensure_checked()
    field = algebra.field
    n = algebra.dim
    if len(a) != n:
        raise ValueError("vector length differs from the algebra dimension")
    v = tuple(field.of(x) for x in a)
    terms = [v]
    for _ in range(n - 1):
        terms.append(algebra.bracket(v, terms[-1]))
    span = Subspace._span(field, n, list(terms))
    if not is_subalgebra(algebra, span):
        raise AssertionError("ln-chain span failed to close under the bracket")
    return CyclicProbe(v, tuple(terms[: span.dim]), span)


def generated_by(algebra: LeibnizAlgebra, vectors: Sequence[Sequence[Scalar]]) -> Subspace:
    """Smallest bracket-closed subspace containing the given vectors."""
    algebra.ensure_checked()
    span = Subspace.from_vectors(algebra.field, algebra.dim, vectors)
    while True:
        bigger = span.sum(product_subspace(algebra, span, span))
        if bigger == span:
            return span
        span = bigger


def _ln_tail_span(algebra: LeibnizAlgebra, a: Vector, k: int) -> Subspace:
    """span{ln_t(a) : t >= k}; stabilizes within ambient-dimension further steps."""
    vecs = []
    w = left_normed(algebra, a, k)
    for _ in range(algebra.dim + 1):
        vecs.append(w)
        w = algebra.bracket(a, w)
    return Subspace._span(algebra.field, algebra.dim, vecs)


@dataclass(frozen=True)
class PropositionReport:
    """Pass/fail for the single-generator structure facts, keyed i..vii."""

    results: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.results.values())


def _all_bracketings(algebra: LeibnizAlgebra, a: Vector, copies: int) -> list[Vector]:
    memo: dict[int, list[Vector]] = {1: [a]}

    def rec(k: int) -> list[Vector]:
        if k not in memo:
            out = []
            for split in range(1, k):
                for x in rec(split):
                    for y in rec(k - split):
                        out.append(algebra.bracket(x, y))
            memo[k] = out
        return memo[k]

    return rec(copies)


def proposition_check(algebra: LeibnizAlgebra, a: Sequence[Scalar]) -> PropositionReport:
    """Verify the ln-chain structure facts for one generator.

    (i) products of chain elements with the left factor beyond ln_1 vanish;
    (ii) every bracketing of up to _MAX_COPIES = 5 copies of a collapses to the
    matching ln or to zero; (iii)-(vi) the span statements for <a>, its
    derived subalgebra and its lower central series; (vii) [[x, y], z] = 0
    for x, y in <a> and z anywhere.
    """
    algebra.ensure_checked()
    field = algebra.field
    n = algebra.dim
    probe = generated_subalgebra(algebra, a)
    a = probe.generator
    chain = probe.chain
    results: dict[str, bool] = {}

    results["i"] = not any(
        any(algebra.bracket(x, y))
        for ki, x in enumerate(chain, start=1)
        if ki > 1
        for y in chain
    )

    ok = True
    for copies in range(2, _MAX_COPIES + 1):
        ln_k = left_normed(algebra, a, copies)
        for w in _all_bracketings(algebra, a, copies):
            if any(w) and w != ln_k:
                ok = False
    results["ii"] = ok

    results["iii"] = probe.span == generated_by(algebra, [a])

    derived = product_subspace(algebra, probe.span, probe.span)
    results["iv"] = derived == _ln_tail_span(algebra, a, 2)

    if probe.span.dim == 0:
        results["v"] = results["vi"] = True
    else:
        from .core import leibniz_kernel

        restricted = restrict_to_subalgebra(algebra, probe.span)

        def lift(sub: Subspace) -> Subspace:
            vecs = [linear_combination(field, row, probe.span.rows) for row in sub.rows]
            return Subspace._span(field, n, vecs)

        results["v"] = derived == lift(leibniz_kernel(restricted))

        series = lower_central_series(restricted)
        ok = True
        for k in range(1, len(chain) + 2):
            term = series[k - 1] if k <= len(series) else series[-1]
            if lift(term) != _ln_tail_span(algebra, a, k):
                ok = False
        results["vi"] = ok

    ok = True
    for x in chain:
        for y in chain:
            w = algebra.bracket(x, y)
            for z in range(n):
                if any(algebra.bracket(w, basis_vector(field, n, z))):
                    ok = False
    results["vii"] = ok

    return PropositionReport(results)


# -- cyclicity decisions -----------------------------------------------------

def cyclic_generator_by_scan(algebra: LeibnizAlgebra, s: Subspace) -> Vector | None:
    """Exhaustive generator search over a prime field.

    Scans the nonzero elements of S in the order of `nonzero_elements`
    (coefficient tuples against the canonical basis, lexicographic) and
    returns the first generator found.  `is_cyclic_subalgebra` calls it
    for a non-nilpotent S; the tests use it as the oracle for the rest.
    """
    if algebra.field.characteristic == 0:
        raise ValueError("exhaustive scan needs a finite field")
    if not is_subalgebra(algebra, s):
        raise ValueError("subspace is not a subalgebra")
    for v in nonzero_elements(s):
        if generated_subalgebra(algebra, v).span == s:
            return v
    return None


def is_cyclic_subalgebra(algebra: LeibnizAlgebra, s: Subspace):
    """A generator of S when S is cyclic; None when it is not; UNKNOWN when undecided.

    A nilpotent S is cyclic iff dim S - dim [S, S] = 1, on every field; the
    generator is the last canonical row of S outside [S, S].  Over GF(p)
    that is the scan's first generator: the coefficient tuples before it
    use only later rows, which lie in [S, S].  A non-nilpotent S is scanned
    over GF(p) and UNKNOWN over Q.
    """
    algebra.ensure_checked()
    if s.dim == 0:
        return None
    # raises ValueError when S is not closed under the bracket
    if nilpotency_class(restrict_to_subalgebra(algebra, s)) is None:
        return UNKNOWN if algebra.field.characteristic == 0 else cyclic_generator_by_scan(algebra, s)
    derived = product_subspace(algebra, s, s)
    if s.dim - derived.dim != 1:
        return None
    generator = next(row for row in reversed(s.rows) if any(derived._residual(row)))
    if generated_subalgebra(algebra, generator).span != s:
        raise AssertionError("an element outside [S, S] failed to generate the nilpotent S")
    return generator


def is_canonical_cyclic(algebra: LeibnizAlgebra, rows: Sequence[Vector]) -> bool:
    """Whether the ordered rows a_1..a_m carry the canonical cyclic table.

    That is [a_1, a_j] = a_{j+1} for j < m, [a_1, a_m] = 0 and
    [a_i, a_j] = 0 for i >= 2.  Over the standard basis this says the
    structure tensor is the canonical cyclic nilpotent table; over the
    ln-chain of a it says <a> has that table.  Rows must be field values.
    """
    if not rows:
        return False
    zero = zero_vector(algebra.field, algebra.dim)
    a1 = rows[0]
    targets = [*rows[1:], zero]
    if any(algebra.bracket(a1, x) != want for x, want in zip(rows, targets)):
        return False
    return all(algebra.bracket(x, y) == zero for x in rows[1:] for y in rows)


def canonical_cyclic_basis(algebra: LeibnizAlgebra, a: Sequence[Scalar]) -> tuple[Vector, ...]:
    """The ln-chain of a as an ordered basis of <a>, verified canonical.

    In this basis the table is [a1, a_j] = a_{j+1}, [a1, a_m] = 0 and
    [a_i, a_j] = 0 for i >= 2.  Raises when <a> is not of that shape
    (in particular when <a> is not nilpotent).
    """
    algebra.ensure_checked()
    chain = generated_subalgebra(algebra, a).chain
    if not chain:
        raise ValueError("the zero vector generates nothing")
    if not is_canonical_cyclic(algebra, chain):
        raise ValueError("<a> does not have the canonical cyclic table (is it nilpotent?)")
    return chain
