"""Left-normed commutators and single-generator subalgebras.

The chain ln_1(a) = a, ln_{k+1}(a) = [a, ln_k(a)] spans the subalgebra
generated by a.  Cyclicity has one decision, `is_cyclic_subalgebra`, on
every field.  It tests the Leib(S) criterion first (dim S/Leib(S) = 1,
and the left multiplication of S on Leib(S) nonderogatory), so a
subalgebra that is not cyclic is never searched: one of dimension >= 2
whose table has no nonzero polarization generator (Leib(S) = 0) is
refused by a zero test of those generators alone, and any other costs
the span of Leib(S), a few brackets and one small rank.  Only a cyclic S
gets a generator chosen, by one search on every field: the first
generator on a small integer grid of elements a0 + i, i in Leib(S), that
starts at a0, the last canonical row of S outside Leib(S).  The
criterion reads one table format, the `core._product` accumulators over
the rows x_i of S (congruent to [x_i, x_j] mod p over GF(p), and
c·[x_i, x_j] over Q), from `core._closed_products` or from the lattice's
closure filter.
`cyclic_generator_by_scan`, the exhaustive search over GF(p), is the tests'
oracle; the library does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    LeibnizAlgebra,
    _closed_products,
    _polarization,
    _squares_span,
    is_subalgebra,
    leibniz_kernel,
    lower_central_series,
    product_subspace,
    restrict_to_subalgebra,
)
from .linalg import (
    Matrix,
    Scalar,
    Subspace,
    Vector,
    basis_vector,
    linear_combination,
    nonzero_elements,
    zero_vector,
)

_MAX_COPIES = 5


def _ln_chain(algebra: LeibnizAlgebra, v: Vector, k: int) -> list[Vector]:
    """ln_1(v) .. ln_k(v) for a vector v of field values."""
    chain = [v]
    for _ in range(k - 1):
        chain.append(algebra.bracket(v, chain[-1]))
    return chain


def left_normed(algebra: LeibnizAlgebra, a: Sequence[Scalar], k: int) -> Vector:
    """ln_k(a): ln_1 = a, ln_{k+1} = [a, ln_k]."""
    if k < 1:
        raise ValueError("the commutator index must be >= 1")
    if len(a) != algebra.dim:
        raise ValueError("vector length differs from the algebra dimension")
    return _ln_chain(algebra, tuple(algebra.field.of(x) for x in a), k)[-1]


@dataclass(frozen=True)
class CyclicProbe:
    """Generator, its independent ln-chain, and the subalgebra they span."""

    generator: Vector
    chain: tuple[Vector, ...]
    span: Subspace


def generated_subalgebra(algebra: LeibnizAlgebra, a: Sequence[Scalar]) -> CyclicProbe:
    """The subalgebra <a> = span{ln_k(a)}.

    ln_1..ln_n suffice, n the dimension: once ln_{m+1} lies in
    span{ln_1..ln_m} that span is invariant under [a, -], so every later
    term lies in it too, and the chain is the first dim <a> terms.  That
    the span is closed under the bracket is a theorem, which
    `proposition_check` (iii) tests.
    """
    field = algebra.field
    n = algebra.dim
    if len(a) != n:
        raise ValueError("vector length differs from the algebra dimension")
    v = tuple(field.of(x) for x in a)
    terms = _ln_chain(algebra, v, n)
    span = Subspace._span(field, n, terms)
    return CyclicProbe(v, tuple(terms[: span.dim]), span)


def generated_by(algebra: LeibnizAlgebra, vectors: Sequence[Sequence[Scalar]]) -> Subspace:
    """Smallest bracket-closed subspace containing the given vectors."""
    span = Subspace.from_vectors(algebra.field, algebra.dim, vectors)
    while True:
        bigger = span.sum(product_subspace(algebra, span, span))
        if bigger == span:
            return span
        span = bigger


def _ln_tail_span(algebra: LeibnizAlgebra, a: Vector, k: int) -> Subspace:
    """span{ln_t(a) : t >= k}, a field values; stabilizes within ambient-dimension further steps."""
    return Subspace._span(algebra.field, algebra.dim, _ln_chain(algebra, a, k + algebra.dim)[k - 1 :])


@dataclass(frozen=True)
class PropositionReport:
    """Pass/fail for the single-generator structure facts, keyed i..vii."""

    results: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.results.values())


def _all_bracketings(algebra: LeibnizAlgebra, a: Vector, copies: int) -> list[list[Vector]]:
    """Entry k - 1 lists every bracketing of k copies of a, for k = 1..copies."""
    levels = [[a]]
    for k in range(2, copies + 1):
        levels.append([
            algebra.bracket(x, y) for split in range(1, k) for x in levels[split - 1] for y in levels[k - split - 1]
        ])
    return levels


def proposition_check(algebra: LeibnizAlgebra, a: Sequence[Scalar]) -> PropositionReport:
    """Verify the ln-chain structure facts for one generator.

    (i) products of chain elements with the left factor beyond ln_1 vanish;
    (ii) every bracketing of up to _MAX_COPIES = 5 copies of a collapses to the
    matching ln or to zero; (iii)-(vi) the span statements for <a>, its
    derived subalgebra and its lower central series; (vii) [[x, y], z] = 0
    for x, y in <a> and z anywhere.
    """
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

    levels = zip(_ln_chain(algebra, a, _MAX_COPIES), _all_bracketings(algebra, a, _MAX_COPIES))
    results["ii"] = all(not any(w) or w == ln_k for ln_k, level in levels for w in level)

    results["iii"] = probe.span == generated_by(algebra, [a])

    derived = product_subspace(algebra, probe.span, probe.span)
    results["iv"] = derived == _ln_tail_span(algebra, a, 2)

    if probe.span.dim == 0:
        results["v"] = results["vi"] = True
    else:
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
    returns the first generator found.  Nothing in the library calls it;
    the tests use it as the oracle for the verdict of
    `is_cyclic_subalgebra`, whose grid search may pick another generator.
    """
    if algebra.field.characteristic == 0:
        raise ValueError("exhaustive scan needs a finite field")
    if not is_subalgebra(algebra, s):
        raise ValueError("subspace is not a subalgebra")
    field, n = algebra.field, algebra.dim
    for v in nonzero_elements(s):
        if Subspace._span(field, n, _ln_chain(algebra, v, n)) == s:
            return v
    return None


def _leib_criterion(algebra: LeibnizAlgebra, s: Subspace, products: list[list]) -> tuple[Vector, Subspace] | None:
    """(a0, Leib(S)) when S passes (a) and (b) of `is_cyclic_subalgebra`, else None.

    products[i][j] = `core._product`(x_i, x_j) over the rows x_i of S, a
    subalgebra of the algebra: congruent to [x_i, x_j] mod p over GF(p),
    and c·[x_i, x_j] over Q.  Only its polarization generators
    (`core._polarization`) are read, and neither their span nor their
    vanishing depends on that scale; nothing here checks that S is closed.
    When dim S >= 2 and every generator vanishes (mod p over GF(p)),
    Leib(S) = 0 fails (a) with no span built, as for 995 of the 1,232
    subalgebras of the GF(5) lattices of A-i(4) and B(4).  Otherwise
    Leib(S) is spanned (`core._squares_span`), and a0 is the last
    canonical row of S outside it.  T, the matrix of [a0, -] on Leib(S) in
    the pivot coordinates of its RREF rows, only gives the powers
    I, T, ..., T^(m-1) whose rank decides (b).  S = 0 fails (a).
    """
    field = algebra.field
    p = field.characteristic
    if s.dim >= 2 and not any(v % p if p else v for w in _polarization(products) for v in w):
        return None  # Leib(S) = 0, so dim S/Leib(S) = dim S >= 2 and (a) fails
    leib = _squares_span(algebra, products)
    m = leib.dim
    if s.dim - m != 1:  # (a)
        return None
    a0 = next(row for row in reversed(s.rows) if not leib._contains_all((row,)))
    images = [algebra.bracket(a0, b) for b in leib.rows]
    t = Matrix(field, [[w[pc] for w in images] for pc in leib.pivot_columns()], _coerced=True)
    # (b): the minimal polynomial of T has degree m iff I, T, ..., T^(m-1) are independent
    powers, power = [], Matrix.identity(field, m)
    for _ in range(m):
        powers.append([x for row in power.data for x in row])
        power = t.mul(power)
    if Matrix(field, powers, _coerced=True).rank() != m:
        return None
    return a0, leib


def _grid(m: int, top: int):
    """{0..top}^m ordered by the sum of the entries, then lexicographically."""

    def with_sum(length: int, total: int):
        if length == 0:
            if total == 0:
                yield ()
            return
        for first in range(max(0, total - top * (length - 1)), min(top, total) + 1):
            for rest in with_sum(length - 1, total - first):
                yield (first, *rest)

    for total in range(m * top + 1):
        yield from with_sum(m, total)


def is_cyclic_subalgebra(algebra: LeibnizAlgebra, s: Subspace) -> Vector | None:
    """A generator of S when S is cyclic; None when it is not or when S = 0.

    Raises ValueError when S lives outside the algebra or is not closed
    under the bracket.  The decision is one criterion on every field.
    Write Leib(S) = span{[x, x] : x in S}; polarization spans it by the
    [x_i, x_i] and the [x_i, x_j] + [x_j, x_i], i < j, over the rows x_i
    of S.  Take a0 the last canonical row of S outside Leib(S),
    T = [a0, -] on Leib(S) and w0 = [a0, a0].  Then S is cyclic iff
      (a) dim S/Leib(S) = 1, and
      (b) T is nonderogatory: its minimal polynomial has degree
          m = dim Leib(S), that is I, T, ..., T^(m-1) are linearly
          independent.
    The third condition sometimes stated, (c) w0 outside T(Leib(S)) when T
    is singular, follows from (a), as the sketch shows.

    Proof sketch.  [[x, x], y] = 0, so Leib(S) is an ideal with
    [Leib(S), S] = 0 and S/Leib(S) is a Lie algebra, in which a single
    element generates at most a line; S = Leib(S) would give [S, S] = 0 and
    so S = 0.  So a cyclic S has (a).  Given (a),
    every x in S is c a0 + i with i in Leib(S), and [x, x] = c^2 w0 + c T(i).
    Hence Leib(S) = F w0 + T(Leib(S)), and [S, S] = Leib(S).  On Leib(S),
    [x, -] = cT, so the chain of x is x, then the T-orbit of [x, x], and x
    generates S iff c != 0 and w0 + T(i/c) is a cyclic vector of T.  A
    cyclic vector exists iff T is nonderogatory, that is iff its minimal
    polynomial has degree m; that degree is the least k with I, T, ..., T^k
    dependent, so this is the rank test (b).  Then split Leib(S) as an
    F[x]-module into the x-primary part P, where T is nilpotent, and the
    rest R, where T is invertible.  The R-component of w0 + T(i') can be
    any vector of R, so some choice of i' makes it a cyclic vector of R.
    The P-component generates P iff it lies outside T(P), and it does for
    every i', because Leib(S) = F w0 + T(Leib(S)) puts w0 outside
    T(Leib(S)) when T is singular.  No step uses the size of the field or
    divides by 2, so the criterion holds over Q and over every GF(p).  Any
    a0 outside Leib(S) gives the same verdict: a0 -> c a0 + j scales T by c.

    The generator is chosen only for a cyclic S, by one search on every
    field: the first a = a0 + sum_k c_k b_k, b_k the RREF rows of Leib(S),
    whose chain spans S, with c running over {0..top}^m, m = dim Leib(S),
    by sum(c) and then lexicographically; top = m over Q and
    min(m, p - 1) over GF(p), and the first point, c = 0, is a0.  Every
    generator is a nonzero multiple of some a0 + i with i in Leib(S), so
    the search cannot miss:
    - when p - 1 < m the grid is all of GF(p)^m;
    - otherwise the Krylov determinant of [a, a] = w0 + T(sum_k c_k b_k)
      is a polynomial of degree <= m in each c_k, nonzero when S is
      cyclic, and a grid with m + 1 distinct values per coordinate holds a
      point where it does not vanish.
    A nilpotent cyclic S is always generated by a0: [S, S] = Leib(S) lies
    in every maximal subalgebra, so every element outside it generates S.

    Each grid point a is tested on the first dim S terms of its chain
    alone, dim S - 1 brackets: a generates S iff they are independent.
    Every term lies in S, since a does and S is closed, so independent
    terms span S; and once a term lies in the span of the earlier ones the
    chain spans no more (`generated_subalgebra`), so <a> is smaller than S.
    The rule uses no property of the field.
    """
    return _cyclic_generator(algebra, s, _closed_products(algebra, s))


def _cyclic_generator(algebra: LeibnizAlgebra, s: Subspace, products: list[list]) -> Vector | None:
    """`is_cyclic_subalgebra` for a subalgebra S with its table of `core._product` accumulators (`_leib_criterion`)."""
    decided = _leib_criterion(algebra, s, products)
    if decided is None:
        return None
    a0, leib = decided
    field, m, k = algebra.field, leib.dim, s.dim
    top = min(m, field.characteristic - 1) if field.characteristic else m
    candidates = (linear_combination(field, (1, *c), (a0, *leib.rows)) for c in _grid(m, top))
    # a generates S iff its first dim S chain terms are independent (see `is_cyclic_subalgebra`)
    generator = next((a for a in candidates if Subspace._span(field, algebra.dim, _ln_chain(algebra, a, k)).dim == k), None)
    if generator is None:
        raise AssertionError("S passed the Leib(S) criterion, but no element generates it")
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
    chain = generated_subalgebra(algebra, a).chain
    if not chain:
        raise ValueError("the zero vector generates nothing")
    if not is_canonical_cyclic(algebra, chain):
        raise ValueError("<a> does not have the canonical cyclic table (is it nilpotent?)")
    return chain
