"""Exhaustive subspace and subalgebra enumeration over small prime fields.

Subspaces of GF(p)^n are enumerated exactly once each through their RREF
canonical form: choose pivot columns, then fill the free positions (entries
to the right of a pivot in a non-pivot column) with arbitrary field
elements.  The count per dimension is the Gaussian binomial coefficient,
which the tests pin down.

Over the rationals no enumeration is possible; the restricted report walks
the finitely many coordinate-aligned hyperplanes containing [L, L] (every
codimension-1 ideal contains [L, L], and any subspace containing it is an
ideal).  Both paths decide cyclicity with `is_cyclic_subalgebra`: a
nilpotent subalgebra by dim S/[S,S] = 1, any other by the generator scan
over GF(p), and as UNKNOWN over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .core import (
    LeibnizAlgebra,
    full_space,
    is_ideal,
    is_subalgebra,
    nilpotency_class,
    product_subspace,
)
from .cyclic import UNKNOWN, is_cyclic_subalgebra
from .linalg import GF, Subspace, Vector, basis_vector

_MAX_PAIRS = 3_541_056  # (subspace, element) pairs of GF(5)^5


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of GF(p)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    assert num % den == 0
    return num // den


def enumerate_subspaces(ambient: int, p: int):
    """Yield every subspace of GF(p)^ambient exactly once, in canonical order.

    Ordered by dimension, then pivot pattern, then free-entry assignment;
    every yielded basis is already in RREF.  Raises ValueError for p < 2, a
    negative ambient, or more (subspace, element) pairs, sum_k [ambient k]_p
    p^k, than GF(5)^5 has: a lattice enumerates each subspace and scans each
    element once.
    """
    if p < 2 or ambient < 0:
        raise ValueError(f"subspaces are enumerated in GF(p)^n, n >= 0, not p = {p}, n = {ambient}")
    pairs = sum(gaussian_binomial(ambient, k, p) * p**k for k in range(ambient + 1))
    if pairs > _MAX_PAIRS:
        raise ValueError(f"GF({p})^{ambient} has {pairs} (subspace, element) pairs, over {_MAX_PAIRS}")
    field = GF(p)
    yield Subspace.zero(field, ambient)
    for k in range(1, ambient + 1):
        for pivots in combinations(range(ambient), k):
            pivot_set = set(pivots)
            free = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, ambient)
                if c not in pivot_set
            ]
            for values in product(range(p), repeat=len(free)):
                rows = [[field.zero] * ambient for _ in range(k)]
                for r in range(k):
                    rows[r][pivots[r]] = field.one
                for (r, c), v in zip(free, values):
                    rows[r][c] = v
                yield Subspace(field, ambient, tuple(map(tuple, rows)), _canonical=True)


@dataclass(frozen=True)
class LatticeEntry:
    subspace: Subspace
    is_ideal: bool
    is_maximal: bool
    generator: Vector | None  # a cyclic generator, when one exists

    @property
    def is_cyclic(self) -> bool:
        return self.generator is not None


@dataclass(frozen=True)
class SubalgebraLattice:
    algebra: LeibnizAlgebra
    entries: tuple[LatticeEntry, ...]  # graded by dimension

    def maximal(self) -> tuple[LatticeEntry, ...]:
        return tuple(e for e in self.entries if e.is_maximal)


def subalgebra_lattice(algebra: LeibnizAlgebra) -> SubalgebraLattice:
    """All subalgebras with ideal, maximality and cyclicity flags, within `enumerate_subspaces`' limits."""
    algebra.ensure_checked()
    subalgebras = [
        s for s in enumerate_subspaces(algebra.dim, algebra.field.characteristic) if is_subalgebra(algebra, s)
    ]
    entries = []
    for s in subalgebras:
        proper = s.dim < algebra.dim
        maximal = proper and not any(
            t.dim > s.dim and t.dim < algebra.dim and s <= t for t in subalgebras
        )
        entries.append(
            LatticeEntry(
                subspace=s,
                is_ideal=is_ideal(algebra, s),
                is_maximal=maximal,
                generator=is_cyclic_subalgebra(algebra, s),
            )
        )
    entries.sort(key=lambda e: (e.subspace.dim, e.subspace.rows))
    return SubalgebraLattice(algebra, tuple(entries))


@dataclass(frozen=True)
class MaximalCyclicReport:
    """Cyclicity verdict for every maximal subalgebra, plus the ideal cross-check."""

    nilpotent: bool
    entries: tuple[LatticeEntry, ...]
    all_maximal_are_ideals: bool | None  # evaluated only when nilpotent

    @property
    def has_maximal_cyclic(self) -> bool:
        return any(e.is_cyclic for e in self.entries)


def maximal_cyclic_report(algebra: LeibnizAlgebra) -> MaximalCyclicReport:
    lattice = subalgebra_lattice(algebra)
    maximal = lattice.maximal()
    nilpotent = nilpotency_class(algebra) is not None
    all_ideals = all(e.is_ideal for e in maximal) if nilpotent else None
    return MaximalCyclicReport(nilpotent, maximal, all_ideals)


@dataclass(frozen=True)
class RationalCandidate:
    subspace: Subspace
    nilpotent: bool
    generator: Vector | None | str  # vector, None, or UNKNOWN


@dataclass(frozen=True)
class RationalCodim1Report:
    """Cyclicity of coordinate-aligned codimension-1 ideals over Q.

    Complete lattice enumeration is impossible over an infinite field, so
    only hyperplanes spanned by [L, L] together with all but one of the
    complementary standard coordinates are examined.
    """

    candidates: tuple[RationalCandidate, ...]


def rational_codim1_report(algebra: LeibnizAlgebra) -> RationalCodim1Report:
    if algebra.field.characteristic != 0:
        raise ValueError("this path is the rational-field fallback")
    algebra.ensure_checked()
    field = algebra.field
    n = algebra.dim
    derived = product_subspace(algebra, full_space(algebra), full_space(algebra))
    complement = [i for i in range(n) if i not in set(derived.pivot_columns())]
    seen = set()
    candidates = []
    for drop in complement:
        vectors = list(derived.rows) + [
            basis_vector(field, n, i) for i in complement if i != drop
        ]
        s = Subspace._span(field, n, vectors)
        if s.dim != n - 1 or s in seen:
            continue
        seen.add(s)
        if not is_subalgebra(algebra, s):
            continue
        # over Q the decision is UNKNOWN exactly when S is not nilpotent
        generator = is_cyclic_subalgebra(algebra, s)
        candidates.append(RationalCandidate(s, generator != UNKNOWN, generator))
    candidates.sort(key=lambda c: c.subspace.rows)
    return RationalCodim1Report(tuple(candidates))
