"""Exhaustive subspace and subalgebra enumeration over small prime fields.

Subspaces of GF(p)^n are enumerated exactly once each through their RREF
canonical form: choose pivot columns, then fill the free positions (entries
to the right of a pivot in a non-pivot column) with arbitrary field
elements.  `_patterns` lists, per pivot pattern, the possible RREF rows for
each pivot; the product of those lists is the pattern's subspaces in
canonical order.  The count per dimension is the Gaussian binomial
coefficient, which the tests pin down.

The GF(p) lattice filters those row tuples before any `Subspace` exists,
multiplying rows with `core._product`, whose accumulators each test below
reduces mod p.  Every row is squared once per lattice, however many
patterns list it.  Every row but the last is the head; the last row, with
the highest pivot, is the tail.  Off the pivot columns, the square sq of a
row x has the residual sq[c] - sum_r sq[p_r] y_r[c] at column c against a
candidate with rows y_r and pivots p_r, and sq lies in the span iff every
such residual is 0.  Heads are built depth first: once rows 0..b are fixed,
every later row, the tail included, is 0 at the outside columns left of
pivot b + 1, so there the residuals of the fixed rows' squares are already
decided, and a nonzero one drops the partial head with every head below it.
Right of the tail's pivot, the square of a head row leaves res - s * tail,
with res its residual against the full head and s its entry at that pivot;
so s != 0 forces the tail's entries to res / s, and s = 0 asks res = 0 of
the head alone.  Each full head is therefore solved for its one tail,
looked up by its free entries, or dropped; only when every s is 0 is each
tail tried.  The tail's square, then the other products row by row, are
tested by `linalg`'s one membership rule, `_in_span`, with the pattern's
pivots.  For the GF(5) lattices of A-i(4) and B(4), both 5-dimensional,
this squares each of the 781 RREF rows of GF(5)^5 once per lattice and
visits 6,100 partial and 2,327 full heads; the two lattices, generators
and ideal tests included, take 9,439 `_product` calls, 2,269 of them in
`bracket`.  Solving every full head for its tail, with the squares taken
per pattern and each generator checked by its n-term chain, visited 6,158
full heads and took 12,652.  Only the survivors
become subspaces, each kept with its table of products, from which its
cyclicity is decided with no bracket or closure test repeated.

Maximality needs no flag and no comparison of all pairs: every proper
subalgebra lies in a maximal one, so, walking by decreasing dimension, a
proper subalgebra is maximal exactly when none of the maximal subalgebras
found so far contains it.  `maximal_cyclic_report` walks the subspaces
alone and decides ideality and cyclicity for the maximal ones only.

Over the rationals no enumeration is possible; the restricted report walks
the finitely many coordinate-aligned hyperplanes containing [L, L] (every
codimension-1 ideal contains [L, L], and any subspace containing it is an
ideal), computing each one's table once with `core._closed_products` for
both its nilpotency flag and its cyclicity.  Both paths decide cyclicity by
the Leib(S) criterion, then choose a generator by the grid search from a0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product

from .core import (
    LeibnizAlgebra,
    _closed_products,
    _product,
    _restriction,
    full_space,
    is_ideal,
    nilpotency_class,
    product_subspace,
)
from .cyclic import _cyclic_generator, is_cyclic_subalgebra
from .linalg import GF, Subspace, Vector, _in_span, basis_vector

_MAX_PAIRS = 3_541_056  # (subspace, element) pairs of GF(5)^5


def _check_space(n: int, p: int) -> None:
    """Raise ValueError unless n >= 0 and p >= 2 are ints (a bool is not)."""
    if type(n) is not int or type(p) is not int or n < 0 or p < 2:
        raise ValueError(f"subspaces are counted in GF(p)^n, ints n >= 0 and p >= 2, not p = {p!r}, n = {n!r}")


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of GF(p)^n; ValueError unless n >= 0 and p >= 2 are ints."""
    _check_space(n, p)
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    assert num % den == 0
    return num // den


def _check_enumerable(ambient: int, p: int) -> None:
    """Raise ValueError unless GF(p)^ambient is within the enumeration limit."""
    _check_space(ambient, p)
    pairs = sum(gaussian_binomial(ambient, k, p) * p**k for k in range(ambient + 1))
    if pairs > _MAX_PAIRS:
        raise ValueError(f"GF({p})^{ambient} has {pairs} (subspace, element) pairs, over {_MAX_PAIRS}")


def _patterns(ambient: int, p: int):
    """Yield (pivots, choices) for every pivot pattern, by dimension, then pattern.

    choices[r] lists every RREF row with its leading 1 at pivots[r], in
    lexicographic order of its free entries (the columns right of pivots[r]
    that hold no pivot), so `product(*choices)` gives the pattern's
    subspaces in canonical order.
    """
    for k in range(ambient + 1):
        for pivots in combinations(range(ambient), k):
            choices = []
            for pc in pivots:
                free = [c for c in range(pc + 1, ambient) if c not in pivots]
                rows = []
                for values in product(range(p), repeat=len(free)):
                    row = [0] * ambient
                    row[pc] = 1
                    for c, v in zip(free, values):
                        row[c] = v
                    rows.append(tuple(row))
                choices.append(rows)
            yield pivots, choices


def enumerate_subspaces(ambient: int, p: int):
    """Yield every subspace of GF(p)^ambient exactly once, in canonical order.

    Ordered by dimension, then pivot pattern, then free-entry assignment;
    every yielded basis is already in RREF.  Raises ValueError for p < 2, a
    negative ambient, or more (subspace, element) pairs, sum_k [ambient k]_p
    p^k, than GF(5)^5 has.  `subalgebra_lattice` applies the same limit: it
    bounds the candidates its filter visits, at most one per subspace, and
    the grid points a generator search can visit, fewer than p^k in a
    subalgebra of dimension k.
    """
    _check_enumerable(ambient, p)
    field = GF(p)
    for _pivots, choices in _patterns(ambient, p):
        for rows in product(*choices):
            yield Subspace(field, ambient, rows, _canonical=True)


def _heads(head: tuple, choices, pivots, decided, squares, p: int):
    """Yield the heads that extend `head` and pass every decided column, depth first, in `product` order.

    decided[b] lists the outside columns left of pivots[b + 1]; a head is
    every row of a pattern but the last.  A module-level function, since a
    nested one that recursed would sit in a reference cycle and keep each
    pattern's rows alive until the garbage collector ran.
    """
    b = len(head)
    if b == len(decided):
        yield head
        return
    for x in choices[b]:
        fixed = (*head, x)
        if not any(
            (sq[c] - sum(sq[pc] * y[c] for y, pc in zip(fixed, pivots))) % p
            for sq in map(squares.__getitem__, fixed)
            for c in decided[b]
        ):
            yield from _heads(fixed, choices, pivots, decided, squares, p)


def _closed_bases(algebra: LeibnizAlgebra):
    """Yield (basis, table) for the subalgebras of a GF(p) algebra, in canonical order.

    table[i][j] = `core._product`(x_i, x_j), congruent to [x_i, x_j] mod p.
    Heads (every row but the last) are built row by row and dropped as soon
    as a fixed row's square fails at a decided column; each full head is
    solved for the tail (the last row) its squares force, as the module
    docstring shows, so candidates come in `product(*choices)` order.
    """
    n = algebra.dim
    p = algebra.field.characteristic
    table = algebra._table
    squares: dict[Vector, list[int]] = {}  # each row vector is squared once per lattice
    for pivots, choices in _patterns(n, p):
        if not pivots:
            yield (), []
            continue
        for x in chain.from_iterable(choices):
            if x not in squares:
                squares[x] = _product(table, x, x)
        outside = [c for c in range(n) if c not in pivots]
        # with rows 0..b fixed, every later row is 0 at the outside columns left of pivot b + 1
        decided = [[c for c in outside if c < pc] for pc in pivots[1:]]
        top = pivots[-1]
        right = [c for c in outside if c > top]
        # a tail is named by its free entries, right of `top`
        named = {tuple(x[c] for c in right): x for x in choices[-1]}
        for head in _heads((), choices, pivots, decided, squares, p):
            # right of `top`, [x, x] of a head row x leaves res - s * tail, with res its residual
            # against the head and s its entry at `top`: s != 0 forces the tail to res / s
            forced = set()
            for x in head:
                sq = squares[x]
                res = [(sq[c] - sum(sq[pc] * y[c] for y, pc in zip(head, pivots))) % p for c in right]
                if s := sq[top] % p:
                    inverse = pow(s, -1, p)
                    forced.add(tuple(v * inverse % p for v in res))
                elif any(res):
                    forced.add(None)  # no tail brings this square into the span
                    break
            if not forced:
                tried = choices[-1]
            elif len(forced) == 1 and (key := forced.pop()) in named:
                tried = [named[key]]
            else:
                continue
            for tail in tried:
                basis = (*head, tail)
                if not _in_span(squares[tail], basis, pivots, outside, p):
                    continue
                products = []
                for x in basis:
                    sq = squares[x]
                    line = [sq if y is x else _product(table, x, y) for y in basis]
                    if not all(w is sq or _in_span(w, basis, pivots, outside, p) for w in line):
                        break
                    products.append(line)
                else:
                    yield basis, products


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


def _maximal(subalgebras: list[Subspace], n: int) -> list[Subspace]:
    """The maximal proper subalgebras of an n-dimensional algebra, given all its subalgebras by increasing dimension."""
    maximal: list[Subspace] = []
    for s in reversed(subalgebras):
        if s.dim < n and not any(s <= t for t in maximal):
            maximal.append(s)
    return maximal


def subalgebra_lattice(algebra: LeibnizAlgebra) -> SubalgebraLattice:
    """All subalgebras with ideal, maximality and cyclicity flags, within `enumerate_subspaces`' limit.

    A proper subalgebra is maximal iff no maximal subalgebra of larger
    dimension contains it, so the subalgebras are compared only with the
    maximal ones, by decreasing dimension.
    """
    field = algebra.field
    n = algebra.dim
    _check_enumerable(n, field.characteristic)
    closed = []  # (subalgebra, generator): each table is dropped once read
    for basis, table in _closed_bases(algebra):
        s = Subspace(field, n, basis, _canonical=True)
        closed.append((s, _cyclic_generator(algebra, s, table)))
    maximal = _maximal([s for s, _ in closed], n)
    entries = [
        LatticeEntry(subspace=s, is_ideal=is_ideal(algebra, s), is_maximal=s in maximal, generator=generator)
        for s, generator in closed
    ]
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
    """The entries of `subalgebra_lattice(algebra).maximal()`, with flags decided for those alone.

    Maximality is read off the subspaces: the walk of `subalgebra_lattice`
    compares them by inclusion and needs no flag.  Only the maximal
    subalgebras are then tested for ideality and cyclicity.  The same limit
    as `enumerate_subspaces` applies.
    """
    field = algebra.field
    n = algebra.dim
    _check_enumerable(n, field.characteristic)
    subalgebras = [Subspace(field, n, basis, _canonical=True) for basis, _ in _closed_bases(algebra)]
    maximal = tuple(
        LatticeEntry(subspace=s, is_ideal=is_ideal(algebra, s), is_maximal=True, generator=is_cyclic_subalgebra(algebra, s))
        for s in sorted(_maximal(subalgebras, n), key=lambda s: (s.dim, s.rows))
    )
    nilpotent = nilpotency_class(algebra) is not None
    all_ideals = all(e.is_ideal for e in maximal) if nilpotent else None
    return MaximalCyclicReport(nilpotent, maximal, all_ideals)


@dataclass(frozen=True)
class RationalCandidate:
    subspace: Subspace
    nilpotent: bool
    generator: Vector | None  # a cyclic generator, when one exists


@dataclass(frozen=True)
class RationalCodim1Report:
    """Cyclicity of coordinate-aligned codimension-1 ideals over Q.

    Complete lattice enumeration is impossible over an infinite field, so
    only hyperplanes spanned by [L, L] together with all but one of the
    complementary standard coordinates are examined.  Which hyperplanes
    those are depends on the basis, and so can the answer: a codimension-1
    ideal that is not coordinate-aligned is never seen.
    """

    candidates: tuple[RationalCandidate, ...]


def rational_codim1_report(algebra: LeibnizAlgebra) -> RationalCodim1Report:
    if algebra.field.characteristic != 0:
        raise ValueError("this path is the rational-field fallback")
    field = algebra.field
    n = algebra.dim
    derived = product_subspace(algebra, full_space(algebra), full_space(algebra))
    complement = [i for i in range(n) if i not in set(derived.pivot_columns())]
    candidates = []
    for drop in complement:
        # D plus all but one complementary coordinate: n - 1 dimensions, one
        # hyperplane per dropped coordinate, and an ideal, since it holds [L, L]
        vectors = list(derived.rows) + [
            basis_vector(field, n, i) for i in complement if i != drop
        ]
        s = Subspace._span(field, n, vectors)
        products = _closed_products(algebra, s)  # one table for the nilpotency flag and the cyclicity
        nilpotent = s.dim == 0 or nilpotency_class(_restriction(algebra, s, products)) is not None
        candidates.append(RationalCandidate(s, nilpotent, _cyclic_generator(algebra, s, products)))
    candidates.sort(key=lambda c: c.subspace.rows)
    return RationalCodim1Report(tuple(candidates))
