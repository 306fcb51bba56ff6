"""Exact linear algebra over Q and GF(p).

Scalars are `fractions.Fraction` over the rationals and reduced ``int``
residues over a prime field; nothing here ever touches floating point.
Matrices and subspaces are immutable values, stored dense.  A subspace is
stored as the reduced row echelon basis of its span with zero rows removed,
so two subspaces are equal as sets exactly when their stored bases are
equal entry-wise.

Elimination runs on sparse rows.  `_echelon` is the one Gauss-Jordan
routine: it takes ``{column: nonzero value}`` rows, so the zero entries of
the large, mostly-zero derivation systems cost nothing, and returns the
RREF rows keyed by pivot column.  `rank`, `Subspace._span`, `inverse`
and `solve` read that directly.  `_kernel` (the centralisers, the
derivation spaces, and `Matrix.kernel`, which no module calls but
`bench/tracer.py` hooks) runs it once, each row pivoted at its last
column, and reads the kernel's RREF off it (`_kernel_echelon`).

Kernels and spans over Q are computed from integer rows A modulo the
prime P = 2^61 - 1, by the same `_echelon` on their residues, and the RREF
rows found there are lifted back by rational reconstruction (`_lifted`).
A size bound proves the lift exact.  With d the lcm of the lifted
denominators, h the largest lifted |entry|, k the number of lifted rows
and B the largest ||a||_1 over the rows a of A, the lift is kept when
B d (1 + k h) < P, tested in ints as B (d + k m) < P, m = max |r| (d/s):

- for a kernel, each lifted row x has A (d x) = 0 mod P by construction,
  and |a . d x| <= ||a||_1 ||d x||_inf <= B d h < P, so A x = 0;
- for a span, with R_pc the lifted row of pivot pc, each entry of
  d a - sum_pc a[pc] (d R_pc) is 0 mod P (a is a combination of the residue
  rows) and at most ||a||_inf (d + sum_pc ||d R_pc||_inf) <= B d (1 + k h)
  < P in size, so it is 0, and a lies in span(R).

The lifted rows keep the RREF shape (each pivot entry lifts to 1 and the
other pivot columns to 0), so they are independent, and
rank_P(A) <= rank_Q(A): the k lifted rows lie in ker_Q(A), of dimension at
most k, or span(A) lies in their span and has dimension at least k.  So
they span the kernel or span, and being in RREF are its canonical basis.
Where an entry has no lift or the bound refuses it (the rank drops mod P,
or a lift is wrong), the exact elimination over Q runs instead.

Scalars are coerced once, where they enter from outside the library:
`Field.of` runs in the public constructors (`Matrix(...)`,
`Subspace.from_vectors`, `LeibnizAlgebra`, the family parameters) and in
public functions that take a caller's vector (`Subspace.reduce`, `solve`).
Floats are rejected there rather than truncated or made binary-exact.
Exact values pass by a type check: an `int` is reduced (mod p, or made a
`Fraction` over Q), and over Q a `Fraction` is returned as it is; every
other type takes the generic path, which reads a rational's numerator and
denominator as `int`s, so a numpy int keeps no fixed width.
Internal callers pass values straight through: `Matrix(..., _coerced=True)`,
`LeibnizAlgebra(..., _derived=True)`, `Subspace._span` and
`Subspace._contains_all` skip it.

Every value inside the library is canonical (a `Fraction`, or an int in
[0, p)), and the arithmetic on it follows one rule:

- arithmetic is Python's ``+ - *`` on field values;
- each entry the code produces is reduced once, so ``a - f * b`` costs one
  reduction, not one per operation: by `Field.reduce`, or, in `_echelon`'s
  elimination step over a prime field (GF(p) and the residues mod P
  below), by its ``index(v) % p`` written inline.  Both take exact raw
  values only, a `Fraction` or an int over Q and an int over GF(p), so a
  float, or a Fraction over GF(p), that skipped `Field.of` raises
  TypeError in `index` instead of leaking into the result;
- a zero test is truthiness: ``if not c``, ``any(vec)``, ``not any(vec)``.

Integer rows.  The readers reduce, not the writers: every span and kernel
takes raw integer rows and reduces them itself, modulo p over GF(p) and
modulo P over Q, `_in_span` reduces each residual it tests, and the public
results are canonical.  The rows come
from the integer structure table c·T, with c the lcm of the tensor's
denominators (c = 1 over GF(p)), or from vectors scaled by the lcm of
their own denominators (`_integral`, which `Matrix.kernel` and
`Subspace._span` apply too).
That is exact: c[x, y] is the bracket of an isomorphic algebra, under
x -> x/c, and scaling a row, or a whole constraint system, by a nonzero
constant changes no span and no kernel.  So the size bound reads A with
no denominator to clear.

Membership has one rule, `_in_span`: w lies in the span of RREF rows r_a
with pivots p_a iff w[c] - sum_a w[p_a] r_a[c] = 0 (mod p over GF(p)) at
each column c that holds no pivot, tested up to the first that fails.  The
GF(p) lattice filter calls it with each pattern's pivots; all else calls
`Subspace._contains_all`, which stops at the first vector outside S:
``S <= T``, `core._closed_products`, the subalgebra, ideal and invariance
tests, a0 in `cyclic._leib_criterion` and "b outside K" in `families`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt, lcm
from numbers import Rational
from operator import index
from typing import Collection, Iterable, Iterator, Sequence, Union

Scalar = Union[Fraction, int]
Vector = tuple[Scalar, ...]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """Coefficient domain: the rationals (characteristic 0) or GF(p).

    `of` makes a caller's scalar a canonical field value; values combine
    with Python's ``+ - *``, `reduce` normalises each result once, and a
    value is zero exactly when it is falsy.
    """

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int = 0):
        if not isinstance(characteristic, int) or isinstance(characteristic, bool) or characteristic >= 1 << 31:
            raise ValueError(f"characteristic out of range: {characteristic!r}")
        if characteristic and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {characteristic}")
        self.characteristic = characteristic

    @property
    def label(self) -> str:
        return "Q" if self.characteristic == 0 else f"GF({self.characteristic})"

    def __repr__(self) -> str:
        return self.label

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.characteristic == self.characteristic

    def __hash__(self) -> int:
        return hash(("Field", self.characteristic))

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.characteristic == 0 else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.characteristic == 0 else 1

    def of(self, value) -> Scalar:
        """Coerce an int, Fraction or scalar string into this field; anything else is a TypeError."""
        kind, p = type(value), self.characteristic
        if kind is int:
            return value % p if p else Fraction(value)
        if kind is Fraction and not p:
            return value
        if isinstance(value, str):
            return self.parse(value)
        if not isinstance(value, Rational):
            raise TypeError(
                f"{self.label} scalars must be int, Fraction or str, not {type(value).__name__} {value!r}"
            )
        # as ints: a numpy int, say, would keep its fixed width
        numerator, denominator = index(value.numerator), index(value.denominator)
        if not p:
            return Fraction(numerator, denominator)
        if denominator % p == 0:
            raise ZeroDivisionError(f"{value} has no image in {self.label}")
        return numerator * pow(denominator, -1, p) % p

    def reduce(self, raw) -> Scalar:
        """Normalize the result of raw +/* arithmetic on field scalars; an inexact raw value is a TypeError."""
        if self.characteristic == 0:
            return raw if isinstance(raw, Fraction) else Fraction(index(raw))
        return index(raw) % self.characteristic

    def inv(self, a: Scalar) -> Scalar:
        if self.characteristic == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return Fraction(1) / a
        if a % self.characteristic == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.characteristic)

    def parse(self, text: str) -> Scalar:
        """Parse scalar text: ``a/b`` or ``a`` over Q, a residue in [0, p) over GF(p)."""
        text = text.strip()
        if self.characteristic == 0:
            try:
                return Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad rational scalar {text!r}") from exc
        try:
            value = int(text)
        except ValueError as exc:
            raise ValueError(f"bad {self.label} scalar {text!r}") from exc
        if not 0 <= value < self.characteristic:
            raise ValueError(f"{self.label} scalar must lie in [0, {self.characteristic}), got {text!r}")
        return value

    def render(self, a: Scalar) -> str:
        return str(a)


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)


# -- vector helpers -----------------------------------------------------------

def zero_vector(field: Field, n: int) -> Vector:
    return (field.zero,) * n


def basis_vector(field: Field, n: int, i: int) -> Vector:
    if type(i) is not int or not 0 <= i < n:
        raise ValueError(f"basis index must be an int in 0..{n - 1}, got {i!r}")
    return tuple([field.one if j == i else field.zero for j in range(n)])


def vec_add(field: Field, x: Vector, y: Vector) -> Vector:
    return tuple([field.reduce(a + b) for a, b in zip(x, y, strict=True)])


def vec_sub(field: Field, x: Vector, y: Vector) -> Vector:
    return tuple([field.reduce(a - b) for a, b in zip(x, y, strict=True)])


def vec_scale(field: Field, c: Scalar, x: Vector) -> Vector:
    return tuple([field.reduce(c * a) for a in x])


def linear_combination(field: Field, coeffs: Sequence[Scalar], rows: Sequence[Vector]) -> Vector:
    """sum_i coeffs[i] * rows[i], for a nonempty list of equally long rows; zero coefficients cost nothing."""
    terms = [(c, row) for c, row in zip(coeffs, rows) if c]
    if not terms:
        return zero_vector(field, len(rows[0]))
    coeffs, rows = zip(*terms)
    reduce = field.reduce
    return tuple([reduce(sum(c * x for c, x in zip(coeffs, col))) for col in zip(*rows)])


def _integral(row: Collection[Scalar]) -> list[int]:
    """The row scaled by the lcm of its denominators: integers with the same span.

    Over GF(p) the row is already ints, and comes back unchanged.
    """
    m = lcm(*[v.denominator for v in row])
    return [v.numerator * (m // v.denominator) for v in row]


def _in_span(w: Sequence[Scalar], basis: Sequence[Vector], pivots: Sequence[int], outside: Iterable[int], p: int) -> bool:
    """Whether w lies in the span of RREF rows with these pivots, by the rule of the module docstring."""
    for c in outside:
        v = w[c]
        for row, pc in zip(basis, pivots):
            v -= w[pc] * row[c]
        if v % p if p else v:
            return False
    return True


def render_vector(field: Field, x: Vector) -> str:
    return "(" + ", ".join(field.render(a) for a in x) + ")"


def _echelon(field: Field, rows: Iterable[dict[int, Scalar]]) -> dict[int, dict[int, Scalar]]:
    """Sparse Gauss-Jordan: the RREF rows of the span, keyed by pivot column.

    Rows are ``{column: nonzero value}`` dicts of field values, and are
    consumed: the elimination writes to them.  They are taken sparsest
    first; each row is reduced against the echelon rows found so far in one
    pass (an echelon row is zero in every other pivot column), normalised
    at its lowest column, and that column is then cleared from the earlier
    echelon rows.
    """
    reduce = field.reduce
    zero = field.zero
    p = field.characteristic

    def subtract(target: dict[int, Scalar], f: Scalar, source: dict[int, Scalar]) -> None:
        """target -= f * source, dropping the entries that become zero."""
        for c, b in source.items():
            v = target.get(c, zero) - f * b
            v = index(v) % p if p else reduce(v)
            if v:
                target[c] = v
            else:
                del target[c]

    echelon: dict[int, dict[int, Scalar]] = {}
    for row in sorted(rows, key=len):
        for pc in [c for c in row if c in echelon]:
            subtract(row, row[pc], echelon[pc])
        if not row:
            continue
        pc = min(row)
        inv = field.inv(row[pc])
        if inv != 1:
            row = {c: reduce(inv * v) for c, v in row.items()}
        for other in echelon.values():
            if pc in other:
                subtract(other, other[pc], row)
        echelon[pc] = row
    return echelon


def _sparse(rows: Iterable[Sequence[Scalar]]) -> list[dict[int, Scalar]]:
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def _dense(field: Field, ncols: int, echelon: dict[int, dict[int, Scalar]]) -> list[Vector]:
    """The echelon rows as dense tuples, in pivot order."""
    zero = field.zero
    dense = []
    for pc in sorted(echelon):
        out = [zero] * ncols
        for c, v in echelon[pc].items():
            out[c] = v
        dense.append(tuple(out))
    return dense


def _kernel_echelon(field: Field, ncols: int, rows: list[dict[int, int]]) -> dict[int, dict[int, Scalar]]:
    """The RREF rows of {x : r . x = 0 for every integer row r}; the rows are not written to.

    Column c enters `_echelon` as ncols - 1 - c (mod p over GF(p)), so echelon
    row R_pc has entries only left of its pivot pc and none at other pivots.
    The null vector e_f - sum_pc R_pc[f] e_pc of free column f then leads with
    1 at f and is 0 at the other free columns: it is already an RREF row.
    """
    last, p = ncols - 1, field.characteristic
    echelon = _echelon(field, [{last - c: r for c, v in row.items() if (r := v % p if p else v)} for row in rows])
    null = {c: {c: field.one} for c in range(ncols) if last - c not in echelon}
    for pc, row in echelon.items():
        for c, v in row.items():
            if c != pc:
                null[last - c][last - pc] = field.reduce(-v)
    return null


# The prime 2^61 - 1 of the residue route, as a `Field` value that the
# public constructor (which caps the characteristic below 2^31) never makes.
_RESIDUES = object.__new__(Field)
_RESIDUES.characteristic = _P = (1 << 61) - 1
_LIFT_BOUND = isqrt(_P // 2)


def _lift(u: int) -> Fraction | None:
    """The fraction r/s with |r|, s <= sqrt(P/2) and r = u s mod P, or None.

    Rational reconstruction: the extended Euclidean algorithm on (P, u),
    stopped at the first remainder within the bound.  Two such fractions
    would differ by a multiple of 1/(s s') with |numerator| < P, so there
    is at most one.
    """
    r0, r1, s0, s1 = _P, u, 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > _LIFT_BOUND:
        return None
    return Fraction(r1, s1)


def _lifted(rows: list[dict[int, int]], echelon: dict[int, dict[int, int]]) -> dict[int, dict[int, Fraction]] | None:
    """RREF rows computed modulo P from integer rows, lifted by `_lift`; None where that fails.

    The lift is returned only if every entry has one and the size bound of
    the module docstring holds for these rows.  The rows are not written to.
    """
    lifts = {1: Fraction(1)}
    basis = {}
    for pc, row in echelon.items():
        lifted = basis[pc] = {}
        for c, u in row.items():
            if u not in lifts:
                lifts[u] = _lift(u)
            if lifts[u] is None:
                return None
            lifted[c] = lifts[u]
    # list, not generator, arguments: CPython 3.11 builds the argument tuple
    # of f(*generator) at one length and frees it at another, so the tuple
    # free list of each length fills up to 2,000 tuples (0.8 MB of peak RSS
    # on the `profile-q` benchmark)
    d = lcm(*[v.denominator for v in lifts.values()])
    m = max([abs(v.numerator) * (d // v.denominator) for v in lifts.values()])
    weight = max([sum(map(abs, row.values())) for row in rows], default=0)
    return basis if weight * (d + len(basis) * m) < _P else None


def _kernel(field: Field, ncols: int, rows: list[dict[int, int]]) -> Subspace:
    """{x : r . x = 0 for every row r} as a canonical subspace; rows are ``{column: nonzero int}``, not written to.

    The ints are scaled by `_integral` or taken from the integer table, and
    need not be reduced: over GF(p) `_kernel_echelon` reduces them modulo p;
    over Q the kernel is computed modulo P and lifted (`_lifted`), and the
    exact elimination runs only where that fails.
    """
    basis = None if field.characteristic else _lifted(rows, _kernel_echelon(_RESIDUES, ncols, rows))
    if basis is None:
        basis = _kernel_echelon(field, ncols, rows)
    return Subspace(field, ncols, tuple(_dense(field, ncols, basis)), _canonical=True)


class Matrix:
    """Immutable dense matrix over a fixed field."""

    __slots__ = ("field", "data")

    def __init__(self, field: Field, rows: Iterable[Iterable], *, _coerced: bool = False):
        self.field = field
        if _coerced:
            self.data: tuple[Vector, ...] = tuple([tuple(row) for row in rows])
            return
        self.data = tuple([tuple([field.of(v) for v in row]) for row in rows])
        if self.data:
            width = len(self.data[0])
            if any(len(row) != width for row in self.data):
                raise ValueError("ragged matrix rows")

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [basis_vector(field, n, i) for i in range(n)], _coerced=True)

    @property
    def nrows(self) -> int:
        return len(self.data)

    @property
    def ncols(self) -> int:
        return len(self.data[0]) if self.data else 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.data == self.data
        )

    def __hash__(self) -> int:
        return hash((self.field, self.data))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(self.field.render(v) for v in row) for row in self.data)
        return f"Matrix({self.field}, [{body}])"

    def column(self, j: int) -> Vector:
        if type(j) is not int or not 0 <= j < self.ncols:
            raise ValueError(f"column index must be an int in 0..{self.ncols - 1}, got {j!r}")
        return tuple(row[j] for row in self.data)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, zip(*self.data), _coerced=True)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        cols = other.transpose().data
        reduce = self.field.reduce
        return Matrix(
            self.field,
            [
                [reduce(sum(a * b for a, b in zip(row, col))) for col in cols]
                for row in self.data
            ],
            _coerced=True,
        )

    def rank(self) -> int:
        return len(_echelon(self.field, _sparse(self.data)))

    def kernel(self) -> "Subspace":
        """Right null space {x : A x = 0} as a canonical subspace."""
        return _kernel(self.field, self.ncols, _sparse(map(_integral, self.data)))

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices are invertible")
        field = self.field
        n = self.nrows
        aug = [row + basis_vector(field, n, i) for i, row in enumerate(self.data)]
        echelon = _echelon(field, _sparse(aug))
        if any(i not in echelon for i in range(n)):
            raise ValueError("matrix is singular")
        return Matrix(field, [row[n:] for row in _dense(field, 2 * n, echelon)], _coerced=True)


def solve(a: Matrix, b: Sequence[Scalar]) -> Vector | None:
    """One solution of A x = b (free variables zero), or None if inconsistent."""
    if len(b) != a.nrows:
        raise ValueError("right-hand side length must equal the row count")
    field = a.field
    n = a.ncols
    aug = [(*row, field.of(v)) for row, v in zip(a.data, b)]
    echelon = _echelon(field, _sparse(aug))
    if n in echelon:
        return None
    x = [field.zero] * n
    for pc, row in echelon.items():
        x[pc] = row.get(n, field.zero)
    return tuple(x)


def _check_ambient(ambient: int) -> None:
    if type(ambient) is not int or ambient < 0:
        raise ValueError(f"ambient dimension must be an int >= 0, got {ambient!r}")


class Subspace:
    """Subspace of F^n in canonical form: RREF basis with zero rows removed."""

    __slots__ = ("field", "ambient", "rows", "_pivots")

    def __init__(self, field: Field, ambient: int, rows: tuple[Vector, ...], *, _canonical: bool = False):
        if not _canonical:
            raise ValueError("use Subspace.from_vectors")
        _check_ambient(ambient)
        self.field = field
        self.ambient = ambient
        self.rows = rows
        # from a list: tuple(generator) is sized 10, then cut down (see `_lifted`)
        self._pivots = tuple([next(c for c, v in enumerate(row) if v) for row in rows])

    @classmethod
    def from_vectors(cls, field: Field, ambient: int, vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        rows = [tuple([field.of(v) for v in vec]) for vec in vectors]
        for row in rows:
            if len(row) != ambient:
                raise ValueError("vector length differs from ambient dimension")
        return cls._span(field, ambient, rows)

    @classmethod
    def _span(cls, field: Field, ambient: int, rows: list[Sequence[Scalar]]) -> "Subspace":
        """The span of rows of length ambient, of field values or ints; over Q it is lifted (`_lifted`) where it can be."""
        p = field.characteristic
        if p:
            echelon = _echelon(field, [{c: r for c, v in enumerate(row) if (r := v % p)} for row in rows])
        else:
            ints = [dict(zip(row, _integral(row.values()))) for row in _sparse(rows) if row]
            echelon = _lifted(ints, _echelon(_RESIDUES, [{c: r for c, v in row.items() if (r := v % _P)} for row in ints]))
            if echelon is None:
                echelon = _echelon(field, [{c: Fraction(v) for c, v in row.items()} for row in ints])
        return cls(field, ambient, tuple(_dense(field, ambient, echelon)), _canonical=True)

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, (), _canonical=True)

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        """F^ambient, built once per (field, ambient) and then shared: subspaces are immutable values."""
        _check_ambient(ambient)
        return _full(field, ambient)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and other.field == self.field
            and other.ambient == self.ambient
            and other.rows == self.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(render_vector(self.field, r) for r in self.rows)
        return f"Subspace({self.field}, dim {self.dim} of {self.ambient}: {body})"

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient != other.ambient:
            raise ValueError("subspaces live in different ambient spaces")

    def pivot_columns(self) -> tuple[int, ...]:
        return self._pivots

    def _field_values(self, v: Sequence[Scalar]) -> list[Scalar]:
        """A caller's vector as field values; ValueError unless its length is the ambient dimension."""
        if len(v) != self.ambient:
            raise ValueError("vector length differs from ambient dimension")
        return [self.field.of(x) for x in v]

    def reduce(self, v: Sequence[Scalar]) -> Vector:
        """Residual of v after subtracting its projection onto the basis rows."""
        residual = self._field_values(v)
        for row, pc in zip(self.rows, self._pivots):
            if c := residual[pc]:
                residual = [self.field.reduce(a - c * b) for a, b in zip(residual, row)]
        return tuple(residual)

    def _contains_all(self, vectors: Iterable[Sequence[Scalar]]) -> bool:
        """Whether every vector (field values) lies in S, by `_in_span`; stops at the first that does not."""
        outside = [c for c in range(self.ambient) if c not in self._pivots]
        return all(_in_span(v, self.rows, self._pivots, outside, self.field.characteristic) for v in vectors)

    def __le__(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return other._contains_all(self.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace._span(self.field, self.ambient, list(self.rows + other.rows))


@lru_cache(maxsize=None)
def _full(field: Field, ambient: int) -> Subspace:
    rows = tuple([basis_vector(field, ambient, i) for i in range(ambient)])
    return Subspace(field, ambient, rows, _canonical=True)


def nonzero_elements(s: Subspace) -> Iterator[Vector]:
    """Every nonzero element of a subspace over GF(p), once each.

    The elements are the combinations of the canonical basis rows, with the
    p^dim - 1 nonzero coefficient tuples taken in lexicographic order.
    """
    p = s.field.characteristic
    if p == 0:
        raise ValueError("cannot enumerate a subspace over the rationals")
    for coeffs in product(range(p), repeat=s.dim):
        if any(coeffs):
            yield linear_combination(s.field, coeffs, s.rows)
