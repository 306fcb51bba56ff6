"""Leibniz algebra values and their structural invariants.

An algebra is a structure tensor c[i][j][k] over an exact field, defining
[e_i, e_j] = sum_k c[i][j][k] e_k.  The left Leibniz identity

    [[a, b], c] = [a, [b, c]] - [b, [a, c]]

holds on the whole algebra iff it holds on all basis triples, because the
defect is trilinear; `check_left_leibniz` therefore tests exactly the n^3
basis triples.  The constructor runs that check and raises
`LeibnizIdentityError` when it finds a violation, so every `LeibnizAlgebra`
value satisfies the identity and no function taking one checks it again.

The constructor builds the tensor, the integer table c·T and the map back
from it in one pass, with c the lcm of the denominators of T (c = 1 over
GF(p), where the table is T).  A caller's table is coerced with `Field.of`
and checked; a table the library derives by exact arithmetic from a valid
algebra (`restrict_to_subalgebra`, `algebra_in_basis`) is canonical
already, and is taken as it is.  The bracket, the identity check, the
product spaces, the closure and ideal tests, the centralisers, the
derivation rows, the restriction and the change of basis all read the
integer table.  Everything but the bracket, the restriction and the change
of basis, which divide by c, uses it as it is, and stays exact:

- c[x, y] is the bracket of an isomorphic algebra, under x -> x/c, so every
  subspace an invariant is built from (product spaces, centres, both
  central series, derivation spaces) is the same for both tables;
- scaling a row, or a whole constraint system, by a nonzero constant
  changes no span and no kernel, so vectors are scaled to integers before
  they are bracketed or reduced;
- the identity residual is quadratic in the table, so it scales by c^2: the
  same triples fail, and a reported residual is divided back by c^2.

Two vectors are multiplied by one loop, `_product`, over the nonzero
entries of the integer table.  It returns the unreduced accumulators of
[x, y], and each reader reduces them once: `bracket`, the spans of
`product_subspace` and `_squares_span`, the membership test behind the
closure and ideal tests, and the GF(p) lattice filter.
`algebra_in_basis` takes them on the integer rows
q_a = s_a p_a of the new basis and divides once per entry: with
P^-1 = A/δ and w_ab = `_product`(q_a, q_b), entry m of [p_a, p_b] is
(w_ab · A[:, m]) / (δ c s_a s_b).

A table of products over the rows x_i of S has one format, the library's:
products[i][j] = `_product`(x_i, x_j), congruent to [x_i, x_j] mod p over
GF(p), and c·[x_i, x_j] over Q, where the rows are `Fraction`s.  Whether a
product lies in S does not depend on that scale.  The closure test that
returns its table is `_closed_products`: it multiplies each pair of rows of
S once and raises unless every product lies in S.
`restrict_to_subalgebra` and `cyclic.is_cyclic_subalgebra` read their
tables off it, and `lattice.rational_codim1_report` hands one table to both
`_restriction` and `cyclic._cyclic_generator`; the GF(p) lattice builds its
own in its closure filter.  `_restriction` is the one reader that turns a
table into field values, w mod p or w / c, as `bracket` does.

The identities are imposed on a generating set.  In a left Leibniz algebra
every left multiplication [a, .] is a derivation.  By that identity the
vectors on which each condition below holds form a subalgebra, which is
all of L once it contains a generating set G.

- The derivation defect δ(x,y) = D[x,y] − [Dx,y] − [x,Dy] satisfies
  δ([u,v],y) = δ(u,[v,y]) − δ(v,[u,y]) + [u,δ(v,y)] − [v,δ(u,y)] − [δ(u,v),y],
  so {x : δ(x,·) = 0} is a subalgebra.
- The right-derivation defect ρ(x,y) = g([x,y]) − [x,g(y)] + [y,g(x)]
  satisfies
  ρ([u,v],y) = ρ(u,[v,y]) − ρ(v,[u,y]) + [u,ρ(v,y)] − [v,ρ(u,y)] + [y,ρ(u,v)],
  so {x : ρ(x,·) = 0} is a subalgebra.
- For an ideal Z and any x, {y : [x,y] ∈ Z} and {y : [y,x] ∈ Z} are
  subalgebras, by [x,[u,v]] = [[x,u],v] + [u,[x,v]] and
  [[u,v],x] = [u,[v,x]] − [v,[u,x]].  The centres take Z = 0 and the upper
  series a previous term, both ideals, so a centraliser reads only the
  table cells (i, g) and (g, i), g ∈ G.
- [L, g_k] = Σ_{g∈G} [g, g_k] for the lower series, by induction on the
  right-normed words w = [g,w'] that span L: for y ∈ g_k,
  [[g,w'],y] = [g,[w',y]] − [w',[g,y]], where [w',y] and [g,y] lie in
  g_{k+1} ⊆ g_k, so the first term lies in [g, g_k] and the second, by
  induction, in the sum.

So `derivations._constraint_rows` builds the rows of the pairs (e_g, e_j),
g ∈ G, and the kernels, centralisers and series are the same canonical
subspaces as on all n^2 pairs.  `_generators` finds G: the basis indices,
taken greedily in order, whose unit vectors generate L.  The subalgebra
generated by G is the span of the right-normed words [g_1,[g_2,[…]]], the
smallest subspace that contains G and is closed under [g, .], g ∈ G
(expand [[g,w],v] = [g,[w,v]] − [w,[g,v]] by induction on the length of
w).  Its rank is decided modulo p over GF(p), and modulo P = 2^61 − 1 on
the integer table over Q.  There the words are the residues of integer
words, whose rank mod P is at most their rank over Q: a unit vector inside
⟨G⟩ may look outside and add a needless generator, but the search ends
with every unit vector in the span mod P, rank n, and so rank n over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import index, mul
from typing import Iterator, Sequence

from .linalg import _P, Field, Matrix, Scalar, Subspace, Vector, _integral, _kernel


@dataclass(frozen=True)
class IdentityViolation:
    """A basis triple (1-based) where the left Leibniz identity fails."""

    indices: tuple[int, int, int]
    residual: Vector


class LeibnizIdentityError(ValueError):
    """A structure tensor that violates the left Leibniz identity; `.violations` lists where."""

    def __init__(self, violations: tuple[IdentityViolation, ...]):
        first = violations[0]
        super().__init__(
            f"left Leibniz identity fails on {len(violations)} basis triples, first at {first.indices}"
        )
        self.violations = violations

    def __reduce__(self):
        return type(self), (self.violations,)


def _product(table, x: Sequence[Scalar], y: Sequence[Scalar]) -> list:
    """The accumulators of [x, y] on an integer table, unreduced: the one loop over its nonzero entries."""
    acc = [0] * len(table)
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = table[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, w in row[j]:
                acc[k] += c * w
    return acc


class LeibnizAlgebra:
    """Finite-dimensional Leibniz algebra given by its structure tensor.

    Raises `LeibnizIdentityError` for a tensor that violates the identity.
    `_derived` takes the tensor as it is, with no coercion, shape check or
    identity check: it is for nested tuples of canonical field values that
    exact arithmetic derived from an algebra that passed the check.
    """

    __slots__ = ("field", "dim", "tensor", "_table", "_scale", "_violations")

    def __init__(
        self,
        field: Field,
        tensor: Sequence[Sequence[Sequence[Scalar]]],
        *,
        _derived: bool = False,
    ):
        n = len(tensor)
        if n == 0:
            raise ValueError("algebra dimension must be positive")
        if not _derived:
            if any(len(plane) != n or any(len(vec) != n for vec in plane) for plane in tensor):
                raise ValueError("structure tensor is not n x n x n")
            tensor = [tuple([tuple([field.of(v) for v in vec]) for vec in plane]) for plane in tensor]
        self.field = field
        self.dim = n
        self.tensor: tuple[tuple[Vector, ...], ...] = tuple(tensor)
        # the integer table as its nonzero entries: _table[i][j] holds
        # (k, c·T[i][j][k]), with c = _scale
        scale = lcm(*[v.denominator for plane in self.tensor for vec in plane for v in vec])
        self._table = tuple([
            tuple([tuple([(k, v.numerator * (scale // v.denominator)) for k, v in enumerate(vec) if v]) for vec in plane])
            for plane in self.tensor
        ])
        self._scale = scale
        self._violations: tuple[IdentityViolation, ...] | None = () if _derived else None
        if not _derived and self.check_left_leibniz():
            raise LeibnizIdentityError(self._violations)

    @classmethod
    def from_brackets(
        cls,
        field: Field,
        dim: int,
        brackets: dict[tuple[int, int], dict[int, Scalar]],
    ) -> "LeibnizAlgebra":
        """Build from sparse 0-based bracket data {(i, j): {k: coefficient}}.

        Raises ValueError for an index i, j or k outside 0..dim-1.
        """
        tensor = [[[field.zero] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), terms in brackets.items():
            for index in (i, j, *terms):
                if not 0 <= index < dim:
                    raise ValueError(f"index {index} in bracket {(i, j)}: {terms} lies outside 0..{dim - 1}")
            for k, c in terms.items():
                tensor[i][j][k] = c
        return cls(field, tensor)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LeibnizAlgebra)
            and other.field == self.field
            and other.tensor == self.tensor
        )

    def __hash__(self) -> int:
        return hash((self.field, self.tensor))

    def __repr__(self) -> str:
        return f"LeibnizAlgebra({self.field}, dim {self.dim})"

    # -- bracket ---------------------------------------------------------

    def basis_bracket(self, i: int, j: int) -> Vector:
        return self.tensor[i][j]

    def bracket(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
        """Bilinear extension of the structure tensor.

        x and y are field values (see `linalg`) and are not coerced.  Ints
        work over either field, since only the result is reduced, by
        index(v) % p or Fraction(v, c); an inexact entry, a float say, is a
        TypeError from either.
        """
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ValueError("vector length differs from the algebra dimension")
        p, scale = self.field.characteristic, self._scale
        acc = _product(self._table, x, y)
        return tuple([index(v) % p for v in acc] if p else [Fraction(v, scale) for v in acc])

    # -- identity check ----------------------------------------------------

    def check_left_leibniz(self) -> tuple[IdentityViolation, ...]:
        """Violations of [[a,b],c] - [a,[b,c]] + [b,[a,c]] = 0 on basis triples.

        Returned in lexicographic (i, j, k) order with 1-based indices.  The
        constructor runs this check, so on a constructed algebra it returns
        the cached empty tuple.  The residuals are summed in integers on the
        integer table, where they come out c^2 times the true ones.
        """
        if self._violations is not None:
            return self._violations
        n = self.dim
        nz = self._table
        p, square = self.field.characteristic, self._scale**2
        violations = []
        for i in range(n):
            for j in range(n):
                nz_ij = nz[i][j]
                for k in range(n):
                    acc = [0] * n
                    for m, c in nz_ij:
                        for l, w in nz[m][k]:
                            acc[l] += c * w
                    for m, c in nz[j][k]:
                        for l, w in nz[i][m]:
                            acc[l] -= c * w
                    for m, c in nz[i][k]:
                        for l, w in nz[j][m]:
                            acc[l] += c * w
                    # quadratic in the table: c^2 times the true residual (c = 1 over GF(p))
                    if any(acc) and any(residual := tuple([v % p for v in acc] if p else [Fraction(v, square) for v in acc])):
                        violations.append(IdentityViolation((i + 1, j + 1, k + 1), residual))
        self._violations = tuple(violations)
        return self._violations


# -- subspace-level operations -------------------------------------------

def full_space(algebra: LeibnizAlgebra) -> Subspace:
    return Subspace.full(algebra.field, algebra.dim)


def _check_inside(algebra: LeibnizAlgebra, *spaces: Subspace) -> None:
    """Raises ValueError unless every subspace lies in the algebra's own field and space."""
    if any(s.field != algebra.field or s.ambient != algebra.dim for s in spaces):
        raise ValueError("subspace lives outside the algebra")


def product_subspace(algebra: LeibnizAlgebra, s: Subspace, t: Subspace) -> Subspace:
    """span{[x, y] : x in basis(S), y in basis(T)}; bilinearity makes this the full product span.

    The rows are scaled to integers and bracketed on the integer table,
    which changes no span, and the integer products go to the span as they
    are: it reduces them modulo p over GF(p) and modulo 2^61 - 1 over Q
    (`linalg.Subspace._span`).  Raises ValueError when S or T lives outside
    the algebra.
    """
    _check_inside(algebra, s, t)
    table = algebra._table
    ys = [_integral(y) for y in t.rows]
    products = [_product(table, x, y) for x in map(_integral, s.rows) for y in ys]
    return Subspace._span(algebra.field, algebra.dim, products)


def _closed_products(algebra: LeibnizAlgebra, s: Subspace) -> list[list]:
    """The table `_product`(x, y) over the rows x, y of S, each pair multiplied once.

    An entry is congruent to [x, y] mod p over GF(p), and is c·[x, y] over
    Q; the membership test reduces it, and `_restriction` reads it.  Raises
    ValueError when S lives outside the algebra or is not closed under the
    bracket.
    """
    _check_inside(algebra, s)
    table = algebra._table
    products = [[_product(table, x, y) for y in s.rows] for x in s.rows]
    if not s._contains_all(w for line in products for w in line):
        raise ValueError("subspace is not closed under the bracket")
    return products


def _brackets_in(algebra: LeibnizAlgebra, s: Subspace, xs: Sequence[Vector], ys: Sequence[Vector]) -> bool:
    """Whether the `_product` of x and y lies in S for every x in xs and y in ys; by bilinearity basis rows suffice."""
    _check_inside(algebra, s)
    table = algebra._table
    return s._contains_all(_product(table, x, y) for x in xs for y in ys)


def is_subalgebra(algebra: LeibnizAlgebra, s: Subspace) -> bool:
    return _brackets_in(algebra, s, s.rows, s.rows)


def is_left_ideal(algebra: LeibnizAlgebra, s: Subspace) -> bool:
    return _brackets_in(algebra, s, full_space(algebra).rows, s.rows)


def is_right_ideal(algebra: LeibnizAlgebra, s: Subspace) -> bool:
    return _brackets_in(algebra, s, s.rows, full_space(algebra).rows)


def is_ideal(algebra: LeibnizAlgebra, s: Subspace) -> bool:
    return is_left_ideal(algebra, s) and is_right_ideal(algebra, s)


# -- structural invariants -----------------------------------------------

def _polarization(products: Sequence[Sequence[Vector]]) -> Iterator[Sequence[Scalar]]:
    """The generators of span{[x, x] : x in span{x_1..x_k}}, from the table products[i][j] = [x_i, x_j], one at a time.

    Polarization [x+y, x+y] = [x,x] + [y,y] + [x,y] + [y,x] shows the span
    is generated by {[x_i, x_i]} together with {[x_i, x_j] + [x_j, x_i]},
    i < j, in every characteristic; the squares come first.  Each pair is
    taken once: with i = j the sum would be 2[x_i, x_i], which vanishes in
    characteristic 2.  The sums are raw, not reduced, so a `_product` table
    (module docstring) will do wherever only their span or their vanishing
    matters.
    """
    k = len(products)
    for i in range(k):
        yield products[i][i]
    for i in range(k):
        for j in range(i + 1, k):
            yield [a + b for a, b in zip(products[i][j], products[j][i])]


def _squares_span(algebra: LeibnizAlgebra, products: Sequence[Sequence[Vector]]) -> Subspace:
    """span{[x, x] : x in span{x_1..x_k}}: the span of `_polarization`(products), which does not depend on scale."""
    return Subspace._span(algebra.field, algebra.dim, list(_polarization(products)))


def leibniz_kernel(algebra: LeibnizAlgebra) -> Subspace:
    """Span of all squares [x, x]: by polarization (`_squares_span`), of the integer table's cells (i, i) and (i, j) + (j, i), j > i."""
    table, n = algebra._table, algebra.dim
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [0] * n
            for k, w in table[i][j] + (table[j][i] if j > i else ()):
                row[k] += w
            rows.append(row)
    return Subspace._span(algebra.field, n, rows)


def _generators(algebra: LeibnizAlgebra) -> list[int]:
    """The basis indices g, taken greedily in order, whose unit vectors e_g generate the algebra.

    The right-normed words of the module docstring are kept modulo p, or
    modulo P over Q, in echelon form, each only if it is independent of
    those kept.  A new generator g brings e_g and [e_g, w] for the words w
    kept, and each new word w brings [e_h, w] for every generator h.
    """
    n, table = algebra.dim, algebra._table
    p = algebra.field.characteristic or _P
    units = [[int(c == g) for c in range(n)] for g in range(n)]
    words: dict[int, list[int]] = {}  # leading column -> word, 1 there and 0 before

    def residual(w):
        for pc in sorted(words):
            if f := w[pc]:
                w = [(a - f * b) % p for a, b in zip(w, words[pc])]
        return w

    gens = []
    for g in range(n):
        if not any(residual(units[g])):
            continue
        gens.append(g)
        todo = [units[g], *[_product(table, units[g], w) for w in words.values()]]
        while todo:
            w = residual([v % p for v in todo.pop()])
            if any(w):
                pc = next(c for c, v in enumerate(w) if v)
                inv = pow(w[pc], -1, p)
                words[pc] = w = [v * inv % p for v in w]
                todo += [_product(table, units[h], w) for h in gens]
    return gens


def _centraliser(
    algebra: LeibnizAlgebra, gens: Sequence[int], z: Subspace | None = None, *, left: bool = True, right: bool = True
) -> Subspace:
    """{x : [x, e_g] in Z (left) and [e_g, x] in Z (right) for all g in gens}; Z defaults to 0.

    For generators gens and Z = 0 or an upper-series term this is the
    centraliser of L (module docstring).  x -> [x, e_g] mod Z is linear, so
    each side contributes one constraint row per (g, output coordinate),
    with coefficients the residuals of the entries of the integer table
    cells (i, g) or (g, i) against Z.  Row pc of Z, scaled to
    integers, is m_pc z_pc with m_pc at its pivot; with M the lcm of the
    m_pc, the residual of v is M v - sum over pc of v[pc] (M / m_pc) m_pc z_pc,
    M times the true one, and all in integers.  The zero rows constrain
    nothing and are dropped; on a sparse table they are most of the rows.
    """
    n = algebra.dim
    field = algebra.field
    nz = algebra._table
    zint = [] if z is None else [(pc, _integral(row)) for pc, row in zip(z.pivot_columns(), z.rows)]
    scale = lcm(*[row[pc] for pc, row in zint])

    def residual(entries):
        v = [0] * n
        for k, w in entries:
            v[k] = scale * w
        for pc, row in zint:
            f = v[pc] // row[pc]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return v

    rows = []
    # list, not generator, arguments to zip: see `linalg._lifted`
    for g in gens:
        if left:
            rows.extend(zip(*[residual(nz[i][g]) for i in range(n)]))
        if right:
            rows.extend(zip(*[residual(nz[g][i]) for i in range(n)]))
    return _kernel(field, n, [{c: v for c, v in enumerate(row) if v} for row in rows if any(row)])


def left_center(algebra: LeibnizAlgebra) -> Subspace:
    return _centraliser(algebra, _generators(algebra), right=False)


def right_center(algebra: LeibnizAlgebra) -> Subspace:
    return _centraliser(algebra, _generators(algebra), left=False)


def center(algebra: LeibnizAlgebra) -> Subspace:
    return _centraliser(algebra, _generators(algebra))


def lower_central_series(algebra: LeibnizAlgebra) -> tuple[Subspace, ...]:
    """Terms of L = g_1 >= g_2 >= ..., g_{k+1} = [L, g_k], up to stabilization.

    The stabilized value appears once as the final term; for a nilpotent
    algebra the final term is the zero subspace.
    """
    return _lower_series(algebra, _generators(algebra))


def _lower_series(algebra: LeibnizAlgebra, gens: Sequence[int]) -> tuple[Subspace, ...]:
    """The lower central series, with [L, g_k] taken as [span{e_g : g in gens}, g_k] (module docstring)."""
    full = full_space(algebra)
    # increasing unit vectors: the canonical basis of their span
    span = Subspace(algebra.field, algebra.dim, tuple([full.rows[g] for g in gens]), _canonical=True)
    terms = [full]
    while True:
        nxt = product_subspace(algebra, span, terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return tuple(terms)


def nilpotency_class(algebra: LeibnizAlgebra) -> int | None:
    return _class_of(lower_central_series(algebra))


def _class_of(series: tuple[Subspace, ...]) -> int | None:
    """The nilpotency class read off a lower central series: None unless it ends at 0."""
    return len(series) - 1 if series[-1].dim == 0 else None


def upper_central_series(algebra: LeibnizAlgebra) -> tuple[Subspace, ...]:
    """Terms z_1 <= z_2 <= ... up to stabilization; the last term is the hypercenter."""
    return _upper_series(algebra, _generators(algebra))


def _upper_series(algebra: LeibnizAlgebra, gens: Sequence[int]) -> tuple[Subspace, ...]:
    """The upper central series, each term the centraliser of the last on generators gens."""
    prev = Subspace.zero(algebra.field, algebra.dim)
    terms: list[Subspace] = []
    while True:
        nxt = _centraliser(algebra, gens, prev)
        if nxt == prev:
            break
        terms.append(nxt)
        prev = nxt
    if not terms:
        terms.append(prev)
    return tuple(terms)


def hypercenter(algebra: LeibnizAlgebra) -> Subspace:
    return upper_central_series(algebra)[-1]


# -- derived algebra values ------------------------------------------------

def restrict_to_subalgebra(algebra: LeibnizAlgebra, s: Subspace) -> LeibnizAlgebra:
    """The algebra induced on a subalgebra, in the coordinates of its canonical basis."""
    products = _closed_products(algebra, s)
    if not products:
        raise ValueError("cannot restrict to the zero subspace")
    return _restriction(algebra, s, products)


def _restriction(algebra: LeibnizAlgebra, s: Subspace, products: list[list]) -> LeibnizAlgebra:
    """The algebra on a nonzero subalgebra S read off its table products[i][j] = `_product`(x_i, x_j); nothing is checked.

    Each product lies in S, whose basis is RREF, so its coordinates are its
    pivot entries: w[pc] % p over GF(p), and w[pc] / c over Q.  An entry no
    term touched is the int 0, so it is made a `Fraction` before the division.
    """
    p, scale = algebra.field.characteristic, algebra._scale
    pivots = s.pivot_columns()
    tensor = [
        tuple([tuple([w[pc] % p for pc in pivots] if p else [Fraction(w[pc]) / scale for pc in pivots]) for w in line])
        for line in products
    ]
    return LeibnizAlgebra(algebra.field, tensor, _derived=True)


def algebra_in_basis(algebra: LeibnizAlgebra, rows: Sequence[Vector]) -> LeibnizAlgebra:
    """The same algebra expressed in a new basis (rows = new basis in old coordinates).

    It runs on the integer table c·T.  Each row p_a is scaled to integers,
    q_a = s_a p_a (`_integral`), and the inverse of P is written as A/δ, with
    A an integer matrix and δ the lcm of its denominators.  Then
    w_ab = `_product`(table, q_a, q_b) = c s_a s_b [p_a, p_b], and entry m of
    [p_a, p_b] in the new basis is (w_ab · A[:, m]) / (δ c s_a s_b): one
    division per nonzero entry.  Over GF(p), δ, c and s_a are 1, and the
    division is the reduction mod p.
    """
    n = algebra.dim
    if len(rows) != n:
        raise ValueError("need exactly dim basis vectors")
    field, table = algebra.field, algebra._table
    p, zero = field.characteristic, field.zero
    matrix = Matrix(field, rows)
    inverse = matrix.inverse().data
    delta = lcm(*[v.denominator for row in inverse for v in row])
    # new coordinates of w are (P^T)^-1 w = sum_i w_i * (row i of P^-1)
    columns = list(zip(*[[v.numerator * (delta // v.denominator) for v in row] for row in inverse]))
    scaled = [(_integral(row), lcm(*[v.denominator for v in row])) for row in matrix.data]
    tensor = []
    for qa, sa in scaled:
        plane = []
        for qb, sb in scaled:
            w, d = _product(table, qa, qb), delta * algebra._scale * sa * sb
            entries = [sum(map(mul, w, col)) for col in columns]
            plane.append(tuple([(v % p if p else Fraction(v, d)) if v else zero for v in entries]))
        tensor.append(tuple(plane))
    return LeibnizAlgebra(field, tensor, _derived=True)


# -- the aggregated invariant profile --------------------------------------

@dataclass(frozen=True)
class AlgebraReport:
    """Invariant profile used as an isomorphism-coarse fingerprint."""

    field_label: str
    dim: int
    leibniz_kernel_dim: int
    left_center_dim: int
    right_center_dim: int
    center_dim: int
    lower_central_series_dims: tuple[int, ...]
    upper_central_series_dims: tuple[int, ...]
    nilpotency_class: int | None
    is_lie: bool
    derivation_dim: int
    right_derivation_dim: int

    def as_dict(self) -> dict:
        return {
            "field": self.field_label,
            "dim": self.dim,
            "leibniz_kernel_dim": self.leibniz_kernel_dim,
            "left_center_dim": self.left_center_dim,
            "right_center_dim": self.right_center_dim,
            "center_dim": self.center_dim,
            "lower_central_series_dims": list(self.lower_central_series_dims),
            "upper_central_series_dims": list(self.upper_central_series_dims),
            "nilpotency_class": self.nilpotency_class,
            "is_lie": self.is_lie,
            "derivation_dim": self.derivation_dim,
            "right_derivation_dim": self.right_derivation_dim,
        }


def invariant_profile(algebra: LeibnizAlgebra) -> AlgebraReport:
    """Deterministically fill every report field.

    The generating set G of the module docstring is found once per call
    and imposes the identities of the centres, both series and both
    derivation spaces.
    """
    from . import derivations  # local import; derivations depends on this module

    gens = _generators(algebra)
    leib = leibniz_kernel(algebra)
    lower = _lower_series(algebra, gens)
    upper = _upper_series(algebra, gens)
    return AlgebraReport(
        field_label=algebra.field.label,
        dim=algebra.dim,
        leibniz_kernel_dim=leib.dim,
        left_center_dim=_centraliser(algebra, gens, right=False).dim,
        right_center_dim=_centraliser(algebra, gens, left=False).dim,
        center_dim=upper[0].dim,  # z_1, the first term, is the centre
        lower_central_series_dims=tuple([s.dim for s in lower]),
        upper_central_series_dims=tuple([s.dim for s in upper]),
        nilpotency_class=_class_of(lower),
        is_lie=leib.dim == 0,
        derivation_dim=derivations._kernel_basis(algebra, "left-derivation", gens).dim,
        right_derivation_dim=derivations._kernel_basis(algebra, "right-derivation", gens).dim,
    )
