import random
from decimal import Decimal
from fractions import Fraction
from math import lcm
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from leibniz import linalg
from leibniz.families import cyclic_nilpotent
from leibniz.linalg import (
    GF,
    QQ,
    Field,
    Matrix,
    Subspace,
    _LIFT_BOUND,
    _RESIDUES,
    _echelon,
    _integral,
    _kernel,
    _kernel_echelon,
    _lift,
    _lifted,
    _P,
    _sparse,
    basis_vector,
    linear_combination,
    nonzero_elements,
    solve,
)


def test_field_validation():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(1)
    with pytest.raises(ValueError):
        Field(1 << 31)
    # the characteristic is an int, not a float or a bool that compares equal to one
    for bad in (0.0, 2.0, 3.5, False, True, Fraction(0), "0", None):
        with pytest.raises(ValueError):
            Field(bad)
    assert Field(0) == Field() == QQ and Field(5) == GF(5)


def test_field_arithmetic_exact():
    f = GF(7)
    assert f.reduce(5 + 4) == 2
    assert f.reduce(3 * 5) == 1
    assert f.inv(3) == 5
    assert f.of(Fraction(1, 2)) == 4
    assert QQ.reduce(Fraction(1, 3) + Fraction(1, 6)) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


@given(num=st.integers(-40, 40), den=st.integers(1, 40))
def test_rational_scalar_roundtrip(num, den):
    x = Fraction(num, den)
    assert QQ.parse(QQ.render(x)) == x


@given(p=st.sampled_from([2, 3, 5, 11]), data=st.data())
def test_prime_scalar_roundtrip(p, data):
    f = GF(p)
    x = data.draw(st.integers(0, p - 1))
    assert f.parse(f.render(x)) == x


def test_prime_scalar_parse_rejects_out_of_range():
    with pytest.raises(ValueError):
        GF(5).parse("5")
    with pytest.raises(ValueError):
        GF(5).parse("-1")


def test_rref_identity_fixed():
    m = Matrix.identity(QQ, 2)
    assert Subspace.from_vectors(QQ, 2, m.data).rows == m.data


def test_rref_proportional_rows():
    assert Subspace.from_vectors(QQ, 2, [[2, 4], [1, 2]]).rows == ((1, 2),)


def test_rref_gf2_hand_elimination():
    # [[1,1],[1,0]] over GF(2): subtract row1 from row2 -> [[1,1],[0,1]], clear -> I.
    rows = Subspace.from_vectors(GF(2), 2, [[1, 1], [1, 0]]).rows
    assert rows == Matrix.identity(GF(2), 2).data


def test_kernel_zero_map():
    k = Matrix(QQ, [[0] * 3] * 3).kernel()
    assert k == Subspace.full(QQ, 3)


def test_kernel_identity():
    assert Matrix.identity(QQ, 4).kernel() == Subspace.zero(QQ, 4)


def test_kernel_single_equation():
    # x + 2y = 0 -> span{(-2, 1)}; canonical form rescales to (1, -1/2).
    k = Matrix(QQ, [[1, 2]]).kernel()
    assert k == Subspace.from_vectors(QQ, 2, [(-2, 1)])
    assert k.rows == ((Fraction(1), Fraction(-1, 2)),)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_reduces_integer_rows_modulo_p(p):
    """Rows of any ints give the kernel of their residues, whatever multiples of p they carry."""
    field = GF(p)
    rng = random.Random(p)
    for _ in range(40):
        ncols = rng.randint(1, 6)
        dense = [[rng.randint(-2 * p, 2 * p) for _ in range(ncols)] for _ in range(rng.randint(1, 5))]
        rows = [{c: v for c, v in enumerate(row) if v} for row in dense]
        shifted = [{c: w for c, v in row.items() if (w := v + p * rng.randint(-3, 3))} for row in rows]
        expected = Matrix(field, dense).kernel()
        assert _kernel(field, ncols, rows) == _kernel(field, ncols, shifted) == expected, dense


def test_solve_identity():
    m = Matrix.identity(QQ, 3)
    assert solve(m, (1, 2, 3)) == (1, 2, 3)


def test_solve_diagonal():
    m = Matrix(QQ, [[2, 0], [0, 3]])
    assert solve(m, (-2, 3)) == (Fraction(-1), Fraction(1))


def test_solve_inconsistent():
    m = Matrix(QQ, [[1], [1]])
    assert solve(m, (0, 1)) is None


def test_subspace_sum_spans_plane():
    e1 = Subspace.from_vectors(QQ, 2, [(1, 0)])
    e2 = Subspace.from_vectors(QQ, 2, [(0, 1)])
    assert e1.sum(e2) == Subspace.full(QQ, 2)


def test_subspace_contains():
    e1 = Subspace.from_vectors(QQ, 2, [(1, 0)])
    assert not e1._contains_all([(1, 1)])
    assert e1._contains_all([(7, 0)])
    assert not e1._contains_all([(7, 0), (1, 1)])


def test_negative_ambient_dimensions_are_rejected():
    for build in (
        lambda: Subspace.full(QQ, -1),
        lambda: Subspace.zero(QQ, -1),
        lambda: Subspace.from_vectors(QQ, -2, []),
        lambda: Subspace.full(GF(3), -2),
        # an ambient dimension that is not an int is refused too
        lambda: Subspace.zero(QQ, 2.5),
        lambda: Subspace.zero(QQ, True),
        lambda: Subspace.from_vectors(QQ, 2.0, []),
    ):
        with pytest.raises(ValueError):
            build()
    # ambient 0 stays valid: the zero space of F^0, and the kernel of an empty matrix
    assert Subspace.full(QQ, 0) == Subspace.zero(QQ, 0) == Subspace.from_vectors(QQ, 0, [])
    assert Matrix(QQ, []).kernel() == Subspace.zero(QQ, 0)


def test_full_space_is_built_once_and_checks_its_ambient():
    assert Subspace.full(GF(5), 3) is Subspace.full(GF(5), 3)
    assert Subspace.full(GF(5), 3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert Subspace.full(QQ, 2) != Subspace.full(GF(5), 2)
    # True hashes as 1, and [2] cannot be hashed: both are refused before the shared copy is looked up
    Subspace.full(QQ, 1)
    for ambient in (True, [2], 2.0, "2", None, -1):
        with pytest.raises(ValueError):
            Subspace.full(QQ, ambient)


def test_subspace_ambient_mismatch_rejected():
    s = Subspace.from_vectors(QQ, 2, [(1, 0)])
    t = Subspace.from_vectors(QQ, 3, [(1, 0, 0)])
    with pytest.raises(ValueError):
        s.sum(t)
    u = Subspace.from_vectors(GF(2), 2, [(1, 0)])
    with pytest.raises(ValueError):
        s <= u


def _matrices(field_values, max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(field_values, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


@settings(max_examples=60, deadline=None)
@given(rows=_matrices(st.integers(-5, 5)))
def test_rref_idempotent_over_q(rows):
    r = Subspace.from_vectors(QQ, len(rows[0]), rows).rows
    assert Subspace.from_vectors(QQ, len(rows[0]), r).rows == r


@settings(max_examples=60, deadline=None)
@given(rows=_matrices(st.integers(0, 4)))
def test_rank_nullity_gf5(rows):
    m = Matrix(GF(5), rows)
    assert m.kernel().dim + m.rank() == m.ncols


def _gf2_subspaces(ambient=5):
    vec = st.lists(st.integers(0, 1), min_size=ambient, max_size=ambient)
    return st.lists(vec, min_size=0, max_size=ambient).map(
        lambda vs: Subspace.from_vectors(GF(2), ambient, vs)
    )


@settings(max_examples=80, deadline=None)
@given(a=_gf2_subspaces(), b=_gf2_subspaces(), c=_gf2_subspaces())
def test_lattice_sanity_gf2(a, b, c):
    # commutativity and canonical equality
    assert a.sum(b) == b.sum(a)
    # monotonicity
    assert a <= a.sum(b)
    # associativity, and the sum is the least upper bound
    assert a.sum(b).sum(c) == a.sum(b.sum(c))
    assert (a.sum(b) <= c) is (a <= c and b <= c)


@settings(max_examples=40, deadline=None)
@given(rows=_matrices(st.integers(-4, 4), max_dim=4), data=st.data())
def test_solve_agrees_with_multiplication(rows, data):
    m = Matrix(QQ, rows)
    x = data.draw(
        st.lists(st.integers(-3, 3), min_size=m.ncols, max_size=m.ncols)
    )

    def times(v):
        return tuple(sum(a * b for a, b in zip(row, v)) for row in rows)

    b = times(x)
    got = solve(m, b)
    assert got is not None
    assert times(got) == b


def test_matrix_operations_check_shapes():
    with pytest.raises(ValueError, match="ragged"):
        Matrix(QQ, [[1, 2], [3]])
    eye, wide = Matrix.identity(QQ, 2), Matrix(QQ, [[1, 2, 3], [4, 5, 6]])
    assert eye.mul(wide) == wide
    for a, b in ((wide, eye), (Matrix(QQ, []), eye), (eye, Matrix.identity(GF(3), 2))):
        with pytest.raises(ValueError, match="matrix product"):
            a.mul(b)
    with pytest.raises(ValueError, match="only square"):
        wide.inverse()
    for b in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="right-hand side"):
            solve(eye, b)


def test_matrix_column_rejects_an_index_out_of_range():
    m = Matrix(QQ, [[1, 2]])
    assert m.column(1) == (Fraction(2),)
    for j in (-1, 2, 1.0, True):
        with pytest.raises(ValueError):
            m.column(j)
    with pytest.raises(ValueError):
        Matrix(QQ, []).column(0)


def test_matrix_apply_coerces_the_vector():
    # solve is the one public matrix function that takes a caller's vector
    assert solve(Matrix(GF(3), [[1, 0], [0, 1]]), ["2", 4]) == (2, 1)
    assert solve(Matrix(QQ, [[2]]), ["1/10"]) == (Fraction(1, 20),)
    with pytest.raises(TypeError):
        solve(Matrix(GF(3), [[1, 0], [0, 1]]), [0.5, 0])
    with pytest.raises(TypeError):
        solve(Matrix(QQ, [[1]]), [0.1])
    with pytest.raises(ValueError):
        solve(Matrix(QQ, [[1]]), [1, 2])


def test_matrix_inverse():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert m.mul(inv) == Matrix.identity(QQ, 2)
    with pytest.raises(ValueError):
        Matrix(QQ, [[1, 2], [2, 4]]).inverse()


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)])
@pytest.mark.parametrize("value", [0.9, 0.1, 1.0, np.float64(2.0), np.float32(0.5)])
def test_floats_rejected_at_the_boundary(field, value):
    with pytest.raises(TypeError):
        field.of(value)
    with pytest.raises(TypeError):
        Matrix(field, [[1, value]])
    with pytest.raises(TypeError):
        Subspace.from_vectors(field, 2, [(value, 1)])
    with pytest.raises(TypeError):
        Subspace.full(field, 2).reduce((value, 0))
    with pytest.raises(TypeError):
        field.reduce(value)
    with pytest.raises(TypeError):
        cyclic_nilpotent(2, field).bracket((value, 0), (1, 0))


class _SubFraction(Fraction):
    pass


# each value with its image in Q, GF(3) and GF(5), or the exception raised
_OF_PARITY = [
    (0, Fraction(0), 0, 0),
    (-7, Fraction(-7), 2, 3),
    (12, Fraction(12), 0, 2),
    (True, Fraction(1), 1, 1),
    (Fraction(3, 4), Fraction(3, 4), 0, 2),
    (_SubFraction(1, 2), Fraction(1, 2), 2, 3),
    ("3/4", Fraction(3, 4), ValueError, ValueError),
    (" 2 ", Fraction(2), 2, 2),
    (0.5, TypeError, TypeError, TypeError),
    (Decimal("1"), TypeError, TypeError, TypeError),
    (np.int64(3), Fraction(3), 0, 3),
]


@pytest.mark.parametrize("value, q, gf3, gf5", _OF_PARITY, ids=[repr(row[0]) for row in _OF_PARITY])
def test_field_of_values_and_types(value, q, gf3, gf5):
    for field, image in zip((QQ, GF(3), GF(5)), (q, gf3, gf5)):
        if isinstance(image, type):
            with pytest.raises(image):
                field.of(value)
        else:
            got = field.of(value)
            assert got == image and type(got) is type(image), (field, value, got)
    for p in (3, 5):
        with pytest.raises(ZeroDivisionError):
            GF(p).of(Fraction(1, p))


def test_field_of_makes_every_integer_a_python_int():
    # a numpy int64 kept as a numerator would wrap around at 2^63
    big = QQ.of(np.int64(2**62))
    assert type(big.numerator) is int and big * 4 == 2**64
    product = Matrix(QQ, [[np.int64(2**62), 0], [0, 1]]).mul(Matrix(QQ, [[4, 0], [0, 1]]))
    assert product.data[0][0] == 2**64
    assert type(GF(5).of(np.int64(2**62))) is int
    # a rational that is neither an int nor a Fraction is not truncated
    assert GF(3).of(sympy.Rational(1, 2)) == 2 and QQ.of(sympy.Rational(1, 2)) == Fraction(1, 2)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_reduce_takes_exact_raw_values(field):
    assert field.reduce(7) == field.of(7)
    assert field.reduce(np.int64(-1)) == field.of(-1)
    assert cyclic_nilpotent(2, field).bracket((2, 0), (1, 0)) == (0, field.of(2))
    if field.characteristic:
        with pytest.raises(TypeError):
            field.reduce(Fraction(1, 2))
    else:
        assert field.reduce(Fraction(1, 2)) == Fraction(1, 2)


def test_boundary_reduces_out_of_range_ints():
    f = GF(5)
    assert f.of(np.int64(7)) == 2
    assert Matrix(f, [[7, -1]]).data == ((2, 4),)
    assert Subspace.from_vectors(f, 2, [[7, -1]]).rows == ((1, 2),)
    assert Subspace.zero(f, 2).reduce([7, -1]) == (2, 4)
    assert Subspace.from_vectors(f, 2, [(0, 1)]).reduce([7, -1]) == (2, 0)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2)])
def test_nonzero_elements_lexicographic(p, n):
    field = GF(p)
    full = Subspace.full(field, n)
    elements = list(nonzero_elements(full))
    # against the standard basis the coefficient tuple is the vector itself
    assert elements == sorted(elements)
    assert len(set(elements)) == p**n - 1
    assert (0,) * n not in elements


def test_nonzero_elements_of_a_plane():
    field = GF(3)
    s = Subspace.from_vectors(field, 3, [(1, 0, 2), (0, 1, 1)])
    elements = list(nonzero_elements(s))
    assert elements[:3] == [(0, 1, 1), (0, 2, 2), (1, 0, 2)]
    assert len(set(elements)) == 8 and s._contains_all(elements)
    with pytest.raises(ValueError):
        next(nonzero_elements(Subspace.full(QQ, 2)))


def _to_sympy(field, rows, ncols):
    if field.characteristic == 0:
        domain = sympy.QQ
        entries = [[domain(x.numerator, x.denominator) for x in row] for row in rows]
    else:
        domain = sympy.GF(field.characteristic)
        entries = [[domain(x) for x in row] for row in rows]
    return DomainMatrix(entries, (len(rows), ncols), domain)


def _from_sympy(field, dm):
    if field.characteristic == 0:
        return [tuple(Fraction(int(x.numerator), int(x.denominator)) for x in row) for row in dm.to_list()]
    return [tuple(int(x) % field.characteristic for x in row) for row in dm.to_list()]


def _rows_for_elimination(data, field):
    """Up to 10 x 8 rows of field values, mostly zero in one draw of two, with
    zero rows and repeats of the same row object; some rows are tuples.

    Hypothesis draws the shape, the row kinds and a seed; the values come
    from `random` with that seed, since building a strategy per draw took
    most of the time of the tests that use these rows.  A value is a
    fraction in [-3, 3] with denominator at most 3 over Q and a residue over
    GF(p); in the mostly-zero draws two values in three are zero.
    """
    nrows = data.draw(st.integers(1, 10))
    ncols = data.draw(st.integers(1, 8))
    kinds = data.draw(st.lists(st.sampled_from(["list", "tuple", "zero", "repeat"]), min_size=nrows, max_size=nrows))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    p = field.characteristic
    sparse = rng.random() < 0.5

    def value():
        if sparse and rng.randrange(3):
            return field.zero
        if p:
            return rng.randrange(p)
        d = rng.randint(1, 3)
        return field.of(Fraction(rng.randint(-3 * d, 3 * d), d))

    rows = []
    for kind in kinds:
        if kind == "repeat" and rows:
            rows.append(rng.choice(rows))
        elif kind == "zero":
            rows.append((field.zero,) * ncols)
        else:
            row = [value() for _ in range(ncols)]
            rows.append(tuple(row) if kind == "tuple" else row)
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from([QQ, GF(2), GF(3), GF(5)]), data=st.data())
def test_rref_and_kernel_match_sympy(field, data):
    rows, ncols = _rows_for_elimination(data, field)
    nrows = len(rows)
    snapshot = [(row, type(row), list(row)) for row in rows]
    reference = _to_sympy(field, rows, ncols)
    expected_rref, expected_pivots = reference.rref()
    expected = _from_sympy(field, expected_rref)

    m = Matrix(field, rows)
    assert list(Subspace.from_vectors(field, ncols, rows).rows) == [row for row in expected if any(row)]
    assert Subspace.from_vectors(field, ncols, rows).pivot_columns() == tuple(expected_pivots)
    for row, kind, values in snapshot:
        assert type(row) is kind and list(row) == values
    assert m.rank() == reference.rank()
    nullspace = _from_sympy(field, reference.nullspace())
    assert m.kernel() == Subspace.from_vectors(field, ncols, nullspace)

    k = min(nrows, ncols)
    block = [row[:k] for row in rows[:k]]
    square = _to_sympy(field, block, k)
    if square.rank() == k:
        assert list(Matrix(field, block).inverse().data) == _from_sympy(field, square.inv())
    else:
        with pytest.raises(ValueError):
            Matrix(field, block).inverse()

    b = [field.of(v) for v in data.draw(st.lists(st.integers(-2, 2), min_size=nrows, max_size=nrows))]
    augmented, aug_pivots = _to_sympy(field, [[*row, v] for row, v in zip(rows, b)], ncols + 1).rref()
    if ncols in aug_pivots:
        assert solve(m, b) is None
    else:
        augmented = _from_sympy(field, augmented)
        x = [field.zero] * ncols
        for r, pc in enumerate(aug_pivots):
            x[pc] = augmented[r][ncols]
        assert solve(m, b) == tuple(x)


def _rank(field, rows, ncols):
    return _to_sympy(field, rows, ncols).rank() if rows else 0


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from([QQ, GF(2), GF(3), GF(5)]), data=st.data())
def test_membership_matches_sympy_rank(field, data):
    """v lies in S iff rank(rows + [v]) == rank(rows), for a member of S and
    for that member changed at each column in turn, pivot or not."""
    rows, ncols = _rows_for_elimination(data, field)
    s = Subspace.from_vectors(field, ncols, rows)
    rank = _rank(field, rows, ncols)
    p = field.characteristic
    value = st.integers(0, p - 1) if p else st.fractions(min_value=-3, max_value=3, max_denominator=3)
    coeffs = [field.of(c) for c in data.draw(st.lists(value, min_size=s.dim, max_size=s.dim))]
    member = linear_combination(field, coeffs, s.rows) if s.rows else (field.zero,) * ncols
    delta = data.draw(value.map(field.of).filter(bool))
    vectors = [member]
    for c in range(ncols):
        changed = list(member)
        changed[c] = field.reduce(changed[c] + delta)
        vectors.append(tuple(changed))
    verdicts = []
    for v in vectors:
        inside = _rank(field, [*rows, v], ncols) == rank
        assert s._contains_all([v]) is inside
        verdicts.append(inside)
    assert verdicts[0]
    # every change off the pivots leaves S; a change at a pivot may not
    pivots = s.pivot_columns()
    assert not any(inside for c, inside in enumerate(verdicts[1:]) if c not in pivots)

    # _contains_all takes the vectors in order and stops at the first outside S
    outside = [v for v, inside in zip(vectors, verdicts) if not inside]
    assert s._contains_all(iter(vectors[:1] * 2))
    if outside:
        assert not s._contains_all([member, outside[0]])
        stream = iter([outside[0], member])
        assert not s._contains_all(stream)
        assert next(stream) == member

    # S <= T iff dim(S + T) == dim(T), for T spanned by some of S's rows and maybe one more
    t_rows = [row for row in rows if data.draw(st.booleans())]
    if data.draw(st.booleans()):
        t_rows.append(data.draw(st.sampled_from(vectors)))
    t = Subspace.from_vectors(field, ncols, t_rows)
    t_rank = _rank(field, t_rows, ncols)
    assert (s <= t) is (_rank(field, [*rows, *t_rows], ncols) == t_rank)
    assert (t <= s) is (_rank(field, [*rows, *t_rows], ncols) == rank)


def test_basis_vector_rejects_an_index_out_of_range():
    assert basis_vector(GF(3), 3, 2) == (0, 0, 1)
    assert basis_vector(QQ, 1, 0) == (Fraction(1),)
    for n, i in [(3, -1), (3, 3), (3, 5), (0, 0), (3, 1.0), (3, True)]:
        with pytest.raises(ValueError):
            basis_vector(QQ, n, i)


def _sympy_kernel(rows, ncols):
    """The RREF rows of the rational null space, both computed by sympy."""
    nullspace = _to_sympy(QQ, rows, ncols).nullspace()
    if nullspace.shape[0] == 0:
        return []
    return _from_sympy(QQ, nullspace.rref()[0])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rational_kernel_matches_sympy(data):
    # entries from small to large, so that both the lifted kernel and span
    # and the exact fallback (a lift past the lift or the size bound) are
    # reached; hypothesis draws the shape, the magnitude and a seed, and the
    # values come from `random`, as in `_rows_for_elimination`
    nrows, ncols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    size = data.draw(st.sampled_from([3, 1000, 10**9]))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))

    def value():
        if rng.randrange(2):
            return Fraction(0)
        d = rng.randint(1, size)
        return Fraction(rng.randint(-size * d, size * d), d)

    rows = [[value() for _ in range(ncols)] for _ in range(nrows)]
    kernel = Matrix(QQ, rows).kernel()
    assert list(kernel.rows) == _sympy_kernel(rows, ncols)
    assert all(type(v) is Fraction for row in kernel.rows for v in row)
    span = Subspace.from_vectors(QQ, ncols, rows)
    assert [row for row in _from_sympy(QQ, _to_sympy(QQ, rows, ncols).rref()[0]) if any(row)] == list(span.rows)
    assert all(type(v) is Fraction for row in span.rows for v in row)


@pytest.mark.parametrize(
    "rows",
    [
        [[Fraction(1, _P), 1]],  # P divides a denominator: the integer row (1, P) is (1, 0) mod P
        [[2**40, 1]],  # the kernel entry -2^40 is past the lift bound
        [[_P, 1], [0, 1]],  # rank 2 over Q, rank 1 mod P
    ],
    ids=["denominator", "lift-bound", "rank-drop"],
)
def test_rational_kernel_falls_back_to_exact_elimination(rows):
    rows = [[Fraction(v) for v in row] for row in rows]
    ints = _sparse(map(_integral, rows))
    assert _lifted(ints, _kernel_echelon(_RESIDUES, len(rows[0]), ints)) is None
    assert list(Matrix(QQ, rows).kernel().rows) == _sympy_kernel(rows, len(rows[0]))


@pytest.mark.parametrize("field", [GF(5), _RESIDUES], ids=["GF(5)", "residues"])
@pytest.mark.parametrize("value", [0.5, Fraction(1, 2)], ids=["float", "fraction"])
def test_elimination_rejects_a_value_that_skipped_the_boundary(field, value):
    # the elimination step reduces inline over a prime field; the first row
    # clears column 0 of the second, and then 1 * 1 - value must raise
    rows = [{0: 1, 1: 1}, {0: 1, 1: value}]
    with pytest.raises(TypeError) as excinfo:
        _echelon(field, rows)
    assert "subtract" in [entry.name for entry in excinfo.traceback]


@pytest.mark.parametrize(
    "rows",
    [
        [{0: 2**40, 1: 1}, {2: 1}],  # the second row touches only a dead column
        [{0: 2**40, 1: 1, 2: 1}, {2: 1}],  # the first row touches live and dead columns
    ],
    ids=["dead-row", "mixed-row"],
)
def test_lifted_kernel_check_skips_only_the_dead_columns(rows):
    # the kernel mod P is spanned by (1, -2^40, 0), whose lift (1, -1/2^21, 0)
    # is wrong; column 2 is dead, and the size bound must still refuse the lift
    assert _lifted(rows, _kernel_echelon(_RESIDUES, 3, rows)) is None
    dense = [[row.get(c, 0) for c in range(3)] for row in rows]
    assert list(Matrix(QQ, dense).kernel().rows) == _sympy_kernel(dense, 3)


def test_lift_is_the_smallest_fraction_of_a_residue():
    assert _lift(5 * pow(7, -1, _P) % _P) == Fraction(5, 7)
    assert _lift(_P - 3) == -3
    # -2^40 = -1/2^21 mod P, since 2^61 = 1: a wrong lift that only the
    # size bound catches
    assert _lift(-(2**40) % _P) == Fraction(-1, 2**21)


def test_span_bound_refuses_a_wrong_lift():
    # (1, 2^40) is (1, 1/2^21) mod P, and that lift has every entry within the
    # lift bound; only the size bound refuses it: B d (1 + k h) is
    # (2^40 + 1) 2^21 (1 + 1) >= P
    rows = [{0: 1, 1: 2**40}]
    echelon = _echelon(_RESIDUES, [dict(row) for row in rows])  # already residues
    assert {c: _lift(u) for c, u in echelon[0].items()} == {0: 1, 1: Fraction(1, 2**21)}
    assert _lifted(rows, echelon) is None
    span = Subspace.from_vectors(QQ, 2, [[1, 2**40]])
    assert span.rows == ((1, 2**40),)
    assert all(type(v) is Fraction for v in span.rows[0])


def test_linear_combination_of_zero_coefficients():
    assert linear_combination(QQ, [0, 0], [(1, 2, 3), (4, 5, 6)]) == (Fraction(0),) * 3
    assert linear_combination(GF(5), [0, 2], [(1, 2), (4, 3)]) == (3, 1)


def _is_rref(rows):
    """Whether dense rows are in reduced row echelon form, with no zero row."""
    leads = [next((c for c, v in enumerate(row) if v), None) for row in rows]
    return (
        None not in leads
        and leads == sorted(set(leads))
        and all(row[c] == (1 if a == b else 0) for b, c in enumerate(leads) for a, row in enumerate(rows))
    )


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from([GF(2), GF(5), QQ]), exact=st.booleans(), data=st.data())
def test_kernel_is_one_elimination_per_route_and_rref(field, exact, data):
    # one elimination modulo p over GF(p), one modulo P over Q, and where the
    # lift is refused (forced here by `exact`) one more over Q; none runs on
    # the null vectors, which must already be the kernel's RREF
    rows, ncols = _rows_for_elimination(data, field)
    fields = []
    echelon, lifted = linalg._echelon, linalg._lifted

    def counted(f, echelon_rows):
        fields.append(f)
        return echelon(f, echelon_rows)

    with mock.patch.object(linalg, "_echelon", counted), mock.patch.object(
        linalg, "_lifted", lambda r, e: None if exact else lifted(r, e)
    ):
        kernel = Matrix(field, rows).kernel()
    if field != QQ:
        assert fields == [field]
    else:
        assert fields == ([_RESIDUES, QQ] if exact else [_RESIDUES])
    assert _is_rref(kernel.rows)
    assert kernel.dim == ncols - _rank(field, rows, ncols)
    assert not any(field.reduce(sum(a * b for a, b in zip(row, x))) for row in rows for x in kernel.rows)


def test_size_bound_at_its_edge():
    # the residue echelon rows (1, 0, -5/3) and (0, 1, 1/3) lift with d = 3,
    # k = 2 and h = 5/3, so B d (1 + k h) = 13 B, read in ints as
    # B (d + k m) with m = 5
    echelon = _echelon(_RESIDUES, [{0: 3, 2: _P - 5}, {1: 3, 2: 1}])
    b = (_P - 1) // 13
    assert b * 3 * (1 + 2 * Fraction(5, 3)) == _P - 1
    # B is the largest ||a||_1 over the rows
    assert _lifted([{0: 1}, {0: b - 2, 5: -2}], echelon) == {0: {0: 1, 2: Fraction(-5, 3)}, 1: {1: 1, 2: Fraction(1, 3)}}
    assert _lifted([{0: 1}, {0: b - 1, 5: -2}], echelon) is None
    # with no lifted row the bound is B < P, strictly
    assert _lifted([{0: _P - 1}], {}) == {}
    assert _lifted([{0: _P}], {}) is None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_size_bound_in_ints_agrees_with_the_fraction_form(data):
    # random lifts r/s within the lift bound, as the non-pivot entries of a
    # residue echelon of k rows, and a weight B at the edge of the bound
    k = data.draw(st.integers(0, 4))
    entry = st.builds(Fraction, st.integers(-_LIFT_BOUND, _LIFT_BOUND), st.integers(1, _LIFT_BOUND)).filter(bool)
    echelon, lifts = {}, []
    for pc in range(k):
        values = data.draw(st.lists(entry, max_size=3))
        lifts += values
        echelon[pc] = {pc: 1, **{k + c: v.numerator * pow(v.denominator, -1, _P) % _P for c, v in enumerate(values)}}
    d = lcm(1, *[v.denominator for v in lifts])
    h = max([Fraction(1), *map(abs, lifts)])
    b = max(1, (_P - 1) // (d * (1 + k * h)) + data.draw(st.integers(-1, 2)))
    assert (_lifted([{0: b}], echelon) is not None) == (b * d * (1 + k * h) < _P)
