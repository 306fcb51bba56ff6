import itertools
import pickle
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import build_corpus

from leibniz import core
from leibniz.census import algebra_from_int
from leibniz.core import (
    IdentityViolation,
    LeibnizAlgebra,
    LeibnizIdentityError,
    algebra_in_basis,
    center,
    full_space,
    hypercenter,
    invariant_profile,
    is_ideal,
    is_left_ideal,
    is_right_ideal,
    is_subalgebra,
    leibniz_kernel,
    left_center,
    lower_central_series,
    nilpotency_class,
    product_subspace,
    restrict_to_subalgebra,
    right_center,
    upper_central_series,
)
from leibniz.families import (
    abelian,
    cyclic_nilpotent,
    dim2_l1,
    dim2_l2,
    family_a_i,
    family_a_iii,
    family_b,
    family_c,
)
from leibniz.lattice import enumerate_subspaces
from leibniz.linalg import GF, QQ, Subspace, basis_vector

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


def span(field, ambient, *vectors):
    return Subspace.from_vectors(field, ambient, vectors)


def tail_span(field, n, start):
    """span{a_start, ..., a_n} in the standard coordinates (1-based start)."""
    return span(field, n, *(basis_vector(field, n, i) for i in range(start - 1, n)))


def test_bracket_cyclic_table():
    a = cyclic_nilpotent(3, QQ)
    e1, e2, e3 = (basis_vector(QQ, 3, i) for i in range(3))
    assert a.bracket(e1, e1) == e2
    assert a.bracket((0, 0, 0), e1) == (0, 0, 0)
    # bilinearity over the table: [a1, a1 + a2] = a2 + a3
    assert a.bracket(e1, (1, 1, 0)) == (0, 1, 1)


def test_bracket_dimension_mismatch():
    a = cyclic_nilpotent(3, QQ)
    with pytest.raises(ValueError):
        a.bracket((1, 0), (0, 1, 0))


def test_check_l2_passes():
    assert dim2_l2(QQ).check_left_leibniz() == ()


def test_check_dim1_violation():
    with pytest.raises(LeibnizIdentityError) as info:
        LeibnizAlgebra.from_brackets(QQ, 1, {(0, 0): {0: 1}})
    violations = info.value.violations
    assert len(violations) == 1
    assert violations[0].indices == (1, 1, 1)
    assert violations[0].residual == (Fraction(1),)


def _residuals_by_definition(tensor):
    """The nonzero residuals [[a,b],c] - [a,[b,c]] + [b,[a,c]] on basis triples, in Fractions from the tensor."""
    n = len(tensor)

    def bracket(x, y):
        return [sum(x[i] * y[j] * tensor[i][j][k] for i in range(n) for j in range(n)) for k in range(n)]

    e = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    found = []
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = bracket(bracket(e[i], e[j]), e[k])
        rhs = [a - b for a, b in zip(bracket(e[i], bracket(e[j], e[k])), bracket(e[j], bracket(e[i], e[k])))]
        residual = tuple(a - b for a, b in zip(lhs, rhs))
        if any(residual):
            found.append(IdentityViolation((i + 1, j + 1, k + 1), residual))
    return tuple(found)


def test_a_fractional_table_reports_its_true_residuals():
    """The check sums on the integer table c*T, where residuals are c^2 times the true ones."""
    with pytest.raises(LeibnizIdentityError) as info:
        LeibnizAlgebra.from_brackets(QQ, 1, {(0, 0): {0: Fraction(1, 2)}})
    assert info.value.violations == (IdentityViolation((1, 1, 1), (Fraction(1, 4),)),)
    # c = lcm(2, 3, 5) = 30 in two dimensions
    brackets = {(0, 0): {1: Fraction(1, 2)}, (0, 1): {0: Fraction(1, 3)}, (1, 1): {0: Fraction(2, 5), 1: 1}}
    tensor = [[[Fraction(brackets.get((i, j), {}).get(k, 0)) for k in range(2)] for j in range(2)] for i in range(2)]
    expected = _residuals_by_definition(tensor)
    assert expected and any(v.denominator > 1 for x in expected for v in x.residual)
    with pytest.raises(LeibnizIdentityError) as info:
        LeibnizAlgebra.from_brackets(QQ, 2, brackets)
    assert info.value.violations == expected


def test_a_fractional_table_brackets_and_pickles_exactly():
    a = LeibnizAlgebra.from_brackets(QQ, 2, {(0, 0): {1: Fraction(1, 2)}})
    assert a.bracket((3, 0), (1, 0)) == (Fraction(0), Fraction(3, 2))
    assert all(type(v) is Fraction for v in a.bracket((0, 1), (1, 0)))
    b = pickle.loads(pickle.dumps(a))
    assert b == a and b.bracket((3, 0), (1, 0)) == a.bracket((3, 0), (1, 0))
    # dividing by c = 2 must not let a float through as an inexact entry
    for algebra in (a, b):
        with pytest.raises(TypeError):
            algebra.bracket((0.1, 0), (1, 0))


@pytest.mark.parametrize(
    "field, brackets",
    [
        (GF(5), {(0, 0): {1: 3}}),
        (QQ, {(0, 0): {1: 3}}),
        (QQ, {(0, 0): {1: Fraction(3, 2)}}),
    ],
    ids=["GF(5)", "Q, c = 1", "Q, c = 2"],
)
def test_bracket_is_canonical_and_takes_exact_entries_only(field, brackets):
    # the bracket turns the integer table's accumulators into field values
    # itself: index(v) % p over GF(p), Fraction(v, c) over Q
    algebra = LeibnizAlgebra.from_brackets(field, 2, brackets)
    for x in [(0, 0), (1, 0), (2, 0), (7, 1), (-3, 4)]:
        got = algebra.bracket(x, x)
        assert got == (field.zero, field.reduce(x[0] ** 2 * brackets[(0, 0)][1]))
        if field.characteristic:
            assert all(type(v) is int and 0 <= v < field.characteristic for v in got)
        else:
            assert all(type(v) is Fraction for v in got)
    for x in [(0.5, 0), (1.0, 0)]:
        with pytest.raises(TypeError):
            algebra.bracket(x, (1, 0))


def _violation(indices, *residual):
    return IdentityViolation(indices, tuple(residual))


# every way a table enters the library, each with a table that violates the
# identity, and the violations the check reports for it
_INVALID_TABLES = {
    "constructor": (
        lambda: LeibnizAlgebra(GF(3), [[[0, 1], [1, 0]], [[0, 0], [0, 0]]]),
        (_violation((1, 2, 1), 0, 1), _violation((1, 2, 2), 1, 0)),
    ),
    "from_brackets": (
        lambda: LeibnizAlgebra.from_brackets(QQ, 2, {(0, 1): {0: 1}, (1, 0): {1: 1}}),
        (
            _violation((1, 2, 1), -1, 0),
            _violation((1, 2, 2), 1, 1),
            _violation((2, 1, 1), 1, 1),
            _violation((2, 1, 2), 0, -1),
        ),
    ),
    "family_b gamma_2 = 1": (
        lambda: family_b(3, [1, 0], 0, QQ),
        (_violation((1, 4, 4), 0, -1, 0, 0), _violation((4, 1, 4), 0, 1, 0, 0)),
    ),
    "printed A-iii tau = 1": (
        lambda: family_a_iii(4, 2, [0, 0], 1, QQ, "printed"),
        (_violation((1, 5, 5), 0, 0, 1, 0, 0), _violation((5, 1, 5), 0, 0, -1, 0, 0)),
    ),
    "algebra_from_int": (lambda: algebra_from_int(2, 1), (_violation((1, 1, 1), 1, 0),)),
}


@pytest.mark.parametrize("build, expected", _INVALID_TABLES.values(), ids=_INVALID_TABLES.keys())
def test_every_entry_point_rejects_an_invalid_table(build, expected):
    with pytest.raises(LeibnizIdentityError) as info:
        build()
    assert isinstance(info.value, ValueError)
    assert info.value.violations == expected
    assert f"fails on {len(expected)} basis triples, first at {expected[0].indices}" in str(info.value)
    copy = pickle.loads(pickle.dumps(info.value))
    assert type(copy) is LeibnizIdentityError
    assert copy.violations == expected and str(copy) == str(info.value)


@pytest.mark.parametrize("derive", ["algebra_in_basis", "restrict_to_subalgebra"])
def test_derived_algebras_are_not_checked_again(monkeypatch, derive):
    a = family_c(3, QQ)

    def fail(self):
        raise AssertionError("the identity was checked again")

    monkeypatch.setattr(LeibnizAlgebra, "check_left_leibniz", fail)
    if derive == "algebra_in_basis":
        b = algebra_in_basis(a, [(1, 1, 0, 0), (0, 1, 0, 2), (0, 0, 1, 0), (0, 0, 0, 1)])
    else:
        b = restrict_to_subalgebra(a, span(QQ, 4, *(basis_vector(QQ, 4, i) for i in range(3))))
    assert b.dim == (4 if derive == "algebra_in_basis" else 3)


@pytest.mark.parametrize(
    "key, terms",
    [
        ((-1, 0), {0: 1}),
        ((2, 0), {0: 1}),
        ((0, -1), {0: 1}),
        ((0, 2), {0: 1}),
        ((0, 0), {-2: 1}),
        ((0, 0), {2: 1}),
    ],
    ids=["i<0", "i>=dim", "j<0", "j>=dim", "k<0", "k>=dim"],
)
def test_from_brackets_rejects_indices_out_of_range(key, terms):
    # a negative index would wrap around: (-1, 0): {-2: 1} is [e2, e1] = e1
    with pytest.raises(ValueError, match=re.escape(str(key))):
        LeibnizAlgebra.from_brackets(QQ, 2, {key: terms})


def test_check_cyclic5_gf7():
    assert cyclic_nilpotent(5, GF(7)).check_left_leibniz() == ()


def test_violation_order_is_lexicographic():
    # a tensor violating the identity at several triples
    with pytest.raises(LeibnizIdentityError) as info:
        LeibnizAlgebra.from_brackets(QQ, 2, {(0, 1): {0: 1}, (1, 0): {1: 1}})
    idx = [v.indices for v in info.value.violations]
    assert len(idx) == 4
    assert idx == sorted(idx)


def test_leibniz_kernel_cyclic():
    for n in (2, 3, 5):
        a = cyclic_nilpotent(n, QQ)
        assert leibniz_kernel(a) == tail_span(QQ, n, 2)


def test_leibniz_kernel_lie_algebra_is_zero():
    # sl2-like alternating tensor: [e1,e2]=e3, [e2,e1]=-e3
    a = LeibnizAlgebra.from_brackets(QQ, 3, {(0, 1): {2: 1}, (1, 0): {2: -1}})
    assert leibniz_kernel(a).dim == 0


def test_leibniz_kernel_l1():
    a = dim2_l1(QQ)
    assert leibniz_kernel(a) == span(QQ, 2, (0, 1))


def test_centers_cyclic():
    for n in (2, 3, 4, 6):
        a = cyclic_nilpotent(n, QQ)
        assert left_center(a) == tail_span(QQ, n, 2)
        assert right_center(a) == tail_span(QQ, n, n)
        assert center(a) == tail_span(QQ, n, n)


def test_centers_abelian():
    a = abelian(3, QQ)
    assert left_center(a) == full_space(a)
    assert right_center(a) == full_space(a)
    assert center(a) == full_space(a)


def test_centers_l2():
    a = dim2_l2(QQ)
    assert left_center(a) == span(QQ, 2, (0, 1))
    assert left_center(a) == leibniz_kernel(a)
    assert right_center(a) == span(QQ, 2, (1, -1))
    assert center(a).dim == 0


def test_lower_series_cyclic():
    n = 5
    a = cyclic_nilpotent(n, QQ)
    series = lower_central_series(a)
    assert len(series) == n + 1
    for k in range(2, n + 1):
        assert series[k - 1] == tail_span(QQ, n, k)
    assert series[-1].dim == 0
    assert nilpotency_class(a) == n


def test_lower_series_abelian():
    assert nilpotency_class(abelian(4, QQ)) == 1


def test_lower_series_family_c_not_nilpotent():
    a = family_c(3, QQ)
    series = lower_central_series(a)
    assert series[-1].dim > 0
    assert nilpotency_class(a) is None
    # the b-span stays invariant under the scaling action
    assert series[-1] == span(QQ, 4, *(basis_vector(QQ, 4, i) for i in range(3)))


def test_upper_series_cyclic():
    n = 5
    a = cyclic_nilpotent(n, QQ)
    series = upper_central_series(a)
    assert len(series) == n
    for j in range(1, n + 1):
        assert series[j - 1] == tail_span(QQ, n, n - j + 1)
    assert hypercenter(a) == full_space(a)


def test_upper_series_abelian():
    a = abelian(2, QQ)
    assert upper_central_series(a) == (full_space(a),)


def test_upper_series_family_c_hypercenter_zero():
    for n in (2, 3, 4):
        assert hypercenter(family_c(n, QQ)).dim == 0


def test_product_subspace_and_ideals():
    n = 4
    a = cyclic_nilpotent(n, QQ)
    tail = tail_span(QQ, n, 2)
    assert is_ideal(a, tail)
    line = span(QQ, n, basis_vector(QQ, n, 0))
    assert not is_subalgebra(a, line)
    assert product_subspace(a, line, line) == span(QQ, n, basis_vector(QQ, n, 1))


def test_family_a_i_k_is_ideal():
    a = family_a_i(3, QQ)
    k = span(QQ, 4, *(basis_vector(QQ, 4, i) for i in range(3)))
    assert is_ideal(a, k)


def test_lower_series_terms_are_ideals():
    for alg in (cyclic_nilpotent(4, QQ), family_a_i(3, QQ), dim2_l2(QQ), family_c(3, QQ)):
        for term in lower_central_series(alg):
            assert is_ideal(alg, term)


def test_square_bracket_left_annihilates():
    # [[x, x], y] = 0, exhaustively on basis pairs; every algebra value satisfies the identity
    for alg in (cyclic_nilpotent(5, QQ), dim2_l2(GF(3)), family_c(4, QQ)):
        n = alg.dim
        for i in range(n):
            sq = alg.basis_bracket(i, i)
            for j in range(n):
                assert not any(alg.bracket(sq, basis_vector(alg.field, n, j)))


def test_leib_inside_left_center():
    for alg in (cyclic_nilpotent(4, QQ), dim2_l1(GF(2)), dim2_l2(QQ), family_c(3, QQ)):
        assert leibniz_kernel(alg) <= left_center(alg)


def test_quotient_by_leib_is_lie():
    for alg in (cyclic_nilpotent(4, QQ), dim2_l2(QQ), family_a_i(3, QQ)):
        field = alg.field
        leib = leibniz_kernel(alg)
        # build the quotient tensor on a coordinate complement of Leib
        pivots = set(leib.pivot_columns())
        comp = [i for i in range(alg.dim) if i not in pivots]
        coords = {c: t for t, c in enumerate(comp)}

        def project(v):
            w = leib.reduce(v)
            return tuple(w[c] for c in comp)

        m = len(comp)
        tensor = [[project(alg.bracket(basis_vector(field, alg.dim, comp[i]),
                                       basis_vector(field, alg.dim, comp[j])))
                   for j in range(m)] for i in range(m)]
        q = LeibnizAlgebra(field, tensor)
        assert leibniz_kernel(q).dim == 0


def test_restrict_to_subalgebra():
    a = cyclic_nilpotent(4, QQ)
    tail = tail_span(QQ, 4, 2)
    r = restrict_to_subalgebra(a, tail)
    assert r.dim == 3
    assert nilpotency_class(r) == 1  # the tail is abelian
    assert LeibnizAlgebra(QQ, r.tensor) == r
    with pytest.raises(ValueError):
        restrict_to_subalgebra(a, span(QQ, 4, basis_vector(QQ, 4, 0)))


def test_algebra_in_basis_roundtrip():
    a = cyclic_nilpotent(3, QQ)
    rows = [(1, 1, 0), (0, 1, 2), (0, 0, 1)]
    b = algebra_in_basis(a, [tuple(map(Fraction, r)) for r in rows])
    # the constructor checks the derived table afresh and raises on a violation
    assert LeibnizAlgebra(QQ, b.tensor) == b
    # changing back recovers the original tensor
    import leibniz.linalg as la

    p = la.Matrix(QQ, rows)
    back = algebra_in_basis(b, tuple(p.inverse().data))
    assert back == a


def test_algebra_in_basis_brackets_the_coerced_rows():
    a = cyclic_nilpotent(2, QQ)
    assert algebra_in_basis(a, [["1", "0"], ["0", "1"]]) == a
    assert algebra_in_basis(a, [["1", "1/2"], [" 0", "2"]]) == algebra_in_basis(
        a, [[Fraction(1), Fraction(1, 2)], [Fraction(0), Fraction(2)]]
    )
    g = cyclic_nilpotent(3, GF(5))
    unreduced = [(6, -1, 0), (5, 6, -3), (0, 10, -4)]
    assert algebra_in_basis(g, unreduced) == algebra_in_basis(g, [(1, 4, 0), (0, 1, 2), (0, 0, 1)])


def test_invariant_profile_cyclic4():
    rep = invariant_profile(cyclic_nilpotent(4, QQ))
    assert rep.leibniz_kernel_dim == 3
    assert rep.center_dim == 1
    assert rep.nilpotency_class == 4
    assert not rep.is_lie
    assert rep.lower_central_series_dims == (4, 3, 2, 1, 0)
    assert rep.upper_central_series_dims == (1, 2, 3, 4)


def test_invariant_profile_abelian2():
    rep = invariant_profile(abelian(2, QQ))
    assert rep.leibniz_kernel_dim == 0
    assert rep.nilpotency_class == 1
    assert rep.is_lie
    assert rep.derivation_dim == 4


def test_invariant_profile_l1():
    rep = invariant_profile(dim2_l1(QQ))
    assert rep.leibniz_kernel_dim == 1
    assert rep.nilpotency_class == 2


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_invariant_profile_matches_the_single_invariants(field):
    for name, alg in build_corpus(field):
        rep = invariant_profile(alg)
        assert rep.center_dim == center(alg).dim, name
        assert rep.nilpotency_class == nilpotency_class(alg), name


def test_series_monotone():
    for alg in (cyclic_nilpotent(5, QQ), family_c(3, QQ), dim2_l2(QQ)):
        lower = lower_central_series(alg)
        assert all(b <= a for a, b in zip(lower, lower[1:]))
        upper = upper_central_series(alg)
        assert all(a <= b for a, b in zip(upper, upper[1:]))


def test_nilpotent_class_at_most_dim_and_hypercenter_full():
    for alg in (cyclic_nilpotent(6, QQ), family_a_i(4, QQ), dim2_l1(GF(5)), abelian(3, GF(2))):
        c = nilpotency_class(alg)
        assert c is not None and c <= alg.dim
        assert hypercenter(alg) == full_space(alg)


def _oracle_inputs():
    algebras = [alg for p in (2, 3) for _, alg in build_corpus(GF(p))]
    for v in range(256):
        try:
            algebras.append(algebra_from_int(2, v))
        except LeibnizIdentityError:
            pass
    return algebras


def _elements(s):
    p = s.field.characteristic
    return {
        tuple(sum(c * row[k] for c, row in zip(coeffs, s.rows)) % p for k in range(s.ambient))
        for coeffs in itertools.product(range(p), repeat=s.dim)
    }


def test_centers_and_upper_series_match_brute_force():
    """Every vector of F_p^n is tested against the definitions, with brackets taken from the tensor."""
    inputs = _oracle_inputs()
    assert len(inputs) == 2 * len(build_corpus(GF(2))) + 13
    for alg in inputs:
        n, p, t = alg.dim, alg.field.characteristic, alg.tensor
        vectors = list(itertools.product(range(p), repeat=n))
        zero = (0,) * n

        def products(x):
            """([x, e_j] for all j, [e_j, x] for all j)."""
            left = [tuple(sum(x[i] * t[i][j][k] for i in range(n)) % p for k in range(n)) for j in range(n)]
            right = [tuple(sum(x[i] * t[j][i][k] for i in range(n)) % p for k in range(n)) for j in range(n)]
            return left, right

        brackets = {x: products(x) for x in vectors}
        left = {x for x in vectors if all(w == zero for w in brackets[x][0])}
        right = {x for x in vectors if all(w == zero for w in brackets[x][1])}
        assert _elements(left_center(alg)) == left
        assert _elements(right_center(alg)) == right
        assert _elements(center(alg)) == left & right

        terms, prev = [], {zero}
        while True:
            nxt = {x for x in vectors if all(w in prev for side in brackets[x] for w in side)}
            if nxt == prev:
                break
            terms.append(nxt)
            prev = nxt
        series = upper_central_series(alg)
        assert [_elements(z) for z in series] == (terms or [prev])
        assert series[0] == center(alg)


def test_centralisers_hand_the_kernel_no_empty_row(monkeypatch):
    # the dimension-7 algebras of the profile benchmark: sparse tables, where
    # most (j, coordinate) constraint rows of a centraliser are zero
    algebras = [case.algebra for case in workloads.build("profile-q", 1).cases if case.algebra.dim == 7]
    assert len(algebras) == 6
    expected = [(left_center(a), right_center(a), upper_central_series(a)) for a in algebras]
    no_empty_row = []
    kernel = core._kernel

    def recording(field, ncols, rows):
        no_empty_row.append(all(rows))
        return kernel(field, ncols, rows)

    monkeypatch.setattr(core, "_kernel", recording)
    assert [(left_center(a), right_center(a), upper_central_series(a)) for a in algebras] == expected
    assert len(no_empty_row) >= 3 * len(algebras)
    assert all(no_empty_row)


def test_membership_predicates_match_brute_force():
    """Closure, ideal and inclusion tests against their definitions over the element sets.

    Inputs: the corpus over GF(2) and GF(3) up to dimension 3, the dimension-4
    corpus over GF(2), and every subspace of each ambient space; brackets of
    all element pairs come from the tensor.
    """
    algebras = [alg for p in (2, 3) for _, alg in build_corpus(GF(p)) if alg.dim <= 3 or (p, alg.dim) == (2, 4)]
    assert len(algebras) == 2 * 10 + 5
    outcomes = set()
    for n, p in {(alg.dim, alg.field.characteristic) for alg in algebras}:
        spaces = [(s, _elements(s)) for s in enumerate_subspaces(n, p)]
        for s, es in spaces:
            for t, et in spaces:
                assert (s <= t) == (es <= et)
    for alg in algebras:
        n, p, t = alg.dim, alg.field.characteristic, alg.tensor
        vectors = list(itertools.product(range(p), repeat=n))
        table = {
            (x, y): tuple(
                sum(x[i] * y[j] * t[i][j][k] for i in range(n) for j in range(n)) % p for k in range(n)
            )
            for x in vectors
            for y in vectors
        }
        for s in enumerate_subspaces(n, p):
            es = _elements(s)
            sub = all(table[x, y] in es for x in es for y in es)
            left = all(table[x, y] in es for x in vectors for y in es)
            right = all(table[x, y] in es for x in es for y in vectors)
            got = (is_subalgebra(alg, s), is_left_ideal(alg, s), is_right_ideal(alg, s), is_ideal(alg, s))
            assert got == (sub, left, right, left and right)
            outcomes.add(got)
    # every combination a subalgebra can show occurs, and so does a non-subalgebra
    assert {(True, a, b, a and b) for a in (True, False) for b in (True, False)} <= outcomes
    assert (False, False, False, False) in outcomes


def test_membership_predicates_reject_a_subspace_outside_the_algebra():
    alg = cyclic_nilpotent(2, GF(3))
    for s in (Subspace.zero(GF(3), 3), Subspace.full(GF(5), 2)):
        for predicate in (is_subalgebra, is_left_ideal, is_right_ideal, is_ideal):
            with pytest.raises(ValueError):
                predicate(alg, s)


def test_product_subspace_rejects_a_subspace_outside_the_algebra():
    alg = cyclic_nilpotent(3, QQ)
    full = Subspace.full(QQ, 3)
    for other in (Subspace.full(QQ, 2), Subspace.full(GF(5), 3)):
        for s, t in ((other, full), (full, other), (other, other)):
            with pytest.raises(ValueError):
                product_subspace(alg, s, t)
