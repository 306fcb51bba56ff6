import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_corpus, random_basis
from leibniz import cyclic
from leibniz.core import (
    LeibnizAlgebra,
    _closed_products,
    algebra_in_basis,
    nilpotency_class,
    product_subspace,
    restrict_to_subalgebra,
)
from leibniz.cyclic import (
    _leib_criterion,
    canonical_cyclic_basis,
    cyclic_generator_by_scan,
    generated_by,
    generated_subalgebra,
    is_canonical_cyclic,
    is_cyclic_subalgebra,
    left_normed,
    proposition_check,
)
from leibniz.families import abelian, cyclic_nilpotent, dim2_l2, family_a_i, family_b, family_c
from leibniz.lattice import subalgebra_lattice
from leibniz.linalg import GF, QQ, Subspace, basis_vector, linear_combination, vec_add


def test_left_normed_walks_the_chain():
    n = 5
    a = cyclic_nilpotent(n, QQ)
    a1 = basis_vector(QQ, n, 0)
    for k in range(1, n + 1):
        assert left_normed(a, a1, k) == basis_vector(QQ, n, k - 1)
    assert left_normed(a, a1, n + 1) == (0,) * n


def test_left_normed_k_validation():
    a = cyclic_nilpotent(2, QQ)
    with pytest.raises(ValueError):
        left_normed(a, basis_vector(QQ, 2, 0), 0)


def test_left_normed_and_generated_subalgebra_check_the_vector_length():
    a = cyclic_nilpotent(3, QQ)
    with pytest.raises(ValueError):
        left_normed(a, (1, 0), 1)
    with pytest.raises(ValueError):
        generated_subalgebra(a, (0, 0))


def test_left_normed_square_zero():
    # alternating tensor: [x, x] = 0 identically
    a = LeibnizAlgebra.from_brackets(QQ, 3, {(0, 1): {2: 1}, (1, 0): {2: -1}})
    assert left_normed(a, (1, 2, 3), 2) == (0, 0, 0)


def test_left_normed_mixed_generator_in_family_c():
    # a = s + b1: [a, a] = [s,b1] + [b1,s] + [b1,b1] = b1 - b1 + b2 = b2
    alg = family_c(3, QQ)
    a = vec_add(QQ, basis_vector(QQ, 4, 3), basis_vector(QQ, 4, 0))
    assert left_normed(alg, a, 2) == basis_vector(QQ, 4, 1)


def test_generated_subalgebra_full_chain():
    n = 4
    alg = cyclic_nilpotent(n, QQ)
    probe = generated_subalgebra(alg, basis_vector(QQ, n, 0))
    assert probe.span == Subspace.full(QQ, n)
    assert len(probe.chain) == n
    assert probe.chain == tuple(basis_vector(QQ, n, i) for i in range(n))


def test_generated_subalgebra_abelian_line():
    alg = cyclic_nilpotent(3, QQ)
    probe = generated_subalgebra(alg, basis_vector(QQ, 3, 1))
    assert probe.span == Subspace.from_vectors(QQ, 3, [basis_vector(QQ, 3, 1)])
    assert len(probe.chain) == 1


def test_generated_subalgebra_zero_vector():
    alg = cyclic_nilpotent(3, QQ)
    probe = generated_subalgebra(alg, (0, 0, 0))
    assert probe.span.dim == 0
    assert probe.chain == ()


def test_generated_by_matches_chain_span():
    alg = family_c(3, QQ)
    for i in range(alg.dim):
        v = basis_vector(QQ, alg.dim, i)
        assert generated_by(alg, [v]) == generated_subalgebra(alg, v).span


def test_proposition_cyclic_generator():
    for n in (2, 3, 5):
        alg = cyclic_nilpotent(n, QQ)
        rep = proposition_check(alg, basis_vector(QQ, n, 0))
        assert rep.passed, rep.results


def test_proposition_lie_algebra_degenerate():
    alg = LeibnizAlgebra.from_brackets(QQ, 3, {(0, 1): {2: 1}, (1, 0): {2: -1}})
    rep = proposition_check(alg, (1, 1, 0))
    assert rep.passed, rep.results


def test_proposition_family_b_complement():
    alg = family_b(4, [0, 0, 0], 0, QQ)
    rep = proposition_check(alg, basis_vector(QQ, 5, 4))
    assert rep.passed, rep.results


def test_proposition_over_prime_field():
    alg = cyclic_nilpotent(4, GF(5))
    rep = proposition_check(alg, (1, 2, 0, 3))
    assert rep.passed, rep.results


def test_scan_finds_lex_least_generator():
    alg = cyclic_nilpotent(3, GF(5))
    gen = cyclic_generator_by_scan(alg, Subspace.full(GF(5), 3))
    assert gen == (1, 0, 0)


def test_scan_rejects_non_subalgebra():
    alg = cyclic_nilpotent(3, GF(2))
    line = Subspace.from_vectors(GF(2), 3, [basis_vector(GF(2), 3, 0)])
    with pytest.raises(ValueError):
        cyclic_generator_by_scan(alg, line)


def test_abelian_plane_is_not_cyclic():
    alg = cyclic_nilpotent(3, GF(3))
    tail = Subspace.from_vectors(
        GF(3), 3, [basis_vector(GF(3), 3, 1), basis_vector(GF(3), 3, 2)]
    )
    assert is_cyclic_subalgebra(alg, tail) is None


def test_zero_subspace_is_not_cyclic():
    alg = cyclic_nilpotent(2, QQ)
    assert is_cyclic_subalgebra(alg, Subspace.zero(QQ, 2)) is None


@pytest.mark.parametrize(
    "s",
    [Subspace.zero(GF(5), 7), Subspace.zero(QQ, 2), Subspace.full(QQ, 2), Subspace.full(GF(5), 3)],
    ids=["zero", "short", "Q^2", "GF(5)"],
)
def test_cyclicity_of_a_subspace_outside_the_algebra_is_an_error(s):
    with pytest.raises(ValueError):
        is_cyclic_subalgebra(cyclic_nilpotent(3, QQ), s)


@pytest.mark.parametrize(
    "s",
    [
        Subspace.zero(GF(5), 7),
        Subspace.full(QQ, 2),
        Subspace.full(GF(5), 3),
        Subspace.from_vectors(QQ, 3, [(1, 0, 0)]),
    ],
    ids=["GF(5)^7", "short", "GF(5)", "not closed"],
)
def test_leib_criterion_rejects_a_subspace_outside_the_algebra_or_not_closed(s):
    # the criterion reads the product table of S, and building that table checks S
    algebra = cyclic_nilpotent(3, QQ)
    with pytest.raises(ValueError):
        _leib_criterion(algebra, s, _closed_products(algebra, s))


@pytest.mark.parametrize("field", [GF(2), QQ], ids=str)
def test_cyclicity_of_a_non_closed_line_is_an_error(field):
    # [e1, e1] = e2 leaves span{e1}
    alg = cyclic_nilpotent(3, field)
    line = Subspace.from_vectors(field, 3, [basis_vector(field, 3, 0)])
    with pytest.raises(ValueError):
        is_cyclic_subalgebra(alg, line)


def _found_by_random_points(algebra, s, rng):
    """Whether one of 30 random points of S, coefficients in -5..5, generates S."""
    for _ in range(30):
        a = linear_combination(algebra.field, [rng.randint(-5, 5) for _ in s.rows], s.rows)
        if generated_subalgebra(algebra, a).span == s:
            return True
    return False


def test_criterion_over_q():
    alg = cyclic_nilpotent(4, QQ)
    gen = is_cyclic_subalgebra(alg, Subspace.full(QQ, 4))
    assert gen is not None
    assert generated_subalgebra(alg, gen).span == Subspace.full(QQ, 4)


def test_l2_is_cyclic_over_q():
    alg = dim2_l2(QQ)
    gen = is_cyclic_subalgebra(alg, Subspace.full(QQ, 2))
    assert gen is not None
    assert generated_subalgebra(alg, gen).span == Subspace.full(QQ, 2)


def test_full_spaces_of_b_and_c_are_not_cyclic_over_q():
    # Leib(S) has codimension 2 in each (a_1 and d stay outside it): (a) fails
    for alg in (family_b(3, [0, 1], 1, QQ), family_b(4, [0, 2, 0], 5, QQ), family_c(3, QQ), family_c(4, QQ)):
        assert is_cyclic_subalgebra(alg, Subspace.full(QQ, alg.dim)) is None, alg


# [a, -] on V for one-generator tables of dimension 3: the identity is
# derogatory, the others are not (a Jordan block of eigenvalue 1, a nilpotent
# one, and diag(0, 1)).  In the last two, over GF(3) and GF(5) respectively,
# a0 and a0 + b2 fail while a0 + b1 and a0 + 2 b2 generate, so the generator
# depends on the order of the grid
_TABLES_3 = [
    ([[1, 0], [0, 1]], [1, 0]),
    ([[1, 1], [0, 1]], [0, 0]),
    ([[0, 1], [0, 0]], [0, 1]),
    ([[0, 0], [0, 1]], [1, 0]),
    ([[0, 1], [1, 0]], [1, 2]),
    ([[0, 2], [1, 1]], [1, 2]),
]


def _one_generator_table(field, t, w0):
    """[a, a] = w0, [a, v] = T v and [v, -] = 0 on F a + V, V = F^m: left Leibniz for every T and w0."""
    m = len(w0)
    brackets = {(0, 0): {1 + i: c for i, c in enumerate(w0)}}
    for k in range(m):
        brackets[(0, 1 + k)] = {1 + i: t[i][k] for i in range(m)}
    return LeibnizAlgebra.from_brackets(field, m + 1, brackets)


def _first_grid_generator(algebra, s, a0, leib):
    """The first a0 + sum_k c_k b_k whose chain spans S, b_k the rows of Leib(S).

    c runs over {0..top}^m, m = dim Leib(S) and top = min(m, p - 1), by the
    sum of its entries and then lexicographically.
    """
    m = leib.dim
    top = min(m, algebra.field.characteristic - 1)
    for c in sorted(itertools.product(range(top + 1), repeat=m), key=lambda c: (sum(c), c)):
        a = linear_combination(algebra.field, (1, *c), (a0, *leib.rows))
        if generated_subalgebra(algebra, a).span == s:
            return a
    return None


def test_criterion_agrees_with_scan_on_small_cases():
    # over GF(p) the exhaustive scan is the oracle for the verdict, and the
    # first grid point that generates S for the generator, on every nonzero
    # subalgebra of the corpus (GF(5): up to dimension 3) and of six
    # one-generator tables, each in the standard basis and in a random one.
    # In a random basis several canonical rows of S can lie outside [S, S],
    # and a0 must be the last of them.  GF(2) is where [x_i, x_i] counted
    # twice would vanish from Leib(S); the tables are where (a) holds and
    # only (b) can fail.  On every field some cyclic S is generated by a0
    # and some is not, so the search goes past its first point; over GF(2)
    # or GF(3) some S that a0 does not generate has m = dim Leib(S) > p - 1,
    # where the grid is all of GF(p)^m.
    rng = random.Random(10)
    wide_a0_fails = 0
    for p, max_dim in ((2, 5), (3, 5), (5, 3)):
        field = GF(p)
        a0_generates = {True: 0, False: 0}
        tables = [(f"table {t}, {w0}", _one_generator_table(field, t, w0)) for t, w0 in _TABLES_3]
        for name, alg in build_corpus(field) + tables:
            if alg.dim > max_dim:
                continue
            for algebra in (alg, algebra_in_basis(alg, random_basis(field, alg.dim, rng))):
                for entry in subalgebra_lattice(algebra).entries:
                    s = entry.subspace
                    if not s.dim:
                        continue
                    expected = cyclic_generator_by_scan(algebra, s)
                    decided = _leib_criterion(algebra, s, _closed_products(algebra, s))
                    gen = is_cyclic_subalgebra(algebra, s)
                    assert (decided is not None) == (expected is not None), (name, s)
                    assert (gen is not None) == (expected is not None), (name, s)
                    if decided is not None:
                        # Leib(S) = F w0 + T(Leib(S)): w0 lies outside
                        # T(Leib(S)) when T is singular, with no test for it
                        a0, leib = decided
                        images = [algebra.bracket(a0, w) for w in (a0, *leib.rows)]
                        assert Subspace._span(field, algebra.dim, images) == leib, (name, s)
                        assert gen == _first_grid_generator(algebra, s, a0, leib), (name, s)
                        generates = generated_subalgebra(algebra, a0).span == s
                        a0_generates[generates] += 1
                        if leib.dim > p - 1 and not generates:
                            wide_a0_fails += 1
        assert a0_generates[True] and a0_generates[False], (p, a0_generates)
    assert wide_a0_fails
    # over Q, in a random basis up to dimension 4: a generator whose chain
    # spans S, with no later canonical row outside [S, S] when S is
    # nilpotent, or None, and then no random point generates S either
    for name, alg in build_corpus(QQ):
        if alg.dim > 4:
            continue
        moved = algebra_in_basis(alg, random_basis(QQ, alg.dim, rng))
        spans = [generated_subalgebra(moved, row).span for row in random_basis(QQ, alg.dim, rng)[:2]]
        for s in [Subspace.full(QQ, alg.dim), *spans]:
            gen = is_cyclic_subalgebra(moved, s)
            if gen is None:
                assert not _found_by_random_points(moved, s, rng), (name, s)
                continue
            assert generated_subalgebra(moved, gen).span == s, name
            if nilpotency_class(restrict_to_subalgebra(moved, s)) is not None:
                derived = product_subspace(moved, s, s)
                assert derived._contains_all(s.rows[s.rows.index(gen) + 1 :]), name


def test_criterion_spans_leib_only_for_a_nonzero_polarization_generator(monkeypatch):
    # a subalgebra of dimension >= 2 whose table has only zero polarization
    # generators has Leib(S) = 0 and fails (a) with no span of Leib(S) built:
    # 995 of the 1,232 subalgebras of the GF(5) lattices of A-i(4) and B(4)
    spans = 0
    squares_span = cyclic._squares_span

    def counted(algebra, products):
        nonlocal spans
        spans += 1
        return squares_span(algebra, products)

    monkeypatch.setattr(cyclic, "_squares_span", counted)
    field = GF(5)
    lattices = [subalgebra_lattice(family_a_i(4, field)), subalgebra_lattice(family_b(4, [0, 1, 1], 1, field))]
    assert sum(len(lat.entries) for lat in lattices) == 1232
    assert spans == 237
    # over Q the generators vanish exactly: a plane of an abelian algebra
    spans = 0
    plane = Subspace.from_vectors(QQ, 3, [basis_vector(QQ, 3, 0), basis_vector(QQ, 3, 1)])
    assert is_cyclic_subalgebra(abelian(3, QQ), plane) is None
    assert spans == 0


def test_one_generator_tables_over_q():
    rng = random.Random(13)
    decided = {True: 0, False: 0}
    for m in range(1, 5):
        for _ in range(12):
            t = [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(m)] for _ in range(m)]
            w0 = [rng.choice([0, 0, 1, -1]) for _ in range(m)]
            alg = _one_generator_table(QQ, t, w0)
            moved = algebra_in_basis(alg, random_basis(QQ, m + 1, rng))
            full = Subspace.full(QQ, m + 1)
            gen = is_cyclic_subalgebra(moved, full)
            decided[gen is not None] += 1
            if gen is None:
                assert not _found_by_random_points(moved, full, rng), (t, w0)
            else:
                assert generated_subalgebra(moved, gen).span == full, (t, w0)
    assert decided[True] and decided[False], decided


@pytest.mark.parametrize("m", [2, 3, 4])
def test_one_generator_tables_that_are_not_cyclic(m):
    rng = random.Random(m)
    zero = [[0] * m for _ in range(m)]
    jordan = [[1 if i == k - 1 else 0 for k in range(m)] for i in range(m)]  # T v_k = v_{k-1}
    scalar = [[2 if i == k else 0 for k in range(m)] for i in range(m)]
    diagonal = [[max(i, 1) if i == k else 0 for k in range(m)] for i in range(m)]  # diag(1, 1, 2, .., m - 1)
    cases = [
        # Leib(S) = F w0 + T(V) is smaller than V: (a) fails
        (zero, [1] + [0] * (m - 1)),
        (jordan, [0] * m),
        (jordan, [1] + [2] * (m - 2) + [0]),
        # Leib(S) = V, but T is derogatory: (b) fails
        (scalar, [1] * m),
        (diagonal, [0] * m),
    ]
    for t, w0 in cases:
        alg = _one_generator_table(QQ, t, w0)
        for algebra in (alg, algebra_in_basis(alg, random_basis(QQ, m + 1, rng))):
            assert is_cyclic_subalgebra(algebra, Subspace.full(QQ, m + 1)) is None, (t, w0)
    # w0 = v_m, outside im T: the Jordan table is cyclic, and nilpotent
    alg = _one_generator_table(QQ, jordan, [0] * (m - 1) + [1])
    assert is_cyclic_subalgebra(alg, Subspace.full(QQ, m + 1)) == basis_vector(QQ, m + 1, 0)


def test_canonical_basis_already_canonical():
    n = 4
    alg = cyclic_nilpotent(n, QQ)
    basis = canonical_cyclic_basis(alg, basis_vector(QQ, n, 0))
    assert basis == tuple(basis_vector(QQ, n, i) for i in range(n))


def test_canonical_basis_mixed_generator():
    alg = cyclic_nilpotent(3, QQ)
    a = (1, 1, 0)
    basis = canonical_cyclic_basis(alg, a)
    assert basis == ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    # the restriction in this basis is again the canonical table
    assert algebra_in_basis(alg, basis) == cyclic_nilpotent(3, QQ)


def test_canonical_basis_rejects_non_nilpotent():
    alg = dim2_l2(QQ)
    with pytest.raises(ValueError):
        canonical_cyclic_basis(alg, basis_vector(QQ, 2, 0))


def test_canonical_basis_rejects_zero():
    alg = cyclic_nilpotent(2, QQ)
    with pytest.raises(ValueError):
        canonical_cyclic_basis(alg, (0, 0))


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(2, 6),
    data=st.data(),
)
def test_ln_k_right_annihilates_generator(p, n, data):
    field = GF(p)
    alg = cyclic_nilpotent(n, field)
    a = tuple(data.draw(st.integers(0, p - 1)) for _ in range(n))
    for k in range(2, 6):
        w = left_normed(alg, a, k)
        assert not any(alg.bracket(w, a))


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3]), data=st.data())
def test_generated_span_contains_and_closes(p, data):
    field = GF(p)
    alg = family_b(3, [0, 1], 1, field)
    a = tuple(data.draw(st.integers(0, p - 1)) for _ in range(4))
    probe = generated_subalgebra(alg, a)
    assert probe.span._contains_all([probe.generator])
    # closure is asserted internally; restriction must therefore succeed
    if probe.span.dim:
        restrict_to_subalgebra(alg, probe.span)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_canonical_cyclic_over_standard_basis_is_the_table(field):
    for name, alg in build_corpus(field):
        rows = Subspace.full(field, alg.dim).rows
        expected = alg.tensor == cyclic_nilpotent(alg.dim, field).tensor
        assert is_canonical_cyclic(alg, rows) == expected, name


def test_canonical_cyclic_chain_order_matters():
    alg = cyclic_nilpotent(3, QQ)
    assert is_canonical_cyclic(alg, canonical_cyclic_basis(alg, (1, 1, 0)))
    assert not is_canonical_cyclic(alg, [basis_vector(QQ, 3, i) for i in (1, 0, 2)])
    assert not is_canonical_cyclic(alg, [])
