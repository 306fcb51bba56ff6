import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_corpus, random_basis
from leibniz.core import (
    LeibnizAlgebra,
    algebra_in_basis,
    nilpotency_class,
    product_subspace,
    restrict_to_subalgebra,
)
from leibniz.cyclic import (
    UNKNOWN,
    canonical_cyclic_basis,
    cyclic_generator_by_scan,
    generated_by,
    generated_subalgebra,
    is_canonical_cyclic,
    is_cyclic_subalgebra,
    left_normed,
    proposition_check,
)
from leibniz.families import cyclic_nilpotent, dim2_l2, family_b, family_c
from leibniz.lattice import subalgebra_lattice
from leibniz.linalg import GF, QQ, Subspace, basis_vector, vec_add


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


@pytest.mark.parametrize("field", [GF(2), QQ], ids=str)
def test_cyclicity_of_a_non_closed_line_is_an_error(field):
    # [e1, e1] = e2 leaves span{e1}
    alg = cyclic_nilpotent(3, field)
    line = Subspace.from_vectors(field, 3, [basis_vector(field, 3, 0)])
    with pytest.raises(ValueError):
        is_cyclic_subalgebra(alg, line)


def test_criterion_over_q():
    alg = cyclic_nilpotent(4, QQ)
    gen = is_cyclic_subalgebra(alg, Subspace.full(QQ, 4))
    assert gen is not None and gen != UNKNOWN
    assert generated_subalgebra(alg, gen).span == Subspace.full(QQ, 4)


def test_criterion_unknown_for_non_nilpotent_over_q():
    alg = dim2_l2(QQ)
    assert is_cyclic_subalgebra(alg, Subspace.full(QQ, 2)) == UNKNOWN


def test_criterion_agrees_with_scan_on_small_cases():
    # over GF(p) the exhaustive scan is the oracle, generator for generator,
    # on every nonzero subalgebra of the corpus and, up to dimension 4, of the
    # corpus in a random basis, where several canonical rows of S can lie
    # outside [S, S] and the generator must be the last of them
    rng = random.Random(10)
    for p in (2, 3):
        field = GF(p)
        for name, alg in build_corpus(field):
            algebras = [alg]
            if alg.dim <= 4:
                algebras.append(algebra_in_basis(alg, random_basis(field, alg.dim, rng)))
            for algebra in algebras:
                for entry in subalgebra_lattice(algebra).entries:
                    s = entry.subspace
                    if s.dim:
                        assert is_cyclic_subalgebra(algebra, s) == cyclic_generator_by_scan(algebra, s), (name, s)
    # over Q, in a random basis up to dimension 4: UNKNOWN exactly when S is
    # not nilpotent, and otherwise a generator with no later canonical row
    # outside [S, S]
    for name, alg in build_corpus(QQ):
        if alg.dim > 4:
            continue
        moved = algebra_in_basis(alg, random_basis(QQ, alg.dim, rng))
        spans = [generated_subalgebra(moved, row).span for row in random_basis(QQ, alg.dim, rng)[:2]]
        for s in [Subspace.full(QQ, alg.dim), *spans]:
            gen = is_cyclic_subalgebra(moved, s)
            assert (gen == UNKNOWN) == (nilpotency_class(restrict_to_subalgebra(moved, s)) is None)
            if gen is None or gen == UNKNOWN:
                continue
            assert generated_subalgebra(moved, gen).span == s, name
            derived = product_subspace(moved, s, s)
            assert all(derived.contains(row) for row in s.rows[s.rows.index(gen) + 1 :]), name


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
    assert probe.span.contains(probe.generator)
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
