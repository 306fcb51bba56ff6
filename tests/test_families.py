import random
from fractions import Fraction

import pytest

from leibniz.core import (
    LeibnizAlgebra,
    LeibnizIdentityError,
    algebra_in_basis,
    center,
    invariant_profile,
    is_ideal,
    leibniz_kernel,
    lower_central_series,
    nilpotency_class,
    product_subspace,
)
from leibniz.cyclic import is_cyclic_subalgebra
from leibniz.derivations import left_mult_matrix
from leibniz.families import (
    EigenReduction,
    abelian,
    cyclic_nilpotent,
    dim2_l1,
    dim2_l2,
    eigenbasis_reduction,
    family_a_i,
    family_a_ii,
    family_a_iii,
    family_b,
    family_c,
    nilpotent_complement,
    quaternion_analog,
    scaling_complement,
)
from leibniz.linalg import GF, QQ, Subspace, basis_vector, vec_add


def std(field, n, *indices):
    return [basis_vector(field, n, i) for i in indices]


def k_span(alg, n_k):
    return Subspace.from_vectors(
        alg.field, alg.dim, [basis_vector(alg.field, alg.dim, i) for i in range(n_k)]
    )


def test_cyclic_n1_is_abelian_line():
    a = cyclic_nilpotent(1, QQ)
    assert a == abelian(1, QQ)
    assert nilpotency_class(a) == 1


def test_cyclic3_invariants():
    a = cyclic_nilpotent(3, QQ)
    assert nilpotency_class(a) == 3
    assert center(a) == Subspace.from_vectors(QQ, 3, [basis_vector(QQ, 3, 2)])


def test_cyclic5_gf7_identity():
    assert cyclic_nilpotent(5, GF(7)).check_left_leibniz() == ()


def test_l1_class2_and_l2_not_nilpotent():
    assert nilpotency_class(dim2_l1(GF(2))) == 2
    assert nilpotency_class(dim2_l2(QQ)) is None
    p1 = invariant_profile(dim2_l1(QQ))
    p2 = invariant_profile(dim2_l2(QQ))
    assert p1.leibniz_kernel_dim == p2.leibniz_kernel_dim == 1
    assert p1 != p2


def test_family_a_i_structure():
    a = family_a_i(3, QQ)
    assert a.check_left_leibniz() == ()
    assert nilpotency_class(a) == 3
    k = k_span(a, 3)
    d_line = Subspace.from_vectors(QQ, 4, [basis_vector(QQ, 4, 3)])
    assert product_subspace(a, k, d_line).dim == 0
    assert product_subspace(a, d_line, k).dim == 0
    assert product_subspace(a, d_line, d_line).dim == 0
    assert is_ideal(a, k)


def test_family_a_nilpotency_class_matches_cyclic_part():
    for n in (2, 3, 4):
        assert nilpotency_class(family_a_i(n, QQ)) == n
        assert nilpotency_class(family_a_ii(n, QQ)) == n


def test_family_a_leib_is_cyclic_tail():
    for ctor in (family_a_i, family_a_ii):
        a = ctor(4, QQ)
        tail = Subspace.from_vectors(QQ, 5, std(QQ, 5, 1, 2, 3))
        assert leibniz_kernel(a) == tail


def test_quaternion_analog_two_cyclic_ideals():
    a = quaternion_analog(QQ)
    assert a == family_a_ii(2, QQ)
    k = k_span(a, 2)
    d_part = Subspace.from_vectors(QQ, 3, [basis_vector(QQ, 3, 2), basis_vector(QQ, 3, 1)])
    for s in (k, d_part):
        assert is_ideal(a, s)
        assert s.dim == 2
        assert is_cyclic_subalgebra(a, s) is not None
    assert k.intersect(d_part) == center(a)


def test_family_a_iii_tau_zero_passes_both_conventions():
    for conv in ("printed", "derived"):
        a = family_a_iii(4, 2, [0, 0], 0, QQ, conv)
        assert a.check_left_leibniz() == ()


def test_family_a_iii_tau_probe():
    with pytest.raises(LeibnizIdentityError) as info:
        family_a_iii(4, 2, [0, 0], 1, QQ, "printed")
    violations = info.value.violations
    assert [v.indices for v in violations] == [(1, 5, 5), (5, 1, 5)]
    derived = family_a_iii(4, 2, [0, 0], 1, QQ, "derived")
    assert derived.check_left_leibniz() == ()


def test_family_a_iii_validation():
    with pytest.raises(ValueError):
        family_a_iii(4, 1, [0, 0, 0], 0, QQ, "printed")
    with pytest.raises(ValueError):
        family_a_iii(4, 2, [0], 0, QQ, "printed")
    with pytest.raises(ValueError):
        family_a_iii(4, 2, [0, 0], 0, QQ, "sideways")
    with pytest.raises(ValueError):
        family_a_iii(1, 2, [], 0, QQ, "printed")
    # "printed" puts tau at a_{n-t}, which is a_0 when t = n
    with pytest.raises(ValueError):
        family_a_iii(3, 3, [], 1, QQ, "printed")
    with pytest.raises(ValueError):
        family_a_iii(2, 2, [], 1, GF(2), "printed")


def test_family_b_zero_parameters():
    a = family_b(3, [0, 0], 0, QQ)
    assert a.check_left_leibniz() == ()
    assert nilpotency_class(a) is None
    k = k_span(a, 3)
    assert is_ideal(a, k)
    gen = is_cyclic_subalgebra(a, k)
    assert gen == tuple(basis_vector(QQ, 4, 0))


def test_family_b_gamma2_forced_to_zero():
    with pytest.raises(LeibnizIdentityError) as info:
        family_b(3, [1, 0], 0, QQ)
    assert [v.indices for v in info.value.violations] == [(1, 4, 4), (4, 1, 4)]


def test_family_b_compensating_square():
    a = family_b(4, [0, 2, 0], 5, QQ)
    assert a.check_left_leibniz() == ()
    # [d, d] = -gamma_3 a_2 + delta a_4 = -2 a_2 + 5 a_4
    assert a.basis_bracket(4, 4) == (0, Fraction(-2), 0, Fraction(5), 0)


def test_family_b_validation():
    with pytest.raises(ValueError):
        family_b(3, [0], 0, QQ)
    with pytest.raises(ValueError):
        family_b(1, [], 0, QQ)


def test_family_c_small():
    a = family_c(2, QQ)
    assert a.dim == 3
    assert a.check_left_leibniz() == ()
    assert nilpotency_class(a) is None


@pytest.mark.parametrize("n", range(2, 10))
def test_family_c_is_the_displayed_table(n):
    # [b1, b_j] = b_{j+1} (j < n), [b1, s] = -b1, [s, b_j] = j b_j, every other product zero
    entries = {(0, m): {m + 1: 1} for m in range(n - 1)}
    entries[(0, n)] = {0: -1}
    entries.update({(n, j - 1): {j - 1: j} for j in range(1, n + 1)})
    assert family_c(n, QQ).tensor == LeibnizAlgebra.from_brackets(QQ, n + 1, entries).tensor


def test_family_c_eigenvalues():
    n = 5
    a = family_c(n, QQ)
    m = left_mult_matrix(a, basis_vector(QQ, n + 1, n))
    assert [m.entry(j, j) for j in range(n)] == [Fraction(j) for j in range(1, n + 1)]


def test_family_c_k_is_maximal_cyclic_ideal():
    a = family_c(4, QQ)
    k = k_span(a, 4)
    assert is_ideal(a, k)
    assert is_cyclic_subalgebra(a, k) == tuple(basis_vector(QQ, 5, 0))


def test_family_c_rejects_positive_characteristic():
    with pytest.raises(ValueError):
        family_c(3, GF(5))


# -- proof procedures --------------------------------------------------------

def test_nilpotent_complement_shifts_a1():
    a = family_a_i(3, QQ)
    k_rows = std(QQ, 4, 0, 1, 2)
    d = basis_vector(QQ, 4, 3)
    b = vec_add(QQ, d, basis_vector(QQ, 4, 0))
    assert nilpotent_complement(a, k_rows, b) == d


def test_nilpotent_complement_fixed_point():
    a = family_a_i(3, QQ)
    k_rows = std(QQ, 4, 0, 1, 2)
    d = basis_vector(QQ, 4, 3)
    assert nilpotent_complement(a, k_rows, d) == d


def test_nilpotent_complement_shift_by_a2():
    a = family_a_i(4, QQ)
    k_rows = std(QQ, 5, 0, 1, 2, 3)
    d = basis_vector(QQ, 5, 4)
    b = vec_add(QQ, d, basis_vector(QQ, 5, 1))
    assert nilpotent_complement(a, k_rows, b) == d


def test_nilpotent_complement_rejects_a1_component():
    a = family_b(3, [0, 0], 0, QQ)  # [b, a1] has an a1-component here
    k_rows = std(QQ, 4, 0, 1, 2)
    with pytest.raises(ValueError):
        nilpotent_complement(a, k_rows, basis_vector(QQ, 4, 3))


def test_scaling_complement_rescales():
    a = family_b(3, [0, 0], 0, QQ)
    k_rows = std(QQ, 4, 0, 1, 2)
    d = basis_vector(QQ, 4, 3)
    b = tuple(2 * v for v in d)
    assert scaling_complement(a, k_rows, b) == d
    assert scaling_complement(a, k_rows, d) == d


def test_scaling_complement_shifts():
    a = family_b(3, [0, 0], 0, QQ)
    k_rows = std(QQ, 4, 0, 1, 2)
    d = basis_vector(QQ, 4, 3)
    b = vec_add(QQ, d, basis_vector(QQ, 4, 0))
    got = scaling_complement(a, k_rows, b)
    assert a.bracket(k_rows[0], got) == (Fraction(-1), 0, 0, 0)
    assert got == d


def test_scaling_complement_rejects_nilpotent_case():
    a = family_a_i(3, QQ)
    k_rows = std(QQ, 4, 0, 1, 2)
    with pytest.raises(ValueError):
        scaling_complement(a, k_rows, basis_vector(QQ, 4, 3))


def test_eigenbasis_reduction_hand_example():
    # n=3, gamma3 = 2, delta = 3: -gamma3 = 2 lambda2 and delta = 3 lambda3
    a = family_b(3, [0, 2], 3, QQ)
    red = eigenbasis_reduction(a)
    assert red.lambdas == (Fraction(-1), Fraction(1))


def test_eigenbasis_reduction_trivial():
    a = family_b(4, [0, 0, 0], 0, QQ)
    red = eigenbasis_reduction(a)
    assert red.lambdas == (0, 0, 0)
    assert red.s == basis_vector(QQ, 5, 4)
    assert red.b_rows == tuple(std(QQ, 5, 0, 1, 2, 3))


def test_eigenbasis_reduction_postconditions_random():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 5)
        gammas = [Fraction(0)] + [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n - 2)
        ]
        delta = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        a = family_b(n, gammas, delta, QQ)
        red = eigenbasis_reduction(a)
        # postconditions are verified inside; check the transition band too
        for j, row in enumerate(red.b_rows):
            expected = [QQ.zero] * (n + 1)
            expected[j] = QQ.one
            for t, lam in enumerate(red.lambdas, start=2):
                if j + t < n:
                    expected[j + t] = lam
            assert list(row) == expected
        # the reduced algebra is the type-C table
        reduced = algebra_in_basis(a, red.b_rows + (red.s,))
        assert reduced == family_c(n, QQ)


def test_eigenbasis_reduction_rejects_gamma2():
    # A-iii with t = 2 has [s, a1] = a2: a valid algebra whose gamma_2 would be 1
    a = family_a_iii(3, 2, [0], 0, QQ, "derived")
    with pytest.raises(ValueError, match="gamma_2 = 0"):
        eigenbasis_reduction(a)


def test_eigenbasis_reduction_rejects_small_characteristic():
    a = family_b(3, [0, 0], 0, GF(3))
    with pytest.raises(ValueError):
        eigenbasis_reduction(a)


def test_eigenbasis_reduction_rejects_non_b_form():
    with pytest.raises(ValueError):
        eigenbasis_reduction(family_a_i(3, QQ))


@pytest.mark.parametrize("k_indices", [(1, 0, 2), (0, 2, 1), (0, 1), ()])
def test_complements_reject_a_non_canonical_chain(k_indices):
    k_rows = std(QQ, 4, *k_indices)
    with pytest.raises(ValueError, match="canonical cyclic chain"):
        nilpotent_complement(family_a_i(3, QQ), k_rows, basis_vector(QQ, 4, 3))
    with pytest.raises(ValueError, match="canonical cyclic chain"):
        scaling_complement(family_b(3, [0, 0], 0, QQ), k_rows, basis_vector(QQ, 4, 3))


def test_complements_coerce_the_callers_vectors():
    a = family_a_i(3, GF(5))
    k_rows = [(6, 0, 0, 0), (0, 1, 0, 0), (0, 0, -4, 0)]  # e1, e2, e3 as out-of-range ints
    assert nilpotent_complement(a, k_rows, (1, 0, 0, 6)) == (0, 0, 0, 1)
    # b inside K once reduced, and b of the wrong length, are refused
    with pytest.raises(ValueError, match="b must lie outside K"):
        nilpotent_complement(a, k_rows, (1, -4, 0, 5))
    with pytest.raises(ValueError, match="length"):
        nilpotent_complement(a, k_rows, (0, 0, 0))
