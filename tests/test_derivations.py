import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from conftest import build_corpus
from leibniz import linalg
from leibniz.core import _generators, invariant_profile, leibniz_kernel
from leibniz.cyclic import is_canonical_cyclic
from leibniz.derivations import (
    _constraint_rows,
    check_invariance,
    derivation_space,
    extract_cyclic_derivation_profile,
    extract_cyclic_right_derivation_profile,
    is_derivation,
    is_right_derivation,
    left_mult_matrix,
    right_derivation_space,
    right_mult_matrix,
)
from leibniz.families import abelian, cyclic_nilpotent, dim2_l2, family_a_iii, family_c
from leibniz.linalg import GF, QQ, Field, Matrix, Subspace, _RESIDUES, _dense, _kernel_echelon, _lifted, basis_vector

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


def _zero(n):
    return Matrix(QQ, [[0] * n] * n)


def _commutator(f, g):
    """f g - g f."""
    fg, gf = f.mul(g).data, g.mul(f).data
    return Matrix(f.field, [[x - y for x, y in zip(r, s)] for r, s in zip(fg, gf)])


def test_left_mult_shifts_cyclic_chain():
    a = cyclic_nilpotent(3, QQ)
    m = left_mult_matrix(a, basis_vector(QQ, 3, 0))
    # the image of e_j is column j
    assert [m.column(j) for j in range(3)] == [basis_vector(QQ, 3, 1), basis_vector(QQ, 3, 2), (0, 0, 0)]


def test_right_mult_of_generator():
    a = cyclic_nilpotent(3, QQ)
    m = right_mult_matrix(a, basis_vector(QQ, 3, 0))
    assert [m.column(j) for j in range(3)] == [basis_vector(QQ, 3, 1), (0, 0, 0), (0, 0, 0)]


def test_mult_matrix_of_zero():
    a = cyclic_nilpotent(2, QQ)
    assert left_mult_matrix(a, (0, 0)) == _zero(2)
    assert right_mult_matrix(a, (0, 0)) == _zero(2)


def test_derivation_space_cyclic_dimension():
    for n in (2, 3, 5):
        d = derivation_space(cyclic_nilpotent(n, QQ))
        assert d.dim == n
        assert d.kind == "left-derivation"


def test_derivation_space_abelian_is_all_of_end():
    assert derivation_space(abelian(2, QQ)).dim == 4
    assert right_derivation_space(abelian(3, QQ)).dim == 9


def test_derivation_space_l2():
    d = derivation_space(dim2_l2(QQ))
    assert d.dim == 1
    # f(c) = beta d, f(d) = beta d: both columns proportional to (0, 1)
    (m,) = d.basis
    assert m.column(0) == m.column(1)
    assert m.data[0][0] == 0 and m.data[1][0] != 0


def test_right_derivation_space_cyclic():
    for n in (2, 4):
        d = right_derivation_space(cyclic_nilpotent(n, QQ))
        assert d.dim == n
        for m in d.basis:
            for j in range(1, n):
                assert m.column(j) == (QQ.zero,) * n


def test_left_mult_is_derivation_everywhere():
    for name, alg in build_corpus(QQ) + build_corpus(GF(5)):
        n = alg.dim
        for i in range(n):
            la = left_mult_matrix(alg, basis_vector(alg.field, n, i))
            assert is_derivation(alg, la), name
            ra = right_mult_matrix(alg, basis_vector(alg.field, n, i))
            assert is_right_derivation(alg, ra), name


@pytest.mark.parametrize("field,max_dim", [(GF(2), 3), (GF(3), 2)], ids=str)
def test_derivation_spaces_match_brute_force(field, max_dim):
    # every n x n matrix is tested with the exact checkers; the kept ones
    # must form the whole kernel the constraint rows define
    p = field.characteristic
    checks = (
        (is_derivation, derivation_space),
        (is_right_derivation, right_derivation_space),
    )
    for name, alg in build_corpus(field):
        n = alg.dim
        if n > max_dim:
            continue
        matrices = [
            Matrix(field, [entries[r * n : (r + 1) * n] for r in range(n)])
            for entries in product(range(p), repeat=n * n)
        ]
        for holds, space in checks:
            found = [m for m in matrices if holds(alg, m)]
            basis = space(alg).basis
            assert len(found) == p ** len(basis), (name, space.__name__)
            flat = [sum(m.data, ()) for m in found]
            expected = Subspace.from_vectors(field, n * n, [sum(m.data, ()) for m in basis])
            assert Subspace.from_vectors(field, n * n, flat) == expected, (name, space.__name__)


def test_zero_matrix_is_both_kinds():
    a = cyclic_nilpotent(3, QQ)
    z = _zero(3)
    assert is_derivation(a, z)
    assert is_right_derivation(a, z)


def test_identity_matrix_not_derivation_on_cyclic2():
    a = cyclic_nilpotent(2, QQ)
    assert not is_derivation(a, Matrix.identity(QQ, 2))


def test_profile_of_diagonal_derivation():
    n = 4
    a = cyclic_nilpotent(n, QQ)
    m = Matrix(QQ, [[i + 1 if i == j else 0 for j in range(n)] for i in range(n)])
    p = extract_cyclic_derivation_profile(a, m)
    assert p is not None
    assert p.gammas == (Fraction(1),) + (Fraction(0),) * (n - 1)


def test_profile_of_zero_matrix():
    a = cyclic_nilpotent(3, QQ)
    p = extract_cyclic_derivation_profile(a, _zero(3))
    assert p is not None and all(g == 0 for g in p.gammas)


def test_profile_rejects_non_derivation():
    a = cyclic_nilpotent(2, QQ)
    with pytest.raises(ValueError):
        extract_cyclic_derivation_profile(a, Matrix.identity(QQ, 2))


def test_profile_requires_canonical_cyclic():
    a = dim2_l2(QQ)
    assert not is_canonical_cyclic(a, [basis_vector(QQ, 2, i) for i in range(2)])
    with pytest.raises(ValueError):
        extract_cyclic_derivation_profile(a, _zero(2))


@pytest.mark.parametrize("n", range(2, 9))
def test_every_kernel_element_matches_the_band_pattern(n):
    a = cyclic_nilpotent(n, QQ)
    for m in derivation_space(a).basis:
        assert extract_cyclic_derivation_profile(a, m) is not None
    for m in right_derivation_space(a).basis:
        assert extract_cyclic_right_derivation_profile(a, m) is not None


def test_derivations_closed_under_commutator():
    for alg in (cyclic_nilpotent(3, QQ), dim2_l2(QQ), family_c(2, QQ)):
        basis = derivation_space(alg).basis
        for f in basis:
            for g in basis:
                assert is_derivation(alg, _commutator(f, g))


def test_left_mult_commutator_identity():
    # [l_a, l_b] = l_{[a,b]} on all basis pairs
    for alg in (cyclic_nilpotent(4, QQ), dim2_l2(GF(3)), family_c(3, QQ)):
        n = alg.dim
        for i in range(n):
            for j in range(n):
                a = basis_vector(alg.field, n, i)
                b = basis_vector(alg.field, n, j)
                la, lb = left_mult_matrix(alg, a), left_mult_matrix(alg, b)
                lab = left_mult_matrix(alg, alg.bracket(a, b))
                assert _commutator(la, lb) == lab


def test_invariance_reports():
    a = cyclic_nilpotent(4, QQ)
    for m in derivation_space(a).basis:
        assert check_invariance(a, m, "left-derivation").passed
    for m in right_derivation_space(a).basis:
        rep = check_invariance(a, m, "right-derivation")
        assert rep.passed
        assert dict(rep.checks)["leibniz_kernel_annihilated"]


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_derivation_checks_coerce_nothing(monkeypatch, field):
    """`is_derivation` and `check_invariance` take the canonical entries of a constructed matrix as they are."""
    a = family_a_iii(4, 2, [1, 0], 1, field, "derived")
    left = [Matrix(field, m.data) for m in derivation_space(a).basis]
    right = [Matrix(field, m.data) for m in right_derivation_space(a).basis]
    assert left and right
    calls = []
    of = Field.of

    def counted(self, value):
        calls.append(value)
        return of(self, value)

    monkeypatch.setattr(Field, "of", counted)
    for m in left:
        assert is_derivation(a, m) and check_invariance(a, m, "left-derivation").passed
    for m in right:
        assert is_right_derivation(a, m) and check_invariance(a, m, "right-derivation").passed
    assert not is_derivation(a, Matrix.identity(field, a.dim))
    assert calls == []


def test_invariance_zero_map():
    a = dim2_l2(QQ)
    z = _zero(2)
    assert check_invariance(a, z, "left-derivation").passed
    assert check_invariance(a, z, "right-derivation").passed


def test_invariance_rejects_wrong_kind():
    a = cyclic_nilpotent(2, QQ)
    with pytest.raises(ValueError):
        check_invariance(a, Matrix.identity(QQ, 2), "left-derivation")
    with pytest.raises(ValueError):
        check_invariance(a, Matrix.identity(QQ, 2), "frobnication")


def test_right_derivations_annihilate_leib_everywhere():
    for name, alg in build_corpus(QQ):
        leib = leibniz_kernel(alg)
        for m in right_derivation_space(alg).basis:
            for row in leib.rows:
                # m row = 0, entry by entry over Q
                assert not any(sum(a * b for a, b in zip(r, row)) for r in m.data), name


def test_lifted_derivation_kernels_equal_the_exact_ones(monkeypatch):
    # the 48 derivation systems of the profile benchmark (seed 1) and those
    # of the rational corpus: the kernel computed mod P and lifted must be
    # the exact elimination's, value for value and type for type, and none
    # of them may need the exact fallback, which would only show as time
    algebras = [case.algebra for case in workloads.build("profile-q", 1).cases]
    algebras += [alg for _, alg in build_corpus(QQ)]
    for algebra in algebras:
        gens = _generators(algebra)
        for kind in ("left-derivation", "right-derivation"):
            n2 = algebra.dim**2
            rows = _constraint_rows(algebra, kind, gens)
            lifted = _lifted(rows, _kernel_echelon(_RESIDUES, n2, rows))
            assert lifted is not None
            exact = _dense(QQ, n2, _kernel_echelon(QQ, n2, rows))
            assert repr(_dense(QQ, n2, lifted)) == repr(exact)

    # the same for every kernel and span of their profiles (centres, central
    # series, Leibniz kernel, derivation spaces): each lift passes the size
    # bound, and the exact elimination over Q never runs
    fields, refused = [], []
    echelon, lift = linalg._echelon, linalg._lifted

    def counted_echelon(field, rows):
        fields.append(field)
        return echelon(field, rows)

    def counted_lift(rows, residue_echelon):
        basis = lift(rows, residue_echelon)
        refused.append(basis is None)
        return basis

    monkeypatch.setattr(linalg, "_echelon", counted_echelon)
    monkeypatch.setattr(linalg, "_lifted", counted_lift)
    for algebra in algebras:
        invariant_profile(algebra)
    assert len(refused) > 2 * len(algebras) and not any(refused)
    assert QQ not in fields


def _sympy_derivations(brackets, kind):
    """The RREF basis, as row-major matrix entries, of the (right) derivations
    of the structure constants brackets[i][j] = [e_i, e_j], by sympy alone:
    the full n^3 x n^2 system, its null space, and that null space's RREF."""
    n = len(brackets)
    rows = []
    for i, j, l in product(range(n), repeat=3):
        # D[l][k] is unknown l n + k, and column k of D is D e_k
        row = [sympy.QQ(0)] * (n * n)
        for k in range(n):
            row[l * n + k] += brackets[i][j][k]
        for m in range(n):
            if kind == "left-derivation":  # D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j]
                row[m * n + i] -= brackets[m][j][l]
                row[m * n + j] -= brackets[i][m][l]
            else:  # g[e_i, e_j] - [e_i, g e_j] + [e_j, g e_i]
                row[m * n + j] -= brackets[i][m][l]
                row[m * n + i] += brackets[j][m][l]
        rows.append(row)
    nullspace = DomainMatrix(rows, (n**3, n * n), sympy.QQ).nullspace()
    if nullspace.shape[0] == 0:
        return []
    return [[Fraction(int(v.numerator), int(v.denominator)) for v in row] for row in nullspace.rref()[0].to_list()]


def test_derivation_bases_match_a_sympy_nullspace():
    # the six dense dimension-5 inputs and the six dimension-7 inputs of the
    # profile benchmark (seed 1): the canonical bases, entry for entry,
    # against an oracle that reads only the structure constants
    cases = [case for case in workloads.build("profile-q", 1).cases if case.algebra.dim in (5, 7)]
    assert len(cases) == 12
    for case in cases:
        algebra = case.algebra
        n = algebra.dim
        brackets = [
            [[sympy.QQ(v.numerator, v.denominator) for v in algebra.basis_bracket(i, j)] for j in range(n)]
            for i in range(n)
        ]
        for kind, space in (("left-derivation", derivation_space), ("right-derivation", right_derivation_space)):
            basis = space(algebra)
            found = [[v for row in m.data for v in row] for m in basis.basis]
            assert found == _sympy_derivations(brackets, kind), (case.label, kind)
            assert basis.dim == len(found)
