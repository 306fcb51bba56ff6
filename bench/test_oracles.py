"""Tests of the benchmark's oracles on cases decided by hand or by exhaustion."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import oracles as orc


def _naive_gf2_ok(value: int, d: int) -> bool:
    """The identity on every triple of vectors of GF(2)^d, straight from the definition."""
    t = orc.tensor_array([value], d)[0].astype(int)

    def br(x, y):
        return [sum(x[i] * y[j] * t[i][j][k] for i in range(d) for j in range(d)) % 2 for k in range(d)]

    vectors = list(product(range(2), repeat=d))
    for a, b, c in product(vectors, repeat=3):
        lhs = br(br(a, b), c)
        rhs = [(u + v) % 2 for u, v in zip(br(a, br(b, c)), br(b, br(a, c)))]
        if lhs != rhs:
            return False
    return True


@pytest.mark.parametrize("d", [1, 2])
def test_gf2_evaluator_matches_definition_exhaustively(d):
    values = list(range(1 << d**3))
    fast = orc.gf2_satisfies(values, d)
    assert fast.tolist() == [_naive_gf2_ok(v, d) for v in values]


def test_gf2_evaluator_matches_definition_on_dim3_sample():
    rng = np.random.default_rng(7)
    values = rng.integers(0, 1 << 27, size=60).tolist()
    # the abelian algebra and the cyclic table [e1, e1] = e2, [e1, e2] = e3
    values += [0, (1 << (0 + 0 + 1)) | (1 << (0 + 3 + 2))]
    fast = orc.gf2_satisfies(values, 3)
    assert fast.tolist() == [_naive_gf2_ok(v, 3) for v in values]
    assert fast[-2] and fast[-1]


def test_gf2_counts_dims_1_and_2():
    # dim 1: only the zero bracket, since [e,e] = e gives [[e,e],e] = e but 0 on the right
    assert orc.gf2_valid_count(1)[0] == 1
    assert orc.gf2_valid_count(2)[0] == sum(_naive_gf2_ok(v, 2) for v in range(256))


def test_tensor_int_roundtrip():
    values = np.array([0, 1, 12345, (1 << 27) - 1], dtype=np.int64)
    assert orc.tensor_ints(orc.tensor_array(values, 3)).tolist() == values.tolist()


@pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_general_linear_group_order(n, p):
    group = orc.general_linear_group(n, p)
    assert len(group) == orc.gl_order(n, p)
    assert len({g.tobytes() for g in group}) == len(group)


def test_gl_orders_by_hand():
    assert orc.gl_order(2, 2) == 6
    assert orc.gl_order(3, 2) == 168
    assert orc.gl_order(2, 3) == 48


def test_change_basis_identity_and_composition():
    rng = np.random.default_rng(3)
    tensors = rng.integers(0, 3, size=(4, 2, 2, 2))
    group = orc.general_linear_group(2, 3)
    eye = np.eye(2, dtype=np.int64)
    assert (orc.change_basis(tensors, eye, 3) == tensors).all()
    g, h = group[5], group[17]
    # basis rows h then g: the composite basis has rows g @ h
    twice = orc.change_basis(orc.change_basis(tensors, h, 3), g, 3)
    assert (twice == orc.change_basis(tensors, (g @ h) % 3, 3)).all()


def test_change_basis_preserves_identity_gf2_dim2():
    values = np.arange(256)
    ok = orc.gf2_satisfies(values, 2)
    tensors = orc.tensor_array(values, 2).astype(np.int64)
    for g in orc.general_linear_group(2, 2):
        moved = orc.tensor_ints(orc.change_basis(tensors, g, 2))
        assert (orc.gf2_satisfies(moved, 2) == ok).all()


def test_orbits_dim2_burnside():
    valid = np.flatnonzero(orc.gf2_satisfies(np.arange(256), 2))
    images, keys = orc.gf2_orbits(valid, 2)
    group_size = images.shape[0]
    fixed = int((images == valid[None, :]).sum())
    assert fixed % group_size == 0
    assert len(set(keys.tolist())) == fixed // group_size
    assert set(images.ravel().tolist()) == set(valid.tolist())


def test_rref_nullspace_mod_p():
    rows = [[1, 2, 3], [2, 4, 2]]
    reduced, pivots = orc.rref_mod_p(rows, 5)
    assert pivots == [0, 2]
    assert reduced == [[1, 2, 0], [0, 0, 1]]
    kernel = orc.nullspace_mod_p(rows, 3, 5)
    assert kernel == [[3, 1, 0]]
    assert all(sum(r * k for r, k in zip(row, kernel[0])) % 5 == 0 for row in rows)
    inv = orc.inverse_mod_p([[1, 1], [0, 1]], 5)
    assert inv.tolist() == [[1, 4], [0, 1]]


def _cyclic(n):
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for j in range(n - 1):
        t[0][j][j + 1] = 1
    return t


def test_rational_nullities_abelian():
    n = 3
    zero = [[[0] * n for _ in range(n)] for _ in range(n)]
    got = orc.rational_nullities(zero)
    assert got == {
        "derivation_dim": 9,
        "right_derivation_dim": 9,
        "left_center_dim": 3,
        "right_center_dim": 3,
        "center_dim": 3,
    }


def test_rational_nullities_cyclic_by_hand():
    # [a1, a1] = a2 in dim 2: f(a1) = x a1 + y a2 forces f(a2) = 2x a2, so Der has dim 2;
    # a right derivation is free on a1 and kills a2 = [a1, a1], dim 2.
    assert orc.rational_nullities(_cyclic(2)) == {
        "derivation_dim": 2,
        "right_derivation_dim": 2,
        "left_center_dim": 1,
        "right_center_dim": 1,
        "center_dim": 1,
    }
    # canonical cyclic of dim n: left center a2..an, right center and center a_n
    got = orc.rational_nullities(_cyclic(5))
    assert (got["left_center_dim"], got["right_center_dim"], got["center_dim"]) == (4, 1, 1)


def test_rational_nullities_heisenberg_lie():
    # [x, y] = z = -[y, x]: Der(h3) has dimension 6, and for a Lie algebra the
    # right-derivation condition coincides with the derivation condition.
    t = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    t[0][1][2] = Fraction(1)
    t[1][0][2] = Fraction(-1)
    got = orc.rational_nullities(t)
    assert got["derivation_dim"] == 6
    assert got["right_derivation_dim"] == 6
    assert got["center_dim"] == 1


def test_lower_central_dims_by_hand():
    n = 3
    assert orc.lower_central_dims([[[0] * n for _ in range(n)] for _ in range(n)]) == [3, 0]
    # canonical cyclic: [L, g_k] = span(a_{k+1}, ..., a_n)
    assert orc.lower_central_dims(_cyclic(5)) == [5, 4, 3, 2, 1, 0]
    # Heisenberg: [L, L] = span(z), [L, z] = 0
    h = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    h[0][1][2] = Fraction(1)
    h[1][0][2] = Fraction(-1)
    assert orc.lower_central_dims(h) == [3, 1, 0]
    # [x, y] = y = -[y, x] is not nilpotent: the series stops at span(y)
    t = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    t[0][1][1] = 1
    t[1][0][1] = -1
    assert orc.lower_central_dims(t) == [2, 1]
