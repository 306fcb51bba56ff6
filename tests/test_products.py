"""`bracket`, `product_subspace` and the closure table against the structure tensor.

The oracle multiplies from `algebra.tensor` by the definition,
[x, y] = sum over i, j of x_i y_j T[i][j], in plain `Fraction` arithmetic
over Q and in integers mod p over GF(p).  The inputs are random vectors
and random subspaces S, T, over a fractional table (c != 1) in a random
basis over Q, and over the corpus algebras over GF(3) and GF(5).
"""

import random
from fractions import Fraction

import pytest
from conftest import build_corpus, random_basis

from leibniz.core import (
    LeibnizAlgebra,
    _closed_products,
    algebra_in_basis,
    lower_central_series,
    product_subspace,
    restrict_to_subalgebra,
)
from leibniz.families import cyclic_nilpotent
from leibniz.linalg import GF, QQ, Subspace, basis_vector


def _oracle_bracket(algebra, x, y):
    n, p, t = algebra.dim, algebra.field.characteristic, algebra.tensor
    w = [sum(Fraction(x[i]) * y[j] * t[i][j][k] for i in range(n) for j in range(n)) for k in range(n)]
    return tuple([int(v) % p for v in w] if p else w)


def _random_vector(field, n, rng):
    if field.characteristic:
        return tuple(rng.randrange(field.characteristic) for _ in range(n))
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))


def _fractional_algebras(rng):
    """The corpus over Q in a random basis scaled by 1/d, so that every nonzero table has c = d or more."""
    for name, alg in build_corpus(QQ):
        d = rng.choice((2, 3, 5))
        rows = [[Fraction(v, d) for v in row] for row in random_basis(QQ, alg.dim, rng)]
        yield name, algebra_in_basis(alg, rows)


def _inputs():
    rng = random.Random(21)
    algebras = list(_fractional_algebras(rng))
    fractional = [a for _, a in algebras if any(v.denominator > 1 for plane in a.tensor for vec in plane for v in vec)]
    assert len(fractional) == len(algebras) - 3  # all but abelian1..3
    algebras += [(name, alg) for p in (3, 5) for name, alg in build_corpus(GF(p))]
    return rng, algebras


def test_bracket_matches_the_tensor():
    rng, algebras = _inputs()
    for name, alg in algebras:
        for _ in range(6):
            x, y = (_random_vector(alg.field, alg.dim, rng) for _ in range(2))
            assert alg.bracket(x, y) == _oracle_bracket(alg, x, y), name


def test_product_subspace_matches_the_tensor():
    """[S, T] is spanned by [x, y] over spanning sets of S and T; the oracle uses the random spanning vectors."""
    rng, algebras = _inputs()
    for name, alg in algebras:
        field, n = alg.field, alg.dim
        for _ in range(4):
            xs, ys = ([_random_vector(field, n, rng) for _ in range(rng.randint(0, n))] for _ in range(2))
            s, t = Subspace.from_vectors(field, n, xs), Subspace.from_vectors(field, n, ys)
            expected = Subspace.from_vectors(field, n, [_oracle_bracket(alg, x, y) for x in xs for y in ys])
            assert product_subspace(alg, s, t) == expected, name


def test_closed_products_bracket_each_pair_of_rows():
    rng, algebras = _inputs()
    for name, alg in algebras:
        for s in lower_central_series(alg):
            products = _closed_products(alg, s)
            assert products == [[_oracle_bracket(alg, x, y) for y in s.rows] for x in s.rows], name


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=str)
def test_restrict_to_subalgebra_brackets_each_pair_once(monkeypatch, field):
    bracket = LeibnizAlgebra.bracket
    calls = []

    def counted(self, x, y):
        calls.append((x, y))
        return bracket(self, x, y)

    for name, alg in build_corpus(field):
        lower = lower_central_series(alg)
        sub = lower[1] if len(lower) > 1 and lower[1].dim else lower[0]
        expected = restrict_to_subalgebra(alg, sub)
        monkeypatch.setattr(LeibnizAlgebra, "bracket", counted)
        calls.clear()
        assert restrict_to_subalgebra(alg, sub) == expected, name
        monkeypatch.undo()
        assert len(calls) == sub.dim**2, name
    # a dimension-4 subalgebra costs 16 brackets
    calls.clear()
    monkeypatch.setattr(LeibnizAlgebra, "bracket", counted)
    restrict_to_subalgebra(cyclic_nilpotent(4, field), Subspace.full(field, 4))
    assert len(calls) == 16


def test_restriction_errors_keep_their_order():
    """Outside the algebra first, then not closed, then the zero subspace."""
    alg = cyclic_nilpotent(3, QQ)
    with pytest.raises(ValueError, match="outside the algebra"):
        restrict_to_subalgebra(alg, Subspace.zero(QQ, 2))
    with pytest.raises(ValueError, match="outside the algebra"):
        restrict_to_subalgebra(alg, Subspace.full(GF(5), 3))
    line = Subspace.from_vectors(QQ, 3, [basis_vector(QQ, 3, 0)])
    for run in (restrict_to_subalgebra, _closed_products):
        with pytest.raises(ValueError, match="not closed under the bracket"):
            run(alg, line)
    with pytest.raises(ValueError, match="zero subspace"):
        restrict_to_subalgebra(alg, Subspace.zero(QQ, 3))
    assert _closed_products(alg, Subspace.zero(QQ, 3)) == []
