"""`bracket`, `product_subspace`, the closure table, the membership predicates and the restriction against the structure tensor.

The oracle multiplies from `algebra.tensor` by the definition,
[x, y] = sum over i, j of x_i y_j T[i][j], in plain `Fraction` arithmetic
over Q and in integers mod p over GF(p), and decides membership and
coordinates by its own `Fraction` elimination.  The inputs are random
vectors and random subspaces S, T, over a fractional table (c != 1) in a
random basis over Q, and over the corpus algebras over GF(3) and GF(5).
"""

import random
from fractions import Fraction

import pytest
from conftest import build_corpus, random_basis

from leibniz import core
from leibniz.core import (
    LeibnizAlgebra,
    _closed_products,
    algebra_in_basis,
    is_ideal,
    is_left_ideal,
    is_right_ideal,
    is_subalgebra,
    lower_central_series,
    product_subspace,
    restrict_to_subalgebra,
    upper_central_series,
)
from leibniz.families import cyclic_nilpotent
from leibniz.linalg import GF, QQ, Subspace, basis_vector


def _oracle_bracket(algebra, x, y):
    n, p, t = algebra.dim, algebra.field.characteristic, algebra.tensor
    w = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            if x[i] and y[j]:
                xy = Fraction(x[i]) * y[j]
                w = [a + xy * b for a, b in zip(w, t[i][j])]
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
    """Each entry is the integer table's product: congruent to [x, y] mod p over GF(p), c·[x, y] over Q."""
    rng, algebras = _inputs()
    for name, alg in algebras:
        p, c = alg.field.characteristic, alg._scale
        for s in lower_central_series(alg):
            products = _closed_products(alg, s)
            expected = [[_oracle_bracket(alg, x, y) for y in s.rows] for x in s.rows]
            if p:
                products = [[tuple(v % p for v in w) for w in line] for line in products]
            else:
                expected = [[tuple(c * v for v in w) for w in line] for line in expected]
            assert [[tuple(w) for w in line] for line in products] == expected, name


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=str)
def test_restrict_to_subalgebra_brackets_each_pair_once(monkeypatch, field):
    product = core._product
    calls = []

    def counted(table, x, y):
        calls.append((x, y))
        return product(table, x, y)

    for name, alg in build_corpus(field):
        lower = lower_central_series(alg)
        sub = lower[1] if len(lower) > 1 and lower[1].dim else lower[0]
        expected = restrict_to_subalgebra(alg, sub)
        monkeypatch.setattr(core, "_product", counted)
        calls.clear()
        assert restrict_to_subalgebra(alg, sub) == expected, name
        monkeypatch.undo()
        assert len(calls) == sub.dim**2, name
    # a dimension-4 subalgebra costs 16 products
    calls.clear()
    monkeypatch.setattr(core, "_product", counted)
    restrict_to_subalgebra(cyclic_nilpotent(4, field), Subspace.full(field, 4))
    assert len(calls) == 16


def _random_spans(field, n, rng, count):
    """Random spanning lists of 1..n - 1 vectors (none when n = 1)."""
    return [[_random_vector(field, n, rng) for _ in range(rng.randint(1, n - 1))] for _ in range(count if n > 1 else 0)]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_predicates_and_restriction_make_no_bracket_call(monkeypatch, field):
    rng = random.Random(35)
    cases = []
    for name, alg in build_corpus(field):
        terms = [s for s in lower_central_series(alg) + upper_central_series(alg) if s.dim]
        spans = [Subspace.from_vectors(field, alg.dim, xs) for xs in _random_spans(field, alg.dim, rng, 2)]
        cases.append((name, alg, terms, spans, [restrict_to_subalgebra(alg, s) for s in terms]))

    def refuse(self, x, y):
        raise AssertionError("bracket called")

    monkeypatch.setattr(LeibnizAlgebra, "bracket", refuse)
    for name, alg, terms, spans, restricted in cases:
        for s in terms + spans:
            for predicate in (is_subalgebra, is_left_ideal, is_right_ideal, is_ideal):
                predicate(alg, s)
        assert [restrict_to_subalgebra(alg, s) for s in terms] == restricted, name


def _rref(rows):
    """Gauss-Jordan on lists of `Fraction`s: (the reduced rows, their pivot columns)."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _oracle_in(w, reduced):
    """Whether w lies in the span of the reduced rows: nothing is left once each pivot entry is cleared."""
    rows, pivots = reduced
    w = [Fraction(v) for v in w]
    for row, pc in zip(rows, pivots):
        f = w[pc]
        w = [a - f * b for a, b in zip(w, row)]
    return not any(w)


def _oracle_coordinates(w, basis):
    """The a with w = sum_k a_k basis_k, for independent basis vectors, solved on the augmented columns."""
    k = len(basis)
    rows, pivots = _rref([[x[m] for x in basis] + [w[m]] for m in range(len(w))])
    assert pivots == list(range(k))  # independent, and w lies in their span
    return tuple(rows[i][k] for i in range(k))


def test_predicates_and_restriction_match_fraction_arithmetic_on_fractional_tables():
    """Over Q with c > 1: the four predicates and the restricted tensors against the `Fraction` oracle."""
    rng = random.Random(36)
    outcomes = {predicate: set() for predicate in (is_subalgebra, is_left_ideal, is_right_ideal, is_ideal)}
    for name, alg in _fractional_algebras(rng):
        n = alg.dim
        assert alg._scale > 1 or name.startswith("abelian"), name
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        terms = [(s, s.rows) for s in lower_central_series(alg) + upper_central_series(alg)]
        spans = [(Subspace.from_vectors(QQ, n, xs), xs) for xs in _random_spans(QQ, n, rng, 3)]
        for s, vectors in terms + spans:
            reduced = _rref(vectors)
            sub = all(_oracle_in(_oracle_bracket(alg, x, y), reduced) for x in vectors for y in vectors)
            left = all(_oracle_in(_oracle_bracket(alg, u, y), reduced) for u in units for y in vectors)
            right = all(_oracle_in(_oracle_bracket(alg, x, u), reduced) for x in vectors for u in units)
            expected = {is_subalgebra: sub, is_left_ideal: left, is_right_ideal: right, is_ideal: left and right}
            for predicate, want in expected.items():
                assert predicate(alg, s) == want, (name, predicate.__name__, vectors)
                outcomes[predicate].add(want)
            if sub and s.dim:
                tensor = restrict_to_subalgebra(alg, s).tensor
                assert all(type(v) is Fraction for plane in tensor for vec in plane for v in vec), name
                assert tensor == tuple(
                    tuple(_oracle_coordinates(_oracle_bracket(alg, x, y), s.rows) for y in s.rows) for x in s.rows
                ), name
    assert all(seen == {True, False} for seen in outcomes.values())


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
