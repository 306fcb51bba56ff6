"""Every scalar the library computes is a canonical field value.

Over Q that is a `Fraction`; over GF(p) an int in [0, p).  The arithmetic in
`leibniz` rests on it (see the `linalg` docstring): a value is zero exactly
when it is falsy, and each entry is reduced once, not after every operation.
"""

import random
from fractions import Fraction

import pytest
from conftest import build_corpus, random_basis

from leibniz.core import (
    LeibnizAlgebra,
    algebra_in_basis,
    center,
    leibniz_kernel,
    left_center,
    lower_central_series,
    restrict_to_subalgebra,
    right_center,
    upper_central_series,
)
from leibniz.derivations import derivation_space, right_derivation_space
from leibniz.lattice import subalgebra_lattice
from leibniz.linalg import GF, QQ, Field, Matrix, Subspace

FIELDS = [GF(2), GF(3), QQ]


def assert_canonical(field, values, where):
    p = field.characteristic
    for v in values:
        if p == 0:
            assert type(v) is Fraction, (where, v)
        else:
            assert type(v) is int and 0 <= v < p, (where, v)


def entries(rows):
    return [v for row in rows for v in row]


def dense_vector(field, n, shift):
    """A vector with mostly nonzero entries, so every bracket path runs."""
    return tuple(field.of(i + shift) for i in range(n))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_bracket_and_linear_algebra_give_canonical_values(field):
    for name, alg in build_corpus(field):
        n = alg.dim
        x, y = dense_vector(field, n, 1), dense_vector(field, n, 2)
        basis = list(Subspace.full(field, n).rows)
        products = [alg.bracket(a, b) for a in basis + [x] for b in basis + [y]]
        assert_canonical(field, entries(products), (name, "bracket"))
        m = Matrix(field, products, _coerced=True)
        assert_canonical(field, entries(Subspace.from_vectors(field, n, products).rows), (name, "rref"))
        assert_canonical(field, entries(m.kernel().rows), (name, "kernel"))
        subspaces = [leibniz_kernel(alg), left_center(alg), right_center(alg), center(alg)]
        subspaces += [*lower_central_series(alg), *upper_central_series(alg)]
        for s in subspaces:
            assert_canonical(field, entries(s.rows), (name, "subspace"))
        for kind in (derivation_space(alg), right_derivation_space(alg)):
            for d in kind.basis:
                assert_canonical(field, entries(d.data), (name, kind.kind))


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=str)
def test_lattice_generators_are_canonical(field):
    for name, alg in build_corpus(field):
        if alg.dim > 4:
            continue
        for e in subalgebra_lattice(alg).entries:
            assert_canonical(field, entries(e.subspace.rows), (name, "lattice rows"))
            if e.generator is not None:
                assert_canonical(field, e.generator, (name, "generator"))


@pytest.mark.parametrize("p", [2, 3])
def test_bracket_reduces_unreduced_int_inputs(p):
    field = GF(p)
    for name, alg in build_corpus(field):
        n = alg.dim
        raw_x = tuple(p if i % 2 else -1 for i in range(n))
        raw_y = tuple(-1 if i % 3 else p for i in range(n))
        x, y = (tuple(v % p for v in raw) for raw in (raw_x, raw_y))
        got = alg.bracket(raw_x, raw_y)
        assert got == alg.bracket(x, y), name
        assert_canonical(field, got, (name, "bracket of unreduced ints"))


def test_rational_invariants_are_fractions_in_a_random_basis():
    """The invariants reduce integer rows (the table times c, rows times their lcm); none may leak an int.

    The standard basis is covered above; a random basis gives tables with denominators, so c > 1.
    """
    rng = random.Random(3)
    for name, alg in build_corpus(QQ):
        a = algebra_in_basis(alg, random_basis(QQ, alg.dim, rng))
        for s in [*lower_central_series(a), *upper_central_series(a), center(a), leibniz_kernel(a)]:
            assert_canonical(QQ, entries(s.rows), (name, "subspace"))
        for kind in (derivation_space(a), right_derivation_space(a)):
            for d in kind.basis:
                assert_canonical(QQ, entries(d.data), (name, kind.kind))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_derived_tables_are_canonical_and_not_coerced_again(monkeypatch, field):
    """`algebra_in_basis` coerces the caller's n^2 basis entries and nothing else; `restrict_to_subalgebra` nothing."""
    of = Field.of
    calls = []

    def counted(self, value):
        calls.append(value)
        return of(self, value)

    rng = random.Random(5)
    for name, alg in build_corpus(field):
        n = alg.dim
        rows = random_basis(field, n, rng)
        lower = lower_central_series(alg)
        sub = lower[1] if len(lower) > 1 and lower[1].dim else lower[0]
        monkeypatch.setattr(Field, "of", counted)
        calls.clear()
        moved = algebra_in_basis(alg, rows)
        assert len(calls) == n * n, name
        restricted = restrict_to_subalgebra(alg, sub)
        assert len(calls) == n * n, name
        monkeypatch.undo()
        for derived in (moved, restricted):
            assert_canonical(field, [v for plane in derived.tensor for vec in plane for v in vec], name)
            assert LeibnizAlgebra(field, derived.tensor) == derived
