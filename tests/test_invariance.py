"""Invariants must not change under a change of basis (GL(n, F) acting through `algebra_in_basis`)."""

from collections import Counter
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_corpus
from leibniz.core import algebra_in_basis, invariant_profile
from leibniz.derivations import derivation_space, right_derivation_space
from leibniz.lattice import subalgebra_lattice
from leibniz.linalg import GF, QQ, Matrix

corpus = lru_cache(maxsize=None)(build_corpus)


def _invertible(field, n, data):
    """A random invertible n x n matrix as rows, drawn as P L U (every invertible matrix is one)."""
    if field.characteristic == 0:
        entries = st.integers(-1, 1)
    else:
        entries = st.integers(0, field.characteristic - 1)
    nonzero = entries.filter(lambda x: x != 0)
    lower = [[1 if i == j else data.draw(entries) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[data.draw(nonzero) if i == j else data.draw(entries) if j > i else 0 for j in range(n)] for i in range(n)]
    product = Matrix(field, lower).mul(Matrix(field, upper))
    return [product.data[i] for i in data.draw(st.permutations(range(n)))]


def _lattice_shape(algebra):
    return Counter(entry.subspace.dim for entry in subalgebra_lattice(algebra).entries)


def _check_invariants(field, data):
    _name, algebra = data.draw(st.sampled_from(corpus(field)))
    rows = _invertible(field, algebra.dim, data)
    assert Matrix(field, rows).rank() == algebra.dim
    moved = algebra_in_basis(algebra, rows)
    assert invariant_profile(moved).as_dict() == invariant_profile(algebra).as_dict()
    assert derivation_space(moved).dim == derivation_space(algebra).dim
    assert right_derivation_space(moved).dim == right_derivation_space(algebra).dim
    if field.characteristic in (2, 3) and algebra.dim <= 4:
        assert _lattice_shape(moved) == _lattice_shape(algebra)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([GF(2), GF(3), GF(5)]), st.data())
def test_invariants_survive_a_change_of_basis_over_gf_p(field, data):
    _check_invariants(field, data)


# a dense rational basis at dimension 5 costs about a second per example
@settings(max_examples=5, deadline=None)
@given(st.data())
def test_invariants_survive_a_change_of_basis_over_q(data):
    _check_invariants(QQ, data)
