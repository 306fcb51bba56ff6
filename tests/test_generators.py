"""The identities imposed on a generating set give the results of the full systems.

`core._generators` picks basis indices whose unit vectors generate the
algebra; the derivation rows, the centralisers and the lower-series
products read only those.  The oracles here are the full systems: the
constraint rows of every basis pair, every table cell, and [L, g_k] from
all of L.
"""

import random

import pytest

from conftest import build_corpus, random_basis
from leibniz import core, derivations
from leibniz.census import algebra_from_int
from leibniz.core import (
    _centraliser,
    _generators,
    _lower_series,
    _upper_series,
    algebra_in_basis,
    center,
    invariant_profile,
    left_center,
    lower_central_series,
    right_center,
    upper_central_series,
)
from leibniz.cyclic import generated_by
from leibniz.derivations import _kernel_basis, derivation_space, right_derivation_space
from leibniz.families import abelian, cyclic_nilpotent
from leibniz.linalg import GF, QQ, Subspace

# the class keys of census(3): each is its orbit's minimum, so a valid tensor
CENSUS3_CLASS_KEYS = (
    0, 2, 16, 20, 32, 34, 160, 176, 272, 520, 524, 1044, 1296, 2080, 2084, 16420, 526496, 527536,
    1049872, 2656416,
)


def _algebras():
    rng = random.Random(31)
    cases = [(f"Q {name}", alg) for name, alg in build_corpus(QQ)]
    for k in range(2):
        for name, alg in build_corpus(QQ):
            cases.append((f"Q basis {k} {name}", algebra_in_basis(alg, random_basis(QQ, alg.dim, rng))))
    for p in (2, 3, 5):
        cases += [(f"GF({p}) {name}", alg) for name, alg in build_corpus(GF(p))]
    cases += [(f"census {v}", algebra_from_int(3, v)) for v in CENSUS3_CLASS_KEYS]
    return cases


ALGEBRAS = _algebras()


def test_generating_set_gives_the_full_systems():
    assert len(ALGEBRAS) == 3 * 20 + 3 * 18 + 20
    for name, alg in ALGEBRAS:
        every = range(alg.dim)
        assert derivation_space(alg) == _kernel_basis(alg, "left-derivation", every), name
        assert right_derivation_space(alg) == _kernel_basis(alg, "right-derivation", every), name
        assert left_center(alg) == _centraliser(alg, every, right=False), name
        assert right_center(alg) == _centraliser(alg, every, left=False), name
        assert center(alg) == _centraliser(alg, every), name
        assert upper_central_series(alg) == _upper_series(alg, every), name
        # [L, g_k] from the full space L
        assert lower_central_series(alg) == _lower_series(alg, every), name


def test_generators_generate_and_each_is_needed():
    for name, alg in ALGEBRAS:
        gens = _generators(alg)
        units = Subspace.full(alg.field, alg.dim).rows
        assert gens == sorted(set(gens)), name
        assert generated_by(alg, [units[g] for g in gens]).dim == alg.dim, name
        for k, g in enumerate(gens):
            earlier = generated_by(alg, [units[h] for h in gens[:k]])
            assert not earlier._contains_all([units[g]]), name


def test_generators_of_the_corpus():
    assert _generators(abelian(3, QQ)) == [0, 1, 2]
    assert _generators(cyclic_nilpotent(5, QQ)) == [0]
    for field in (QQ, GF(2), GF(3), GF(5)):
        for name, alg in build_corpus(field):
            if name[0] in "ABCq":  # the families and the quaternion analog
                assert _generators(alg) == [0, alg.dim - 1], (field, name)


@pytest.mark.parametrize("name, dims", [("A-iii(4,t=2)", (4, 7)), ("B(4)", (2, 5))])
def test_dropping_a_generator_loses_rows(name, dims):
    # one unit vector too few generates a proper subalgebra, on which the
    # identity no longer pins the derivations down
    alg = dict(build_corpus(QQ))[name]
    gens = _generators(alg)
    assert _kernel_basis(alg, "left-derivation", gens).dim == dims[0]
    for k in range(len(gens)):
        assert _kernel_basis(alg, "left-derivation", gens[:k] + gens[k + 1 :]).dim == dims[1]


def test_profile_finds_the_generators_once_per_call(monkeypatch):
    calls = []

    def counted(algebra):
        calls.append(algebra)
        return _generators(algebra)

    monkeypatch.setattr(core, "_generators", counted)
    monkeypatch.setattr(derivations, "_generators", counted)
    alg = dict(build_corpus(QQ))["B(4)"]
    assert invariant_profile(alg) == invariant_profile(alg)
    assert calls == [alg, alg]
