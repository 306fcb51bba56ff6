"""Central series and centres over Q against sympy, as an independent oracle.

The reference below works on the `Fraction` structure tensor with sympy's
exact `rref` and `nullspace`, and shares no code with `leibniz`.  Inputs:
the rational corpus in the standard basis and in two random integer bases,
where the tables have denominators, so that the library's integer table
c*T has c > 1.
"""

import random
from fractions import Fraction
from math import lcm

import sympy
from conftest import build_corpus, random_basis

from leibniz.core import (
    algebra_in_basis,
    center,
    left_center,
    lower_central_series,
    right_center,
    upper_central_series,
)
from leibniz.linalg import QQ


def _canonical(rows):
    """The RREF basis of the span of rows, as tuples of Fractions."""
    if not rows:
        return ()
    reduced, pivots = sympy.Matrix(rows).rref()
    return tuple(tuple(Fraction(int(v.p), int(v.q)) for v in reduced.row(i)) for i in range(len(pivots)))


def _null(rows, n):
    """The RREF basis of {x : r . x = 0 for every row r}."""
    if not rows:
        return _canonical(sympy.eye(n).tolist())
    return _canonical([list(v) for v in sympy.Matrix(rows).nullspace()])


class Reference:
    def __init__(self, tensor):
        self.n = n = len(tensor)
        self.t = tensor
        self.basis = [[int(i == j) for j in range(n)] for i in range(n)]

    def bracket(self, x, y):
        """sum over i, j of x[i] y[j] t[i][j], in Fractions, over the nonzero x[i] and y[j] only."""
        out = [Fraction(0)] * self.n
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in enumerate(y):
                if b:
                    out = [u + a * b * v for u, v in zip(out, self.t[i][j])]
        return out

    def lower(self):
        terms = [_canonical(self.basis)]
        while True:
            nxt = _canonical([self.bracket(e, y) for e in self.basis for y in terms[-1]])
            if nxt == terms[-1]:
                return tuple(terms)
            terms.append(nxt)

    def centraliser(self, z, left=True, right=True):
        """{x : a . [x, e_j] = 0 (left) and a . [e_j, x] = 0 (right) for every j and every a in Z^perp}."""
        n, t = self.n, self.t
        rows = []
        for a in _null([list(r) for r in z], n):
            support = [k for k in range(n) if a[k]]
            for j in range(n):
                if left:
                    rows.append([sum(a[k] * t[i][j][k] for k in support if t[i][j][k]) for i in range(n)])
                if right:
                    rows.append([sum(a[k] * t[j][i][k] for k in support if t[j][i][k]) for i in range(n)])
        return _null(rows, n)

    def upper(self):
        prev, terms = (), []
        while True:
            nxt = self.centraliser(prev)
            if nxt == prev:
                return tuple(terms) or (prev,)
            terms.append(nxt)
            prev = nxt


def _inputs():
    rng = random.Random(5)
    cases = []
    for name, alg in build_corpus(QQ):
        cases.append((name, alg))
        for b in range(2):
            cases.append((f"{name} in basis {b}", algebra_in_basis(alg, random_basis(QQ, alg.dim, rng))))
    return cases


def test_series_and_centres_match_sympy():
    cases = _inputs()
    scales = [lcm(*[v.denominator for plane in a.tensor for vec in plane for v in vec]) for _, a in cases]
    assert sum(c > 1 for c in scales) >= 20
    for name, alg in cases:
        ref = Reference(alg.tensor)
        assert tuple(s.rows for s in lower_central_series(alg)) == ref.lower(), name
        assert tuple(s.rows for s in upper_central_series(alg)) == ref.upper(), name
        assert left_center(alg).rows == ref.centraliser((), right=False), name
        assert right_center(alg).rows == ref.centraliser((), left=False), name
        assert center(alg).rows == ref.centraliser(()), name
