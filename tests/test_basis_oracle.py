"""Changes of basis against an oracle that shares no code with `leibniz`.

The reference inverts the basis matrix with sympy (`Matrix.inv` over Q,
`Matrix.inv_mod` over GF(p)) and brackets the old structure tensor in plain
`Fraction` or int arithmetic: [p_a, p_b] = sum_ij p_a[i] p_b[j] T[i][j], and
its new coordinates are sum_i [p_a, p_b]_i (P^-1)[i].  The library's tensor
and integer table must equal the reference's by `repr`, so an int over Q or a
Fraction over GF(p) fails too.  The rows over Q have denominators (each row
scaled to integers by s_a > 1), and a second change is applied to an algebra
that was already moved, whose integer table has c > 1.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from conftest import build_corpus

from leibniz.core import algebra_in_basis
from leibniz.families import cyclic_nilpotent
from leibniz.linalg import GF, QQ


def _inverse(rows, p):
    """P^-1 as rows of Fractions over Q and of ints in [0, p) over GF(p); None when P is singular."""
    m = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows])
    try:
        inv = m.inv_mod(p) if p else m.inv()
    except ValueError:  # sympy's NonInvertibleMatrixError is a ValueError
        return None
    if p:
        return [[int(v) % p for v in inv.row(i)] for i in range(inv.rows)]
    return [[Fraction(int(v.p), int(v.q)) for v in inv.row(i)] for i in range(inv.rows)]


def _moved(tensor, rows, p):
    """The structure tensor in the basis rows, from the old tensor and sympy's inverse."""
    n = len(tensor)
    inv = _inverse(rows, p)
    out = []
    for x in rows:
        plane = []
        for y in rows:
            w = [Fraction(0)] * n
            for i in range(n):
                for j in range(n):
                    if x[i] and y[j]:
                        w = [u + x[i] * y[j] * v for u, v in zip(w, tensor[i][j])]
            entries = [sum((w[i] * inv[i][m] for i in range(n)), Fraction(0)) for m in range(n)]
            if p:
                entries = [int(v) % p for v in entries]
            plane.append(tuple(entries))
        out.append(tuple(plane))
    return tuple(out)


def _table(tensor):
    """The integer table c·T as nonzero (k, entry) pairs, c the lcm of the denominators."""
    c = lcm(*[v.denominator for plane in tensor for vec in plane for v in vec])
    return tuple(
        tuple(tuple((k, v.numerator * (c // v.denominator)) for k, v in enumerate(vec) if v) for vec in plane)
        for plane in tensor
    )


def _random_rows(n, p, rng):
    """Rows of an invertible matrix: fractions with denominators up to 6 over Q, unreduced ints over GF(p)."""
    while True:
        if p:
            rows = [[rng.randint(-2 * p, 2 * p) for _ in range(n)] for _ in range(n)]
            reduced = [[v % p for v in row] for row in rows]
        else:
            rows = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 6))) for _ in range(n)] for _ in range(n)]
            reduced = rows
        if _inverse([[Fraction(v) for v in row] for row in reduced], p) is not None:
            return rows, reduced


@pytest.mark.parametrize("p", [0, 2, 3, 5], ids=lambda p: f"GF({p})" if p else "Q")
def test_basis_change_matches_the_sympy_oracle(p):
    field = GF(p) if p else QQ
    rng = random.Random(f"basis-oracle:{p}")
    scaled_rows = scaled_tables = 0
    for name, alg in build_corpus(field):
        n = alg.dim
        first, first_reduced = _random_rows(n, p, rng)
        second, second_reduced = _random_rows(n, p, rng)
        moved = algebra_in_basis(alg, first)
        expected = _moved(alg.tensor, first_reduced, p)
        assert repr(moved.tensor) == repr(expected), (name, "first change")
        assert repr(moved._table) == repr(_table(expected)), (name, "first table")
        again = algebra_in_basis(moved, second)
        expected_again = _moved(expected, second_reduced, p)
        assert repr(again.tensor) == repr(expected_again), (name, "second change")
        assert repr(again._table) == repr(_table(expected_again)), (name, "second table")
        scaled_rows += any(Fraction(v).denominator > 1 for row in second for v in row)
        scaled_tables += any(v.denominator > 1 for plane in expected for vec in plane for v in vec)
    if not p:
        assert scaled_rows and scaled_tables, "no case with s_a > 1 or c > 1"


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_basis_change_rejects_bad_rows(field):
    alg = cyclic_nilpotent(3, field)
    with pytest.raises(ValueError):
        algebra_in_basis(alg, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        algebra_in_basis(alg, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    if field.characteristic:
        with pytest.raises(ValueError):
            algebra_in_basis(alg, [(1, 0, 0), (0, 1, 0), (0, 0, field.characteristic)])
    with pytest.raises(TypeError):
        algebra_in_basis(alg, [(1, 0, 0), (0, 0.5, 0), (0, 0, 1)])
