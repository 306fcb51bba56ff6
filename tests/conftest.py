"""Shared corpus of algebras exercised across the test suite."""

from leibniz import families as fam
from leibniz.linalg import Field, Matrix


def build_corpus(field: Field) -> list[tuple[str, object]]:
    """Identity-satisfying algebras over the given field, as (name, algebra) pairs."""
    algs = [
        ("abelian1", fam.abelian(1, field)),
        ("abelian2", fam.abelian(2, field)),
        ("abelian3", fam.abelian(3, field)),
        ("cyclic2", fam.cyclic_nilpotent(2, field)),
        ("cyclic3", fam.cyclic_nilpotent(3, field)),
        ("cyclic4", fam.cyclic_nilpotent(4, field)),
        ("cyclic5", fam.cyclic_nilpotent(5, field)),
        ("L1", fam.dim2_l1(field)),
        ("L2", fam.dim2_l2(field)),
        ("A-i(2)", fam.family_a_i(2, field)),
        ("A-i(3)", fam.family_a_i(3, field)),
        ("A-ii(2)", fam.family_a_ii(2, field)),
        ("A-ii(3)", fam.family_a_ii(3, field)),
        ("quaternion-analog", fam.quaternion_analog(field)),
        ("A-iii(3,t=3)", fam.family_a_iii(3, 3, [], 1, field, "derived")),
        ("A-iii(4,t=2)", fam.family_a_iii(4, 2, [1, 0], 1, field, "derived")),
        ("B(3)", fam.family_b(3, [0, 1], 1, field)),
        ("B(4)", fam.family_b(4, [0, 2, 0], 5, field)),
    ]
    if field.characteristic == 0:
        algs.append(("C(3)", fam.family_c(3, field)))
        algs.append(("C(4)", fam.family_c(4, field)))
    return algs


def random_basis(field: Field, n: int, rng) -> list[list]:
    """Rows of a random invertible n x n matrix with entries in -2..2 (read in the field)."""
    while True:
        rows = [[field.of(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if Matrix(field, rows).rank() == n:
            return rows
