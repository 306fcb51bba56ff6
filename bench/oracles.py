"""Independent oracles for the benchmark's output checks.

Nothing here imports `leibniz`: every answer is computed from a structure
tensor with code of its own, so that a check compares the program against a
second implementation rather than against itself.

- `gf2_satisfies`: the left Leibniz identity over GF(2) on tensor bit
  integers, evaluated bit-sliced (one bit plane per tensor entry, packed
  across tensors).
- `general_linear_group` and `change_basis`: GL(n, p) and basis changes of
  structure tensors, in numpy.
- `rref_mod_p`, `rank_mod_p`, `nullspace_mod_p`, `bracket_mod_p`: small
  exact linear algebra over GF(p) for the lattice checks.
- `rational_nullities`: derivation, right-derivation and center constraint
  systems built straight from a rational structure tensor and ranked
  exactly with sympy's `DomainMatrix` (over ZZ, after clearing
  denominators, which leaves the rank over QQ unchanged).
- `lower_central_dims`: dimensions of the lower central series, from
  iterated products [L, g_k] reduced with `DomainMatrix` over QQ.

Tensors follow the program's convention: entry (i, j, k) is the e_k
coefficient of [e_i, e_j], and a GF(2) tensor on d basis vectors is the
integer with entry (i, j, k) at bit i*d*d + j*d + k.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np


# -- GF(2) tensors as bit integers -------------------------------------------

def tensor_array(values, dim: int) -> np.ndarray:
    """Tensor bit integers as an (N, d, d, d) uint8 array."""
    values = np.asarray(values, dtype=np.int64)
    shifts = np.arange(dim**3, dtype=np.int64)
    bits = (values[:, None] >> shifts) & 1
    return bits.astype(np.uint8).reshape(-1, dim, dim, dim)


def tensor_ints(tensors: np.ndarray) -> np.ndarray:
    """Inverse of `tensor_array` for GF(2) tensors."""
    n = tensors.shape[0]
    flat = tensors.reshape(n, -1).astype(np.int64)
    weights = np.int64(1) << np.arange(flat.shape[1], dtype=np.int64)
    return flat @ weights


def gf2_satisfies(values, dim: int) -> np.ndarray:
    """Whether each GF(2) tensor satisfies [[a,b],c] = [a,[b,c]] - [b,[a,c]].

    The identity is trilinear, so basis triples decide it.  Each of the d^3
    tensor entries becomes one packed bit plane across all tensors; the
    residual on every basis triple and output coordinate is then a few
    ANDs and XORs of planes.
    """
    values = np.asarray(values, dtype=np.int64)
    count = values.shape[0]
    if count == 0:
        return np.zeros(0, dtype=bool)
    d = dim
    planes = [
        np.packbits(((values >> (i * d * d + j * d + k)) & 1).astype(bool))
        for i in range(d)
        for j in range(d)
        for k in range(d)
    ]

    def t(i, j, k):
        return planes[i * d * d + j * d + k]

    bad = np.zeros_like(planes[0])
    for a, b, c, k in product(range(d), repeat=4):
        r = np.zeros_like(bad)
        for m in range(d):
            r ^= t(a, b, m) & t(m, c, k)  # [[e_a, e_b], e_c]
            r ^= t(b, c, m) & t(a, m, k)  # [e_a, [e_b, e_c]]
            r ^= t(a, c, m) & t(b, m, k)  # [e_b, [e_a, e_c]]
        bad |= r
    return ~np.unpackbits(bad, count=count).astype(bool)


GF2_BLOCK = 1 << 20  # tensors evaluated at once by gf2_valid_count


def gf2_valid_count(dim: int) -> tuple[int, list[int]]:
    """Exhaustive count of identity-satisfying GF(2) tensors, with their integers."""
    total = 1 << dim**3
    valid: list[int] = []
    for lo in range(0, total, GF2_BLOCK):
        values = np.arange(lo, min(lo + GF2_BLOCK, total), dtype=np.int64)
        valid.extend(values[gf2_satisfies(values, dim)].tolist())
    return len(valid), valid


# -- linear algebra over GF(p) ----------------------------------------------

def rref_mod_p(rows, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(p), zero rows dropped, with pivot columns."""
    m = [[int(x) % p for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        hit = next((i for i in range(r, len(m)) if m[i][c]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank_mod_p(rows, p: int) -> int:
    return len(rref_mod_p(rows, p)[1]) if len(rows) else 0


def nullspace_mod_p(rows, n: int, p: int) -> list[list[int]]:
    """Basis of {x in GF(p)^n : row . x = 0 for every row}."""
    if not len(rows):
        return [[int(i == j) for j in range(n)] for i in range(n)]
    reduced, pivots = rref_mod_p(rows, p)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        v = [0] * n
        v[free] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[free] % p
        basis.append(v)
    return basis


def inverse_mod_p(matrix, p: int) -> np.ndarray:
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(np.asarray(matrix).tolist())]
    reduced, pivots = rref_mod_p(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return np.array([row[n:] for row in reduced], dtype=np.int64)


def bracket_mod_p(tensor: np.ndarray, x, y, p: int) -> np.ndarray:
    """Brackets of row vectors: x (..., n) and y (..., n) broadcast together."""
    return np.einsum("...i,...j,ijk->...k", np.asarray(x), np.asarray(y), tensor) % p


# -- GL(n, p) and basis changes ---------------------------------------------

def general_linear_group(n: int, p: int) -> np.ndarray:
    """Every invertible n x n matrix over GF(p), as an (|G|, n, n) array."""
    mats = [
        np.array(entries, dtype=np.int64).reshape(n, n)
        for entries in product(range(p), repeat=n * n)
    ]
    return np.stack([m for m in mats if rank_mod_p(m.tolist(), p) == n])


def gl_order(n: int, p: int) -> int:
    order = 1
    for i in range(n):
        order *= p**n - p**i
    return order


def change_basis(tensors: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """Structure tensors (N, n, n, n) in the basis whose rows are g's rows.

    With f_a = sum_i g[a, i] e_i: [f_a, f_b] = sum g[a,i] g[b,j] c[i,j,k] e_k,
    and e_k = sum_c ginv[k, c] f_c.
    """
    ginv = inverse_mod_p(g, p)
    return np.einsum("ai,bj,nijk,kc->nabc", g, g, tensors, ginv) % p


def gf2_orbits(values, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Images of each tensor under every element of GL(dim, 2), and each tensor's orbit key.

    Returns (images, keys): images[g, t] is tensor t in the basis of group
    element g, and keys[t] is the least integer in the orbit of tensor t.
    """
    tensors = tensor_array(values, dim).astype(np.int64)
    group = general_linear_group(dim, 2)
    images = np.stack([tensor_ints(change_basis(tensors, g, 2)) for g in group])
    return images, images.min(axis=0)


# -- rational constraint systems, ranked by sympy ----------------------------

def _rank(rows: list[list[int]], ncols: int) -> int:
    from sympy.polys.domains import ZZ
    from sympy.polys.matrices import DomainMatrix

    if not rows:
        return 0
    return DomainMatrix([[ZZ(x) for x in row] for row in rows], (len(rows), ncols), ZZ).rank()


def _integral(tensor) -> list[list[list[int]]]:
    """The tensor times the least common denominator of its entries.

    Every system below is linear in the tensor, so scaling it by a nonzero
    constant leaves the rank, and the nullity, unchanged; integer rows rank
    several times faster than rational ones.
    """
    t = [[[Fraction(x) for x in vec] for vec in plane] for plane in tensor]
    den = math.lcm(*(x.denominator for plane in t for vec in plane for x in vec))
    return [[[int(x * den) for x in vec] for vec in plane] for plane in t]


def derivation_rows(tensor, right: bool) -> list[list[int]]:
    """Linear conditions on a matrix D (unknown D[r][s] at index r*n + s).

    D e_s = sum_r D[r][s] e_r.  A (left) derivation satisfies
    D[e_a, e_b] = [D e_a, e_b] + [e_a, D e_b]; a right derivation satisfies
    D[e_a, e_b] = [e_a, D e_b] - [e_b, D e_a].  One row per (a, b, k).
    """
    t = _integral(tensor)
    n = len(t)
    rows = []
    for a, b, k in product(range(n), repeat=3):
        row = [0] * (n * n)
        for m in range(n):
            row[k * n + m] += t[a][b][m]
            if right:
                row[m * n + b] -= t[a][m][k]
                row[m * n + a] += t[b][m][k]
            else:
                row[m * n + a] -= t[m][b][k]
                row[m * n + b] -= t[a][m][k]
        rows.append(row)
    return rows


def annihilator_rows(tensor, side: str) -> list[list[int]]:
    """Conditions on x: [x, e_j] = 0 for all j (side 'left') or [e_j, x] = 0 ('right')."""
    t = _integral(tensor)
    n = len(t)
    if side == "left":
        return [[t[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
    return [[t[j][i][k] for i in range(n)] for j in range(n) for k in range(n)]


def rational_nullities(tensor) -> dict[str, int]:
    """Dimensions of the derivation spaces and the centers, as nullities."""
    n = len(tensor)
    left = annihilator_rows(tensor, "left")
    right = annihilator_rows(tensor, "right")
    return {
        "derivation_dim": n * n - _rank(derivation_rows(tensor, right=False), n * n),
        "right_derivation_dim": n * n - _rank(derivation_rows(tensor, right=True), n * n),
        "left_center_dim": n - _rank(left, n),
        "right_center_dim": n - _rank(right, n),
        "center_dim": n - _rank(left + right, n),
    }


def lower_central_dims(tensor) -> list[int]:
    """Dimensions of g_1 = L, g_{k+1} = [L, g_k], up to the first repeat.

    As in the program, the stabilized term appears once, last.  [e_i, v] has
    e_k coefficient sum_j v_j t[i][j][k]; g_{k+1} lies in g_k, so equal
    dimensions mean equal terms.
    """
    from sympy.polys.domains import QQ
    from sympy.polys.matrices import DomainMatrix

    t = _integral(tensor)
    n = len(t)
    basis = [[QQ(int(i == j)) for j in range(n)] for i in range(n)]
    dims = [n]
    while basis:
        products = [
            [sum((v[j] * t[i][j][k] for j in range(n)), QQ(0)) for k in range(n)]
            for i in range(n)
            for v in basis
        ]
        reduced, pivots = DomainMatrix(products, (len(products), n), QQ).rref()
        if len(pivots) == dims[-1]:
            break
        basis = reduced.to_list()[: len(pivots)]
        dims.append(len(pivots))
    return dims
