"""Census of Leibniz structure tensors over GF(2), dimension <= 3, built from the Lie quotient.

A tensor on d basis vectors is encoded as a d^3-bit integer with entry
(i, j, k), the coefficient of e_k in [e_i, e_j], at bit i*d*d + j*d + k;
the integer doubles as the record fingerprint.

The valid tensors are constructed, not screened.  Putting a = b in the left
Leibniz identity gives [[a, a], c] = 0, so Leib(L), the span of the squares
[a, a], is an ideal I with [I, L] = 0, and L/I is a Lie algebra.  In a basis
e_0..e_{k-1} of a complement followed by e_k..e_{d-1} of I (m = d - k), L is
therefore given by an alternating table on the complement (the bracket of
L/I), the I-parts omega(e_i, e_j) of the brackets [e_i, e_j] with i, j < k,
and the maps rho(e_i) = [e_i, .] on I, with every product [I, .] zero.  Each
such table, for m = 0..d, is a candidate: 512 + 256 + 64 + 1 = 833 at d = 3.
The candidates that satisfy the identity are valid; `_violations` checks it
on every basis triple for all the candidates of one m at once, bit-sliced
into int lanes (bit t of lane b is bit b of candidate t).  Every valid
tensor is one of them in a basis adapted to its own Leib(L), so the valid
tensors are exactly the union of the GL(d, 2) orbits of the valid
candidates.  At d = 3 the 232 distinct valid candidates lie in 20 orbits of
806 tensors in all.  A valid candidate whose squares span less than its I
is a duplicate, not an error.

Isomorphism is decided exactly.  A tensor's class key is the least tensor
integer in its GL(d, 2) orbit, so two tensors share a key exactly when their
algebras are isomorphic.  The orbit is the closure under the adjacent swaps
e_r <-> e_{r+1} and the transvection e_0 -> e_0 + e_1, which generate
GL(d, 2) = SL(d, 2): the swaps give every basis permutation, and these
conjugate the transvection into every elementary transvection.  One orbit is
computed per class, from the first valid candidate that no earlier orbit
holds, which gives every valid tensor its key.  A nilpotent valid tensor with
a maximal cyclic subalgebra is labelled with the first classified family
instance (abelian/L1 at d = 2, A-i/ii/iii at d = 3) whose key equals its own,
or "unmatched" if none does.

Every record field but the fingerprint and tensor is a class invariant, so
one full exact record (invariant profile, subalgebra lattice, maximal-cyclic
flags, label) is built per class, on its least member, and each member gets
its own copy.  Records come in tensor order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import LeibnizAlgebra, invariant_profile
from .families import abelian, dim2_l1, family_a_i, family_a_ii, family_a_iii
from .lattice import _maximal_cyclic_report
from .linalg import GF

CENSUS_P = 2
MAX_CENSUS_DIM = 3


def _check_dim(dim: int, **ints: int) -> None:
    """Raise ValueError unless dim and every named argument are ints (a bool is not) and 1 <= dim <= MAX_CENSUS_DIM."""
    for name, v in {"dim": dim, **ints}.items():
        if type(v) is not int:
            raise ValueError(f"{name} must be an int, not {v!r}")
    if not 1 <= dim <= MAX_CENSUS_DIM:
        raise ValueError(f"the census is limited to dimensions 1..{MAX_CENSUS_DIM}")


def algebra_from_int(dim: int, value: int) -> LeibnizAlgebra:
    _check_tensor_int(dim, value)
    field = GF(CENSUS_P)
    tensor = [[[(value >> (i * dim * dim + j * dim + k)) & 1 for k in range(dim)] for j in range(dim)] for i in range(dim)]
    return LeibnizAlgebra(field, tensor)


def _candidates(dim: int, m: int) -> tuple[list[int], list[int]]:
    """The candidate tensors with I = span(e_k..e_{dim-1}), k = dim - m, with repeats across m; and their lanes.

    Free are: the entries (i, j, c) = (j, i, c) of an alternating table on
    the complement (i < j < k, c < k), and the entries (i, j, c) with i < k
    and c >= k, which are omega(e_i, e_j) for j < k and rho(e_i) e_j for
    j >= k.  Every other entry is zero.  The lanes are the tensors
    bit-sliced, one int per tensor bit: bit t of lane b is bit b of tensor
    t, so a lane is as wide as the list of tensors.
    """
    d, k = dim, dim - m

    def bit(i: int, j: int, c: int) -> int:
        return 1 << (i * d * d + j * d + c)

    free = [bit(i, j, c) | bit(j, i, c) for i, j in itertools.combinations(range(k), 2) for c in range(k)]
    free += [bit(i, j, c) for i in range(k) for j in range(d) for c in range(k, d)]
    tensors, lanes = [0], [0] * d**3
    for f in free:
        n = len(tensors)
        tensors += [t | f for t in tensors]
        lanes = [x | x << n | (f >> b & 1) * ((1 << n) - 1 << n) for b, x in enumerate(lanes)]
    return tensors, lanes


def _violations(dim: int, lanes: list[int]) -> int:
    """A mask whose bit t is set when tensor t of the lanes breaks the left Leibniz identity.

    The lanes slice the tensors as in `_candidates`, and T(i, j, c) is the
    lane of entry (i, j, c).  Signs vanish mod 2, so coordinate c of the
    identity on the basis triple (i, j, k) reads
    sum_a T(i,j,a) T(a,k,c) + T(j,k,a) T(i,a,c) + T(i,k,a) T(j,a,c) = 0,
    which ANDs and XORs of whole lanes decide for every tensor at once.
    """
    d = dim
    t = [[lanes[(i * d + j) * d:(i * d + j + 1) * d] for j in range(d)] for i in range(d)]
    bad = 0
    for i, j, k, c in itertools.product(range(d), repeat=4):
        coordinate = 0
        for a in range(d):
            coordinate ^= t[i][j][a] & t[a][k][c] ^ t[j][k][a] & t[i][a][c] ^ t[i][k][a] & t[j][a][c]
        bad |= coordinate
    return bad


def _class_keys(dim: int) -> dict[int, int]:
    """Every valid tensor of the dimension -> its class key: the orbits of the valid candidates."""
    key_of: dict[int, int] = {}
    for m in range(dim + 1):
        tensors, lanes = _candidates(dim, m)
        bad = _violations(dim, lanes)
        for t, v in enumerate(tensors):
            if not bad >> t & 1 and v not in key_of:
                orbit = _orbit(dim, v)
                key_of.update(dict.fromkeys(orbit, min(orbit)))
    return key_of


def valid_tensor_ints(dim: int, start: int, stop: int) -> list[int]:
    """Tensor integers in [start, stop) whose algebra satisfies the identity, ascending.

    A window over the constructed valid set, built afresh on every call.
    `census()` does not call it: it stays for the benchmark's traced census
    round, which takes the tensors window by window, and for the tests,
    which compare it with an independent screen of every tensor.

    Raises ValueError unless dim, start and stop are ints (not bools),
    1 <= dim <= MAX_CENSUS_DIM and 0 <= start <= stop <= 2^(dim^3).
    """
    _check_dim(dim, start=start, stop=stop)
    if not 0 <= start <= stop <= 1 << dim**3:
        raise ValueError("need 0 <= start <= stop <= 2^(dim^3)")
    return sorted(v for v in _class_keys(dim) if start <= v < stop)


def _tensor_int(algebra: LeibnizAlgebra) -> int:
    d = algebra.dim
    return sum(
        int(c) << (i * d * d + j * d + k)
        for i, plane in enumerate(algebra.tensor)
        for j, vec in enumerate(plane)
        for k, c in enumerate(vec)
    )


@lru_cache(maxsize=None)
def _generator_tables(dim: int) -> tuple[tuple[int, ...], ...]:
    """For each generator g of GL(dim, 2), the image under g of each single-entry tensor, by bit.

    Row a of g, a bit mask, is f_a in old coordinates, as in
    `core.algebra_in_basis`.  Each g is its own inverse, so the entry
    [e_i, e_j] = e_k becomes [f_a, f_b] = sum_m g[a][i] g[b][j] g[k][m] f_m,
    and a tensor's image is the XOR of the images of its set bits.
    """
    entries = list(itertools.product(range(dim), repeat=3))  # (i, j, k) at bit i*d*d + j*d + k
    basis = [1 << r for r in range(dim)]
    generators = [basis[:r] + [basis[r + 1], basis[r]] + basis[r + 2:] for r in range(dim - 1)]
    generators += [[basis[0] | basis[1], *basis[1:]]] if dim > 1 else []
    return tuple(
        tuple(sum(1 << (a * dim * dim + b * dim + m) for a, b, m in entries if g[a] >> i & g[b] >> j & g[k] >> m & 1)
              for i, j, k in entries)
        for g in generators
    )


def _check_tensor_int(dim: int, value: int) -> None:
    _check_dim(dim, value=value)
    if not 0 <= value < 1 << dim**3:
        raise ValueError("need 0 <= value < 2^(dim^3)")


@lru_cache(maxsize=None)
def _packed_tables(dim: int) -> tuple[int, ...]:
    """For each bit, its images under all the generators of `_generator_tables` in one int, generator g at bit g * dim^3."""
    tables = _generator_tables(dim)
    return tuple(sum(table[b] << g * dim**3 for g, table in enumerate(tables)) for b in range(dim**3))


def _orbit(dim: int, value: int) -> list[int]:
    """The GL(dim, 2) orbit of value, each tensor once: its closure under the generators, breadth first.

    One walk over the set bits of a tensor XORs their packed images
    (`_packed_tables`), which gives its image under every generator at once.
    """
    packed = _packed_tables(dim)
    width = dim**3
    mask = (1 << width) - 1
    shifts = range(0, width * len(_generator_tables(dim)), width)
    orbit, seen = [value], {value}
    for v in orbit:
        images, rest = 0, v
        while rest:
            images ^= packed[(rest & -rest).bit_length() - 1]
            rest &= rest - 1
        for shift in shifts:
            image = images >> shift & mask
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit


def class_key(dim: int, value: int) -> int:
    """The least tensor integer in the GL(dim, 2) orbit of value, which `_orbit` gives without repeats.

    Two tensors have the same key exactly when their algebras are isomorphic.
    """
    _check_tensor_int(dim, value)
    return min(_orbit(dim, value))


@lru_cache(maxsize=None)
def reference_match_tuples(dim: int) -> tuple[tuple[str, int], ...]:
    """(label, class key) for the classified nilpotent family instances of this total dim."""
    field = GF(CENSUS_P)
    instances: list[tuple[str, LeibnizAlgebra]] = []
    if dim == 2:
        instances.append(("abelian", abelian(2, field)))
        instances.append(("L1", dim2_l1(field)))
    elif dim >= 3:
        n = dim - 1
        instances.append(("A-i", family_a_i(n, field)))
        instances.append(("A-ii", family_a_ii(n, field)))
        # "derived" only: at census dimensions t = n, where "printed" raises for
        # tau != 0 and gives the "derived" table for tau = 0
        for t in range(2, n + 1):
            for gammas, tau in itertools.product(
                itertools.product(range(CENSUS_P), repeat=n - t), range(CENSUS_P)
            ):
                instances.append(("A-iii", family_a_iii(n, t, gammas, tau, field, "derived")))
    return tuple((label, class_key(dim, _tensor_int(alg))) for label, alg in instances)


def _fingerprint(dim: int, value: int) -> str:
    return f"d{dim}-{value:0{max(1, (dim ** 3 + 3) // 4)}x}"


def census_record(dim: int, value: int) -> dict:
    """The full exact record for one identity-satisfying tensor; ValueError for any other value."""
    algebra = algebra_from_int(dim, value)  # checks dim, value and the identity
    profile = invariant_profile(algebra)
    nilpotent = profile.nilpotency_class is not None
    report = _maximal_cyclic_report(algebra, nilpotent)  # the profile's lower central series, not a second one
    matched: str | None = None
    if nilpotent and report.has_maximal_cyclic:
        key = class_key(dim, value)
        matched = next((label for label, ref in reference_match_tuples(dim) if ref == key), "unmatched")
    return {
        "fingerprint": _fingerprint(dim, value),
        "dim": dim,
        "p": CENSUS_P,
        "tensor": value,
        "profile": profile.as_dict(),
        "has_maximal_cyclic": report.has_maximal_cyclic,
        "all_maximal_are_ideals": report.all_maximal_are_ideals,
        "matched_family": matched,
    }


def _copy_record(record: dict) -> dict:
    """A copy of a `census_record` record that shares no dict or list with it: its other values are immutable."""
    profile = record["profile"]
    return {
        **record,
        "profile": {
            **profile,
            "lower_central_series_dims": profile["lower_central_series_dims"].copy(),
            "upper_central_series_dims": profile["upper_central_series_dims"].copy(),
        },
    }


@dataclass(frozen=True)
class CensusResult:
    dim: int
    records: tuple[dict, ...]
    classes: dict[int, tuple[int, ...]]  # class key -> its recorded tensors, both ascending

    @property
    def valid(self) -> int:
        return len(self.records)


def census(dim: int, jobs: int = 1) -> CensusResult:
    """Every valid structure tensor of the given dimension over GF(2), with its record and class.

    The valid tensors and their class keys come from the orbits of the
    valid candidates (`_class_keys`), in one process.  `jobs` must be an
    int >= 1 and has no effect; it stays only because benchmark v1 calls
    census(3, jobs=2), until benchmark v2 drops the argument.
    """
    _check_dim(dim)
    if type(jobs) is not int or jobs < 1:
        raise ValueError("jobs must be an int >= 1")
    key_of = _class_keys(dim)
    values = sorted(key_of)
    grouped: dict[int, list[int]] = {}
    for v in values:
        grouped.setdefault(key_of[v], []).append(v)
    classes = {key: tuple(grouped[key]) for key in sorted(grouped)}
    shared = {key: census_record(dim, members[0]) for key, members in classes.items()}
    records = tuple(
        {**_copy_record(shared[key_of[v]]), "fingerprint": _fingerprint(dim, v), "tensor": v} for v in values
    )
    return CensusResult(dim, records, classes)
