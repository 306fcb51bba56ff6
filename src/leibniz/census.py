"""Brute-force census of Leibniz structure tensors over GF(2), dimension <= 3.

A tensor on d basis vectors is encoded as a d^3-bit integer with entry
(i, j, k) at bit i*d*d + j*d + k; the integer doubles as the record
fingerprint.  Candidate tensors are screened 64 to a machine word: tensor
64*w + s is bit s of word w.  Each tensor entry (a "plane") is then one
uint64 per word: a fixed in-word mask for the integer bits below 6, and all
ones or all zeros, read off the word index, for the bits above.  The
identity residual on every basis triple and coordinate is evaluated with
word ANDs and XORs, with no per-tensor work.

The basis triples run in a fixed order: those whose residuals read fewer
in-word bits first, ties broken by descending (i, j, k), so at d = 3 the
order starts (2,2,2), (2,1,2), (1,2,2), (1,1,2), (2,2,1) and ends (0,0,0).
A triple that reads no in-word bit fails whole words.  After each triple
the words whose 64 tensors have all failed are dropped, and the screen
stops once none is left: over the 2^21 words of d = 3 the live words go
2,097,152 -> 458,752 -> 90,112 -> 49,664 -> 23,552 -> ... -> 657.

Isomorphism is decided exactly.  A tensor's class key is the least tensor
integer in its GL(d, 2) orbit, found by applying all invertible changes of
basis, so two tensors share a key exactly when their algebras are
isomorphic.  The census computes one orbit per class, from the class's
first survivor, and looks every later survivor up in it (20 x 168 images
at d = 3 in place of 806 x 168).  A nilpotent survivor with a maximal
cyclic subalgebra is labelled with the first classified family instance
(abelian/L1 at d = 2, A-i/ii/iii at d = 3) whose key equals its own, or
"unmatched" if none does.

Every record field but the fingerprint and tensor is a class invariant, so
one full exact record (invariant profile, subalgebra lattice, maximal-cyclic
flags, label) is built per class, on its least member, and each member gets
its own copy.  Records come in tensor order, the same for every worker count.
"""

from __future__ import annotations

import itertools
import multiprocessing
from copy import deepcopy
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import xor

import numpy as np

from .core import LeibnizAlgebra, invariant_profile
from .families import abelian, dim2_l1, family_a_i, family_a_ii, family_a_iii
from .lattice import maximal_cyclic_report
from .linalg import GF, Matrix

CENSUS_P = 2
MAX_CENSUS_DIM = 3
_CHUNK = 1 << 20
# bit b < 6 of the tensor integer 64*w + s, as a mask over the 64 slots s of a word
_IN_WORD = tuple(sum(1 << s for s in range(64) if s >> b & 1) for b in range(6))


def algebra_from_int(dim: int, value: int) -> LeibnizAlgebra:
    _check_tensor_int(dim, value)
    field = GF(CENSUS_P)
    tensor = [
        [
            [(value >> (i * dim * dim + j * dim + k)) & 1 for k in range(dim)]
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return LeibnizAlgebra(field, tensor)


@lru_cache(maxsize=None)
def _triple_order(dim: int) -> tuple[tuple[int, int, int], ...]:
    """The basis triples (i, j, k) in the order the screen evaluates them.

    A triple's residuals read the entries (i,j,*), (j,k,*), (i,k,*), (*,k,*),
    (i,*,*) and (j,*,*).  Triples that read fewer in-word bits (tensor bits
    below 6) come first, ties broken by descending (i, j, k): a triple that
    reads none fails all 64 tensors of a word or none of them.
    """
    d = dim

    def key(triple: tuple[int, int, int]) -> tuple[int, list[int]]:
        i, j, k = triple
        reads = {
            a * d * d + b * d + e
            for m, c in itertools.product(range(d), repeat=2)
            for a, b, e in ((i, j, m), (m, k, c), (j, k, m), (i, m, c), (i, k, m), (j, m, c))
        }
        return sum(b < 6 for b in reads), [-x for x in triple]

    return tuple(sorted(itertools.product(range(d), repeat=3), key=key))


def valid_tensor_ints(dim: int, start: int, stop: int) -> list[int]:
    """Tensor integers in [start, stop) whose algebra satisfies the identity, ascending.

    Word w of np.arange(start >> 6, ...) stands for tensors 64*w .. 64*w + 63.
    Bit b of tensor 64*w + s is bit b of s for b < 6, the same for every
    word (_IN_WORD[b]), and bit b - 6 of w otherwise, so every plane is built
    from the word index alone.  The residual of [[e_i,e_j],e_k] -
    [e_i,[e_j,e_k]] + [e_j,[e_i,e_k]] over GF(2) on each basis triple and
    coordinate is ORed into one word of failures per 64 tensors.

    The triples run in `_triple_order`: fewest in-word bits read first, ties
    broken by descending (i, j, k).  After each one the words whose 64
    tensors have all failed are dropped from `words`, `bad` and the planes.
    Over all 2^27 tensors at d = 3 the live words go 2,097,152 -> 458,752 ->
    90,112 -> 49,664 -> 23,552 -> ... -> 657 after the last triple.

    Raises ValueError unless 1 <= dim <= MAX_CENSUS_DIM and
    0 <= start <= stop <= 2^(dim^3): a word past the last tensor would
    alias a real one, as the planes read only the low dim^3 bits.
    """
    if not 1 <= dim <= MAX_CENSUS_DIM or not 0 <= start <= stop <= 1 << dim**3:
        raise ValueError(f"need 1 <= dim <= {MAX_CENSUS_DIM} and 0 <= start <= stop <= 2^(dim^3)")
    d = dim
    words = np.arange(start >> 6, (stop + 63) >> 6, dtype=np.uint64)
    t = np.empty((d**3, words.shape[0]), np.uint64)
    for b in range(d**3):
        if b < 6:
            t[b] = _IN_WORD[b]
        else:
            t[b] = np.uint64(0) - ((words >> np.uint64(b - 6)) & np.uint64(1))
    t = t.reshape(d, d, d, -1)
    bad = np.zeros(words.shape[0], np.uint64)
    for i, j, k in _triple_order(d):
        for c in range(d):
            r = np.zeros_like(bad)
            for m in range(d):
                r ^= t[i, j, m] & t[m, k, c]
                r ^= t[j, k, m] & t[i, m, c]
                r ^= t[i, k, m] & t[j, m, c]
            bad |= r
        live = np.flatnonzero(~bad)
        if live.shape[0] == 0:
            return []
        if live.shape[0] < words.shape[0]:
            words, bad, t = words[live], bad[live], t[..., live]
    valid = []
    for bits, w in zip((~bad).tolist(), words.tolist()):
        base = w << 6
        valid += [base + s for s in range(64) if bits >> s & 1 and start <= base + s < stop]
    return valid


def _tensor_int(algebra: LeibnizAlgebra) -> int:
    d = algebra.dim
    return sum(
        int(c) << (i * d * d + j * d + k)
        for i, plane in enumerate(algebra.tensor)
        for j, vec in enumerate(plane)
        for k, c in enumerate(vec)
    )


@lru_cache(maxsize=None)
def _basis_change_tables(dim: int) -> tuple[tuple[int, ...], ...]:
    """For each g in GL(dim, 2), the image under g of each single-entry tensor, by bit.

    The rows of g are the new basis in old coordinates, as in
    `core.algebra_in_basis`; with h = g^-1 the entry [e_i, e_j] = e_k becomes
    [f_a, f_b] = sum_m g[a][i] g[b][j] h[k][m] f_m.  The change of basis is
    linear on the tensor bits, so a tensor's image is the XOR of the images
    of its set bits.
    """
    field = GF(CENSUS_P)
    entries = list(itertools.product(range(dim), repeat=3))  # (i, j, k) at bit i*d*d + j*d + k
    tables = []
    for flat in itertools.product((0, 1), repeat=dim * dim):
        matrix = Matrix(field, [flat[r * dim:(r + 1) * dim] for r in range(dim)])
        if matrix.rank() < dim:
            continue
        g, h = matrix.data, matrix.inverse().data
        tables.append(tuple(
            sum(1 << (a * dim * dim + b * dim + m) for a, b, m in entries if g[a][i] & g[b][j] & h[k][m])
            for i, j, k in entries
        ))
    return tuple(tables)


def _check_tensor_int(dim: int, value: int) -> None:
    if not 1 <= dim <= MAX_CENSUS_DIM or not 0 <= value < 1 << dim**3:
        raise ValueError(f"need 1 <= dim <= {MAX_CENSUS_DIM} and 0 <= value < 2^(dim^3)")


def _orbit(dim: int, value: int) -> list[int]:
    """The images of value under every g in GL(dim, 2): its orbit, with repeats."""
    set_bits = [b for b in range(dim**3) if value >> b & 1]
    return [reduce(xor, (table[b] for b in set_bits), 0) for table in _basis_change_tables(dim)]


def class_key(dim: int, value: int) -> int:
    """The least tensor integer in the GL(dim, 2) orbit of value.

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
    report = maximal_cyclic_report(algebra)
    nilpotent = profile.nilpotency_class is not None
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


@dataclass(frozen=True)
class CensusResult:
    dim: int
    scanned: int
    records: tuple[dict, ...]
    classes: dict[int, tuple[int, ...]]  # class key -> its recorded tensors, both ascending

    @property
    def valid(self) -> int:
        return len(self.records)


def census(dim: int, jobs: int = 1) -> CensusResult:
    """Scan every structure tensor of the given dimension over GF(2)."""
    if not 1 <= dim <= MAX_CENSUS_DIM:
        raise ValueError(f"the census is limited to dimensions 1..{MAX_CENSUS_DIM}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    total = 1 << dim**3
    chunks = [(dim, lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]
    if jobs == 1 or len(chunks) == 1:
        batches = [valid_tensor_ints(*c) for c in chunks]
    else:
        with multiprocessing.Pool(jobs) as pool:
            batches = pool.starmap(valid_tensor_ints, chunks)
    values = [v for batch in batches for v in batch]  # ascending, as the chunks are
    key_of: dict[int, int] = {}  # every tensor of each orbit met so far -> the orbit minimum
    for v in values:
        if v not in key_of:
            orbit = _orbit(dim, v)
            key_of.update(dict.fromkeys(orbit, min(orbit)))
    keys = [key_of[v] for v in values]
    classes = {key: tuple(v for k, v in zip(keys, values) if k == key) for key in sorted(set(keys))}
    shared = {key: census_record(dim, members[0]) for key, members in classes.items()}
    records = tuple(
        {**deepcopy(shared[k]), "fingerprint": _fingerprint(dim, v), "tensor": v} for k, v in zip(keys, values)
    )
    return CensusResult(dim, total, records, classes)
