"""Brute-force census of Leibniz structure tensors over GF(2), dimension <= 3.

A tensor on d basis vectors is encoded as a d^3-bit integer with entry
(i, j, k) at bit i*d*d + j*d + k; the integer doubles as the record
fingerprint.  Candidate tensors are screened 64 to a machine word: tensor
64*w + s is bit s of word w.  Each tensor entry (a "plane") is then one
uint64 per word: a fixed in-word mask for the integer bits below 6, and all
ones or all zeros, read off the word index, for the bits above.  The
identity residual on every basis triple and coordinate is evaluated with
word ANDs and XORs, with no per-tensor work.  Survivors get the full exact
treatment: invariant profile, subalgebra lattice, maximal-cyclic flags, and
an invariant-profile match against the classified nilpotent families.
Profile matching is consistency of invariants, not a basis-level
isomorphism test.

Records are merged in fingerprint order, so the output is identical for
every worker count.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    LeibnizAlgebra,
    center,
    invariant_profile,
    leibniz_kernel,
    nilpotency_class,
    product_subspace,
)
from .families import abelian, dim2_l1, family_a_i, family_a_ii, family_a_iii
from .lattice import MaximalCyclicReport, maximal_cyclic_report
from .linalg import GF, Subspace, nonzero_elements

CENSUS_P = 2
MAX_CENSUS_DIM = 3
_CHUNK = 1 << 20
# bit b < 6 of the tensor integer 64*w + s, as a mask over the 64 slots s of a word
_IN_WORD = tuple(sum(1 << s for s in range(64) if s >> b & 1) for b in range(6))


def algebra_from_int(dim: int, value: int, *, checked: bool = False) -> LeibnizAlgebra:
    field = GF(CENSUS_P)
    tensor = [
        [
            [(value >> (i * dim * dim + j * dim + k)) & 1 for k in range(dim)]
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return LeibnizAlgebra(field, tensor, _assume_checked=checked)


def valid_tensor_ints(dim: int, start: int, stop: int) -> list[int]:
    """Tensor integers in [start, stop) whose algebra satisfies the identity, ascending.

    Word w of np.arange(start >> 6, ...) stands for tensors 64*w .. 64*w + 63.
    Bit b of tensor 64*w + s is bit b of s for b < 6, the same for every
    word (_IN_WORD[b]), and bit b - 6 of w otherwise, so every plane is built
    from the word index alone.  The residual of [[e_i,e_j],e_k] -
    [e_i,[e_j,e_k]] + [e_j,[e_i,e_k]] over GF(2) on each basis triple and
    coordinate is ORed into one word of failures per 64 tensors.
    """
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
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for c in range(d):
                    r = np.zeros_like(bad)
                    for m in range(d):
                        r ^= t[i, j, m] & t[m, k, c]
                        r ^= t[j, k, m] & t[i, m, c]
                        r ^= t[i, k, m] & t[j, m, c]
                    bad |= r
    good = ~bad
    valid = []
    for w in np.flatnonzero(good).tolist():
        bits = int(good[w])
        base = int(words[w]) << 6
        valid += [base + s for s in range(64) if bits >> s & 1 and start <= base + s < stop]
    return valid


def _decomposition_tuples(algebra: LeibnizAlgebra, report: MaximalCyclicReport) -> frozenset:
    """Coarse classification fingerprints (dim [d,K], dim [K,d], Leib, center, class).

    One tuple per choice of a codimension-1 maximal cyclic subalgebra K and
    complement element d; matching a family means some decomposition of the
    algebra produces the same five dimensions as the family's canonical one.
    """
    field = algebra.field
    n = algebra.dim
    leib = leibniz_kernel(algebra).dim
    cent = center(algebra).dim
    cls = nilpotency_class(algebra)
    tuples = set()
    for entry in report.entries:
        if not entry.is_cyclic or entry.subspace.dim != n - 1:
            continue
        k = entry.subspace
        for d in nonzero_elements(Subspace.full(field, n)):
            if k.contains(d):
                continue
            d_line = Subspace._span(field, n, [d])
            dk = product_subspace(algebra, d_line, k).dim
            kd = product_subspace(algebra, k, d_line).dim
            tuples.add((dk, kd, leib, cent, cls))
    return frozenset(tuples)


@lru_cache(maxsize=None)
def reference_match_tuples(dim: int) -> tuple[tuple[str, frozenset], ...]:
    """(label, fingerprint set) for the classified nilpotent families of this total dim."""
    field = GF(CENSUS_P)
    instances: list[tuple[str, LeibnizAlgebra]] = []
    if dim == 2:
        instances.append(("abelian", abelian(2, field)))
        instances.append(("L1", dim2_l1(field)))
    elif dim >= 3:
        n = dim - 1
        instances.append(("A-i", family_a_i(n, field)))
        instances.append(("A-ii", family_a_ii(n, field)))
        for t in range(2, n + 1):
            width = n - t
            gamma_space = [
                [(bits >> i) & 1 for i in range(width)] for bits in range(1 << width)
            ]
            for gammas in gamma_space:
                for tau in range(CENSUS_P):
                    for convention in ("printed", "derived"):
                        instances.append(
                            (
                                "A-iii",
                                family_a_iii(n, t, gammas, tau, field, convention),
                            )
                        )
    out = []
    for label, alg in instances:
        if alg.check_left_leibniz():
            continue
        alg.ensure_checked()
        if nilpotency_class(alg) is None:
            continue
        tuples = _decomposition_tuples(alg, maximal_cyclic_report(alg))
        if tuples:
            out.append((label, tuples))
    return tuple(out)


def census_record(dim: int, value: int) -> dict:
    """The full exact record for one identity-satisfying tensor."""
    algebra = algebra_from_int(dim, value, checked=True)
    profile = invariant_profile(algebra)
    report = maximal_cyclic_report(algebra)
    nilpotent = profile.nilpotency_class is not None
    matched: str | None = None
    if nilpotent and report.has_maximal_cyclic:
        matched = "unmatched"
        own = _decomposition_tuples(algebra, report)
        for label, ref in reference_match_tuples(dim):
            if own & ref:
                matched = label
                break
    return {
        "fingerprint": f"d{dim}-{value:0{max(1, (dim ** 3 + 3) // 4)}x}",
        "dim": dim,
        "p": CENSUS_P,
        "tensor": value,
        "profile": profile.as_dict(),
        "has_maximal_cyclic": report.has_maximal_cyclic,
        "all_maximal_are_ideals": report.all_maximal_are_ideals,
        "matched_family": matched,
    }


def _worker(args: tuple[int, int, int]) -> list[dict]:
    dim, start, stop = args
    return [census_record(dim, v) for v in valid_tensor_ints(dim, start, stop)]


@dataclass(frozen=True)
class CensusResult:
    dim: int
    p: int
    scanned: int
    records: tuple[dict, ...]

    @property
    def valid(self) -> int:
        return len(self.records)


def census(dim: int, p: int = 2, jobs: int = 1) -> CensusResult:
    """Scan every structure tensor of the given dimension over GF(2)."""
    if p != CENSUS_P:
        raise ValueError("the census is fixed at p = 2")
    if not 1 <= dim <= MAX_CENSUS_DIM:
        raise ValueError(f"the census is limited to dimensions 1..{MAX_CENSUS_DIM}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    total = 1 << dim**3
    chunks = [(dim, lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]
    if jobs == 1 or len(chunks) == 1:
        batches = [_worker(c) for c in chunks]
    else:
        with multiprocessing.Pool(jobs) as pool:
            batches = pool.map(_worker, chunks)
    records = [record for batch in batches for record in batch]
    records.sort(key=lambda r: r["tensor"])
    return CensusResult(dim, p, total, tuple(records))
