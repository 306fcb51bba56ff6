"""The bit-sliced GF(2) screen of every structure tensor, dimension <= 3: the census's oracle.

`leibniz.census` builds the valid tensors from their Lie quotients; this
screen decides every one of the 2^(d^3) tensors on its own, with numpy and
no `leibniz` code, and the tests compare the two.  Tensor integers are
encoded as in `leibniz.census`: entry (i, j, k) at bit i*d*d + j*d + k.

Candidate tensors are screened 64 to a machine word: tensor 64*w + s is bit
s of word w.  Each tensor entry (a "plane") is then one uint64 per word: a
fixed in-word mask for the integer bits below 6, and all ones or all zeros,
read off the word index, for the bits above.  The identity residual on
every basis triple and coordinate is evaluated with word ANDs and XORs, with
no per-tensor work.

The words are never all built.  The screen enumerates the word bits (tensor
bits 6 and up) triple by triple: it starts from one word with no word bit
assigned, takes next the basis triple whose residuals read the fewest word
bits not yet assigned (ties broken by fewer in-word bits read, then by
descending (i, j, k)), extends every live word by every value of those
bits, evaluates the triple and drops the words whose 64 tensors have all
failed.  At d = 3 the first two triples, (0,0,2) and (2,2,2), assign 15 of
the 21 word bits, (2,2,1) and (2,1,2) the other six, and the screen stops
once no word is left.  Over all 2^27 tensors the live words go 512 ->
32,768 -> 7,168 -> ... -> 44,304 at the peak -> ... -> 657, where the whole
range has 2,097,152 words.  A triple extends and evaluates the live words in
slices, so no array holds more than 2^14 words (`_MAX_LIVE`); the 32,768
words of (2,2,2) are evaluated in two slices and the 44,304 of (2,1,2) in
three.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

# the most words the screen extends and evaluates at once (`valid_tensor_ints` slices the live words);
# at 2^14 census(3) peaked at 36.6-36.9 MB of RSS, against 37.0-37.2 MB with the 2^24-tensor windows
# this replaced, and 39.1-39.2 MB in one unsliced pass over all 2^27 tensors (44,304 live words)
_MAX_LIVE = 1 << 14
# the largest dimension the screen takes, the census's too
_MAX_DIM = 3
# bit b < 6 of the tensor integer 64*w + s, as a mask over the 64 slots s of a word
_IN_WORD = tuple(np.uint64(sum(1 << s for s in range(64) if s >> b & 1)) for b in range(6))


def _reads(dim: int, triple: tuple[int, int, int]) -> frozenset[int]:
    """The tensor bits the residuals of one basis triple read.

    These are the entries (i,j,*), (*,k,*), (j,k,*), (i,*,*), (i,k,*) and
    (j,*,*) of the triple (i, j, k), at bit a*d*d + b*d + e.
    """
    d = dim
    i, j, k = triple
    return frozenset(
        a * d * d + b * d + e
        for m, c in itertools.product(range(d), repeat=2)
        for a, b, e in ((i, j, m), (m, k, c), (j, k, m), (i, m, c), (i, k, m), (j, m, c))
    )


@lru_cache(maxsize=None)
def _triple_order(dim: int) -> tuple[tuple[int, int, int], ...]:
    """The basis triples (i, j, k), fewest in-word bits read first.

    In-word bits are the tensor bits below 6.  Ties are broken by descending
    (i, j, k).  `_stages` breaks its own ties by this order.
    """
    def key(triple: tuple[int, int, int]) -> tuple[int, list[int]]:
        return sum(b < 6 for b in _reads(dim, triple)), [-x for x in triple]

    return tuple(sorted(itertools.product(range(dim), repeat=3), key=key))


@lru_cache(maxsize=None)
def _stages(dim: int) -> tuple[tuple[tuple[int, int, int], tuple[int, ...]], ...]:
    """(triple, the word bits it assigns) in the order the screen evaluates the triples.

    Word bit b is tensor bit b + 6.  Each step takes the triple that reads
    the fewest word bits not yet assigned, ties broken by `_triple_order`,
    and assigns those bits.
    """
    left = list(_triple_order(dim))
    assigned: set[int] = set()
    stages = []
    while left:
        new = [{b - 6 for b in _reads(dim, t) if b >= 6} - assigned for t in left]
        pick = min(range(len(left)), key=lambda n: len(new[n]))
        assigned |= new[pick]
        stages.append((left.pop(pick), tuple(sorted(new[pick]))))
    return tuple(stages)


def _surviving(
    d: int, triple: tuple[int, int, int], words: np.ndarray, bad: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one triple's residuals on the words; keep the words with a tensor that has not failed.

    Returns the kept words and their `bad`.  The triple's failures are ORed
    into `bad` in place.
    """
    i, j, k = triple

    # Planes are built where they are read and not kept: keeping the ones
    # that every coordinate c reads again raised the census's peak RSS by
    # 1.6 MB for little time.
    def plane(a: int, b: int, c: int) -> np.ndarray | np.uint64:
        n = a * d * d + b * d + c
        return _IN_WORD[n] if n < 6 else np.uint64(0) - ((words >> np.uint64(n - 6)) & np.uint64(1))

    for c in range(d):
        r = np.zeros_like(bad)
        for m in range(d):
            r ^= plane(i, j, m) & plane(m, k, c)
            r ^= plane(j, k, m) & plane(i, m, c)
            r ^= plane(i, k, m) & plane(j, m, c)
        bad |= r
    live = np.flatnonzero(~bad)
    if live.shape[0] < words.shape[0]:
        return words[live], bad[live]
    return words, bad


def valid_tensor_ints(dim: int, start: int, stop: int) -> list[int]:
    """Tensor integers in [start, stop) whose algebra satisfies the identity, ascending.

    Word w stands for tensors 64*w .. 64*w + 63.  Bit b of tensor 64*w + s
    is bit b of s for b < 6, the same for every word (_IN_WORD[b]), and bit
    b - 6 of w otherwise.  The residual of [[e_i,e_j],e_k] - [e_i,[e_j,e_k]]
    + [e_j,[e_i,e_k]] over GF(2) on each basis triple and coordinate is ORed
    into `bad`, one word of failures per 64 tensors.

    The words are enumerated bit by bit, not materialised.  The screen
    starts from the one word with no word bit assigned and runs the triples
    in `_stages`: each one first extends every live word by every value of
    the word bits it reads and no earlier triple did, carrying its `bad`
    along, then evaluates its residuals and drops the words whose 64
    tensors have all failed.  The screen stops once no word is left.  Over
    all 2^27 tensors at d = 3 the live words go 512 -> 32,768 -> ... and
    peak at 44,304, against the 2,097,152 words of the whole range; the 806
    survivors lie in 657 words.

    A triple that assigns n new bits takes the live words in slices of
    max(_MAX_LIVE >> n, 1) words, so that an extended slice holds at most
    max(_MAX_LIVE, 2^n) words; a triple that assigns none takes slices of
    _MAX_LIVE.  Each slice is extended, filtered to the window and
    evaluated on its own, and the survivors of all the slices are
    concatenated, in slice order, before the next triple.  Every word is
    evaluated exactly as without slices, so the survivors are the same.

    A window [start, stop) covers the words w0 = start >> 6 to w1 - 1,
    w1 = ceil(stop / 64).  After each extension a partial word w is dropped
    if w >= w1, or if w with every unassigned bit set is still below w0.
    The tensors of the end words outside the window are filtered last.

    Raises ValueError unless dim, start and stop are ints (not bools),
    1 <= dim <= _MAX_DIM and 0 <= start <= stop <= 2^(dim^3).
    """
    if any(type(v) is not int for v in (dim, start, stop)) or not 1 <= dim <= _MAX_DIM:
        raise ValueError(f"need ints dim, start and stop (not bools) and 1 <= dim <= {_MAX_DIM}")
    if not 0 <= start <= stop <= 1 << dim**3:
        raise ValueError("need 0 <= start <= stop <= 2^(dim^3)")
    d = dim
    w0, w1 = start >> 6, (stop + 63) >> 6
    unassigned = (1 << max(d**3 - 6, 0)) - 1
    words = np.zeros(1, np.uint64)
    bad = np.zeros(1, np.uint64)

    for triple, new in _stages(d):
        unassigned &= ~sum(1 << b for b in new)
        step = max(_MAX_LIVE >> len(new), 1)
        kept = []
        for lo in range(0, words.shape[0], step):
            part, part_bad = words[lo:lo + step], bad[lo:lo + step]
            if new:
                for b in new:
                    part = np.concatenate((part, part | np.uint64(1 << b)))
                    part_bad = np.concatenate((part_bad, part_bad))
                inside = (part < w1) & ((part | np.uint64(unassigned)) >= w0)
                part, part_bad = part[inside], part_bad[inside]
            part, part_bad = _surviving(d, triple, part, part_bad)
            if part.shape[0]:
                kept.append((part, part_bad))
        if not kept:
            return []
        words = np.concatenate([part for part, _ in kept])
        bad = np.concatenate([part_bad for _, part_bad in kept])
    order = np.argsort(words)
    valid = []
    for bits, w in zip((~bad[order]).tolist(), words[order].tolist()):
        base = w << 6
        valid += [base + s for s in range(64) if bits >> s & 1 and start <= base + s < stop]
    return valid
