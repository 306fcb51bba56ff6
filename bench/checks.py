"""Output checks, run after the timed rounds and outside every timed metric.

Each check recomputes what it can with the benchmark's own oracles
(`oracles.py`) or tests a property the method must have.  A check returns a
list of problems; an empty list means the outputs are correct.

The fixed counts used here (806 identity-satisfying GF(2) tensors of
dimension 3, in 20 GL(3, 2) orbits) are recomputed from scratch by
`recount.py` with the same evaluator.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

import numpy as np

import oracles as orc
from workloads import CENSUS_DIM, LATTICE_P, same_outputs

CENSUS_VALID = 806
CENSUS_ORBITS = 20
NEGATIVE_SAMPLE = 20_000


def check(inputs, outputs: list, traced_outputs: list | None) -> list[str]:
    """Problems with one round's outputs (and the traced round's, when given)."""
    problems: list[str] = []
    w = inputs.workload
    if w == "census-d3":
        if outputs[0] is not None:
            problems += check_census(outputs[0], inputs.seed)
    elif w == "lattice-gf5":
        for case, lattice in zip(inputs.cases, outputs):
            if lattice is not None:
                problems += [f"{case.label}: {p}" for p in check_lattice(case.algebra, lattice)]
    else:
        for case, profile in zip(inputs.cases, outputs):
            if profile is not None:
                problems += [f"{case.label}: {p}" for p in check_profile(case, profile)]
    if traced_outputs is not None and not same_outputs(w, outputs, traced_outputs):
        problems.append("the traced run's outputs differ from the untraced run's")
    return problems


# -- census ------------------------------------------------------------------

def check_census(records, seed: int) -> list[str]:
    problems = []
    values = np.array([r["tensor"] for r in records], dtype=np.int64)
    if len(records) != CENSUS_VALID:
        problems.append(f"{len(records)} records, expected {CENSUS_VALID}")
    if len(set(values.tolist())) != len(values):
        problems.append("a tensor is recorded twice")
    if not orc.gf2_satisfies(values, CENSUS_DIM).all():
        problems.append("a recorded tensor fails the identity under the GF(2) evaluator")

    rng = np.random.default_rng(seed)
    sample = rng.integers(0, 1 << CENSUS_DIM**3, size=NEGATIVE_SAMPLE, dtype=np.int64)
    sample = sample[~np.isin(sample, values)]
    passing = sample[orc.gf2_satisfies(sample, CENSUS_DIM)]
    if len(passing):
        problems.append(f"tensor {int(passing[0])} satisfies the identity but is not recorded")

    images, keys = orc.gf2_orbits(values, CENSUS_DIM)
    if not np.isin(images, values).all():
        problems.append("the record set is not closed under GL(3, 2)")
    orbits = np.unique(keys)
    if len(orbits) != CENSUS_ORBITS:
        problems.append(f"{len(orbits)} GL(3, 2) orbits, expected {CENSUS_ORBITS}")
    profiles: dict[int, str] = {}
    for key, record in zip(keys.tolist(), records):
        text = json.dumps(record["profile"], sort_keys=True)
        if profiles.setdefault(key, text) != text:
            problems.append(f"the invariant profile is not constant on the orbit of {key}")
            break
    return problems


# -- lattices ------------------------------------------------------------------

def _rows(subspace) -> list[list[int]]:
    return [[int(x) for x in row] for row in subspace.rows]


def _normalized(v) -> tuple[int, ...]:
    lead = next(x for x in v if x)
    inv = pow(int(lead), LATTICE_P - 2, LATTICE_P)
    return tuple(int(x) * inv % LATTICE_P for x in v)


def check_lattice(algebra, lattice) -> list[str]:
    p = LATTICE_P
    n = algebra.dim
    t = np.array([[[int(x) for x in vec] for vec in plane] for plane in algebra.tensor], dtype=np.int64)
    basis = np.eye(n, dtype=np.int64)
    problems = []
    entries = lattice.entries
    rows = [_rows(e.subspace) for e in entries]
    if len({tuple(map(tuple, r)) for r in rows}) != len(rows):
        problems.append("an entry is listed twice")

    for e, s in zip(entries, rows):
        k = len(s)
        if k == 0:
            continue
        sa = np.array(s, dtype=np.int64)
        inner = orc.bracket_mod_p(t, sa[:, None, :], sa[None, :, :], p).reshape(-1, n)
        if orc.rank_mod_p(s + inner.tolist(), p) != k:
            problems.append(f"entry {s} is not closed under the bracket")
        left = orc.bracket_mod_p(t, basis[:, None, :], sa[None, :, :], p).reshape(-1, n)
        right = orc.bracket_mod_p(t, sa[:, None, :], basis[None, :, :], p).reshape(-1, n)
        ideal = orc.rank_mod_p(s + left.tolist() + right.tolist(), p) == k
        if ideal != e.is_ideal:
            problems.append(f"entry {s}: is_ideal is {e.is_ideal}, two-sided closure says {ideal}")
        if e.generator is not None:
            g = np.array([int(x) for x in e.generator], dtype=np.int64)
            chain = [g]
            for _ in range(n):
                chain.append(orc.bracket_mod_p(t, g, chain[-1], p))
            chain_rows = [c.tolist() for c in chain]
            if orc.rank_mod_p(chain_rows, p) != k or orc.rank_mod_p(s + chain_rows, p) != k:
                problems.append(f"entry {s}: the ln-chain of its generator does not span it")

    problems += _check_maximal(entries, rows, n, p)
    problems += _check_lines_and_hyperplanes(t, rows, n, p)
    return problems


def _check_maximal(entries, rows, n: int, p: int) -> list[str]:
    """is_maximal: proper, and no other proper entry strictly contains it."""
    dims = np.array([len(r) for r in rows])
    # S <= T  iff  T's check matrix annihilates every row of S
    s_rows, s_starts, h_rows, h_starts, h_ids = [], [], [], [], []
    column = {}
    for i, r in enumerate(rows):
        if r:
            column[i] = len(s_starts)
            s_starts.append(len(s_rows))
            s_rows += r
        if 0 < len(r) < n:
            h_ids.append(i)
            h_starts.append(len(h_rows))
            h_rows += orc.nullspace_mod_p(r, n, p)
    problems = []
    outside = np.zeros((0, len(s_starts)), dtype=bool)
    if h_rows:
        hits = (np.array(h_rows, dtype=np.int64) @ np.array(s_rows, dtype=np.int64).T) % p != 0
        outside = np.logical_or.reduceat(np.logical_or.reduceat(hits, h_starts, axis=0), s_starts, axis=1)
    h_dims = dims[h_ids] if h_ids else np.zeros(0, dtype=int)
    for i, e in enumerate(entries):
        inside = ~outside[:, column[i]] if i in column else np.ones(len(h_ids), dtype=bool)
        maximal = bool(dims[i] < n and not (inside & (h_dims > dims[i])).any())
        if maximal != e.is_maximal:
            problems.append(f"entry {rows[i]}: is_maximal is {e.is_maximal}, containment says {maximal}")
    return problems


def _check_lines_and_hyperplanes(t, rows, n: int, p: int) -> list[str]:
    vectors = np.array(list(product(range(p), repeat=n)), dtype=np.int64)[1:]
    lead = vectors[np.arange(len(vectors)), (vectors != 0).argmax(axis=1)]
    normalized = vectors[lead == 1]
    squares = orc.bracket_mod_p(t, normalized, normalized, p)
    # [v, v] lies on the line of v iff every 2 x 2 minor of (v, [v, v]) vanishes
    minors = (normalized[:, :, None] * squares[:, None, :] - normalized[:, None, :] * squares[:, :, None]) % p
    lines = {tuple(v) for v in normalized[~minors.reshape(len(normalized), -1).any(axis=1)].tolist()}
    hyperplanes = set()
    for h in normalized:
        form = (t @ h) % p  # form[i, j] = h . [e_i, e_j]
        x = np.array(orc.nullspace_mod_p([h.tolist()], n, p), dtype=np.int64)
        if not ((x @ form @ x.T) % p).any():
            hyperplanes.add(tuple(h.tolist()))
    got_lines = {tuple(r[0]) for r in rows if len(r) == 1}
    got_hyper = {_normalized(orc.nullspace_mod_p(r, n, p)[0]) for r in rows if len(r) == n - 1}
    problems = []
    if got_lines != lines:
        problems.append(f"dimension-1 entries: {len(got_lines)} listed, {len(lines)} closed lines exist")
    if got_hyper != hyperplanes:
        problems.append(f"dimension-{n - 1} entries: {len(got_hyper)} listed, {len(hyperplanes)} closed hyperplanes exist")
    return problems


# -- rational profiles ---------------------------------------------------------

NULLITY_FIELDS = ("derivation_dim", "right_derivation_dim", "left_center_dim", "right_center_dim", "center_dim")


def check_profile(case, profile) -> list[str]:
    problems = []
    tensor = [[[Fraction(x) for x in vec] for vec in plane] for plane in case.algebra.tensor]
    expected = orc.rational_nullities(tensor)
    for name in NULLITY_FIELDS:
        got = getattr(profile, name)
        if got != expected[name]:
            problems.append(f"{name} is {got}, the sympy-ranked system gives {expected[name]}")
    lower = list(profile.lower_central_series_dims)
    if any(b > a for a, b in zip(lower, lower[1:])):
        problems.append(f"lower central series dims increase: {lower}")
    expected_lower = orc.lower_central_dims(tensor)
    if lower != expected_lower:
        problems.append(f"lower central series dims are {lower}, iterated products give {expected_lower}")
    expected_class = len(expected_lower) - 1 if expected_lower[-1] == 0 else None
    if profile.nilpotency_class != expected_class:
        problems.append(f"nilpotency_class is {profile.nilpotency_class}, iterated products give {expected_class}")
    if case.original is not None:
        from leibniz.core import invariant_profile

        if invariant_profile(case.original).as_dict() != profile.as_dict():
            problems.append("the profile changed under the change of basis")
    return problems
