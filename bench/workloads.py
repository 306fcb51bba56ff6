"""The benchmark's three workloads: inputs from a seed, and one round of work.

`build` imports `leibniz` and makes and validates a workload's inputs; it is
what `setup_s` times, so nothing here imports `leibniz` at module level.
`run_round` performs one round: the same public calls, in the same order,
on the same inputs, every time.  `traced_round` is the same work as the
traced run performs it (for the census: one process, one chunk at a time).

Seeds.  The census and the lattices have fixed inputs; there the seed only
draws the samples the output checks use.  The profile workload takes a sign
for every basis vector from the seed (new basis e'_i = s_i e_i, after the
dense mixing for the dense tables).  Signs change every table but not the
size of any number in it, so exact rational elimination does the same
amount of work for every seed.  Changing magnitudes instead (other mixing
matrices, other family parameters) moved the time of the dense profiles by
10-25% from seed to seed, wider than any useful regression bound.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass, field

WORKLOADS = ("census-d3", "lattice-gf5", "profile-q")
# Processors a workload computes on: the census's pool has two workers.
PROCESSORS = {"census-d3": 2, "lattice-gf5": 1, "profile-q": 1}

CENSUS_DIM = 3
CENSUS_JOBS = 2
TRACE_CHUNK = 1 << 20

LATTICE_P = 5
PROFILE_DIMS = (7, 8, 9)
DENSE_DIMS = (5,)

# Fixed mixing matrix for the dense tables, entries in {-2, -1, 1, 2}.  With
# it every entry of every dense table is a nonzero fraction, with
# denominators up to 101.
DENSE_MIX = {
    5: [[-2, 2, 1, -2, -2], [-1, 2, 1, 1, -2], [1, 2, -1, 2, -2], [-1, 1, -2, 2, 1], [-2, 1, 2, 1, 2]],
}


@dataclass
class Case:
    """One input of a workload: a label and the algebra the program receives."""

    label: str
    algebra: object
    original: object = None  # sparse source of a dense algebra


@dataclass
class Inputs:
    workload: str
    seed: int
    cases: list[Case] = field(default_factory=list)


def _signs(rng: random.Random, dim: int) -> list[list[int]]:
    s = [rng.choice((1, -1)) for _ in range(dim)]
    return [[s[i] if i == j else 0 for j in range(dim)] for i in range(dim)]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _families(total_dim: int, field):
    """The six families at one total dimension; every free parameter is 1 (gamma_2 = 0 for B)."""
    from leibniz import families as fam

    n = total_dim - 1
    return [
        (f"cyclic({total_dim})", fam.cyclic_nilpotent(total_dim, field)),
        (f"A-i({n})", fam.family_a_i(n, field)),
        (f"A-ii({n})", fam.family_a_ii(n, field)),
        (f"A-iii({n},t=2)", fam.family_a_iii(n, 2, [1] * (n - 2), 1, field, "derived")),
        (f"B({n})", fam.family_b(n, [0] + [1] * (n - 2), 1, field)),
        (f"C({n})", fam.family_c(n, field)),
    ]


def _validated(algebra):
    """The algebra, after check_left_leibniz finds no violation.

    Constructors and algebra_in_basis of an unchecked algebra return
    unchecked values, so this runs the full check."""
    violations = algebra.check_left_leibniz()
    if violations:
        raise ValueError(f"input violates the left Leibniz identity at {violations[0].indices}")
    return algebra


def build(workload: str, seed: int) -> Inputs:
    """Import the program and make and validate the workload's inputs."""
    inputs = Inputs(workload, seed)
    if workload == "census-d3":
        import leibniz.census  # noqa: F401  (the census has no inputs beyond its dimension)
    elif workload == "lattice-gf5":
        from leibniz import families as fam
        from leibniz.lattice import subalgebra_lattice  # noqa: F401
        from leibniz.linalg import GF

        f = GF(LATTICE_P)
        for label, algebra in (
            ("A-i(4)", fam.family_a_i(4, f)),
            ("B(4)", fam.family_b(4, [0, 1, 1], 1, f)),
        ):
            inputs.cases.append(Case(label, _validated(algebra)))
    elif workload == "profile-q":
        from leibniz.core import algebra_in_basis, invariant_profile  # noqa: F401
        from leibniz.linalg import QQ

        rng = random.Random(f"{workload}:{seed}")
        for dim in PROFILE_DIMS:
            for label, sparse in _families(dim, QQ):
                inputs.cases.append(Case(label, _validated(algebra_in_basis(sparse, _signs(rng, dim)))))
        for dim in DENSE_DIMS:
            for label, sparse in _families(dim, QQ):
                rows = _matmul(_signs(rng, dim), DENSE_MIX[dim])
                inputs.cases.append(Case(f"dense {label}", _validated(algebra_in_basis(sparse, rows)), sparse))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return inputs


def cpu_s() -> float:
    """CPU time of this process and of its finished children (the census's pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Round:
    outputs: list = field(default_factory=list)  # one per operation, None where it raised
    spans: list = field(default_factory=list)  # (start, end) of each operation, time.monotonic()
    cpus: list = field(default_factory=list)  # CPU seconds of each operation
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


def _attempt(op, out: Round) -> None:
    out.attempted += 1
    cpu0 = cpu_s()
    t0 = time.monotonic()
    try:
        result = op()
    except Exception as exc:  # one failed operation must not end the run
        out.failed += 1
        result = None
        out.errors.append(f"{type(exc).__name__}: {exc}")
    out.spans.append((t0, time.monotonic()))
    out.cpus.append(cpu_s() - cpu0)
    out.outputs.append(result)


def run_round(inputs: Inputs) -> Round:
    """One timed round: the workload's public calls on its inputs, each timed on its own."""
    out = Round()
    w = inputs.workload
    if w == "census-d3":
        from leibniz.census import census

        _attempt(lambda: census(CENSUS_DIM, jobs=CENSUS_JOBS).records, out)
    elif w == "lattice-gf5":
        from leibniz.lattice import subalgebra_lattice

        for case in inputs.cases:
            _attempt(lambda: subalgebra_lattice(case.algebra), out)
    else:
        from leibniz.core import invariant_profile

        for case in inputs.cases:
            _attempt(lambda: invariant_profile(case.algebra), out)
    return out


def same_outputs(workload: str, a: list, b: list) -> bool:
    """Whether two rounds of one workload produced the same outputs."""

    def comparable(outputs):
        if workload == "census-d3":
            return outputs
        if workload == "lattice-gf5":
            return [None if lat is None else lat.entries for lat in outputs]
        return [None if prof is None else prof.as_dict() for prof in outputs]

    return comparable(a) == comparable(b)


def traced_round(inputs: Inputs) -> Round:
    """The traced run's round.  Module attributes are looked up at call time,
    so the tracer's wrappers are the ones called."""
    if inputs.workload != "census-d3":
        return run_round(inputs)
    from leibniz import census as census_mod

    def one_process():
        records = []
        for lo in range(0, 1 << CENSUS_DIM**3, TRACE_CHUNK):
            for value in census_mod.valid_tensor_ints(CENSUS_DIM, lo, lo + TRACE_CHUNK):
                records.append(census_mod.census_record(CENSUS_DIM, value))
        records.sort(key=lambda r: r["tensor"])
        return tuple(records)

    out = Round()
    _attempt(one_process, out)
    return out
