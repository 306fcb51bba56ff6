"""The benchmark's workloads must still build and call the library as they do.

`bench/workloads.py` builds its inputs with the family constructors and
calls `census`, `subalgebra_lattice` and `invariant_profile` with fixed
arguments; a library change that breaks one of those calls would otherwise
only show up as failed operations when the benchmark runs.
"""

import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from leibniz import census, core, lattice  # noqa: E402


@pytest.fixture(scope="module")
def inputs():
    return {w: workloads.build(w, 1) for w in workloads.WORKLOADS}


def test_workload_inputs_build(inputs):
    assert [len(inputs[w].cases) for w in workloads.WORKLOADS] == [0, 2, 24]


def test_round_calls_bind(inputs):
    inspect.signature(census.census).bind(workloads.CENSUS_DIM, jobs=workloads.CENSUS_JOBS)
    for case in inputs["lattice-gf5"].cases:
        inspect.signature(lattice.subalgebra_lattice).bind(case.algebra)
    for case in inputs["profile-q"].cases:
        inspect.signature(core.invariant_profile).bind(case.algebra)


def test_traced_census_calls_bind():
    dim, chunk = workloads.CENSUS_DIM, workloads.TRACE_CHUNK
    inspect.signature(census.valid_tensor_ints).bind(dim, 0, chunk)
    inspect.signature(census.census_record).bind(dim, 0)
