"""The benchmark's tracer must find every function it wraps, and put each back.

`bench/tracer.py` patches `leibniz` functions and methods by name; a rename
in the library would otherwise only show up when the traced benchmark runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402
from leibniz import census, core, cyclic, derivations, families, lattice, linalg  # noqa: E402

MODULES = (linalg, core, derivations, cyclic, lattice, families, census)
CLASSES = (linalg.Field, linalg.Matrix, linalg.Subspace, core.LeibnizAlgebra)


def _snapshot():
    return {owner: dict(vars(owner)) for owner in MODULES + CLASSES}


def test_install_patches_and_restores_every_hook():
    before = _snapshot()
    with tracer.Tracer().install():
        assert linalg.Field.of is not before[linalg.Field]["of"]
        assert cyclic.is_subalgebra is not before[cyclic]["is_subalgebra"]
    after = _snapshot()
    for owner, attrs in before.items():
        for attr, value in attrs.items():
            assert after[owner][attr] is value, f"{owner.__name__}.{attr} was not restored"
        assert set(after[owner]) == set(attrs), f"{owner.__name__} gained or lost attributes"


def test_traced_calls_are_counted():
    # [e1, e1] = e2, [e1, e2] = e2 and [e1, e3] = 2 e3 over GF(3): the table
    # of a = e1 with T = diag(1, 2) and w0 = e2 on span(e2, e3).  The full
    # space (a0 = e1) and span(e1 - e2, e3) (a0 = e1 - e2) are cyclic, and
    # neither is generated by its a0; both get a generator from the grid
    # search, and the exhaustive scan, which only the tests call, is not
    # called.  The lattice filters RREF rows without calling
    # `enumerate_subspaces`, so the enumeration hook is counted on a direct
    # call
    field = linalg.GF(3)
    algebra = core.LeibnizAlgebra.from_brackets(field, 3, {(0, 0): {1: 1}, (0, 1): {1: 1}, (0, 2): {2: 2}})
    with tracer.Tracer().install() as t:
        lat = lattice.subalgebra_lattice(algebra)
        assert sum(1 for _ in lattice.enumerate_subspaces(2, 2)) == 5
    generated = {e.subspace: e.generator for e in lat.entries}
    full = linalg.Subspace.full(field, 3)
    plane = linalg.Subspace.from_vectors(field, 3, [(1, -1, 0), (0, 0, 1)])
    for s, a0 in ((full, (1, 0, 0)), (plane, (1, 2, 0))):
        gen = generated[s]
        assert gen is not None and gen != a0 and cyclic.generated_subalgebra(algebra, gen).span == s
    assert t.calls("lattice.subalgebra_lattice") == 1
    assert t.calls("cyclic.scan") == 0
    assert t.counters["lattice.enumerate.items"] == 5
