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
        assert lattice.is_subalgebra is not before[lattice]["is_subalgebra"]
    after = _snapshot()
    for owner, attrs in before.items():
        for attr, value in attrs.items():
            assert after[owner][attr] is value, f"{owner.__name__}.{attr} was not restored"
        assert set(after[owner]) == set(attrs), f"{owner.__name__} gained or lost attributes"


def test_traced_calls_are_counted():
    # L2 is cyclic and not nilpotent, so its full space, and nothing else,
    # goes to the generator scan; the lattice filters RREF rows without
    # calling `enumerate_subspaces`, so the enumeration hook is counted on a
    # direct call
    with tracer.Tracer().install() as t:
        lattice.subalgebra_lattice(families.dim2_l2(linalg.GF(2)))
        assert sum(1 for _ in lattice.enumerate_subspaces(2, 2)) == 5
    assert t.calls("lattice.subalgebra_lattice") == 1
    assert t.calls("cyclic.scan") == 1
    assert t.counters["lattice.enumerate.items"] == 5
