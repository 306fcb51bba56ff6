"""Span tracing of `leibniz` layer boundaries, installed from outside the library.

`Tracer.install()` replaces, for the duration of a `with` block, the public
functions each module calls in the layer below with timing wrappers, and
puts the originals back afterwards.  A function imported into several
modules (`from .core import is_subalgebra`) is replaced under every name
that refers to it, so calls are seen whichever module makes them.

Every call is a span: name, start, end, and the span that was open when it
began.  Per name the tracer keeps the call count, total time and self time
(a span's duration minus the time its child spans cover), and per
(parent, child) pair a call count.  Individual spans are kept in memory up
to `SPAN_CAP`; the aggregates cover every call.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager

SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], int] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped_spans = 0
        self._stack: list[list] = []  # open spans: [id, name, child_s, parent_id]
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        key = (parent[1] if parent else "", name)
        self.edges[key] = self.edges.get(key, 0) + 1
        frame = [next(self._ids), name, 0.0, parent[0] if parent else 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float, stats: list) -> None:
        self._stack.pop()
        duration = end - start
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], frame[3], frame[1], start, end))
        else:
            self.dropped_spans += 1

    def _stats(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, fn, name: str, observe=None):
        """A traced version of fn; observe(args, result) runs after each call."""
        stats = self._stats(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = self._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, start, clock(), stats)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def counted(self, fn, counter: str):
        """fn with a call counter and no span, for scalar operations called millions of times."""
        counters = self.counters

        def traced(*args, **kwargs):
            counters[counter] = counters.get(counter, 0) + 1
            return fn(*args, **kwargs)

        return traced

    def wrap_generator(self, fn, name: str):
        """A traced generator function: each step of the iteration is one span."""
        stats = self._stats(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = self._open(name)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(frame, start, clock(), stats)
                self.count(name + ".items")
                yield item

        return traced

    def count(self, counter: str, by: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + by

    # -- patching --------------------------------------------------------------

    def patch_function(self, modules, original, name: str, observe=None, generator: bool = False) -> None:
        wrapped = self.wrap_generator(original, name) if generator else self.wrap(original, name, observe)
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                setattr(module, attr, wrapped)
                self._patches.append((module, attr, original))

    def patch_method(self, cls, attr: str, name: str, count_only: bool = False) -> None:
        raw = cls.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapped = self.counted(fn, name) if count_only else self.wrap(fn, name)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        setattr(cls, attr, wrapped)
        self._patches.append((cls, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def install(self):
        """Trace the layer boundaries of every `leibniz` module inside the block."""
        from leibniz import census, core, cyclic, derivations, families, lattice, linalg

        modules = (linalg, core, derivations, cyclic, lattice, families, census)
        try:
            # about 4 M calls per GF(5) lattice: a span each would double the traced round
            self.patch_method(linalg.Field, "of", "linalg.field_of", count_only=True)
            self.patch_method(linalg.Subspace, "from_vectors", "linalg.from_vectors")
            self.patch_method(linalg.Subspace, "reduce", "linalg.reduce")
            self.patch_method(linalg.Matrix, "kernel", "linalg.kernel")

            self.patch_method(core.LeibnizAlgebra, "bracket", "core.bracket")
            self.patch_method(core.LeibnizAlgebra, "check_left_leibniz", "core.check_left_leibniz")
            for fn, name in (
                (core.product_subspace, "core.product_subspace"),
                (core.is_subalgebra, "core.is_subalgebra"),
                (core.is_ideal, "core.is_ideal"),
                (core.invariant_profile, "core.invariant_profile"),
                (core.algebra_in_basis, "core.algebra_in_basis"),
                (derivations.derivation_space, "derivations.space"),
                (derivations.right_derivation_space, "derivations.space"),
                (cyclic.generated_subalgebra, "cyclic.generated_subalgebra"),
                (census.census_record, "census.record"),
                (census.reference_match_tuples, "census.reference_match"),
            ):
                self.patch_function(modules, fn, name)

            def scanned(args, generator):
                if generator is not None:
                    self.count("cyclic.generators_found")

            self.patch_function(modules, cyclic.cyclic_generator_by_scan, "cyclic.scan", observe=scanned)
            self.patch_function(modules, lattice.enumerate_subspaces, "lattice.enumerate", generator=True)
            self.patch_function(
                modules,
                lattice.subalgebra_lattice,
                "lattice.subalgebra_lattice",
                observe=lambda args, lat: self.count("lattice.subalgebras", len(lat.entries)),
            )

            def screened(args, valid):
                _dim, start, stop = args
                self.count("census.scanned", stop - start)
                self.count("census.valid", len(valid))

            self.patch_function(modules, census.valid_tensor_ints, "census.screen", observe=screened)
            for ctor in (
                families.cyclic_nilpotent,
                families.family_a_i,
                families.family_a_ii,
                families.family_a_iii,
                families.family_b,
                families.family_c,
            ):
                self.patch_function(modules, ctor, "families.construct")
            yield self
        finally:
            self.restore()

    # -- results -------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def edge(self, parent: str, child: str) -> int:
        return self.edges.get((parent, child), 0)

    def dump(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "calls": n} for (p, c), n in sorted(self.edges.items())],
            "counters": dict(sorted(self.counters.items())),
            "span_fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }
