"""Benchmark of the `leibniz` library: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lattice-gf5 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

A run imports `leibniz` from `src/` of the checkout, builds the workload's
inputs from the seed, then repeats whole rounds of the workload's public
calls until `--seconds` have passed (at least one round).  After the timed
rounds it checks every output against the benchmark's own oracles.

With `--trace 0` the metrics are the end-to-end ones, measured with tracing
off.  Every operation of a round and every set-up is timed on its own and
its time scaled to a reference speed of the processor, measured beside it
by `speed.py` samplers.  `wall_s` and `cpu_s` are the scaled wall and CPU
time of a round, the mean over the rounds (CPU time includes worker
processes).  `setup_s` is the median scaled set-up time of the run's own
set-up and of fresh processes that repeat it, two before the rounds and two
after.  `peak_rss_mb` is the largest resident set of the run or any of its
workers, read before any check runs.

With `--trace 1` the run does one untraced round (whatever `--seconds`
says), then installs the tracer
(`tracer.py`), builds the inputs again and does one traced round; the
metrics are the per-layer ones from that trace, plus the tracer's own
overhead.  The census's traced round runs in one process, chunk by chunk.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full result, and with
`--trace 1` the spans, are written under `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from speed import Speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Fresh processes that repeat the set-up, before the rounds and again after
# them, so that the samples span the run rather than one moment of it.
SETUP_PROBES = 2

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _use_source_tree() -> None:
    if not (SRC / "leibniz" / "__init__.py").is_file():
        print(f"error: no leibniz package under {SRC}; run from the root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _children_maxrss() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _peak_rss_mb(children_before: int) -> float:
    """Largest resident set of this process or of a worker it started during the rounds.

    The kernel keeps one maximum over all finished children, set-up probes
    included, so a worker counts when it raised that maximum.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = _children_maxrss()
    if children > children_before:
        kib = max(kib, children)
    return kib * 1024 / 1e6


def _measure(fn):
    cpu0 = workloads.cpu_s()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, workloads.cpu_s() - cpu0


def _timed_setup(workload: str, seed: int):
    """The inputs, and the start and end (time.monotonic()) of making them."""
    t0 = time.monotonic()
    inputs = workloads.build(workload, seed)
    t1 = time.monotonic()
    import leibniz

    if Path(leibniz.__file__).resolve().parent != (SRC / "leibniz").resolve():
        print(f"error: leibniz was imported from {leibniz.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return inputs, (t0, t1)


def _probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """The set-up interval of a fresh interpreter, which imports `leibniz` anew."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    t0, t1 = map(float, done.stdout.split()[-2:])
    return t0, t1


def _pin(workload: str) -> list[int]:
    """Pin this process, and so its workers and set-up probes, to the workload's processors."""
    cpus = sorted(os.sched_getaffinity(0))[: workloads.PROCESSORS[workload]]
    os.sched_setaffinity(0, cpus)
    return cpus


# -- per-layer metrics -----------------------------------------------------------

def per_layer_metrics(tr, traced_cpu: float, untraced_cpu: float, traced_wall: float) -> dict[str, tuple]:
    """Metric name -> (value, unit), from one traced run."""
    m: dict[str, tuple] = {}

    def calls(metric, span):
        m[metric] = (tr.calls(span), "count")

    def self_s(metric, span):
        m[metric] = (tr.self_s(span), "s")

    def ratio(metric, num, den):
        m[metric] = (num / den if den else 0.0, "ratio")

    m["linalg.field_of.calls"] = (tr.counters.get("linalg.field_of", 0), "count")
    for layer in ("from_vectors", "kernel", "reduce"):
        calls(f"linalg.{layer}.calls", f"linalg.{layer}")
        self_s(f"linalg.{layer}.self_s", f"linalg.{layer}")
    for layer in ("bracket", "product_subspace"):
        calls(f"core.{layer}.calls", f"core.{layer}")
        self_s(f"core.{layer}.self_s", f"core.{layer}")
    calls("core.is_subalgebra.calls", "core.is_subalgebra")
    self_s("core.invariant_profile.self_s", "core.invariant_profile")
    self_s("core.check_left_leibniz.self_s", "core.check_left_leibniz")
    calls("derivations.space.calls", "derivations.space")
    self_s("derivations.space.self_s", "derivations.space")

    calls("cyclic.scan.calls", "cyclic.scan")
    self_s("cyclic.scan.self_s", "cyclic.scan")
    calls("cyclic.generated_subalgebra.calls", "cyclic.generated_subalgebra")
    tried = tr.edge("cyclic.scan", "cyclic.generated_subalgebra")
    found = tr.counters.get("cyclic.generators_found", 0)
    m["cyclic.candidates_tried"] = (tried, "count")
    m["cyclic.generators_found"] = (found, "count")
    ratio("cyclic.generator_hit_ratio", found, tried)

    subspaces = tr.counters.get("lattice.enumerate.items", 0)
    subalgebras = tr.counters.get("lattice.subalgebras", 0)
    m["lattice.subspaces"] = (subspaces, "count")
    m["lattice.subalgebras"] = (subalgebras, "count")
    ratio("lattice.subalgebra_yield", subalgebras, subspaces)
    self_s("lattice.enumerate.self_s", "lattice.enumerate")
    self_s("lattice.subalgebra_lattice.self_s", "lattice.subalgebra_lattice")

    scanned = tr.counters.get("census.scanned", 0)
    valid = tr.counters.get("census.valid", 0)
    screen_s = tr.total_s("census.screen")
    self_s("census.screen.self_s", "census.screen")
    m["census.screen.tensors_per_s"] = (scanned / screen_s if screen_s else 0.0, "1/s")
    m["census.scanned"] = (scanned, "count")
    m["census.valid"] = (valid, "count")
    ratio("census.survival", valid, scanned)
    calls("census.record.calls", "census.record")
    self_s("census.record.self_s", "census.record")
    self_s("census.reference_match.self_s", "census.reference_match")

    self_s("families.construct.self_s", "families.construct")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_cpu - untraced_cpu, "s")
    return m


def _traced(workload: str, seed: int, untraced_cpu: float):
    from tracer import Tracer

    tracer = Tracer()
    with tracer.install():
        inputs = workloads.build(workload, seed)
        rnd, wall, cpu = _measure(lambda: workloads.traced_round(inputs))
    metrics = per_layer_metrics(tracer, cpu, untraced_cpu, wall)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}-seed{seed}.json", "w") as fh:
        json.dump(tracer.dump(), fh)
    return rnd, metrics


# -- one workload ------------------------------------------------------------------

def _end_to_end(speed: Speed, setups: list, rounds: list, peak: float) -> dict[str, tuple]:
    """Metric name -> (value, unit); every time scaled to the reference speed."""
    wall = [sum((t1 - t0) * speed.factor(t0, t1) for t0, t1 in spans) for spans, _ in rounds]
    cpu = [sum(c * speed.factor(t0, t1) for (t0, t1), c in zip(spans, cpus)) for spans, cpus in rounds]
    values = {
        "wall_s": statistics.mean(wall),
        "cpu_s": statistics.mean(cpu),
        "setup_s": statistics.median((t1 - t0) * speed.factor(t0, t1) for t0, t1 in setups),
        "peak_rss_mb": peak,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def run_workload(args) -> dict:
    probes = 0 if args.trace else SETUP_PROBES
    with Speed([] if args.trace else _pin(args.workload)) as speed:
        inputs, setup = _timed_setup(args.workload, args.seed)
        setups = [setup] + [_probe_setup(args.workload, args.seed) for _ in range(probes)]
        children_before = _children_maxrss()

        rounds = []  # (spans, cpus) of every operation, per round
        errors = []
        attempted = failed = 0
        first = None
        rounds_agree = True
        start = time.monotonic()
        while True:
            rnd = workloads.run_round(inputs)
            rounds.append((rnd.spans, rnd.cpus))
            attempted += rnd.attempted
            failed += rnd.failed
            errors += rnd.errors
            if first is None:
                first = rnd.outputs
            elif not workloads.same_outputs(args.workload, first, rnd.outputs):
                rounds_agree = False
            del rnd
            if args.trace or time.monotonic() - start >= args.seconds:
                break
        peak = _peak_rss_mb(children_before)
        setups += [_probe_setup(args.workload, args.seed) for _ in range(probes)]

    traced_outputs = None
    if args.trace:
        traced, metrics = _traced(args.workload, args.seed, sum(rounds[0][1]))
        attempted += traced.attempted
        failed += traced.failed
        errors += traced.errors
        traced_outputs = traced.outputs
    else:
        metrics = _end_to_end(speed, setups, rounds, peak)

    import checks

    problems = checks.check(inputs, first, traced_outputs)
    if not rounds_agree:
        problems.append("rounds on the same inputs gave different outputs")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=[{"intervals": spans, "cpu_s": cpus} for spans, cpus in rounds],
                  setup_intervals=setups, burst_s=speed.bursts, problems=problems, errors=errors)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    for line in problems + errors:
        print(f"{args.workload}: {line}", file=sys.stderr)
    return result


def run_all(args) -> dict:
    """Every workload, each in its own process, printed as a table."""
    results = {}
    for w in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            sys.exit(done.returncode)
        results[w] = json.loads(done.stdout.splitlines()[-1])
        r = results[w]
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for name, metric in r["metrics"].items():
            print(f"  {name:38s} {metric['value']:>16.6g} {metric['unit']}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _use_source_tree()
    if args.probe_setup:
        t0, t1 = _timed_setup(args.workload, args.seed)[1]
        print(repr(t0), repr(t1))
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
