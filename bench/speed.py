"""Host-speed sampling: a reference computation timed in short bursts beside the workload.

This host's processors do not keep one speed: a fixed Python loop ran up to
twice as slowly in some seconds as in others, and the slow stretches came
and went within seconds and lasted up to minutes.  A sampler process, pinned
to a processor the workload runs on, times one burst of `reference()` every
`PERIOD_S` and keeps the burst's CPU time.  `run.py` scales each operation's
time by REFERENCE_S / (burst time) averaged over the operation's interval,
so that the host's speed cancels out of `wall_s`, `cpu_s` and `setup_s`:
they read as the times on a processor where a burst takes REFERENCE_S.

A burst reports CPU time, not wall time: when the workload keeps every
processor busy (the census's two workers) a burst waits for a processor,
and the wait says nothing about the processor's speed.  A sampler on
another processor than the workload's does not track it: the speed changes
are per processor.

    python3 bench/speed.py <cpu>

runs one sampler pinned to processor <cpu>.  It prints `ready`, samples
until its standard input reaches end of file, then prints one line per
burst: `<monotonic end time> <CPU seconds of the burst>`.
"""

from __future__ import annotations

import bisect
import os
import select
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

PERIOD_S = 0.2
# CPU seconds of one burst at the reference speed: about the middle of the
# 6-11 ms that bursts took on this host.  Only ratios of bursts matter, so
# the value just fixes the scale of the reported times.
REFERENCE_S = 0.008


def reference() -> None:
    """A fixed mix of the interpreter's work: rational arithmetic, tuples, dicts, lists."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 1500):
        acc += Fraction(i % 97, i % 13 + 1)
        table[(i % 101, i % 7)] = tuple(range(i % 5))
        _ = [j * i % 5 for j in range(5)]


class Speed:
    """Samplers pinned to the given processors, from start() to stop()."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.procs: list[subprocess.Popen] = []
        self.ends: list[list[float]] = []  # per processor: end time of each burst
        self.bursts: list[list[float]] = []  # per processor: CPU seconds of each burst

    def __enter__(self) -> "Speed":
        self.start()
        return self

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is None:
            self.stop()
            return
        for proc in self.procs:
            proc.kill()
            proc.wait()
        self.procs = []

    def start(self) -> None:
        for cpu in self.cpus:
            proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(cpu)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            self.procs.append(proc)
            if proc.stdout.readline().strip() != "ready":
                self.stop()
                raise RuntimeError(f"the speed sampler on processor {cpu} did not start")

    def stop(self) -> None:
        for proc in self.procs:
            try:
                out, _ = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
            if proc.returncode:
                raise RuntimeError(f"a speed sampler exited with code {proc.returncode}")
            samples = [tuple(map(float, line.split())) for line in out.splitlines()]
            self.ends.append([t for t, _ in samples])
            self.bursts.append([b for _, b in samples])
        self.procs = []

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S / burst time, averaged over the bursts that ended in [t0, t1]
        and the one on either side, and over the sampled processors."""
        per_cpu = []
        for ends, bursts in zip(self.ends, self.bursts):
            lo = max(bisect.bisect_left(ends, t0) - 1, 0)
            hi = bisect.bisect_right(ends, t1) + 1
            near = bursts[lo:hi]
            per_cpu.append(sum(REFERENCE_S / b for b in near) / len(near))
        return sum(per_cpu) / len(per_cpu)


def main() -> None:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    samples = []
    print("ready", flush=True)
    while True:
        start = time.process_time()
        reference()
        samples.append((time.monotonic(), time.process_time() - start))
        if select.select([sys.stdin], [], [], PERIOD_S)[0] and not sys.stdin.buffer.read1(1):
            break
    sys.stdout.write("".join(f"{t!r} {b!r}\n" for t, b in samples))


if __name__ == "__main__":
    main()
