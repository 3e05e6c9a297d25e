"""The fixed reference kernel that measures machine speed inside a run.

The benchmark shares its machine with other work, so the same code can
run 20-40% slower from one minute to the next. Between the requests of
a workload the harness times this kernel and scales every throughput
and latency to the speed the kernel had when :data:`REF_NOMINAL_MS` was
recorded: a slow phase of the machine slows the kernel and the
workload alike, and the ratio cancels it.

The kernel is plain Python with the same mix of work the simulator
does on a round -- list building, small sorts, tuple slicing, dict
writes and float sums over a few dozen nodes -- so it slows the way
the interpreter-bound workloads slow. It imports nothing from
``repro`` and must never change: a new kernel or a new nominal value
makes every earlier normalized figure incomparable.

Run as a script, the module serves kernel timings: for each line read
from standard input it runs one call and prints its milliseconds. The
harness keeps such helpers to time the kernel on several cores at once.
"""

from __future__ import annotations

import sys
import time

#: Median milliseconds of one :func:`kernel` call, recorded once on the
#: reference machine (2-core x86-64, CPython 3.11). Normalized metrics
#: are reported at this speed. Never edit it.
REF_NOMINAL_MS = 1.2

#: The value :func:`kernel` returns; a different value means the kernel
#: did different work and its timings are meaningless.
CHECKSUM = 5.894282920857357

_NODES = 24
_FANIN = 9
_ROUNDS = 12


def kernel() -> float:
    """One fixed unit of interpreter-bound work; returns a checksum."""
    values = [((i * 7919) % 101) / 101.0 for i in range(_NODES)]
    acc = 0.0
    for r in range(_ROUNDS):
        inbox: dict[int, tuple[float, ...]] = {}
        step = r + 1
        for u in range(_NODES):
            row = [values[(u + k * step) % _NODES] + k * 1e-3 for k in range(_FANIN)]
            row.sort()
            inbox[u] = tuple(row[2:-2])
        values = [sum(msgs) / len(msgs) for msgs in (inbox[u] for u in range(_NODES))]
        acc += max(values) - min(values) + values[r % _NODES]
    return acc


def call_ms() -> float:
    """Wall milliseconds of one kernel call."""
    start = time.perf_counter()
    kernel()
    return (time.perf_counter() - start) * 1e3


def serve() -> None:
    """Time one call per line of standard input until it closes."""
    for _ in sys.stdin:
        print(call_ms(), flush=True)


if __name__ == "__main__":
    serve()
