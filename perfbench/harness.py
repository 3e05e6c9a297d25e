"""The measurement loop shared by every workload.

A workload runs in *cycles*: a fixed, seeded sequence of requests
issued back to back by one client (a closed loop). The harness groups
cycles into slices of at least :data:`SLICE_S` seconds, and between
requests -- whenever :data:`REF_EVERY_S` of workload time has passed --
it times the reference kernel (:mod:`perfbench.refkernel`) at the
workload's parallelism (see :class:`Reference`). Every slice's times
are rescaled by ``REF_NOMINAL_MS / ref_ms``, where ``ref_ms`` is the
mean kernel time over the calls made during that slice, so a
throughput or latency reads what it would have on the reference
machine at its recorded speed. A mean, not a median: a shared core
alternates between fast and slow phases, and the workload is slowed by
the mix of both.

The untraced slices are then cut into *windows*: runs of consecutive
slices holding at least :data:`MIN_SAMPLES` requests of every latency
class. Each figure is computed per window and the median over windows
is reported, so a stretch in which other tenants loaded the machine
moves the median by at most one window. Percentiles follow one rule: a
window's p90 comes from at least :data:`MIN_SAMPLES` samples, so at
least ten lie beyond it. A run keeps going past its time budget until
there is one window, and fails if a hard stop comes first.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import resource
import statistics
import subprocess
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

from perfbench import refkernel
from perfbench.tracing import Tracer

#: Shortest stretch of workload rescaled by one machine-speed estimate.
SLICE_S = 0.25
#: Workload time between two reference-kernel calls.
REF_EVERY_S = 0.02
#: Fewest samples of each latency class behind a window's p90: ten of
#: them lie beyond it.
MIN_SAMPLES = 100
#: Seconds past twice the budget after which a run short of samples fails.
HARD_STOP_GRACE_S = 30.0
#: Cycles after which peak RSS is read: a fixed amount of work, reached
#: before any run can stop (each latency class needs 20 cycles anyway).
RSS_AFTER_CYCLES = 20
#: Latency classes reported end to end; other request kinds (the
#: daemon's concurrent duplicate pairs) count toward throughput only.
LATENCY_KINDS = ("cold", "hit")


@dataclass
class Request:
    """One request the client issued: what it asked and how it went."""

    kind: str
    seconds: float
    trials: int
    failure: str | None = None

    def fail(self, reason: str) -> None:
        if self.failure is None:
            self.failure = reason


@dataclass
class Slice:
    """Consecutive cycles rescaled by one machine-speed estimate."""

    traced: bool
    seconds: float = 0.0
    requests: list[Request] = field(default_factory=list)
    ref_ms: float = math.nan

    @property
    def scale(self) -> float:
        """Multiplier taking this slice's times to reference machine speed."""
        return refkernel.REF_NOMINAL_MS / self.ref_ms


class Reference:
    """Times the reference kernel on ``width`` cores at once.

    A workload that keeps two pool workers busy is slowed when another
    tenant takes part of either core, while a lone kernel call in the
    idle parent just runs on the free one. So the kernel runs here and
    in ``width - 1`` helper processes at the same moment, and the
    slowest call is the reading: a request waits for its slowest
    worker. Width 1 is a plain call in this process.
    """

    def __init__(self, width: int) -> None:
        script = str(Path(refkernel.__file__).resolve())
        self.helpers = [
            subprocess.Popen(
                [sys.executable, script],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(width - 1)
        ]

    def call_ms(self) -> float:
        for helper in self.helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        mine = refkernel.call_ms()
        return max([mine] + [float(helper.stdout.readline()) for helper in self.helpers])

    def close(self) -> None:
        for helper in self.helpers:
            helper.stdin.close()
        for helper in self.helpers:
            helper.wait(timeout=30)
            helper.stdout.close()
        self.helpers = []


class Workload(Protocol):
    name: str
    #: Processes the workload keeps busy at once; the reference kernel
    #: is timed at this width.
    parallelism: int
    #: Request kinds whose time and trials make up ``trials_per_s`` and
    #: ``submits_per_s``.
    throughput_kinds: tuple[str, ...]

    def start(self) -> None: ...

    def cycle(self, tracer: Tracer | None) -> Iterator[list[Request]]: ...

    def instrument(self, tracer: Tracer) -> None: ...

    def stop(self) -> None: ...

    def verify(self) -> None: ...

    def layer_metrics(self, tracer: Tracer, traced: list[Slice]) -> dict[str, float]: ...


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (linear interpolation between order statistics)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _check_kernel() -> None:
    if refkernel.kernel() != refkernel.CHECKSUM:
        raise RuntimeError("reference kernel returned a different checksum: it was edited")


def _counts(slices: list[Slice]) -> dict[str, int]:
    return {
        kind: sum(1 for s in slices for r in s.requests if r.kind == kind)
        for kind in LATENCY_KINDS
    }


def _enough(slices: list[Slice]) -> bool:
    return min(_counts(slices).values()) >= MIN_SAMPLES


def windows(slices: list[Slice]) -> list[list[Slice]]:
    """``slices`` cut into consecutive runs with :data:`MIN_SAMPLES` per class.

    A tail too short to be a window joins the last one. Raises if
    ``slices`` hold too few samples for even one window.
    """
    out: list[list[Slice]] = []
    current: list[Slice] = []
    for piece in slices:
        current.append(piece)
        if _enough(current):
            out.append(current)
            current = []
    if not out:
        raise RuntimeError(
            f"too few samples for a p90: {_counts(current)}, need {MIN_SAMPLES} of each"
        )
    out[-1].extend(current)
    return out


def measure(
    workload: Workload, seconds: float, trace: bool
) -> tuple[list[Slice], Tracer | None, float]:
    """Run cycles for ``seconds`` (longer if a latency class is short of samples).

    With ``trace`` the slices alternate untraced and traced; the
    tracer's wrappers are installed only while a traced slice runs.
    Returns the slices, the tracer, and the peak RSS in MB read after
    :data:`RSS_AFTER_CYCLES` cycles.
    """
    _check_kernel()
    reference = Reference(workload.parallelism)
    try:
        return _measure(workload, seconds, trace, reference)
    finally:
        reference.close()


def _measure(
    workload: Workload, seconds: float, trace: bool, reference: Reference
) -> tuple[list[Slice], Tracer | None, float]:
    tracer = Tracer() if trace else None
    slices: list[Slice] = []
    cycles = 0
    rss_mb = math.nan
    started = time.perf_counter()
    deadline = started + seconds
    hard_stop = started + 2 * seconds + HARD_STOP_GRACE_S
    while True:
        current = Slice(traced=tracer is not None and len(slices) % 2 == 1)
        active = tracer if current.traced else None
        ref_calls: list[float] = []
        since_ref = 0.0
        if active is not None:
            workload.instrument(active)
        try:
            while current.seconds < SLICE_S:
                steps = iter(workload.cycle(active))
                while True:
                    begin = time.perf_counter()
                    step = next(steps, None)
                    elapsed = time.perf_counter() - begin
                    current.seconds += elapsed
                    since_ref += elapsed
                    if step is None:
                        cycles += 1
                        if cycles == RSS_AFTER_CYCLES:
                            rss_mb = peak_rss_mb()
                        break
                    current.requests.extend(step)
                    if since_ref >= REF_EVERY_S:
                        ref_calls.append(reference.call_ms())
                        since_ref = 0.0
        finally:
            if active is not None:
                active.restore()
        ref_calls.append(reference.call_ms())
        current.ref_ms = sum(ref_calls) / len(ref_calls)
        slices.append(current)
        now = time.perf_counter()
        untraced = [s for s in slices if not s.traced]
        if now >= deadline and _enough(untraced):
            break
        if now >= hard_stop:
            counts = _counts(untraced)
            raise RuntimeError(f"hard stop with too few samples for a p90: {counts}")
    if math.isnan(rss_mb):
        rss_mb = peak_rss_mb()
    return slices, tracer, rss_mb


def throughput(
    slices: list[Slice], normalized: bool, kinds: tuple[str, ...]
) -> dict[str, float]:
    """Trials and requests per second of request time, over requests of ``kinds``.

    One client issues requests back to back, so this is what a client
    sending only those kinds would get, whatever else the mix holds.
    """
    busy = 0.0
    trials = count = 0
    for piece in slices:
        scale = piece.scale if normalized else 1.0
        for r in piece.requests:
            if r.kind in kinds:
                busy += r.seconds * scale
                trials += r.trials
                count += 1
    return {"trials_per_s": trials / busy, "submits_per_s": count / busy}


def _window_figures(
    window: list[Slice], normalized: bool, kinds: tuple[str, ...]
) -> dict[str, float]:
    out = throughput(window, normalized, kinds)
    for kind in LATENCY_KINDS:
        ms = [
            r.seconds * 1e3 * (s.scale if normalized else 1.0)
            for s in window
            for r in s.requests
            if r.kind == kind
        ]
        out[f"{kind}_p50_ms"] = percentile(ms, 50)
        out[f"{kind}_p90_ms"] = percentile(ms, 90)
    return out


def summarize(
    slices: list[Slice], normalized: bool, kinds: tuple[str, ...]
) -> dict[str, float]:
    """End-to-end figures over ``slices``, rescaled to reference speed or raw.

    Each figure is the median of its per-window values (see
    :func:`windows`); throughput counts requests of ``kinds`` only.
    Also returns the sample count of each latency class and the number
    of windows.
    """
    cut = windows(slices)
    per_window = [_window_figures(window, normalized, kinds) for window in cut]
    out = {name: statistics.median(f[name] for f in per_window) for name in per_window[0]}
    for kind, count in _counts(slices).items():
        out[f"{kind}_samples"] = count
    out["windows"] = len(cut)
    return out


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest live child process's, in MB.

    The children are the workload's pool workers. They are forked, so
    pages they share with the parent count twice: the sum is an upper
    bound on what parent and worker held, and it rises when work moves
    into the workers.
    """
    peaks = [0]
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peaks.append(int(line.split()[1]))
        except OSError:
            continue  # exited between listing and reading
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + max(peaks)) / 1024.0


def time_setup(
    run_py: Path, workload: str, seed: int, repeats: int, env: dict[str, str]
) -> tuple[list[float], list[float]]:
    """Wall seconds of ``repeats`` fresh-interpreter set-ups, raw and rescaled.

    Each set-up runs ``run.py --setup-probe`` in a new process: import
    the package, resolve the workload's specs, bring up its machinery
    (pool or daemon), run one warm-up cycle, and tear down. The probe
    times the reference kernel between those phases on its own core;
    the kernel's time is taken out of the wall time, and its mean
    rescales the rest.
    """
    raw: list[float] = []
    scaled: list[float] = []
    command = [
        sys.executable,
        str(run_py),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--setup-probe",
    ]
    for _ in range(repeats):
        begin = time.perf_counter()
        done = subprocess.run(command, check=True, env=env, capture_output=True, text=True)
        elapsed = time.perf_counter() - begin
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        seconds = elapsed - probe["kernel_s"]
        raw.append(seconds)
        scaled.append(seconds * refkernel.REF_NOMINAL_MS / probe["kernel_ms"])
    return raw, scaled

