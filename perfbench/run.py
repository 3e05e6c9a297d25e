"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
the per-layer metrics in a run whose slices alternate untraced and
traced. Both lists, with units, live in ``BENCHMARK.json`` at the root.
The program is imported from the checkout's ``src/``; without it the
run fails before measuring anything. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep-serial", "sweep-pooled", "daemon-mixed")
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Reference-kernel calls a set-up probe makes between two of its phases.
PROBE_CALLS = 5
#: End-to-end metrics measured by the timed loop (the rest: set-up,
#: success ratio, peak RSS).
TIMED = (
    "trials_per_s",
    "cold_p50_ms",
    "cold_p90_ms",
    "hit_p50_ms",
    "hit_p90_ms",
    "submits_per_s",
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set the workload up and tear it down (timed by the parent run)",
    )
    return parser.parse_args(argv)


def _use_checkout() -> None:
    """Put the checkout's ``src`` and root on ``sys.path``, importing nothing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
    if sys.path and Path(sys.path[0]).resolve() == HERE:
        sys.path.pop(0)
    sys.path[:0] = [str(SRC), str(ROOT)]


def _import_program() -> dict[str, str]:
    """Import ``repro`` from the checkout; the environment for child processes."""
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def _setup_probe(args: argparse.Namespace, tmpdir: str) -> int:
    """Set the workload up from a fresh interpreter, sampling machine speed.

    Prints the kernel timings taken between the set-up phases, so the
    parent can subtract their time and rescale the rest.
    """
    from perfbench import refkernel

    calls: list[float] = []

    def sample() -> None:
        calls.extend(refkernel.call_ms() for _ in range(PROBE_CALLS))

    sample()
    _import_program()
    sample()
    workload = _make_workload(args.workload, args.seed, tmpdir)
    try:
        workload.start()
        sample()
    finally:
        workload.stop()
    sample()
    print(json.dumps({"kernel_ms": sum(calls) / len(calls), "kernel_s": sum(calls) / 1e3}))
    return 0


def _make_workload(name: str, seed: int, tmpdir: str):
    from perfbench.daemon import DaemonWorkload
    from perfbench.sweeps import SweepWorkload

    if name == "daemon-mixed":
        return DaemonWorkload(seed, tmpdir)
    return SweepWorkload(name, seed, tmpdir, pooled=name == "sweep-pooled")


def _declared(section: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def _report(metrics: dict[str, float], section: str) -> dict[str, dict[str, float | str]]:
    """``metrics`` in the declared order with units; every declared name present."""
    units = _declared(section)
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json {section}: {unknown}")
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }


def run(args: argparse.Namespace, env: dict[str, str], tmpdir: str) -> int:
    from perfbench import harness

    workload = _make_workload(args.workload, args.seed, tmpdir)
    try:
        workload.start()
        slices, tracer, rss_mb = harness.measure(workload, args.seconds, bool(args.trace))
        traced = [s for s in slices if s.traced]
        layers = workload.layer_metrics(tracer, traced) if tracer is not None else {}
        workload.verify()
    finally:
        workload.stop()
    setup_raw, setup_scaled = harness.time_setup(
        Path(__file__), args.workload, args.seed, SETUP_REPEATS, env
    )

    untraced = [s for s in slices if not s.traced]
    kinds = workload.throughput_kinds
    scaled = harness.summarize(untraced, normalized=True, kinds=kinds)
    raw = harness.summarize(untraced, normalized=False, kinds=kinds)
    requests = [r for s in slices for r in s.requests]
    failures = [r.failure for r in requests if r.failure is not None]
    attempted = len(requests)
    end_to_end = {
        "setup_s": statistics.median(setup_scaled),
        **{name: scaled[name] for name in TIMED},
        "success_ratio": (attempted - len(failures)) / attempted,
        "peak_rss_mb": rss_mb,
    }
    print(
        f"{args.workload} seed={args.seed}: {attempted} requests in {len(untraced)} "
        f"untraced slices; samples cold={scaled['cold_samples']} hit={scaled['hit_samples']} "
        f"in {scaled['windows']} windows (a window's p90 needs {harness.MIN_SAMPLES} of each); "
        f"setup runs {[round(s, 3) for s in setup_raw]}; reference kernel "
        f"{statistics.median(s.ref_ms for s in slices):.3f} ms, raw trials/s "
        f"{raw['trials_per_s']:.1f}"
    )
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)

    if args.trace:
        untraced_rate = harness.throughput(untraced, normalized=True, kinds=kinds)
        traced_rate = harness.throughput(traced, normalized=True, kinds=kinds)
        metrics = dict(layers)
        metrics.update(
            {
                "samples.cold": scaled["cold_samples"],
                "samples.hit": scaled["hit_samples"],
                "samples.windows": scaled["windows"],
                "machine.ref_ms": statistics.median(s.ref_ms for s in slices),
                "machine.raw_setup_s": statistics.median(setup_raw),
                "trace.overhead_ratio": untraced_rate["submits_per_s"]
                / traced_rate["submits_per_s"],
                **{f"machine.raw_{name}": raw[name] for name in TIMED},
            }
        )
        section = "per_layer"
    else:
        metrics = end_to_end
        section = "end_to_end"
    report = _report(metrics, section)
    for name, entry in report.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report,
    }
    print(json.dumps(result))
    return 0


def _stop_helpers() -> None:
    """Stop and wait for the helper processes ``multiprocessing`` starts.

    The shared-memory resource tracker (and a fork server, if one was
    started) is left by design to exit some time after this process
    does; stopping and reaping it here means no process of the run
    outlives the run. Call it only once the pool and its arenas are
    closed: the tracker unlinks whatever is still registered with it.
    """
    from multiprocessing import forkserver, resource_tracker

    resource_tracker._resource_tracker._stop()
    forkserver._forkserver._stop()


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _use_checkout()
    tmpdir = ROOT / ".perfbench-tmp" / str(os.getpid())
    tmpdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            return _setup_probe(args, str(tmpdir))
        return run(args, _import_program(), str(tmpdir))
    finally:
        _stop_helpers()
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmpdir.parent.rmdir()
        except OSError:
            pass  # another run still holds its own directory there


if __name__ == "__main__":
    sys.exit(main())
