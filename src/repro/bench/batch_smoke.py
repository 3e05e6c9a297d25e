"""Batched-DBAC perf smoke: the vectorized Byzantine lanes vs serial lanes.

Measures the lane families the batched Byzantine kernel
(:class:`repro.sim.batch.ByzBatchEngine`) vectorizes and emits a
machine-readable ``BENCH_batch_dbac.json`` so the perf trajectory is
tracked (CI runs it at tiny sizes; the ``bench_engine_scaling`` suite
runs the same legs at larger ones):

- **dbac** -- aggregate rounds/s for boundary DBAC lanes (``nearest``
  enforcing adversary, equivocating Byzantine nodes) through
  :func:`repro.sim.batch.serial_lanes` (one serial fast-path engine
  per seed) vs the vectorized numpy kernel;
- **mobile** -- the same comparison for mobile-omission DAC lanes.

Also asserts the kernel's identity contracts at tiny sizes (serial
lanes vs independent serial engines by full state key; kernel vs
serial lanes), so the CI smoke is a correctness gate as well as a
trend line. Without numpy the kernel legs are skipped: the serial
contract still runs and ``backend`` reads ``"serial"``.

Usage::

    python -m repro.bench.batch_smoke --out BENCH_batch_dbac.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from typing import Any

from repro.sim.batch import numpy_available, run_byz_batch, run_dbac_batch, serial_lanes
from repro.sim.engine import Engine
from repro.workloads import build_dbac_trial_execution, build_mobile_execution


def _serial_dbac_lane(
    n: int, f: int, seed: int, epsilon: float, max_rounds: int = 50_000
) -> tuple[Engine, Any]:
    """One serial engine run of the exact lane the batch engine claims."""
    kwargs = build_dbac_trial_execution(n=n, f=f, epsilon=epsilon, seed=seed)
    engine = Engine(
        kwargs["processes"],
        kwargs["adversary"],
        kwargs["ports"],
        fault_plan=kwargs["fault_plan"],
        f=kwargs["f"],
        seed=kwargs["seed"],
        record_trace=False,
    )
    result = engine.run(
        max_rounds, stop_when=lambda eng: eng.fault_free_range() <= epsilon
    )
    return engine, result


def verify_contracts(n: int = 6) -> dict[str, Any]:
    """The batched Byzantine kernel's identity contracts, at tiny ``n``."""
    f = (n - 1) // 5
    seeds = [0, 1, 2, 3]
    serial = serial_lanes(seeds, partial(build_dbac_trial_execution, n=n, f=f))
    for seed, lane in zip(seeds, serial):
        engine, result = _serial_dbac_lane(n, f, seed, epsilon=1e-3)
        assert lane.rounds == int(result) and lane.stopped == result.stopped, (
            f"serial lane diverged from serial engine (seed {seed})"
        )
        assert lane.state_keys == {
            node: proc.state_key() for node, proc in engine.processes.items()
        }, f"serial lane state diverged from serial engine (seed {seed})"
    checks: dict[str, Any] = {"serial_lanes_vs_engine": True, "numpy_checked": False}
    if numpy_available():
        assert run_dbac_batch(n, f, seeds) == serial, "DBAC kernel diverged"
        mobile_serial = serial_lanes(
            seeds, partial(build_mobile_execution, n=n, mode="block_min")
        )
        mobile_kernel = run_byz_batch(n, None, seeds, adversary="mobile-block_min")
        assert mobile_kernel == mobile_serial, "mobile kernel diverged"
        checks["numpy_checked"] = True
        checks["mobile_identity"] = True
    return checks


def _compare(serial_fn, kernel_fn) -> dict[str, Any]:
    """Time ``serial_fn`` and (numpy permitting) ``kernel_fn``; assert equality."""
    start = time.perf_counter()
    serial = serial_fn()
    serial_s = max(time.perf_counter() - start, 1e-9)
    rounds = sum(lane.rounds for lane in serial)
    batched_s = serial_s
    if numpy_available():
        start = time.perf_counter()
        batched = kernel_fn()
        batched_s = max(time.perf_counter() - start, 1e-9)
        assert batched == serial, "kernel lanes diverged from serial lanes"
    return {
        "total_rounds": rounds,
        "serial_rounds_per_s": rounds / serial_s,
        "batched_rounds_per_s": rounds / batched_s,
        "speedup": serial_s / batched_s,
        "backend": "numpy" if numpy_available() else "serial",
    }


def measure_dbac(
    n: int, lanes: int = 32, epsilon: float = 1e-6
) -> dict[str, Any]:
    """Serial-lanes vs vectorized aggregate rounds/s for DBAC lanes."""
    f = (n - 1) // 5
    seeds = list(range(lanes))
    build = partial(build_dbac_trial_execution, n=n, f=f, epsilon=epsilon)
    return {
        "n": n,
        "f": f,
        "lanes": lanes,
        "epsilon": epsilon,
        **_compare(
            lambda: serial_lanes(seeds, build),
            lambda: run_dbac_batch(n, f, seeds, epsilon=epsilon),
        ),
    }


def measure_mobile(
    n: int, lanes: int = 32, mode: str = "block_min", epsilon: float = 1e-6
) -> dict[str, Any]:
    """Serial-lanes vs vectorized rounds/s for mobile-omission lanes."""
    seeds = list(range(lanes))
    build = partial(build_mobile_execution, n=n, mode=mode, epsilon=epsilon)
    return {
        "n": n,
        "mode": mode,
        "lanes": lanes,
        "epsilon": epsilon,
        **_compare(
            lambda: serial_lanes(seeds, build),
            lambda: run_byz_batch(
                n, None, seeds, adversary=f"mobile-{mode}", epsilon=epsilon
            ),
        ),
    }


def run_smoke(n: int = 11, lanes: int = 16) -> dict[str, Any]:
    """All legs at one size; the payload written to BENCH_batch_dbac.json."""
    return {
        "bench": "batch_dbac",
        "contracts": verify_contracts(min(n, 6)),
        "dbac": measure_dbac(n=n, lanes=lanes),
        "mobile": measure_mobile(n=n, lanes=lanes),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-batch-smoke", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--n", type=int, default=11, help="network size (default 11)")
    parser.add_argument(
        "--lanes", type=int, default=16, help="batch lanes B (default 16)"
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_batch_dbac.json",
        help="JSON output path (default BENCH_batch_dbac.json)",
    )
    args = parser.parse_args(argv)
    payload = run_smoke(n=args.n, lanes=args.lanes)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=1)
    dbac = payload["dbac"]
    mobile = payload["mobile"]
    print(f"contracts: {payload['contracts']}")
    print(
        f"dbac    n={dbac['n']} f={dbac['f']} B={dbac['lanes']}: "
        f"{dbac['batched_rounds_per_s']:.0f} rounds/s "
        f"({dbac['speedup']:.2f}x vs serial lanes, {dbac['backend']})"
    )
    print(
        f"mobile  n={mobile['n']} {mobile['mode']} B={mobile['lanes']}: "
        f"{mobile['batched_rounds_per_s']:.0f} rounds/s "
        f"({mobile['speedup']:.2f}x vs serial lanes)"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
