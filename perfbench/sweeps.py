"""The sweep workloads: default 10-round trials through ``Sweep.run``.

A request is what ``repro.cli sweep --family F --n 17 33`` waits for:
one family's trial function over the grid ``n in {17, 33}`` at one
seed block of ``repeats`` seeds. The grid carries every parameter of
the family's default spec as a single-valued dimension, except those
the spec derives from ``n`` (``f`` for dac and dbac), which each cell
derives for itself -- so every trial is the one ``resolve(spec).run``
runs at that size. Every request is at a fresh seed block, as in a
research sweep. The sweep path has no result cache, so there are no
hits: a cycle asks every family twice, each time at a fresh block, and
labels the first pass ``cold`` and the second ``hit`` only because
every workload reports both latency classes. The two are two
interleaved halves of the same traffic and should read alike.

``sweep-serial`` runs ``workers=1, batch=1``: the serial engine and
per-trial fixed cost. ``sweep-pooled`` runs ``workers=2, batch=8,
pool="persist"`` with 8-seed blocks, so each request is two batched
calls, one per worker: batch kernels, pool dispatch, pickling and
shared-memory arenas, and no serial engine.

Checks, in every run: each request returns one record per grid cell
and seed, every trial terminates, dac/dbac/byz trials are correct (the
paper's guarantees at these sizes). After the timed loop, untimed, a
seeded sample of requests is run again on the same path (it must return
the same records) and on a reference path (direct
``resolve(spec).run(seed)`` for the serial workload, the serial sweep
for the pooled one), and must match record for record.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
import traceback
from collections.abc import Iterator
from typing import Any

from perfbench.harness import Request, Slice
from perfbench.tracing import Tracer, TracedBatch, read_batch_logs

FAMILIES = ("dac", "dbac", "byz", "baseline", "averaging")
SIZES = (17, 33)
#: Families whose trials the paper guarantees correct at these sizes;
#: the baselines only have to terminate.
GUARANTEED = frozenset({"dac", "dbac", "byz"})
#: Requests recomputed after the timed loop.
VERIFY_SAMPLE = 8
#: Seed blocks start at multiples of this, so no two blocks overlap.
SEED_STRIDE = 64
#: Spans of the layers a serial trial is meant to be explained by. The
#: trial function's and ``run_consensus``'s own self time (result
#: assembly, verdicts, phase bookkeeping) is left out: ``trace.coverage``
#: is the share of the trial these spans account for.
LAYER_SPANS = (
    "workloads.build",
    "engine.init",
    "engine.run",
    "engine.round",
    "net.routing_plan",
    "net.port_pairs",
    "adversary.choose",
    "faults.sender_masks",
    "faults.byzantine",
    "core.broadcast",
    "core.deliver",
)


def spec_text(family: str, n: int) -> str:
    """A family's default scenario at size ``n``."""
    return f"algorithm: {family}@1(n={n})"


def digest(rows: list[tuple[Any, int, Any]]) -> str:
    """Order-sensitive hash of ``(params, seed, result)`` rows."""
    plain = [[[list(pair) for pair in params], seed, result] for params, seed, result in rows]
    return hashlib.sha256(json.dumps(plain, sort_keys=True).encode()).hexdigest()


def record_rows(records: list[Any]) -> list[tuple[Any, int, Any]]:
    return [(r.params, r.seed, r.result) for r in records]


def _interned() -> int:
    from repro.net.topology import intern_table_size

    return intern_table_size()


class SweepWorkload:
    """``sweep-serial`` or ``sweep-pooled`` (see the module docstring)."""

    throughput_kinds = ("cold", "hit")

    def __init__(self, name: str, seed: int, tmpdir: str, pooled: bool) -> None:
        self.name = name
        self.tmpdir = tmpdir
        self.pooled = pooled
        self.repeats = 8 if pooled else 1
        self.parallelism = 2 if pooled else 1
        self.dispatch: dict[str, Any] = (
            {"workers": self.parallelism, "batch": 8, "pool": "persist"}
            if pooled
            else {"workers": 1, "batch": 1}
        )
        self.rng = random.Random(f"{name}/{seed}")
        self.trial_fns: dict[str, Any] = {}
        self.grids: dict[str, dict[str, list[Any]]] = {}
        self.seed0s: set[int] = set()
        self.digests: dict[tuple[str, int], str] = {}
        self.done: list[tuple[str, int, Request]] = []
        self.trials = 0
        self.interned_at_start = 0

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Resolve every family's trial function and run one warm-up cycle."""
        from repro.scenario import resolve

        for family in FAMILIES:
            small, large = (resolve(spec_text(family, n)) for n in SIZES)
            fixed = large.trial_kwargs()
            self.trial_fns[family] = small.trial_fn
            self.grids[family] = {"n": list(SIZES)} | {
                key: [value]
                for key, value in small.trial_kwargs().items()
                if key != "n" and key in fixed and fixed[key] == value
            }
        for _ in self.cycle(None):
            pass
        self.done.clear()
        self.trials = 0
        self.interned_at_start = _interned()

    def stop(self) -> None:
        if self.pooled:
            from repro.sim.parallel import close_pool

            close_pool()

    # -- requests ---------------------------------------------------------

    def _fresh_seed0(self) -> int:
        while True:
            seed0 = self.rng.randrange(1, 1 << 24) * SEED_STRIDE
            if seed0 not in self.seed0s:
                self.seed0s.add(seed0)
                return seed0

    def _run(self, family: str, seed0: int, tracer: Tracer | None, **dispatch: Any) -> list[Any]:
        from repro.bench.sweep import Sweep

        fn = self.trial_fns[family]
        if tracer is not None and not self.pooled:
            fn = tracer.span("trial", fn)
        if tracer is not None and self.pooled:
            dispatch["batch_fn"] = TracedBatch(fn.batch_fn, self.tmpdir)
        sweep = Sweep(grid=self.grids[family], repeats=self.repeats, seed0=seed0)
        return sweep.run(fn, **dispatch)

    def _request(self, kind: str, family: str, seed0: int, tracer: Tracer | None) -> Request:
        begin = time.perf_counter()
        try:
            records = self._run(family, seed0, tracer, **self.dispatch)
        except Exception:
            elapsed = time.perf_counter() - begin
            traceback.print_exc(file=sys.stderr)
            return Request(kind, elapsed, 0, failure=f"{family}@{seed0} raised")
        request = Request(kind, time.perf_counter() - begin, len(records))
        self.trials += len(records)
        self._check(request, family, seed0, records)
        return request

    def _check(self, request: Request, family: str, seed0: int, records: list[Any]) -> None:
        expected = len(SIZES) * self.repeats
        if len(records) != expected:
            request.fail(f"{family}@{seed0}: {len(records)} records, expected {expected}")
        for record in records:
            result = record.result
            if not result["terminated"]:
                request.fail(f"{family}@{record.seed}: did not terminate")
            if family in GUARANTEED and not result["correct"]:
                request.fail(f"{family}@{record.seed}: incorrect")
        self.digests[(family, seed0)] = digest(record_rows(records))
        self.done.append((family, seed0, request))

    def cycle(self, tracer: Tracer | None) -> Iterator[list[Request]]:
        """Every family at a fresh block (``cold``), then again at another (``hit``)."""
        for kind in ("cold", "hit"):
            for family in FAMILIES:
                yield [self._request(kind, family, self._fresh_seed0(), tracer)]

    # -- checks after the timed loop ---------------------------------------

    def verify(self) -> None:
        """Recompute a seeded sample of requests on the same and a reference path."""
        from repro.bench.sweep import Sweep
        from repro.scenario import resolve

        sample = self.rng.sample(self.done, min(VERIFY_SAMPLE, len(self.done)))
        for family, seed0, request in sample:
            if request.failure is not None:
                continue
            again = record_rows(self._run(family, seed0, None, **self.dispatch))
            if digest(again) != self.digests[(family, seed0)]:
                request.fail(f"{family}@{seed0}: the same block returned different records")
            seeds = range(seed0, seed0 + self.repeats)
            if self.pooled:
                rows = record_rows(self._run(family, seed0, None, workers=1, batch=1))
                path = "the serial sweep"
            else:
                rows = []
                for cell in Sweep(grid=self.grids[family]).cells():
                    resolved = resolve(spec_text(family, cell["n"]))
                    params = tuple(sorted(cell.items()))
                    rows.extend((params, seed, resolved.run(seed)) for seed in seeds)
                path = "resolve(spec).run(seed)"
            if digest(rows) != self.digests[(family, seed0)]:
                request.fail(f"{family}@{seed0}: records differ from {path}")

    # -- traced run -------------------------------------------------------

    def instrument(self, tracer: Tracer) -> None:
        """Wrap the layers this workload drives (restored by ``tracer.restore``)."""
        if self.pooled:
            self._instrument_pooled(tracer)
        else:
            self._instrument_serial(tracer)

    def _instrument_serial(self, tracer: Tracer) -> None:
        from repro.adversary.base import MessageAdversary
        from repro.faults.base import FaultPlan
        from repro.faults.byzantine import ByzantineStrategy
        from repro.net.ports import PortNumbering
        from repro.net.topology import Topology
        from repro.sim.engine import Engine
        from repro.sim.node import ConsensusProcess

        builders = {
            "repro.workloads": (
                "build_dac_execution",
                "build_dbac_execution",
                "build_mobile_execution",
                "build_baseline_execution",
            ),
            "repro.families.averaging": ("build_averaging_execution",),
        }
        for module, names in builders.items():
            for attr in names:
                tracer.patch(
                    sys.modules[module], attr, lambda f: tracer.span("workloads.build", f)
                )
        tracer.patch(
            sys.modules["repro.sim.runner"],
            "run_consensus",
            lambda f: tracer.span("runner.run_consensus", f),
        )
        tracer.patch(Engine, "__init__", lambda f: tracer.span("engine.init", f))
        tracer.patch(Engine, "run", lambda f: tracer.span("engine.run", f))
        tracer.patch(Engine, "run_round", lambda f: tracer.span("engine.round", f))
        tracer.patch(Engine, "_routing_plan", lambda f: tracer.span("net.routing_plan", f))
        tracer.patch(Topology, "routing_plan", lambda f: tracer.count("net.plan_lookup", f))
        tracer.patch(PortNumbering, "port_pairs", lambda f: tracer.span("net.port_pairs", f))
        tracer.patch_overrides(
            MessageAdversary, "choose", lambda f: tracer.span("adversary.choose", f)
        )
        tracer.patch(FaultPlan, "sender_masks", lambda f: tracer.span("faults.sender_masks", f))
        for attr in ("messages", "observe"):
            tracer.patch_overrides(
                ByzantineStrategy, attr, lambda f: tracer.span("faults.byzantine", f)
            )
        tracer.patch_overrides(
            ConsensusProcess, "broadcast", lambda f: tracer.span("core.broadcast", f)
        )
        tracer.patch_overrides(
            ConsensusProcess, "deliver", lambda f: tracer.span("core.deliver", f)
        )

    def _instrument_pooled(self, tracer: Tracer) -> None:
        from repro.sim.arena import ArenaRegistry

        parallel = sys.modules["repro.sim.parallel"]
        tracer.patch(
            sys.modules["repro.bench.sweep"],
            "run_trials",
            lambda f: tracer.span("parallel.run_trials", f),
        )
        tracer.patch(parallel, "get_pool", lambda f: tracer.span("parallel.get_pool", f))
        tracer.patch(
            parallel, "_check_shippable", lambda f: tracer.span("parallel.pickle", f)
        )
        tracer.patch(ArenaRegistry, "publish", lambda f: tracer.span("arena.publish", f))

    def layer_metrics(self, tracer: Tracer, traced: list[Slice]) -> dict[str, float]:
        if self.pooled:
            return self._pooled_metrics(tracer, traced)
        return self._serial_metrics(tracer)

    def _serial_metrics(self, tracer: Tracer) -> dict[str, float]:
        stats = tracer.stats
        trial = stats["trial"]
        lookups = stats["net.plan_lookup"]
        layers = sum(stats[name].self_time for name in LAYER_SPANS)
        return {
            "trial.traced_ms": trial.mean_total() * 1e3,
            "workloads.build_ms": stats["workloads.build"].mean_self() * 1e3,
            "runner.self_ms": stats["runner.run_consensus"].mean_self() * 1e3,
            "engine.init_us": stats["engine.init"].mean_self() * 1e6,
            "engine.round_us": stats["engine.round"].mean_self() * 1e6,
            "engine.run_self_us": stats["engine.run"].mean_self() * 1e6,
            "engine.rounds_per_trial": stats["engine.round"].calls / trial.calls,
            "net.plan_hit_ratio": lookups.hits / lookups.calls,
            "net.interned_per_trial": (_interned() - self.interned_at_start) / self.trials,
            "net.routing_plan_us": stats["net.routing_plan"].mean_self() * 1e6,
            "net.port_pairs_us": stats["net.port_pairs"].mean_self() * 1e6,
            "adversary.choose_us": stats["adversary.choose"].mean_self() * 1e6,
            "faults.sender_masks_us": stats["faults.sender_masks"].mean_self() * 1e6,
            "faults.byzantine_us": stats["faults.byzantine"].mean_self() * 1e6,
            "core.broadcast_us": stats["core.broadcast"].mean_self() * 1e6,
            "core.deliver_us": stats["core.deliver"].mean_self() * 1e6,
            "trace.coverage": layers / trial.total,
        }

    def _pooled_metrics(self, tracer: Tracer, traced: list[Slice]) -> dict[str, float]:
        from repro.sim.parallel import arena_registry

        stats = tracer.stats
        calls = read_batch_logs(self.tmpdir)
        batch_s = sum(line["s"] for line in calls)
        dispatch = stats["parallel.run_trials"]
        publish = stats["arena.publish"]
        workers = self.dispatch["workers"]
        request_s = sum(r.seconds for s in traced for r in s.requests)
        tables = arena_registry().manifest.values()
        return {
            "batch.call_ms": batch_s / len(calls) * 1e3,
            "batch.lanes_per_call": sum(line["lanes"] for line in calls) / len(calls),
            "batch.lane_rounds_per_s": sum(line["lane_rounds"] for line in calls) / batch_s,
            "parallel.run_trials_ms": dispatch.mean_total() * 1e3,
            "parallel.dispatch_share": 1.0 - batch_s / (workers * dispatch.total),
            "parallel.get_pool_ms": stats["parallel.get_pool"].mean_self() * 1e3,
            "parallel.pickle_ms": stats["parallel.pickle"].mean_self() * 1e3,
            "arena.publish_ms": publish.mean_self() * 1e3,
            "arena.publish_calls": publish.calls / dispatch.calls,
            "arena.published_bytes": float(sum(n * n for _name, _offset, n in tables)),
            "trace.coverage": dispatch.total / request_s,
        }
