"""The daemon workload: a seeded submission mix against ``repro.service``.

One client drives a ``BackgroundServer(workers=2, cache_path=...)`` in
a closed loop. A cycle submits, for every family at ``n = 17``:

- ``cold`` -- the short spec at two fresh seeds: resolved, queued,
  computed on the two pool workers and appended to the cache file;
- ``hit`` (repeat) -- the same spelling at seeds asked before;
- ``hit`` (respelled) -- the canonical text or JSON form of the same
  scenario, with a different ``seed:`` field, at seeds asked before.

and then one concurrent duplicate pair: the same fresh submission from
the main client and from a second connection on a helper thread, so
the daemon coalesces one onto the other's computation.

The proportions (two hits and a fifth of a pair per cold submission)
are a choice, not a measured usage pattern, so no end-to-end figure
depends on them: latencies are reported per class, ``submits_per_s``
and ``trials_per_s`` count cold submissions only (what a client
submitting only fresh seeds gets), and pair latencies feed no
end-to-end figure. The mix-dependent ratios (``cache.hit_ratio``,
``jobs.coalesced_ratio``) are per-layer diagnostics.

Checks, in every run: cold submissions compute every seed, terminate,
and (dac/dbac/byz) are correct; every hit resolves to the cold
request's scenario key, is served entirely from the cache, and returns
the cold results exactly; each pair computes every seed once and both
sides agree. After the timed loop a seeded sample of cold and pair
payloads must equal direct ``resolve(spec).run(seed)``.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from perfbench.harness import Request, Slice
from perfbench.sweeps import FAMILIES, GUARANTEED, spec_text
from perfbench.tracing import Tracer

N = 17
SEEDS_PER_SUBMISSION = 2
WORKERS = 2
#: Cold and pair submissions recomputed directly after the timed loop.
VERIFY_SAMPLE = 8


class DaemonWorkload:
    name = "daemon-mixed"
    throughput_kinds = ("cold",)
    parallelism = WORKERS

    def __init__(self, seed: int, tmpdir: str) -> None:
        self.rng = random.Random(f"{self.name}/{seed}")
        self.cache_path = Path(tmpdir) / "service-cache.jsonl"
        self.server: Any = None
        self.client: Any = None
        self.second: Any = None
        self.helper: ThreadPoolExecutor | None = None
        self.canonical: dict[str, Any] = {}
        self.scenarios: dict[str, str] = {}
        self.used: set[int] = set()
        self.asked: dict[str, list[tuple[int, ...]]] = {family: [] for family in FAMILIES}
        self.answers: dict[tuple[str, int], Any] = {}
        self.computed: list[tuple[str, tuple[int, ...], Request]] = []
        self.pair_index = 0
        self.cache_start = (0, 0)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Start the daemon, learn each family's spellings, run a warm-up cycle."""
        from repro.scenario import resolve
        from repro.service import BackgroundServer, ServiceClient

        for family in FAMILIES:
            self.canonical[family] = resolve(spec_text(family, N)).canonical_spec()
        self.server = BackgroundServer(
            workers=WORKERS, cache_path=str(self.cache_path)
        ).__enter__()
        self.client = ServiceClient(self.server.host, self.server.port)
        self.second = ServiceClient(self.server.host, self.server.port)
        self.helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="perfbench-pair")
        for _ in self.cycle(None):
            pass
        self.computed.clear()
        self.cache_start = (self.cache_path.stat().st_size, self.client.stats()["cache"]["stores"])

    def stop(self) -> None:
        if self.helper is not None:
            self.helper.shutdown(wait=True)
            self.helper = None
        if self.server is not None:
            server, self.server = self.server, None
            server.close()

    # -- requests ---------------------------------------------------------

    def _fresh_seeds(self) -> tuple[int, ...]:
        seeds: list[int] = []
        while len(seeds) < SEEDS_PER_SUBMISSION:
            seed = self.rng.randrange(1, 1 << 30)
            if seed not in self.used:
                self.used.add(seed)
                seeds.append(seed)
        return tuple(seeds)

    @staticmethod
    def _timed_submit(client: Any, spec: Any, seeds: tuple[int, ...]) -> tuple[Any, float]:
        begin = time.perf_counter()
        try:
            payload = client.submit(spec, seeds=list(seeds))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            payload = None
        return payload, time.perf_counter() - begin

    def _check_results(
        self, request: Request, family: str, payload: dict[str, Any], statuses: set[str]
    ) -> None:
        for row in payload["results"]:
            result = row["result"]
            if row["status"] not in statuses:
                request.fail(f"{family}@{row['seed']}: status {row['status']}")
            if not result["terminated"]:
                request.fail(f"{family}@{row['seed']}: did not terminate")
            if family in GUARANTEED and not result["correct"]:
                request.fail(f"{family}@{row['seed']}: incorrect")

    def _cold(self, family: str) -> Request:
        seeds = self._fresh_seeds()
        payload, seconds = self._timed_submit(self.client, spec_text(family, N), seeds)
        request = Request("cold", seconds, len(seeds) if payload else 0)
        if payload is None:
            request.fail(f"{family}: cold submission raised")
            return request
        self._check_results(request, family, payload, {"computed"})
        self.scenarios.setdefault(family, payload["scenario"])
        if payload["scenario"] != self.scenarios[family]:
            request.fail(f"{family}: scenario key changed between cold submissions")
        for row in payload["results"]:
            self.answers[(family, row["seed"])] = row["result"]
        self.asked[family].append(seeds)
        self.computed.append((family, seeds, request))
        return request

    def _hit(self, family: str, respelled: bool) -> Request:
        seeds = self.rng.choice(self.asked[family])
        spec: Any = spec_text(family, N)
        if respelled:
            canonical = self.canonical[family].with_seed(self.rng.randrange(1, 1 << 30))
            spec = canonical.encode() if self.rng.random() < 0.5 else canonical.to_dict()
        payload, seconds = self._timed_submit(self.client, spec, seeds)
        request = Request("hit", seconds, len(seeds) if payload else 0)
        if payload is None:
            request.fail(f"{family}: hit submission raised")
            return request
        self._check_results(request, family, payload, {"hit"})
        if payload["scenario"] != self.scenarios[family]:
            request.fail(f"{family}: respelled spec resolved to another scenario key")
        for row in payload["results"]:
            if row["result"] != self.answers[(family, row["seed"])]:
                request.fail(f"{family}@{row['seed']}: cached result differs from computed")
        return request

    def _pair(self, family: str) -> list[Request]:
        seeds = self._fresh_seeds()
        spec = spec_text(family, N)
        other = self.helper.submit(self._timed_submit, self.second, spec, seeds)
        mine = self._timed_submit(self.client, spec, seeds)
        theirs = other.result()
        requests = []
        for payload, seconds in (mine, theirs):
            request = Request("pair", seconds, len(seeds) if payload else 0)
            if payload is None:
                request.fail(f"{family}: pair submission raised")
            else:
                self._check_results(request, family, payload, {"computed", "coalesced", "hit"})
            requests.append(request)
        if all(payload is not None for payload, _ in (mine, theirs)):
            a, b = mine[0], theirs[0]
            if sum(p["computed"] for p in (a, b)) != len(seeds):
                requests[0].fail(f"{family}: duplicate pair computed a seed twice")
            if [r["result"] for r in a["results"]] != [r["result"] for r in b["results"]]:
                requests[0].fail(f"{family}: duplicate pair disagrees")
            for row in a["results"]:
                self.answers[(family, row["seed"])] = row["result"]
            self.computed.append((family, seeds, requests[0]))
        return requests

    def cycle(self, tracer: Tracer | None) -> Iterator[list[Request]]:
        for family in FAMILIES:
            yield [self._cold(family)]
            yield [self._hit(family, respelled=False)]
            yield [self._hit(family, respelled=True)]
        yield self._pair(FAMILIES[self.pair_index % len(FAMILIES)])
        self.pair_index += 1

    # -- checks after the timed loop ---------------------------------------

    def verify(self) -> None:
        """Compare a seeded sample of computed payloads with direct runs."""
        from repro.scenario import resolve

        sample = self.rng.sample(self.computed, min(VERIFY_SAMPLE, len(self.computed)))
        for family, seeds, request in sample:
            if request.failure is not None:
                continue
            resolved = resolve(spec_text(family, N))
            for seed in seeds:
                if resolved.run(seed) != self.answers[(family, seed)]:
                    request.fail(f"{family}@{seed}: daemon payload differs from direct run")

    # -- traced run -------------------------------------------------------

    def instrument(self, tracer: Tracer) -> None:
        from repro.service import JobManager, ResultCache, ServiceServer

        jobs = sys.modules["repro.service.jobs"]
        enqueued: dict[str, float] = {}
        wait = tracer.layer("jobs.queue_wait")

        def note_enqueue(job: Any, _start: float, end: float) -> None:
            if job.compute_seeds:
                enqueued[job.id] = end

        def timed_execute(original: Any) -> Any:
            async def execute(manager: Any, job: Any) -> None:
                queued = enqueued.pop(job.id, None)
                if queued is not None:
                    wait.calls += 1
                    wait.total += time.perf_counter() - queued
                await original(manager, job)

            return execute

        tracer.patch(jobs, "resolve", lambda f: tracer.span("scenario.resolve", f))
        tracer.patch(jobs, "run_trials", lambda f: tracer.span("jobs.dispatch", f))
        tracer.patch(ResultCache, "get", lambda f: tracer.span("cache.get", f))
        tracer.patch(ResultCache, "put", lambda f: tracer.span("cache.put", f))
        tracer.patch(
            JobManager, "submit", lambda f: tracer.async_span("jobs.submit", f, note_enqueue)
        )
        tracer.patch(JobManager, "_execute", timed_execute)
        tracer.patch(ServiceServer, "_route", lambda f: tracer.async_span("http.route", f))

    def layer_metrics(self, tracer: Tracer, traced: list[Slice]) -> dict[str, float]:
        stats = tracer.stats
        counters = self.client.stats()
        cache, trials = counters["cache"], counters["trials"]
        size0, stores0 = self.cache_start
        appended = self.cache_path.stat().st_size - size0
        route = stats["http.route"]
        client_s = sum(r.seconds for s in traced for r in s.requests)
        client_n = sum(len(s.requests) for s in traced)
        return {
            "scenario.resolve_us": stats["scenario.resolve"].mean_self() * 1e6,
            "cache.get_us": stats["cache.get"].mean_self() * 1e6,
            "cache.put_us": stats["cache.put"].mean_self() * 1e6,
            "cache.hit_ratio": cache["hits"] / (cache["hits"] + cache["misses"]),
            "cache.bytes_appended": appended / (cache["stores"] - stores0),
            "jobs.queue_wait_ms": stats["jobs.queue_wait"].mean_total() * 1e3,
            "jobs.dispatch_ms": stats["jobs.dispatch"].mean_total() * 1e3,
            "jobs.coalesced_ratio": trials["coalesced"]
            / (trials["coalesced"] + trials["computed"]),
            "http.overhead_ms": (client_s - route.total) / client_n * 1e3,
            "trace.coverage": route.total / client_s,
        }
