"""The benchmark's own tests: kernel isolation, statistics, tracing, contract.

Run with ``python -m pytest perfbench -q`` from the repository root.
None of them measures anything or needs the simulator running.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, refkernel
from perfbench.harness import Request, Slice
from perfbench.tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_reference_kernel_imports_nothing_from_repro():
    tree = ast.parse((HERE / "refkernel.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported == {"__future__", "sys", "time"}


def test_reference_kernel_loads_no_repro_module_at_run_time():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import refkernel; "
        "refkernel.call_ms(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE)], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_reference_kernel_does_fixed_work():
    assert refkernel.kernel() == refkernel.CHECKSUM
    assert refkernel.call_ms() > 0


def test_reference_times_the_kernel_on_several_cores_and_stops_its_helpers():
    reference = harness.Reference(2)
    helpers = list(reference.helpers)
    try:
        assert len(helpers) == 1
        assert all(reference.call_ms() > 0 for _ in range(3))
    finally:
        reference.close()
    assert all(helper.returncode == 0 for helper in helpers)


def _slice(ref_ms: float, kinds: list[tuple[str, float]], seconds: float) -> Slice:
    return Slice(
        traced=False,
        seconds=seconds,
        requests=[Request(kind, s, trials=2) for kind, s in kinds],
        ref_ms=ref_ms,
    )


BOTH = ("cold", "hit")


def test_summarize_rescales_to_reference_speed():
    # The same work on a machine running at half the reference speed
    # (kernel twice as slow) must read the same once rescaled.
    fast = _slice(refkernel.REF_NOMINAL_MS, [("cold", 0.01)] * 50 + [("hit", 0.002)] * 50, 0.6)
    slow = _slice(
        2 * refkernel.REF_NOMINAL_MS, [("cold", 0.02)] * 50 + [("hit", 0.004)] * 50, 1.2
    )
    a = harness.summarize([fast, fast], normalized=True, kinds=BOTH)
    b = harness.summarize([slow, slow], normalized=True, kinds=BOTH)
    for name in ("trials_per_s", "submits_per_s", "cold_p50_ms", "hit_p90_ms"):
        assert a[name] == pytest.approx(b[name])
    raw = harness.summarize([slow, slow], normalized=False, kinds=BOTH)
    assert raw["cold_p50_ms"] == pytest.approx(20.0)


def test_cold_and_hit_latencies_are_never_pooled():
    kinds = [("cold", 0.010), ("hit", 0.001), ("pair", 1.0)] * 100
    mixed = _slice(refkernel.REF_NOMINAL_MS, kinds, 1)
    out = harness.summarize([mixed], normalized=False, kinds=BOTH)
    assert out["cold_p90_ms"] == pytest.approx(10.0)
    assert out["hit_p90_ms"] == pytest.approx(1.0)
    assert out["cold_samples"] == out["hit_samples"] == 100


def test_throughput_counts_only_the_named_kinds():
    # Adding hits to the mix must not move a cold-only throughput.
    cold = [("cold", 0.01)] * 100
    lean = _slice(1.0, cold + [("hit", 0.001)] * 100, 1)
    rich = _slice(1.0, cold + [("hit", 0.001)] * 400, 1)
    for mix in (lean, rich):
        rate = harness.throughput([mix], normalized=False, kinds=("cold",))
        assert rate["submits_per_s"] == pytest.approx(100.0)
        assert rate["trials_per_s"] == pytest.approx(200.0)


def test_p90_needs_ten_samples_beyond_it():
    assert harness.MIN_SAMPLES * 0.1 >= 10
    few = _slice(1.0, [("cold", 0.01)] * 99 + [("hit", 0.01)] * 200, 1)
    enough = _slice(1.0, [("cold", 0.01)] * 100 + [("hit", 0.01)] * 100, 1)
    assert not harness._enough([few])
    assert harness._enough([enough])
    with pytest.raises(RuntimeError, match="too few samples"):
        harness.summarize([few], normalized=False, kinds=BOTH)


def test_figures_are_medians_over_windows():
    half = [("cold", 0.01)] * 50 + [("hit", 0.001)] * 50
    calm = _slice(1.0, half, 1)
    loaded = _slice(1.0, [("cold", 0.05)] * 100 + [("hit", 0.005)] * 100, 1)
    # calm+calm, then loaded (with the short calm tail joined to it), then calm+calm.
    slices = [calm, calm, loaded, calm, calm, calm]
    cut = harness.windows(slices)
    assert [len(w) for w in cut] == [2, 1, 3]
    out = harness.summarize(slices, normalized=False, kinds=BOTH)
    assert out["windows"] == 3
    assert out["cold_p90_ms"] == pytest.approx(10.0)
    assert out["hit_p50_ms"] == pytest.approx(1.0)


class _Starved:
    """A workload whose cycles never produce a hit."""

    name = "starved"
    throughput_kinds = BOTH
    parallelism = 1

    def cycle(self, tracer):
        yield [Request("cold", 0.001, trials=1)]


def test_run_short_of_samples_fails_at_the_hard_stop(monkeypatch):
    monkeypatch.setattr(harness, "HARD_STOP_GRACE_S", 0.0)
    with pytest.raises(RuntimeError, match="hard stop"):
        harness.measure(_Starved(), 0.3, trace=False)


def test_percentile_interpolates_order_statistics():
    values = [float(v) for v in range(1, 101)]
    assert harness.percentile(values, 50) == pytest.approx(50.5)
    assert harness.percentile(values, 90) == pytest.approx(90.1)


class _Node:
    def outer(self, depth: int) -> int:
        return self.inner(depth)

    def inner(self, depth: int) -> int:
        return depth if depth == 0 else self.inner(depth - 1)


def test_tracer_self_time_and_restore():
    original_outer, original_inner = _Node.outer, _Node.inner
    with Tracer() as tracer:
        tracer.patch(_Node, "outer", lambda f: tracer.span("outer", f))
        tracer.patch(_Node, "inner", lambda f: tracer.span("inner", f))
        assert _Node().outer(3) == 0
        outer, inner = tracer.stats["outer"], tracer.stats["inner"]
        # Four nested inner spans are one logical call.
        assert (outer.calls, inner.calls) == (1, 1)
        assert outer.self_time + inner.self_time == pytest.approx(outer.total)
        assert inner.total <= outer.total
    assert (_Node.outer, _Node.inner) == (original_outer, original_inner)


def test_tracer_counts_non_none_results():
    with Tracer() as tracer:
        probe = tracer.count("probe", lambda key: key or None)
        for key in (0, 1, 2, 0):
            probe(key)
    assert (tracer.stats["probe"].calls, tracer.stats["probe"].hits) == (4, 2)


def test_benchmark_json_declares_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in spec[section]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(
        ("sweep-serial", "sweep-pooled", "daemon-mixed")
    )
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_workload_inputs_follow_the_seed(tmp_path):
    from perfbench.sweeps import SweepWorkload

    def blocks(seed: int) -> list[int]:
        workload = SweepWorkload("sweep-serial", seed, str(tmp_path), pooled=False)
        return [workload._fresh_seed0() for _ in range(20)]

    assert blocks(7) == blocks(7)
    assert blocks(7) != blocks(8)


def test_run_stops_the_resource_tracker_it_started():
    code = (
        "import os, sys; sys.path.insert(0, sys.argv[1]); import run; "
        "from multiprocessing import resource_tracker, shared_memory; "
        "shm = shared_memory.SharedMemory(create=True, size=16); shm.close(); shm.unlink(); "
        "pid = resource_tracker._resource_tracker._pid; run._stop_helpers(); "
        "alive = os.path.exists(f'/proc/{pid}'); print(pid is not None, alive)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE)], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "False"]
