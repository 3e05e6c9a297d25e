"""Layer spans for the traced run, recorded from outside the program.

The benchmark never edits ``repro``: it wraps a layer's public
callables (module functions, class methods) for the length of a traced
slice and restores the originals afterwards. Each wrapper records a
span -- the call's wall time -- on a per-thread stack, so a layer's
*self time* is its spans' total minus the part its child spans cover.

Three kinds of wrapper:

- :meth:`Tracer.span` -- a timed, nestable synchronous span;
- :meth:`Tracer.count` -- counts calls and non-``None`` returns
  without timing (cache probes too cheap to time without distortion);
- :meth:`Tracer.async_span` -- the duration of a coroutine. Coroutines
  interleave on the daemon's event loop, so these spans never nest and
  carry no self time.

:class:`TracedBatch` covers the one layer that runs in pool workers,
the batch kernels: the pooled sweep passes it as ``batch_fn``, it is
pickled to the worker like the function it wraps, and each call
appends one JSON line to a per-worker file the parent reads back.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any


class LayerStats:
    """Totals for one span name."""

    __slots__ = ("calls", "total", "self_time", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.hits = 0

    def mean_self(self) -> float:
        return self.self_time / self.calls if self.calls else 0.0

    def mean_total(self) -> float:
        return self.total / self.calls if self.calls else 0.0


class Tracer:
    """Installs span wrappers, collects per-layer totals, restores on exit."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def layer(self, name: str) -> LayerStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = LayerStats()
        return stats

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording a nestable span called ``name``.

        A span nested directly in a span of the same name (an override
        calling ``super()``, a recursion) adds its self time to the
        layer but neither a call nor its total again, so per-call means
        count each logical call once.
        """
        stats = self.layer(name)
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            outer = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if outer is not None:
                    outer[1] += elapsed
                if outer is None or outer[0] != name:
                    stats.calls += 1
                    stats.total += elapsed
                stats.self_time += elapsed - frame[1]

        return wrapper

    def count(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` counting calls and non-``None`` results under ``name``."""
        stats = self.layer(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            stats.calls += 1
            if result is not None:
                stats.hits += 1
            return result

        return wrapper

    def async_span(
        self,
        name: str,
        fn: Callable[..., Any],
        on_done: Callable[[Any, float, float], None] | None = None,
    ) -> Callable[..., Any]:
        """Coroutine function ``fn`` timed as a flat span.

        ``on_done(result, start, end)`` sees each successful call's
        result and clock readings (the daemon's queue-wait bookkeeping).
        """
        stats = self.layer(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = await fn(*args, **kwargs)
            end = clock()
            stats.calls += 1
            stats.total += end - start
            stats.self_time += end - start
            if on_done is not None:
                on_done(result, start, end)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch_overrides(
        self, base: type, attr: str, make: Callable[[Any], Any]
    ) -> None:
        """Patch ``attr`` on ``base`` and every subclass that defines it."""
        pending = [base]
        seen: set[type] = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self.patch(cls, attr, make)

    def restore(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()


class TracedBatch:
    """A picklable batched trial function that logs each call's timing.

    Wraps a module-level ``*_trial_batch`` function; in the worker each
    call appends ``{"s", "lanes", "lane_rounds"}`` to
    ``<out_dir>/batch-<pid>.jsonl``. ``arena_plan`` passes through, so
    the parallel layer publishes the same tables it would untraced.
    """

    def __init__(self, fn: Callable[..., Any], out_dir: str) -> None:
        self.fn = fn
        self.out_dir = out_dir

    @property
    def arena_plan(self) -> Callable[..., Any] | None:
        return getattr(self.fn, "arena_plan", None)

    def __call__(self, seeds: list[int], **params: Any) -> list[Any]:
        start = time.perf_counter()
        results = list(self.fn(seeds=seeds, **params))
        elapsed = time.perf_counter() - start
        line = {
            "s": elapsed,
            "lanes": len(seeds),
            "lane_rounds": sum(result["rounds"] for result in results),
        }
        path = Path(self.out_dir) / f"batch-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            handle.write(json.dumps(line) + "\n")
        return results


def read_batch_logs(out_dir: str) -> list[dict[str, Any]]:
    """Every line the workers' :class:`TracedBatch` calls wrote, then delete them."""
    lines: list[dict[str, Any]] = []
    for path in sorted(Path(out_dir).glob("batch-*.jsonl")):
        with open(path) as handle:
            lines.extend(json.loads(line) for line in handle if line.strip())
        path.unlink()
    return lines
