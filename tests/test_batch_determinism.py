"""Determinism guarantees of the batched execution subsystem.

Three contracts make ``batch=B`` a pure speed knob:

1. the numpy kernels (:class:`repro.sim.batch.BatchEngine`,
   :class:`repro.sim.batch.ByzBatchEngine`) produce **bit-identical
   final states and round counts** to ``B`` serial ``Engine`` runs of
   the same lanes -- full ``state_key`` equality, not just outputs --
   across the DAC (crash), DBAC (Byzantine) and mobile-omission
   families, and equal :func:`repro.sim.batch.serial_lanes` (the
   per-seed path every non-vectorizable lane takes) on the same
   multi-lane batches (asserted when numpy is present);
2. :func:`repro.sim.batch.serial_lanes` equals one ``Engine.run`` per
   seed for every registered family;
3. ``Sweep.run(workers=4, batch=4)`` records are identical, element
   for element, to ``Sweep.run(workers=1, batch=1)`` records.
"""

from functools import partial

import pytest

from repro.bench.sweep import Sweep
from repro.scenario import algorithm_entries, resolve, spec_for
from repro.sim.batch import (
    BatchEngine,
    ByzBatchEngine,
    numpy_available,
    run_byz_batch,
    run_dac_batch,
    run_dbac_batch,
    serial_lanes,
)
from repro.sim.engine import Engine
from repro.sim.parallel import (
    TrialSpec,
    resolve_batch,
    run_trials,
    set_default_batch,
)
from repro.workloads import (
    TRIAL_BYZANTINE_STRATEGIES,
    build_dac_execution,
    build_dbac_execution,
    build_dbac_trial_execution,
    build_mobile_execution,
    run_byz_trial,
    run_byz_trial_batch,
    run_dac_trial,
    run_dac_trial_batch,
    run_dbac_trial,
    run_dbac_trial_batch,
)
from tests.helpers import (
    assert_equivalent_runs,
    batch_executor,
    normalize_config,
    run_config_serial,
    serial_executor,
)

# The two lane paths: "python" is serial_lanes (one Engine.run per
# seed), "numpy" the vectorized kernel (only when numpy is installed).
BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

# (n, f, window): fault-free, crash-fault, multi-round windows.
GRIDS = [(9, 0, 1), (9, 4, 1), (9, 4, 3), (12, 5, 2), (5, 2, 1)]

# (n, f, window, selector, strategy): the Byzantine lane families --
# value-dependent nearest selection, memoized rotate, windowed
# delivery, every vectorizable strategy, and the f=0 degenerate case.
BYZ_GRIDS = [
    (11, 2, 1, "nearest", "extreme"),
    (11, 2, 3, "nearest", "pin-high"),
    (11, 2, 2, "rotate", "extreme"),
    (6, 1, 1, "nearest", "phase-liar"),
    (7, 0, 1, "nearest", "extreme"),
    (11, 2, 1, "nearest", "pin-low"),
]

MOBILE_MODES = ["block_min", "block_max", "rotate", "none"]


def run_serial_dbac_lane(
    n, f, seed, window, selector, strategy, epsilon=1e-3, max_rounds=50_000
):
    """One serial oracle-mode DBAC run of the lane the batch engine claims."""
    factory = TRIAL_BYZANTINE_STRATEGIES[strategy]
    kwargs = build_dbac_execution(
        n=n,
        f=f,
        epsilon=epsilon,
        seed=seed,
        window=window,
        selector=selector,
        byzantine_factory=lambda node: factory(),
    )
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


class TestBatchMatchesSerial:
    @pytest.mark.parametrize("n,f,window", GRIDS)
    def test_finals_and_rounds_bit_identical(self, n, f, window):
        # The shared harness: serial sweep (reference) == the family's
        # batch lanes (the numpy kernel when installed, serial_lanes
        # otherwise), all 8 seeds as ONE multi-lane batch so lock-step
        # lane interplay is exercised; full per-node state keys --
        # value, phase, port bit vector, extremes, output -- the
        # strongest equality available.
        assert_equivalent_runs(
            [{"family": "dac", "n": n, "f": f, "window": window,
              "seeds": tuple(range(8))}],
            {"serial-fast": serial_executor(), "batch": batch_executor()},
        )

    @needs_numpy
    @pytest.mark.parametrize("n,f,window", GRIDS)
    def test_numpy_backend_matches_python_fallback(self, n, f, window):
        # The kernel vs serial_lanes, one multi-lane batch each.
        seeds = [3, 11, 20, 21, 22, 23, 100, 101]
        assert run_dac_batch(n, f, seeds, window=window) == serial_lanes(
            seeds, partial(build_dac_execution, n=n, f=f, window=window)
        )

    def test_lane_order_is_seed_order_not_finish_order(self):
        # Lanes terminate at different rounds; results must still come
        # back in seeds order.
        seeds = [7, 0, 13, 5]
        lanes = resolve(spec_for("dac", {"n": 9, "f": 4, "window": 2})).batch(seeds)
        assert [lane.seed for lane in lanes] == seeds
        assert len({lane.rounds for lane in lanes}) >= 1  # all finalized
        assert all(lane.stopped for lane in lanes)

    def test_backend_resolution_and_validation(self):
        # The kernel's predicate picks the path; the constructor
        # refuses what the predicate rejects (value-dependent
        # selectors, or no numpy at all).
        assert BatchEngine.vectorizes("rotate") == numpy_available()
        assert not BatchEngine.vectorizes("nearest")
        with pytest.raises(ValueError, match="selector|numpy"):
            BatchEngine(9, 4, [0], selector="nearest")
        if numpy_available():
            assert BatchEngine(9, 4, [0]).batch_size == 1
        with pytest.raises(ValueError, match="seed"):
            BatchEngine(9, 4, [])
        with pytest.raises(ValueError, match="2f"):
            BatchEngine(8, 4, [0])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_max_rounds_cap_reports_unstopped_lanes(self, backend):
        # A cap far below termination: every lane must report exactly
        # the cap and stopped=False, like Engine.run does.
        if backend == "numpy":
            lanes = run_dac_batch(9, 4, [0, 1], max_rounds=3)
        else:
            lanes = serial_lanes(
                [0, 1], partial(build_dac_execution, n=9, f=4, max_rounds=3)
            )
        assert [lane.rounds for lane in lanes] == [3, 3]
        assert not any(lane.stopped for lane in lanes)
        assert all(lane.outputs == {} for lane in lanes)


class TestBatchedTrialFunction:
    def test_batched_summaries_equal_serial_summaries(self):
        seeds = list(range(6))
        batched = run_dac_trial_batch(n=9, window=2, seeds=seeds)
        assert batched == [run_dac_trial(n=9, window=2, seed=s) for s in seeds]

    def test_non_fast_batch_delegates_to_serial_trials(self):
        seeds = [0, 1]
        assert run_dac_trial_batch(n=5, fast=False, seeds=seeds) == [
            run_dac_trial(n=5, fast=False, seed=s) for s in seeds
        ]

    def test_trial_carries_its_batched_form(self):
        assert run_dac_trial.batch_fn is run_dac_trial_batch


def echo_trial(seed, **params):
    return {"seed": seed, **params}


def echo_trial_batch(seeds=(), **params):
    return [{"seed": seed, **params} for seed in seeds]


def short_batch(seeds=(), **params):
    return [{"seed": seeds[0], **params}]  # drops all but the first seed


class TestRunTrialsBatching:
    def make_specs(self, count, param=1):
        return [TrialSpec((("p", param),), seed=i) for i in range(count)]

    def test_batched_results_keep_spec_order(self):
        specs = self.make_specs(10)
        results = run_trials(
            echo_trial, specs, workers=1, batch=4, batch_fn=echo_trial_batch
        )
        assert results == [echo_trial(seed=i, p=1) for i in range(10)]

    def test_batching_groups_only_consecutive_equal_params(self):
        specs = [
            TrialSpec((("p", 1),), seed=0),
            TrialSpec((("p", 1),), seed=1),
            TrialSpec((("p", 2),), seed=2),
            TrialSpec((("p", 1),), seed=3),
        ]
        results = run_trials(
            echo_trial, specs, workers=1, batch=8, batch_fn=echo_trial_batch
        )
        assert [(r["p"], r["seed"]) for r in results] == [(1, 0), (1, 1), (2, 2), (1, 3)]

    def test_batch_composes_with_workers(self):
        specs = self.make_specs(12)
        assert run_trials(
            echo_trial, specs, workers=3, batch=2, batch_fn=echo_trial_batch
        ) == [echo_trial(seed=i, p=1) for i in range(12)]

    def test_explicit_batch_without_batch_fn_raises(self):
        with pytest.raises(ValueError, match="batched trial function"):
            run_trials(echo_trial, self.make_specs(4), workers=1, batch=4)

    def test_default_batch_degrades_for_unbatched_functions(self):
        set_default_batch(4)
        try:
            assert resolve_batch(None) == 4
            # echo_trial has no batch_fn: the process-wide default must
            # not break it, just run unbatched.
            results = run_trials(echo_trial, self.make_specs(5), workers=1, batch=None)
            assert [r["seed"] for r in results] == list(range(5))
        finally:
            set_default_batch(1)
        assert resolve_batch(None) == 1

    def test_batch_size_validation(self):
        with pytest.raises(ValueError, match="batch"):
            resolve_batch(0)
        with pytest.raises(ValueError, match="batch"):
            set_default_batch(0)

    def test_wrong_length_batch_results_are_rejected(self):
        with pytest.raises(ValueError, match="one result per seed"):
            run_trials(echo_trial, self.make_specs(4), workers=1, batch=4,
                       batch_fn=short_batch)


class TestSweepBatchIdentity:
    def test_workers_4_batch_4_records_identical_to_serial(self):
        grid = {"n": [5, 7], "window": [1, 2]}
        serial = Sweep(grid=grid, repeats=4)
        composed = Sweep(grid=grid, repeats=4)
        serial.run(run_dac_trial, workers=1, batch=1)
        composed.run(run_dac_trial, workers=4, batch=4)
        assert serial.records == composed.records
        assert all(record.result["correct"] for record in composed.records)

    def test_sweep_discovers_the_batched_form_from_the_trial(self):
        grid = {"n": [9]}
        explicit = Sweep(grid=grid, repeats=4)
        implicit = Sweep(grid=grid, repeats=4)
        explicit.run(run_dac_trial, batch=4, batch_fn=run_dac_trial_batch)
        implicit.run(run_dac_trial, batch=4)  # run_dac_trial.batch_fn
        assert explicit.records == implicit.records


class TestByzBatchMatchesSerial:
    """DBAC / Byzantine lanes: bit-identity of ByzBatchEngine vs serial."""

    @pytest.mark.parametrize("n,f,window,selector,strategy", BYZ_GRIDS)
    def test_dbac_finals_and_rounds_bit_identical(
        self, n, f, window, selector, strategy
    ):
        # The shared harness: serial sweep (reference) == the family's
        # batch lanes, all 6 seeds as ONE multi-lane batch. Full
        # per-node state keys -- value, phase, port bit vector, R_low /
        # R_high recording lists, output -- the strongest equality
        # available; oracle outputs (the fault-free states at stop)
        # ride along.
        assert_equivalent_runs(
            [{
                "family": "dbac", "n": n, "f": f, "window": window,
                "selector": selector, "strategy": strategy,
                "seeds": tuple(range(6)),
            }],
            {"serial-fast": serial_executor(), "batch": batch_executor()},
        )

    @needs_numpy
    @pytest.mark.parametrize("n,f,window,selector,strategy", BYZ_GRIDS)
    def test_numpy_backend_matches_python_fallback(
        self, n, f, window, selector, strategy
    ):
        # The kernel vs serial_lanes, one multi-lane batch each.
        seeds = [3, 11, 20, 21, 100]
        params = {"window": window, "selector": selector, "strategy": strategy}
        assert run_dbac_batch(n, f, seeds, **params) == serial_lanes(
            seeds, partial(build_dbac_trial_execution, n=n, f=f, **params)
        )

    def test_stored_count_invariant_backs_the_kernel_layout(self, monkeypatch):
        # The kernel reconstructs R_low/R_high from a flat stored-value
        # buffer indexed by DBACProcess.stored_count. Count the actual
        # _store calls of the current phase on a real mid-flight
        # execution and assert the documented invariant: one store per
        # accepted port (plus the phase-start self value), recording
        # lists exactly min(stores, f+1) long.
        from repro.core.dbac import DBACProcess

        stores_this_phase: dict[int, int] = {}
        real_store = DBACProcess._store
        real_reset = DBACProcess._reset

        def counting_store(self, incoming_value):
            stores_this_phase[id(self)] = stores_this_phase.get(id(self), 0) + 1
            real_store(self, incoming_value)

        def counting_reset(self):
            stores_this_phase[id(self)] = 0  # real_reset re-stores the self value
            real_reset(self)

        monkeypatch.setattr(DBACProcess, "_store", counting_store)
        monkeypatch.setattr(DBACProcess, "_reset", counting_reset)
        engine, _result = run_serial_dbac_lane(
            11, 2, seed=5, window=1, selector="nearest", strategy="extreme",
            epsilon=1e-9, max_rounds=7,
        )
        for process in engine.processes.values():
            low, high = process.recording_lists
            assert process.stored_count == stores_this_phase[id(process)]
            assert process.stored_count == process.received_count
            expected = min(process.stored_count, process.trim)
            assert len(low) == expected and len(high) == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_max_rounds_cap_reports_unstopped_lanes(self, backend):
        params = {"epsilon": 1e-15, "max_rounds": 4}
        if backend == "numpy":
            lanes = run_dbac_batch(11, 2, [0, 1], **params)
        else:
            lanes = serial_lanes(
                [0, 1], partial(build_dbac_trial_execution, n=11, f=2, **params)
            )
        assert [lane.rounds for lane in lanes] == [4, 4]
        assert not any(lane.stopped for lane in lanes)
        for seed, lane in zip([0, 1], lanes):
            engine, result = run_serial_dbac_lane(
                11, 2, seed, 1, "nearest", "extreme", epsilon=1e-15, max_rounds=4
            )
            assert lane.state_keys == {
                node: process.state_key()
                for node, process in engine.processes.items()
            }

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_output_stop_mode_matches_serial_trials(self, backend):
        # Algorithm-local stopping: p_end is astronomically conservative
        # so cap tightly; summaries must equal the serial trial's on
        # both lane paths (the random selector forces serial_lanes).
        seeds = [0, 1, 2]
        selector = "nearest" if backend == "numpy" else "random"
        batched = run_dbac_trial_batch(
            n=11, selector=selector, stop_mode="output", max_rounds=6, seeds=seeds
        )
        assert batched == [
            run_dbac_trial(
                n=11, selector=selector, stop_mode="output", max_rounds=6, seed=s
            )
            for s in seeds
        ]

    def test_random_strategy_and_selector_fall_back_to_python(self):
        # RNG-stream consumers are outside the kernel's predicate, so
        # the family runs them through serial_lanes.
        assert not ByzBatchEngine.vectorizes("quorum", strategy="random")
        assert not ByzBatchEngine.vectorizes("quorum", selector="random")
        seeds = [0, 1]
        for kwargs in ({"strategy": "random"}, {"selector": "random"}):
            lanes = resolve(spec_for("dbac", {"n": 11, "f": 2, **kwargs})).batch(seeds)
            serial = [run_dbac_trial(n=11, f=2, seed=s, **kwargs) for s in seeds]
            assert [lane.rounds for lane in lanes] == [r["rounds"] for r in serial]

    def test_backend_resolution_and_validation(self):
        # The kernel's predicate picks the path; the constructor
        # refuses what the predicate rejects.
        assert ByzBatchEngine.vectorizes() == numpy_available()
        assert ByzBatchEngine.vectorizes("mobile-rotate") == numpy_available()
        with pytest.raises(ValueError, match="strategy|numpy"):
            ByzBatchEngine(11, 2, [0], strategy="random")
        with pytest.raises(ValueError, match="selector|numpy"):
            ByzBatchEngine(11, 2, [0], selector="random")
        if numpy_available():
            assert ByzBatchEngine(11, 2, [0]).batch_size == 1
        with pytest.raises(ValueError, match="seed"):
            ByzBatchEngine(11, 2, [])
        with pytest.raises(ValueError, match="5f"):
            ByzBatchEngine(10, 2, [0])
        with pytest.raises(ValueError, match="strategy"):
            ByzBatchEngine(11, 2, [0], strategy="nope")
        with pytest.raises(ValueError, match="stop_mode"):
            ByzBatchEngine(11, 2, [0], stop_mode="nope")
        with pytest.raises(ValueError, match="adversary"):
            ByzBatchEngine(11, 2, [0], adversary="nope")
        with pytest.raises(ValueError, match="fault-free"):
            ByzBatchEngine(8, 1, [0], adversary="mobile-rotate")
        with pytest.raises(ValueError, match="mobile mode"):
            ByzBatchEngine(8, None, [0], adversary="mobile-nope")


class TestMobileBatchMatchesSerial:
    """Mobile-omission lanes: the other run_byz_trial family."""

    @pytest.mark.parametrize("mode", MOBILE_MODES)
    def test_lanes_match_serial_engines_full_state(self, mode):
        # The shared harness, full state keys (strictly stronger than
        # the old picklable-summary comparison): serial sweep == the
        # family's batch lanes on one 5-lane batch.
        assert_equivalent_runs(
            [{"family": "mobile", "n": 8, "mode": mode, "seeds": tuple(range(5))}],
            {"serial-fast": serial_executor(), "batch": batch_executor()},
        )

    def test_batched_summaries_equal_serial_trial_summaries(self):
        seeds = list(range(3))
        lanes = resolve(spec_for("byz", {"n": 8, "mode": "block_min"})).batch(seeds)
        serial = [
            run_byz_trial(n=8, adversary="mobile-block_min", seed=s) for s in seeds
        ]
        from repro.workloads import _lane_summary

        assert [_lane_summary(lane, 1e-3) for lane in lanes] == serial

    @needs_numpy
    @pytest.mark.parametrize("mode", MOBILE_MODES)
    def test_numpy_backend_matches_python_fallback(self, mode):
        # The kernel vs serial_lanes, one multi-lane batch each.
        seeds = [2, 7, 9]
        assert run_byz_batch(
            8, None, seeds, adversary=f"mobile-{mode}"
        ) == serial_lanes(seeds, partial(build_mobile_execution, n=8, mode=mode))

    def test_victim_hook_matches_per_receiver_specification(self):
        # mobile_victims (what both the serial adversary and the numpy
        # kernel replicate) vs the retained per-receiver scan, on value
        # vectors with duplicated extremes (tie-breaking).
        from repro.adversary.mobile import MobileOmissionAdversary, mobile_victims

        tie_grids = [
            [0.5, 0.1, 0.1, 0.9, 0.9],
            [0.3, 0.3, 0.3],
            [1.0],
            [0.2, 0.8],
            [0.7, None, 0.1, 0.1],
        ]
        for values in tie_grids:
            n = len(values)
            for mode in ("block_min", "block_max"):
                adversary = MobileOmissionAdversary(mode)
                adversary.n = n

                class _View:
                    def value(self, node, _values=values):
                        return _values[node]

                spec = [
                    adversary._victim_sender(v, 0, _View()) for v in range(n)
                ]
                assert mobile_victims(mode, n, 0, list(values)) == spec, (
                    mode,
                    values,
                )


class TestNearestVectorization:
    """The stable-argsort nearest replication, ties included."""

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_vectorized_picks_match_selector_hook_on_tie_heavy_values(self):
        import numpy as np

        from repro.adversary.constrained import nearest_picks
        from repro.sim.batch import nearest_delivered

        n = 10
        byzantine = frozenset({8, 9})
        degree = 6
        remaining = degree - len(byzantine)
        # Crafted tie storms: duplicated values, symmetric distances
        # around a receiver, converged lanes where everything ties.
        value_rows = [
            [0.5, 0.25, 0.75, 0.5, 0.5, 0.25, 0.75, 0.1, 0.0, 1.0],
            [0.5] * 8 + [0.0, 1.0],
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.0, 1.0],
            [0.4, 0.6, 0.5, 0.5, 0.3, 0.7, 0.5, 0.5, 0.0, 1.0],
        ]
        values = np.array(value_rows)
        byz = np.array(sorted(byzantine), dtype=np.intp)
        delivered = nearest_delivered(values, byz, len(byzantine), remaining)
        for lane, row in enumerate(value_rows):
            spec_values = [
                None if u in byzantine else row[u] for u in range(n)
            ]
            picks = nearest_picks(n, tuple(range(n)), spec_values, byzantine, degree)
            for receiver in range(n):
                if receiver in byzantine:
                    continue  # kernel rows for Byzantine receivers are unused
                chosen = {u for u in range(n) if delivered[lane, receiver, u]}
                assert chosen == set(picks[receiver]), (lane, receiver)

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_tie_heavy_grid_stays_bit_identical(self):
        # Converged DBAC lanes are the real tie storm: after one
        # trimmed-midpoint update many honest nodes share a value, so
        # every later round breaks distance ties by node ID. A tiny
        # epsilon keeps the lanes in that regime for many rounds.
        seeds = list(range(4))
        lanes = run_dbac_batch(11, 2, seeds, epsilon=1e-12)
        assert lanes == serial_lanes(
            seeds, partial(build_dbac_trial_execution, n=11, f=2, epsilon=1e-12)
        )
        for seed, lane in zip(seeds, lanes):
            engine, result = run_serial_dbac_lane(
                11, 2, seed, 1, "nearest", "extreme", epsilon=1e-12
            )
            assert lane.rounds == int(result)
            assert lane.state_keys == {
                node: process.state_key()
                for node, process in engine.processes.items()
            }


class TestSerialLanes:
    """serial_lanes: the per-seed path every non-kernel lane takes."""

    @pytest.mark.parametrize(
        "entry", algorithm_entries(), ids=lambda entry: f"{entry.name}@{entry.version}"
    )
    def test_equals_per_seed_engine_runs_for_every_family(self, entry):
        # Each registered family's first conformance configuration,
        # three seeds: serial_lanes over the family's own build must
        # equal one Engine.run per seed, field for field.
        params = next(iter(entry.obj.conformance.values()))[0]
        config = normalize_config({"family": entry.name, **params, "seeds": (0, 1, 2)})
        family_params = {k: v for k, v in config.items() if k not in ("family", "seeds")}
        lanes = serial_lanes(config["seeds"], partial(entry.obj.build, **family_params))
        assert [lane.seed for lane in lanes] == list(config["seeds"])
        assert [
            {
                "rounds": lane.rounds,
                "stopped": lane.stopped,
                "inputs": lane.inputs,
                "outputs": lane.outputs,
                "state_keys": lane.state_keys,
            }
            for lane in lanes
        ] == run_config_serial(config)


class TestByzBatchedTrialFunctions:
    def test_dbac_batched_summaries_equal_serial_summaries(self):
        seeds = list(range(5))
        batched = run_dbac_trial_batch(n=11, window=2, seeds=seeds)
        assert batched == [
            run_dbac_trial(n=11, window=2, seed=s) for s in seeds
        ]

    def test_byz_batched_summaries_equal_serial_summaries(self):
        seeds = list(range(4))
        for adversary in ("quorum", "mobile-block_max"):
            batched = run_byz_trial_batch(n=7, adversary=adversary, seeds=seeds)
            assert batched == [
                run_byz_trial(n=7, adversary=adversary, seed=s) for s in seeds
            ]

    def test_non_fast_batch_delegates_to_serial_trials(self):
        seeds = [0, 1]
        assert run_dbac_trial_batch(
            n=6, fast=False, stop_mode="output", max_rounds=5, seeds=seeds
        ) == [
            run_dbac_trial(n=6, fast=False, stop_mode="output", max_rounds=5, seed=s)
            for s in seeds
        ]

    def test_trials_carry_their_batched_forms(self):
        assert run_dbac_trial.batch_fn is run_dbac_trial_batch
        assert run_byz_trial.batch_fn is run_byz_trial_batch

    def test_sweep_workers_and_batch_identical_for_dbac(self):
        grid = {"n": [6, 11], "window": [1, 2]}
        serial = Sweep(grid=grid, repeats=4)
        composed = Sweep(grid=grid, repeats=4)
        serial.run(run_dbac_trial, workers=1, batch=1)
        composed.run(run_dbac_trial, workers=4, batch=4)
        assert serial.records == composed.records
        assert all(record.result["correct"] for record in composed.records)

    def test_sweep_workers_and_batch_identical_for_byz_families(self):
        grid = {"n": [8], "adversary": ["quorum", "mobile-block_min", "mobile-rotate"]}
        serial = Sweep(grid=grid, repeats=3)
        composed = Sweep(grid=grid, repeats=3)
        serial.run(run_byz_trial, workers=1, batch=1)
        composed.run(run_byz_trial, workers=2, batch=3)
        assert serial.records == composed.records
