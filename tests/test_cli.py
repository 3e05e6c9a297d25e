"""Tests for both command-line entry points."""

import json

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.sweep import Sweep
from repro.cli import main as scenario_main
from repro.scenario import algorithm_entries, resolve, spec_for


class TestScenarioCli:
    def test_dac_succeeds(self, capsys):
        rc = scenario_main(["dac", "--n", "5", "--f", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[OK]" in out

    def test_dac_verbose_prints_details(self, capsys):
        rc = scenario_main(["dac", "--n", "5", "-v"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "outputs" in out and "rates" in out

    def test_dbac_succeeds(self, capsys):
        rc = scenario_main(["dbac", "--n", "6", "--f", "1", "--strategy", "extreme"])
        assert rc == 0
        assert "[OK]" in capsys.readouterr().out

    def test_theorem9_reports_expected_violation(self, capsys):
        rc = scenario_main(["theorem9", "--n", "6"])
        out = capsys.readouterr().out
        assert rc == 0  # the violation IS the expected outcome
        assert "[VIOLATION]" in out

    def test_theorem9_plain_stalls(self, capsys):
        rc = scenario_main(["theorem9", "--n", "6", "--plain"])
        assert rc == 0
        assert "terminated=False" in capsys.readouterr().out

    def test_theorem10_reports_expected_violation(self, capsys):
        rc = scenario_main(["theorem10", "--f", "1"])
        assert rc == 0
        assert "[VIOLATION]" in capsys.readouterr().out

    def test_figure1_runs(self, capsys):
        rc = scenario_main(["figure1"])
        assert rc == 0
        assert "[OK]" in capsys.readouterr().out

    def test_save_trace_writes_json(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        rc = scenario_main(["dac", "--n", "5", "--save-trace", str(path)])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["n"] == 5
        assert payload["rounds"]

    def test_default_f_derived_from_n(self, capsys):
        rc = scenario_main(["dac", "--n", "7"])
        assert rc == 0
        assert "f=3" in capsys.readouterr().out

    def test_sweep_runs_grid(self, capsys):
        rc = scenario_main(
            ["sweep", "--n", "5", "7", "--window", "1", "--repeats", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 trials" in out
        assert "DAC rounds to output" in out

    def test_sweep_with_workers(self, capsys):
        rc = scenario_main(
            ["sweep", "--n", "5", "--repeats", "2", "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "workers=2" in out

    def test_sweep_honors_epsilon(self, capsys):
        # A looser tolerance terminates in fewer phases -> fewer rounds.
        scenario_main(["sweep", "--n", "9", "--repeats", "1", "--epsilon", "0.2"])
        loose = capsys.readouterr().out
        scenario_main(["sweep", "--n", "9", "--repeats", "1", "--epsilon", "1e-6"])
        tight = capsys.readouterr().out
        assert "eps=0.2" in loose and "eps=1e-06" in tight
        assert loose != tight

    def test_sweep_rejects_save_trace(self, capsys):
        rc = scenario_main(["sweep", "--n", "5", "--save-trace", "x.json"])
        assert rc == 2
        assert "not supported" in capsys.readouterr().out

    def test_sweep_verbose_prints_records(self, capsys):
        rc = scenario_main(["sweep", "--n", "5", "--repeats", "1", "-v"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seed=0" in out and "'rounds'" in out

    @pytest.mark.parametrize("family", [entry.name for entry in algorithm_entries()])
    def test_family_sweep_runs_the_registered_defaults(self, family, capsys, monkeypatch):
        # Family mode must run each cell exactly as the registry
        # resolves the family: the byz family is mobile-block_min, not
        # run_byz_trial's own quorum (DBAC) default.
        records = []
        real_run = Sweep.run

        def recording_run(self, *args, **kwargs):
            records.extend(real_run(self, *args, **kwargs))
            return records

        monkeypatch.setattr(Sweep, "run", recording_run)
        scenario_main(["sweep", "--family", family, "--n", "9", "--repeats", "2", "--seed", "3"])
        capsys.readouterr()
        resolved = resolve(spec_for(family, {"n": 9}))
        assert [record.seed for record in records] == [3, 4]
        assert [record.result for record in records] == [
            resolved.run(seed) for seed in (3, 4)
        ]


class TestBenchCli:
    def test_list(self, capsys):
        rc = bench_main(["--list"])
        out = capsys.readouterr().out
        assert rc == 0
        for experiment_id in ("F1", "E1", "I4", "X7", "S1"):
            assert experiment_id in out

    def test_single_experiment(self, capsys):
        rc = bench_main(["-e", "F1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "Figure 1" in out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            bench_main(["-e", "Z9"])

    def test_workers_flag_sets_sweep_default(self, capsys):
        from repro.sim.parallel import get_default_workers, set_default_workers

        try:
            rc = bench_main(["--list", "--workers", "2"])
            assert rc == 0
            assert get_default_workers() == 2
        finally:
            set_default_workers(1)
