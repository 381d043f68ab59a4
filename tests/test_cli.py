"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Engine-routed commands cache under ./.repro_cache by default; keep
    that (and any other relative writes) out of the repository."""
    monkeypatch.chdir(tmp_path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["bounds"])
        assert (args.k, args.n, args.f) == (3, 7, 2)

    def test_engine_flag_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1
        assert args.no_cache is False
        assert args.refresh is False
        assert args.cache_dir == ".repro_cache"

    def test_seed_flag_on_subcommands(self):
        assert build_parser().parse_args(["sweep", "--seed", "7"]).seed == 7
        assert build_parser().parse_args(["lemma1", "--seed", "7"]).seed == 7
        assert (
            build_parser().parse_args(["experiment", "T1", "--seed", "7"]).seed
            == 7
        )
        assert build_parser().parse_args(["demo"]).seed == 0


class TestCommands:
    def test_bounds(self, capsys):
        assert main(["bounds", "-k", "4", "-n", "7", "-f", "2"]) == 0
        out = capsys.readouterr().out
        assert "max-register" in out and "register" in out
        assert "14" in out  # the register bound at these parameters

    def test_layout(self, capsys):
        assert main(["layout", "-k", "5", "-n", "6", "-f", "2"]) == 0
        out = capsys.readouterr().out
        assert "total=25" in out
        assert "s5:" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "-k", "2", "-f", "1"]) == 0
        out = capsys.readouterr().out
        assert "lower" in out and "upper" in out

    def test_lemma1(self, capsys):
        assert main(["lemma1", "-k", "2", "-n", "5", "-f", "2"]) == 0
        out = capsys.readouterr().out
        assert "all Lemma 1 claims hold" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "hello, fault tolerance" in out

    def test_ablate(self, capsys):
        assert main(["ablate"]) == 0
        out = capsys.readouterr().out
        assert "WS-Safety VIOLATED" in out
        assert "SAFE" in out

    def test_theorem5(self, capsys):
        assert main(["theorem5", "-f", "1"]) == 0
        out = capsys.readouterr().out
        assert "split-brain" in out
        assert "3 servers" in out

    def test_experiment_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "TH7" in out

    def test_experiment_run(self, capsys):
        assert main(["experiment", "TH2"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 2" in out

    def test_experiment_unknown(self, capsys):
        # UnknownExperiment carries its own exit code (see exit_code_for)
        assert main(["experiment", "NOPE"]) == 16
        assert "error:" in capsys.readouterr().err

    def test_experiment_json_export(self, capsys, tmp_path):
        target = tmp_path / "th2.json"
        assert main(["experiment", "TH2", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload[0]["experiment_id"] == "TH2"
        assert "wrote 1 experiment" in capsys.readouterr().out

    def test_invalid_parameters_reported(self, capsys):
        # BoundViolation carries its own exit code (see exit_code_for).
        assert main(["bounds", "-k", "1", "-n", "2", "-f", "1"]) == 9
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Theorem 5" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--rate", "0"), ("--sessions", "0"), ("--keys", "0"), ("--zipf", "-1")],
    )
    def test_loadgen_parameter_mistakes_exit_invalid_config(
        self, capsys, flag, value
    ):
        argv = ["loadgen", "--transport", "sim", "--shards", "1", flag, value]
        assert main(argv) == 8  # InvalidConfig
        assert "error:" in capsys.readouterr().err


class TestEngineFlags:
    SWEEP = ["sweep", "-k", "2", "-f", "1"]

    def test_parallel_sweep_matches_serial(self, capsys, tmp_path):
        assert main([*self.SWEEP, "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(
                [*self.SWEEP, "--jobs", "2", "--cache-dir", str(tmp_path)]
            )
            == 0
        )
        assert capsys.readouterr().out == serial

    def test_second_run_served_from_cache(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path / "c")]
        assert main([*self.SWEEP, *cache]) == 0
        capsys.readouterr()
        assert main([*self.SWEEP, *cache]) == 0
        captured = capsys.readouterr()
        summary = [
            line
            for line in captured.err.splitlines()
            if line.startswith("engine:")
        ][-1]
        assert "misses=0" in summary and "steps=0" in summary

    def test_no_cache_writes_nothing(self, tmp_path):
        target = tmp_path / "never"
        assert main([*self.SWEEP, "--no-cache", "--cache-dir", str(target)]) == 0
        assert not target.exists()

    def test_refresh_recomputes(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path / "c")]
        argv = ["experiment", "T1", *cache]  # T1 actually simulates
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--refresh"]) == 0
        summary = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("engine:")
        ][-1]
        assert "hits=0" in summary and "steps=0" not in summary
        assert "misses=1" in summary

    def test_experiment_jobs_and_cache_summary(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path / "c")]
        argv = ["experiment", "table1_sweep", "--jobs", "4", *cache]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "engine:" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out  # tables byte-identical from cache
        assert "misses=0" in second.err and "steps=0" in second.err

    def test_seed_recorded_in_json_export(self, capsys, tmp_path):
        target = tmp_path / "t1.json"
        argv = [
            "experiment", "T1", "--seed", "3", "--no-cache",
            "--json", str(target),
        ]
        assert main(argv) == 0
        payload = json.loads(target.read_text())
        assert payload[0]["seed"] == 3

    def test_seeded_lemma1_and_demo(self, capsys):
        assert main(["lemma1", "-k", "2", "-n", "5", "-f", "2",
                     "--seed", "1"]) == 0
        assert "all Lemma 1 claims hold" in capsys.readouterr().out
        assert main(["demo", "--seed", "2"]) == 0
        assert "hello, fault tolerance" in capsys.readouterr().out
