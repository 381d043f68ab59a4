"""The result cache is the cell table: keying, hit/miss/refresh semantics."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import InvalidConfig
from repro.exec.cache import cell_key, experiment_code_version
from repro.exec.engine import CACHED, CELLS_FILE, FAILED, OK, run_cells
from repro.exec.grid import Cell
from repro.exec.queue import DONE, SqliteQueue
from repro.experiments import ExperimentResult, experiment


def _cell(**kwargs):
    return Cell.make("TH2", {"k_values": (2,), **kwargs})


def _run(cell, cache, refresh=False):
    report = run_cells([cell], cache=cache, refresh=refresh)
    (outcome,) = report.outcomes
    return outcome, report


def _rows(cache):
    table = SqliteQueue(cache / CELLS_FILE)
    try:
        return table.rows()
    finally:
        table.close()


class TestKeys:
    def test_key_stable_for_equal_cells(self):
        assert cell_key(_cell()) == cell_key(_cell())

    def test_key_changes_with_params(self):
        assert cell_key(_cell()) != cell_key(
            Cell.make("TH2", {"k_values": (3,)})
        )

    def test_key_changes_with_seed(self):
        assert cell_key(_cell()) != cell_key(_cell(seed=5))

    def test_key_changes_with_code_version(self):
        assert cell_key(_cell(), "deadbeef") != cell_key(_cell(), "cafef00d")

    def test_code_version_is_memoized_hex(self):
        version = experiment_code_version("TH2")
        assert version == experiment_code_version("TH2")
        int(version, 16)  # sha256 hex


class TestLibraryEdits:
    def test_editing_library_code_invalidates_cached_tables(self, tmp_path):
        """T1's function is untouched, but a library function it calls
        changes: the cached table must not be served again."""
        src = tmp_path / "src"
        shutil.copytree(
            Path(repro.__file__).parent,
            src / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        env = {**os.environ, "PYTHONPATH": str(src)}

        def register_upper_bound():
            out = subprocess.run(
                [sys.executable, "-m", "repro", "experiment", "T1",
                 "--cache-dir", str(tmp_path / "cache")],
                cwd=tmp_path, env=env, capture_output=True, text=True,
                check=True,
            ).stdout
            row = next(
                line for line in out.splitlines()
                if line.startswith("register ")
            )
            return int(row.split("|")[2])

        assert register_upper_bound() == 14
        bounds = src / "repro" / "core" / "bounds.py"
        text = bounds.read_text()
        edited = text.replace(
            '"upper": register_upper_bound(k, n, f),',
            '"upper": register_upper_bound(k, n, f) + 100,',
        )
        assert edited != text
        bounds.write_text(edited)
        assert register_upper_bound() == 114


class TestCacheSemantics:
    def test_miss_then_store_then_hit(self, tmp_path):
        cache = tmp_path / "cache"
        cell = _cell()
        outcome, report = _run(cell, cache)
        assert outcome.status == OK
        assert (report.cache_hits, report.cache_misses) == (0, 1)
        (row,) = _rows(cache)
        assert (row.cell_id, row.status) == (cell_key(cell), DONE)

        hit, report = _run(cell, cache)
        assert hit.status == CACHED
        assert hit.steps == 0
        assert (report.cache_hits, report.cache_misses) == (1, 0)
        assert hit.result.render() == outcome.result.render()

    def test_refresh_recomputes_and_overwrites(self, tmp_path):
        cache = tmp_path / "cache"
        cell = _cell()
        _run(cell, cache)
        refreshed, report = _run(cell, cache, refresh=True)
        assert refreshed.status == OK  # ran again, did not serve the row
        assert (report.cache_hits, report.cache_misses) == (0, 1)
        (row,) = _rows(cache)  # overwrote, not duplicated
        assert (row.status, row.attempts) == (DONE, 2)

    def test_entries_are_valid_json_with_result(self, tmp_path):
        cache = tmp_path / "cache"
        _run(_cell(), cache)
        (row,) = _rows(cache)
        payload = json.loads(row.result_json)
        assert payload["result"]["experiment_id"] == "TH2"
        assert "steps" in payload and "elapsed" in payload
        assert list(cache.iterdir()) == [cache / CELLS_FILE]

    def test_failed_row_counts_as_miss(self, tmp_path):
        from repro.experiments import _REGISTRY

        flaky = tmp_path / "fail-once"
        flaky.write_text("")

        @experiment("X-FLAKY")
        def _flaky() -> ExperimentResult:
            if flaky.exists():
                flaky.unlink()
                raise RuntimeError("first run fails")
            return ExperimentResult("X-FLAKY", "flaky", ["ok"], [[1]])

        try:
            cache = tmp_path / "cache"
            failed, _ = _run(Cell.make("X-FLAKY"), cache)
            assert failed.status == FAILED
            rerun, report = _run(Cell.make("X-FLAKY"), cache)
        finally:
            _REGISTRY.pop("X-FLAKY", None)
        assert rerun.status == OK  # a FAILED row is rerun, never served
        assert (report.cache_hits, report.cache_misses) == (0, 1)
        (row,) = _rows(cache)
        assert (row.status, row.attempts, row.error) == (DONE, 2, None)


class TestTransportKeying:
    """Transport configuration is part of a cell's identity: a lossy run
    must never be served an InProc entry (or vice versa), and any change
    to the fault plan or its seed must change the key."""

    def test_transport_config_distinguishes_cells(self):
        from repro.net import TransportConfig, chaos_faults

        inproc = _cell(transport=TransportConfig.inproc())
        lossy = _cell(transport=TransportConfig.lossy(chaos_faults(), seed=3))
        assert cell_key(_cell()) != cell_key(inproc)
        assert cell_key(inproc) != cell_key(lossy)

    def test_fault_plan_parameters_change_the_key(self):
        from repro.net import TransportConfig, chaos_faults

        keys = {
            cell_key(_cell(transport=TransportConfig.lossy(plan, seed=seed)))
            for plan, seed in [
                (chaos_faults(drop=0.1), 3),
                (chaos_faults(drop=0.2), 3),
                (chaos_faults(drop=0.1), 4),
            ]
        }
        assert len(keys) == 3

    def test_equal_configs_share_a_key(self):
        from repro.net import TransportConfig, chaos_faults

        first = _cell(transport=TransportConfig.lossy(chaos_faults(), seed=1))
        second = _cell(transport=TransportConfig.lossy(chaos_faults(), seed=1))
        assert cell_key(first) == cell_key(second)

    def test_direct_and_constructor_built_lossy_share_a_key(self):
        from repro.net import TransportConfig

        direct = _cell(transport=TransportConfig(kind="lossy"))
        built = _cell(transport=TransportConfig.lossy())
        assert cell_key(direct) == cell_key(built)

    def test_only_the_lossy_key_names_the_fate_stream(self, monkeypatch):
        # a lossy result computed under another fate stream must not be
        # served as a hit; the other kinds draw no fates, so their keys
        # (and every entry persisted under them) stay where they were.
        import dataclasses

        from repro.net import TransportConfig, chaos_faults, config, faults

        configs = {
            "inproc": TransportConfig.inproc(),
            "asyncio": TransportConfig.asyncio(),
            "lossy": TransportConfig.lossy(chaos_faults(), seed=3),
        }
        assert config.FATE_STREAM is faults.FATE_STREAM

        def keys():
            return {
                kind: cell_key(_cell(transport=transport))
                for kind, transport in configs.items()
            }

        before = keys()
        monkeypatch.setattr(config, "FATE_STREAM", faults.FATE_STREAM + 1)
        after = keys()
        assert after["lossy"] != before["lossy"]
        assert after["inproc"] == before["inproc"]
        assert after["asyncio"] == before["asyncio"]
        for kind in ("inproc", "asyncio"):
            payload = configs[kind].cache_payload()
            assert payload == dataclasses.asdict(configs[kind])

    def test_non_json_cell_is_refused(self, tmp_path):
        # A transport config keys a cell but does not survive the JSON
        # round trip a table row needs: the run refuses it up front.
        from repro.net import TransportConfig, chaos_faults

        lossy_cell = _cell(
            transport=TransportConfig.lossy(chaos_faults(), seed=3)
        )
        with pytest.raises(InvalidConfig):
            run_cells([lossy_cell], cache=tmp_path / "cache")
        assert _rows(tmp_path / "cache") == []
