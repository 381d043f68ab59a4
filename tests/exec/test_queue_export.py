"""The exporter: four formats, escaping, queue-level merge, CLI flags."""

import pytest

from repro.errors import NoMergeableResults, QueueError
from repro.exec.grid import expand_experiment
from repro.exec.queue import (
    QueueWorker,
    SqliteQueue,
    enqueue_cells,
    export_queue,
    merged_queue_results,
    render_csv,
    render_export,
    render_latex,
    render_markdown,
)
from repro.experiments import ExperimentResult, run_experiment

SWEEP = {"k": 3, "f": 1}


@pytest.fixture(scope="module")
def result():
    return run_experiment("TH1", **SWEEP)


@pytest.fixture
def drained(tmp_path):
    backend = SqliteQueue(tmp_path / "q.db")
    enqueue_cells(backend, expand_experiment("TH1", SWEEP))
    QueueWorker(backend, worker_id="w1").run()
    yield backend
    backend.close()


class TestFormats:
    def test_table_is_byte_identical_to_render(self, result):
        assert render_export(result, "table") == result.render()

    def test_csv_is_headers_plus_rows(self, result):
        lines = render_csv(result).splitlines()
        assert lines[0] == ",".join(str(h) for h in result.headers)
        assert len(lines) == 1 + len(result.rows)
        assert lines[1].split(",")[0] == str(result.rows[0][0])

    def test_markdown_pipe_table(self, result):
        text = render_markdown(result)
        lines = text.splitlines()
        assert lines[0] == f"**{result.title}**"
        assert lines[2].startswith("| ")
        assert set(lines[3].replace("|", "").split()) == {"---"}
        # header + separator + one line per data row
        assert len([li for li in lines if li.startswith("| ")]) == 2 + len(
            result.rows
        )
        assert lines[-1].count("|") == len(result.headers) + 1

    def test_markdown_escapes_pipes(self):
        tricky = ExperimentResult("E", "t", ["a|b"], [["x|y"]])
        text = render_markdown(tricky)
        assert "a\\|b" in text and "x\\|y" in text

    def test_latex_tabular(self, result):
        text = render_latex(result)
        assert text.splitlines()[0] == f"% {result.title}"
        assert "\\begin{tabular}{" + "l" * len(result.headers) + "}" in text
        assert text.rstrip().endswith("\\end{tabular}") or "%" in text
        assert text.count("\\\\") == 1 + len(result.rows)

    def test_latex_escapes_specials(self):
        tricky = ExperimentResult("E", "t", ["a_b"], [["50%", "x&y"]])
        text = render_latex(tricky)
        assert r"a\_b" in text and r"50\%" in text and r"x\&y" in text

    def test_unknown_format_is_typed(self, result):
        with pytest.raises(QueueError):
            render_export(result, "yaml")


class TestQueueExport:
    def test_drained_queue_exports_serial_table(self, drained):
        serial = run_experiment("TH1", **SWEEP)
        assert export_queue(drained) == serial.render()

    def test_undrained_queue_refuses_without_partial(self, tmp_path):
        backend = SqliteQueue(tmp_path / "open.db")
        try:
            enqueue_cells(backend, expand_experiment("TH1", SWEEP))
            with pytest.raises(QueueError):
                export_queue(backend)
        finally:
            backend.close()

    def test_partial_exports_the_done_subset(self, tmp_path):
        backend = SqliteQueue(tmp_path / "part.db")
        try:
            enqueue_cells(backend, expand_experiment("TH1", SWEEP))
            QueueWorker(backend, worker_id="w1").run(max_cells=2)
            text = export_queue(backend, partial=True)
            assert len(text.splitlines()) < len(
                run_experiment("TH1", **SWEEP).render().splitlines()
            )
        finally:
            backend.close()

    def test_partial_with_nothing_done_raises_typed(self, tmp_path):
        backend = SqliteQueue(tmp_path / "none.db")
        try:
            enqueue_cells(backend, expand_experiment("TH1", SWEEP))
            with pytest.raises(NoMergeableResults):
                export_queue(backend, partial=True)
        finally:
            backend.close()

    def test_empty_queue_raises_typed(self, tmp_path):
        backend = SqliteQueue(tmp_path / "empty.db")
        try:
            with pytest.raises(QueueError):
                export_queue(backend)
        finally:
            backend.close()

    def test_multi_experiment_queue_groups_per_experiment(self, tmp_path):
        backend = SqliteQueue(tmp_path / "multi.db")
        try:
            enqueue_cells(backend, expand_experiment("TH1", SWEEP))
            enqueue_cells(
                backend, expand_experiment("TH2", {"k_values": (1, 2)})
            )
            QueueWorker(backend, worker_id="w1").run()
            results = merged_queue_results(backend)
            assert [r.experiment_id for r in results] == ["TH1", "TH2"]
            text = export_queue(backend)
            assert "\n\n" in text
        finally:
            backend.close()


class TestCLIExportFlags:
    def test_sweep_default_export_unchanged(self, capsys):
        from repro.cli import main

        assert main(["sweep", "-k", "3", "-f", "1", "--no-cache"]) == 0
        table = capsys.readouterr().out
        assert main(
            ["sweep", "-k", "3", "-f", "1", "--no-cache",
             "--export", "table"]
        ) == 0
        assert capsys.readouterr().out == table

    def test_sweep_export_csv(self, capsys):
        from repro.cli import main

        assert main(
            ["sweep", "-k", "3", "-f", "1", "--no-cache", "--export", "csv"]
        ) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("n,")

    def test_queue_export_matches_sweep_export(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "q.db")
        main(["queue", "create", "--db", db, "TH1",
              "--params", '{"k": 3, "f": 1}'])
        main(["queue", "work", "--db", db])
        capsys.readouterr()
        for fmt in ("table", "csv", "md", "latex"):
            assert main(["sweep", "-k", "3", "-f", "1", "--no-cache",
                         "--export", fmt]) == 0
            local = capsys.readouterr().out
            assert main(["queue", "export", "--db", db,
                         "--export", fmt]) == 0
            assert capsys.readouterr().out == local

    def test_queue_export_out_writes_a_file(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "q.db")
        main(["queue", "create", "--db", db, "TH1",
              "--params", '{"k": 3, "f": 1}'])
        main(["queue", "work", "--db", db])
        target = tmp_path / "table.md"
        assert main(["queue", "export", "--db", db, "--export", "md",
                     "--out", str(target)]) == 0
        assert target.read_text().startswith("**")
