"""Result export: one ExperimentResult, four formats.

``table`` is byte-identical to :meth:`ExperimentResult.render` — the
format every CLI command has always printed — so a drained queue's
``repro queue export`` output can be ``cmp``-ed against a serial
``repro sweep`` run.  ``csv`` is data-only (headers + rows, for
spreadsheets and pandas), ``md`` is a GitHub-flavored pipe table, and
``latex`` is a ready-to-``\\input`` tabular.  Cells are stringified
exactly the way the ASCII renderer does, so every format agrees on the
content.

The same functions back the ``--export`` flag of ``repro sweep`` /
``repro experiment`` — local runs and distributed queues share one
exporter.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import QueueError
from repro.exec.queue.backend import CLAIMED, DONE, OPEN
from repro.exec.queue.sqlite import SqliteQueue

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.experiments import ExperimentResult

#: formats accepted by :func:`render_export` and the CLI flags.
EXPORT_FORMATS = ("table", "csv", "md", "latex")


def result_cells(
    result: "ExperimentResult",
) -> "Tuple[List[str], List[List[str]]]":
    """Headers and rows, stringified the way the ASCII renderer does."""
    headers = [str(header) for header in result.headers]
    rows = [[str(cell) for cell in row] for row in result.rows]
    return headers, rows


def render_csv(result: "ExperimentResult") -> str:
    """Data-only CSV: one header row, then the table rows."""
    headers, rows = result_cells(result)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def render_markdown(result: "ExperimentResult") -> str:
    """A GitHub-flavored pipe table, title bolded above, notes below."""
    headers, rows = result_cells(result)
    escape = [
        [cell.replace("|", "\\|") for cell in row]
        for row in [headers] + rows
    ]
    lines = []
    if result.title:
        lines.append(f"**{result.title}**")
        lines.append("")
    lines.append("| " + " | ".join(escape[0]) + " |")
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in escape[1:]:
        lines.append("| " + " | ".join(row) + " |")
    if result.notes:
        lines.append("")
        lines.append(result.notes)
    return "\n".join(lines)


_LATEX_SPECIALS = {
    "\\": r"\textbackslash{}",
    "&": r"\&",
    "%": r"\%",
    "$": r"\$",
    "#": r"\#",
    "_": r"\_",
    "{": r"\{",
    "}": r"\}",
    "~": r"\textasciitilde{}",
    "^": r"\textasciicircum{}",
}


def _latex_escape(text: str) -> str:
    return "".join(_LATEX_SPECIALS.get(ch, ch) for ch in text)


def render_latex(result: "ExperimentResult") -> str:
    """A plain ``tabular`` (left-aligned columns, hline rules)."""
    headers, rows = result_cells(result)
    lines = []
    if result.title:
        lines.append(f"% {result.title}")
    lines.append(r"\begin{tabular}{" + "l" * len(headers) + "}")
    lines.append(r"\hline")
    lines.append(
        " & ".join(_latex_escape(header) for header in headers) + r" \\"
    )
    lines.append(r"\hline")
    for row in rows:
        lines.append(" & ".join(_latex_escape(cell) for cell in row) + r" \\")
    lines.append(r"\hline")
    lines.append(r"\end{tabular}")
    if result.notes:
        for note_line in result.notes.splitlines():
            lines.append(f"% {note_line}")
    return "\n".join(lines)


def render_export(result: "ExperimentResult", fmt: str) -> str:
    """One result in one format (see :data:`EXPORT_FORMATS`)."""
    if fmt == "table":
        return result.render()
    if fmt == "csv":
        return render_csv(result)
    if fmt == "md":
        return render_markdown(result)
    if fmt == "latex":
        return render_latex(result)
    raise QueueError(
        f"unknown export format {fmt!r};"
        f" known: {', '.join(EXPORT_FORMATS)}"
    )


# ---------------------------------------------------------------------------
# Queue-level export


def merged_queue_results(
    backend: SqliteQueue, partial: bool = False
) -> "List[ExperimentResult]":
    """Merge a drained queue back into per-experiment result tables.

    Rows merge in enqueue (cell_index) order — the exact order the grid
    expanded in — so the merged rendering is byte-identical to the
    serial engine's.  A queue with OPEN/CLAIMED cells refuses to export
    (the table would silently miss rows); ``partial=True`` exports
    whatever is DONE, mirroring the engine's partial-failure merge.
    """
    from repro.exec.engine import merge_results
    from repro.experiments import ExperimentResult

    rows = backend.rows()
    if not rows:
        raise QueueError("the queue is empty; nothing to export")
    unfinished = [r for r in rows if r.status in (OPEN, CLAIMED)]
    if unfinished and not partial:
        raise QueueError(
            f"{len(unfinished)} cell(s) still open or claimed; drain the"
            " queue (repro queue work) or export --partial"
        )
    order: "List[str]" = []
    grouped: "Dict[str, List[Optional[ExperimentResult]]]" = {}
    for row in rows:
        if row.experiment_id not in grouped:
            grouped[row.experiment_id] = []
            order.append(row.experiment_id)
        archive = row.result_payload()
        grouped[row.experiment_id].append(
            ExperimentResult.from_dict(archive["result"])
            if row.status == DONE and archive is not None
            else None
        )
    merged = []
    for experiment_id in order:
        merged.append(merge_results(grouped[experiment_id]))
    return merged


def export_queue(
    backend: SqliteQueue, fmt: str = "table", partial: bool = False
) -> str:
    """Every experiment in the queue, rendered in ``fmt`` (tables are
    separated by a blank line, matching ``repro experiment --all``)."""
    results = merged_queue_results(backend, partial=partial)
    return "\n\n".join(render_export(result, fmt) for result in results)
