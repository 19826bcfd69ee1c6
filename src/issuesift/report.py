"""CSV and plain-text output for classified results and omitted issues.

Both CSV files are RFC 4180: UTF-8, LF line endings, fields quoted only when
they contain a delimiter or quote. Identical inputs produce byte-identical
files, which golden tests rely on.
"""

from __future__ import annotations

import csv
import os

from .errors import IoFailure
from .pipeline import OMISSION_REASONS, ClassifiedRecord, OmittedIssue, RunSummary

RESULT_COLUMNS = ClassifiedRecord._fields[:-1]
OMITTED_COLUMNS = OmittedIssue._fields


def _write_tables(*tables) -> list[int]:
    """Write each ``(path, header, rows)`` table; returns each one's data-row count.

    Rows go straight to disk: no copy of a whole CSV is built in memory. Regular or
    new files are written through new, randomly named temp files beside them, which
    replace them only once every table is in, so a failed write leaves all old files
    as they were. Anything else, such as /dev/stdout, is written in place and cannot
    be rolled back.
    """
    counts, moves = [], []  # moves: (path, temp, target) still to os.replace
    try:
        for path, header, rows in tables:
            in_place = os.path.exists(path) and not os.path.isfile(path)
            target = os.path.realpath(path)
            if any(target == moved for _, _, moved in moves):
                raise ValueError(f"two tables would replace {target}")
            temp = path if in_place else os.path.join(os.path.dirname(target), f".{os.urandom(8).hex()}.tmp")
            count = 0
            # "x" makes the temp file or fails: whatever is at its name already,
            # a planted symlink say, is neither written through nor removed.
            with open(temp, "w" if in_place else "x", encoding="utf-8", newline="") as handle:
                if not in_place:
                    moves.append((path, temp, target))
                writer = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
                writer.writerow(header)
                for count, row in enumerate(rows, 1):
                    writer.writerow(row)
            counts.append(count)
        for path, temp, target in moves:
            os.replace(temp, target)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    finally:
        for _, temp, _ in moves:
            if os.path.exists(temp):
                os.remove(temp)
    return counts


def _results_table(records, path, include_confidence):
    if include_confidence:
        return path, ClassifiedRecord._fields, ((*r[:-1], f"{r.confidence:.4f}") for r in records)
    return path, RESULT_COLUMNS, (r[:-1] for r in records)


def write_results(records: list[ClassifiedRecord], path, include_confidence: bool = False) -> int:
    """Write the classified-results CSV; returns data rows written.

    Callers pass records already sorted by (id, comment_id, line_index).
    """
    return _write_tables(_results_table(records, path, include_confidence))[0]


def write_omitted(omitted: list[OmittedIssue], path) -> int:
    """Write the omitted-issues CSV; returns data rows written."""
    return _write_tables((path, OMITTED_COLUMNS, omitted))[0]


def write_report(records: list[ClassifiedRecord], omitted: list[OmittedIssue], results_path,
                 omitted_path, include_confidence: bool = False) -> tuple[int, int]:
    """Write the files of ``write_results`` and ``write_omitted`` as one commit: both are
    written before either replaces its old file. Returns the data rows of each. Two paths
    that would both replace one file raise ValueError and leave that file as it was."""
    return tuple(_write_tables(_results_table(records, results_path, include_confidence),
                               (omitted_path, OMITTED_COLUMNS, omitted)))


def render_summary(summary: RunSummary) -> str:
    """Human-readable run totals: categories in taxonomy order, then reasons."""
    lines = [
        f"issues searched    {summary.issues_searched}",
        f"issues classified  {summary.issues_classified}",
        f"issues omitted     {summary.issues_omitted}",
        "",
        "lines by category",
    ]
    width = max((len(name) for name in summary.per_category), default=0)
    for name, count in summary.per_category.items():
        lines.append(f"  {name.ljust(width)}  {count}")
    lines.append("")
    lines.append("omissions by reason")
    reason_width = max(len(r) for r in OMISSION_REASONS)
    for reason in OMISSION_REASONS:
        lines.append(f"  {reason.ljust(reason_width)}  {summary.per_reason.get(reason, 0)}")
    return "\n".join(lines)
