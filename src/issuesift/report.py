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

RESULT_COLUMNS = ("id", "html_url", "api_url", "comment_id", "line_index", "comment_line", "category")
OMITTED_COLUMNS = ("id", "html_url", "api_url", "reason")


def _write_csv(path, header, rows) -> int:
    # Rows go straight to disk: no copy of the whole CSV is built in memory. A
    # regular or new file is written through a temp file beside it that
    # replaces it once every row is in, so a failed write leaves the old file
    # as it was; anything else, such as /dev/stdout, is written in place.
    in_place = os.path.exists(path) and not os.path.isfile(path)
    target = os.path.realpath(path)
    head, name = os.path.split(target)
    temp = path if in_place else os.path.join(head, f".{name}.{os.getpid()}.tmp")
    count = 0
    try:
        with open(temp, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
            writer.writerow(header)
            for row in rows:
                writer.writerow(row)
                count += 1
        if not in_place:
            os.replace(temp, target)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    finally:
        if not in_place and os.path.exists(temp):
            os.remove(temp)
    return count


def write_results(
    records: list[ClassifiedRecord],
    path,
    include_confidence: bool = False,
) -> int:
    """Write the classified-results CSV; returns data rows written.

    Callers pass records already sorted by (id, comment_id, line_index).
    """
    header = RESULT_COLUMNS + ("confidence",) if include_confidence else RESULT_COLUMNS
    def rows():
        for r in records:
            row = [
                r.issue.id,
                r.issue.html_url,
                r.issue.api_url,
                r.comment_id,
                r.line_index,
                r.comment_line,
                r.category,
            ]
            if include_confidence:
                row.append(f"{r.confidence:.4f}")
            yield row
    return _write_csv(path, header, rows())


def write_omitted(omitted: list[OmittedIssue], path) -> int:
    """Write the omitted-issues CSV; returns data rows written."""
    rows = (
        [o.issue.id, o.issue.html_url, o.issue.api_url, o.reason]
        for o in omitted
    )
    return _write_csv(path, OMITTED_COLUMNS, rows)


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
