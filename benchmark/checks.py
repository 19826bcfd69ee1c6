"""Output checks for one repetition, against the generated inputs.

The checks read only the two CSVs and the run summary a repetition reports,
and compare them with what the benchmark generated, so they hold for any
version of the program that keeps the documented outputs.
"""

from __future__ import annotations

import csv
import hashlib
import io

from inputs import FORBID_CATEGORY, OMIT_CATEGORY, QUERY, Workload

RESULT_HEADER = ["id", "html_url", "api_url", "comment_id", "line_index", "comment_line",
                 "category", "confidence"]
OMITTED_HEADER = ["id", "html_url", "api_url", "reason"]
REASONS = {"no_strict_match", "no_discussion", "fetch_failed", "category_filtered"}
DESIGNED_REASON = {"empty": "no_discussion", "loose": "no_strict_match"}


def digest(results: bytes, omitted: bytes) -> str:
    return hashlib.sha256(results + b"\0" + omitted).hexdigest()


def _rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))


def check(workload: Workload, results: bytes, omitted: bytes, summary: dict) -> tuple[list[str], int]:
    """Problems found, and the number of issues omitted as fetch_failed."""
    problems: list[str] = []
    issues = workload.by_id()
    result_rows, omitted_rows = _rows(results), _rows(omitted)
    if not result_rows or result_rows[0] != RESULT_HEADER:
        return [f"results.csv header is {result_rows[:1]}"], 0
    if not omitted_rows or omitted_rows[0] != OMITTED_HEADER:
        return [f"omitted.csv header is {omitted_rows[:1]}"], 0
    result_rows, omitted_rows = result_rows[1:], omitted_rows[1:]

    # Conservation: every searched issue once, either classified or omitted.
    searched = len(workload.issues)
    omitted_ids = [int(row[0]) for row in omitted_rows]
    reason_of = {int(row[0]): row[3] for row in omitted_rows}
    result_ids = {int(row[0]) for row in result_rows}
    if summary["issues_searched"] != searched:
        problems.append(f"searched {summary['issues_searched']} issues, generated {searched}")
    if summary["issues_classified"] + len(omitted_rows) != searched:
        problems.append(f"classified {summary['issues_classified']} + omitted {len(omitted_rows)} "
                        f"!= searched {searched}")
    if len(set(omitted_ids)) != len(omitted_ids) or omitted_ids != sorted(omitted_ids):
        problems.append("omitted.csv ids are not unique and ascending")
    if result_ids & set(omitted_ids):
        problems.append(f"{len(result_ids & set(omitted_ids))} ids are both classified and omitted")
    if len(result_ids) > summary["issues_classified"]:
        problems.append(f"{len(result_ids)} ids in results.csv > {summary['issues_classified']} classified")
    unknown = (result_ids | set(omitted_ids)) - issues.keys()
    if unknown:
        problems.append(f"{len(unknown)} ids were never generated, e.g. {sorted(unknown)[:3]}")
    if set(reason_of.values()) - REASONS:
        problems.append(f"unknown omission reasons {sorted(set(reason_of.values()) - REASONS)}")

    # Designed omissions, and strict-match soundness both ways.
    for issue in workload.issues:
        expected = DESIGNED_REASON.get(issue.kind)
        if expected and reason_of.get(issue.id) != expected:
            problems.append(f"issue {issue.id} ({issue.kind}) omitted as {reason_of.get(issue.id)}, "
                            f"expected {expected}")
    for issue_id in result_ids & issues.keys():
        if QUERY not in issues[issue_id].text():
            problems.append(f"issue {issue_id} kept without containing {QUERY!r}")
    for issue_id, reason in reason_of.items():
        if reason == "no_strict_match" and issue_id in issues and QUERY in issues[issue_id].text():
            problems.append(f"issue {issue_id} contains {QUERY!r} but was omitted as no_strict_match")

    if workload.name == "bulk-replay":
        missing = REASONS - {"fetch_failed"} - set(reason_of.values())
        if missing:
            problems.append(f"omission reasons {sorted(missing)} never occurred")

    # Row shape: sorted unique keys, real comments, filtered categories gone.
    owner = {c["id"]: issue.id for issue in workload.issues for c in issue.comments}
    keys = []
    for row in result_rows:
        key = (int(row[0]), int(row[3]), int(row[4]))
        keys.append(key)
        if owner.get(key[1]) != key[0]:
            problems.append(f"row {key} names a comment issue {key[0]} does not have")
        if row[6] in (OMIT_CATEGORY, FORBID_CATEGORY):
            problems.append(f"row {key} has filtered category {row[6]!r}")
        if not row[5] or not 0.0 <= float(row[7]) <= 1.0:
            problems.append(f"row {key} has an empty line or a confidence outside [0, 1]")
        if len(problems) > 20:
            break
    if keys != sorted(set(keys)):
        problems.append("results.csv rows are not unique and sorted by (id, comment_id, line_index)")
    return problems[:20], sum(1 for reason in reason_of.values() if reason == "fetch_failed")
