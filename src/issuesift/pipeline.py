"""Orchestrates search -> fetch -> filter -> preprocess -> classify.

GitHub's search ignores punctuation, so a query like "tf.function" also hits
issues that merely say "tf function"; the strict-match refilter drops those.
Issues without discussion, failed fetches, and category-filtered issues land
in the omitted stream with a reason, so every searched issue is accounted for
exactly once.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .classifier import ModelFile, classify_lines
from .errors import GitHubError, InvalidToken, UnknownCategory
from .github_client import IssueRef, RawComment, Session, check_search
from .text_prep import PrepConfig, preprocess_comment

OMISSION_REASONS = ("no_strict_match", "no_discussion", "fetch_failed", "category_filtered")
STRICT_SCOPES = ("issue", "comment")


@dataclass(frozen=True)
class QuerySpec:
    """One full user request: query string, limit, sort, and filters."""

    query: str
    limit: int = 100
    sort: str = "best-match"
    order: str = "desc"
    strict_match: bool = True
    strict_scope: str = "issue"
    omit_categories: frozenset[str] = frozenset()
    require_categories: frozenset[str] = frozenset()
    forbid_categories: frozenset[str] = frozenset()
    min_comments: int = 1

    def __post_init__(self):
        # Each message starts with the name of the offending field.
        check_search(self.query, self.limit, self.sort, self.order)
        if self.strict_scope not in STRICT_SCOPES:
            raise ValueError(f"strict_scope must be 'issue' or 'comment', got {self.strict_scope!r}")
        if type(self.min_comments) is not int:
            raise ValueError(f"min_comments must be an integer, got {self.min_comments!r}")
        if self.min_comments < 0:
            raise ValueError(f"min_comments must be >= 0, got {self.min_comments}")
        if self.require_categories & self.forbid_categories:
            overlap = sorted(self.require_categories & self.forbid_categories)
            raise ValueError(f"require_categories and forbid_categories overlap: {overlap}")


class OmittedIssue(NamedTuple):
    """An issue excluded from classification and why: its omitted-CSV row, field for field.

    ``reason`` is one of ``OMISSION_REASONS``.
    """

    id: int
    html_url: str
    api_url: str
    reason: str


class ClassifiedRecord(NamedTuple):
    """One classified comment line of a kept issue: its results-CSV row, field for field.

    The fields are the results columns in order, so the first seven are the
    row and ``confidence`` is the optional last column. The issue is carried
    only as its three leading columns.
    """

    id: int
    html_url: str
    api_url: str
    comment_id: int
    line_index: int
    comment_line: str
    category: str
    confidence: float


@dataclass
class RunSummary:
    """Counts for one pipeline run; categories follow taxonomy order."""

    issues_searched: int
    issues_classified: int
    issues_omitted: int
    per_category: dict[str, int]
    per_reason: dict[str, int]

    def __post_init__(self):
        if self.issues_classified + self.issues_omitted != self.issues_searched:
            raise ValueError("classified + omitted must equal searched")


def strict_match(
    issue: IssueRef,
    comments: list[RawComment],
    query: str,
    scope: str = "issue",
) -> tuple[list[RawComment], bool]:
    """Case-insensitive verbatim-substring refilter, punctuation intact.

    issue scope: if any comment body or the issue title/body contains the
    query, the whole comment list is kept. comment scope: only matching
    comments are kept, and the issue matches iff any survive.
    """
    if not query:
        raise ValueError("query must be non-empty")
    needle = query.lower()
    if scope == "issue":
        matched = any(needle in c.body.lower() for c in comments)
        matched = matched or needle in issue.title.lower() or needle in issue.body.lower()
        return (list(comments) if matched else [], matched)
    if scope == "comment":
        kept = [c for c in comments if needle in c.body.lower()]
        return kept, bool(kept)
    raise ValueError(f"scope must be 'issue' or 'comment', got {scope!r}")


def apply_category_filters(
    records: list[ClassifiedRecord],
    spec: QuerySpec,
) -> list[ClassifiedRecord] | None:
    """Judge one issue by its classified rows: the rows kept, or None if it is category_filtered.

    An issue survives iff every required category appears on some line and no
    line carries a forbidden category. On a surviving issue, rows whose
    category is in omit_categories are dropped; an issue left with zero rows
    still counts as classified.
    """
    categories = {r.category for r in records}
    if spec.require_categories - categories or categories & spec.forbid_categories:
        return None
    return [r for r in records if r.category not in spec.omit_categories]


def run(
    spec: QuerySpec,
    session: Session,
    model: ModelFile,
    prep: PrepConfig,
) -> tuple[list[ClassifiedRecord], list[OmittedIssue], RunSummary]:
    """Execute the full pipeline for one query.

    Each issue is filtered, preprocessed and classified as soon as its thread
    arrives, in search order, while later threads are still being fetched.
    Per-issue fetch failures degrade to omissions instead of aborting; search
    or authentication failures propagate, and stop the fetches not yet
    started. Output ordering is imposed once every issue is in, so results
    are deterministic regardless of completion order.
    """
    for name in sorted(spec.omit_categories | spec.require_categories | spec.forbid_categories):
        if name not in model.taxonomy:
            raise UnknownCategory(
                f"unknown category {name!r}; the model knows: {', '.join(model.taxonomy)}"
            )

    issues = session.search_issues(spec.query, spec.limit, spec.sort, spec.order)

    def fetch_one(issue: IssueRef):
        try:
            return issue, session.fetch_comments(issue)
        except InvalidToken:
            raise  # a rejected credential fails every issue alike
        except GitHubError:
            return issue, None

    records: list[ClassifiedRecord] = []
    omitted: list[OmittedIssue] = []
    with ThreadPoolExecutor(max_workers=session.parallelism) as pool:
        # map yields in search order, so the first failing issue is the one
        # that raises; leaving the loop cancels the fetches not yet started.
        for issue, comments in pool.map(fetch_one, issues):
            issue_id, html_url, api_url = issue.id, issue.html_url, issue.api_url
            if comments is None:
                omitted.append(OmittedIssue(issue_id, html_url, api_url, "fetch_failed"))
                continue
            if len(comments) < spec.min_comments:
                omitted.append(OmittedIssue(issue_id, html_url, api_url, "no_discussion"))
                continue
            if spec.strict_match:
                comments, matched = strict_match(issue, comments, spec.query, spec.strict_scope)
                if not matched:
                    omitted.append(OmittedIssue(issue_id, html_url, api_url, "no_strict_match"))
                    continue
            lines = [line for comment in comments for line in preprocess_comment(comment, prep)]
            rows = [
                ClassifiedRecord(issue_id, html_url, api_url, line.comment_id, line.line_index,
                                 line.rendered, category, confidence)
                for line, (category, confidence) in classify_lines(model, lines)
            ]
            kept = apply_category_filters(rows, spec)
            if kept is None:
                omitted.append(OmittedIssue(issue_id, html_url, api_url, "category_filtered"))
                continue
            records.extend(kept)

    records.sort(key=itemgetter(0, 3, 4))  # (id, comment_id, line_index); ties keep thread order
    omitted.sort(key=itemgetter(0))

    per_category = {name: 0 for name in model.taxonomy}
    for record in records:
        per_category[record.category] += 1
    per_reason = {reason: 0 for reason in OMISSION_REASONS}
    for omission in omitted:
        per_reason[omission.reason] += 1
    summary = RunSummary(
        issues_searched=len(issues),
        issues_classified=len(issues) - len(omitted),
        issues_omitted=len(omitted),
        per_category=per_category,
        per_reason=per_reason,
    )
    return records, omitted, summary
