"""Builders for recorded-response fixture directories used in tests."""

from __future__ import annotations

import json
from pathlib import Path

from issuesift.github_client import GITHUB_API, PAGE_SIZE

DEFAULT_CREATED = "2021-01-01T00:00:00Z"
DEFAULT_UPDATED = "2021-01-02T00:00:00Z"


def make_issue(
    issue_id: int,
    number: int,
    repo: str = "octo/widgets",
    title: str = "",
    body: str = "",
    comments: int = 0,
    created: str = DEFAULT_CREATED,
    updated: str = DEFAULT_UPDATED,
) -> dict:
    """One issue item as the search endpoint returns it."""
    return {
        "id": issue_id,
        "number": number,
        "title": title,
        "body": body,
        "html_url": f"https://github.com/{repo}/issues/{number}",
        "url": f"{GITHUB_API}/repos/{repo}/issues/{number}",
        "comments_url": f"{GITHUB_API}/repos/{repo}/issues/{number}/comments",
        "comments": comments,
        "created_at": created,
        "updated_at": updated,
        "repository_url": f"{GITHUB_API}/repos/{repo}",
    }


def make_comment(
    comment_id: int,
    body: str,
    author: str = "octocat",
    created: str = DEFAULT_CREATED,
) -> dict:
    """One comment item as the comments endpoint returns it."""
    return {
        "id": comment_id,
        "user": {"login": author},
        "body": body,
        "created_at": created,
    }


class FixtureWriter:
    """Accumulates recorded responses, then writes a format-2 fixture.

    Each reply is one ``NNNN.body.json`` file holding its payload; its URL,
    status and headers go in its ``manifest.json`` entry.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.entries: list[dict] = []

    def add(self, url: str, payload, status: int = 200, headers: dict | None = None) -> None:
        body_name = f"{len(self.entries):04d}.body.json"
        (self.directory / body_name).write_text(
            json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=1), encoding="utf-8"
        )
        self.entries.append({"url": url, "body": body_name, "status": status, "headers": headers or {}})

    def add_search_pages(self, query: str, issues: list[dict], sort: str | None = None,
                         order: str | None = None) -> None:
        """Search result pages, plus the trailing empty page a full page implies."""
        pages = [issues[i : i + PAGE_SIZE] for i in range(0, len(issues), PAGE_SIZE)] or [[]]
        if len(pages[-1]) == PAGE_SIZE:
            pages.append([])
        for page_number, items in enumerate(pages, start=1):
            params = f"q={query}&per_page={PAGE_SIZE}&page={page_number}"
            if sort and sort != "best-match":
                params += f"&sort={sort}&order={order or 'desc'}"
            self.add(
                f"{GITHUB_API}/search/issues?{params}",
                {"total_count": len(issues), "incomplete_results": False, "items": items},
            )

    def add_comment_pages(self, issue: dict, comments: list[dict]) -> None:
        pages = [comments[i : i + PAGE_SIZE] for i in range(0, len(comments), PAGE_SIZE)] or [[]]
        if len(pages[-1]) == PAGE_SIZE:
            pages.append([])
        for page_number, items in enumerate(pages, start=1):
            self.add(
                f"{issue['comments_url']}?per_page={PAGE_SIZE}&page={page_number}", items
            )

    def write_manifest(self) -> Path:
        (self.directory / "manifest.json").write_text(
            json.dumps({"fixture_format": 2, "entries": self.entries}, indent=1),
            encoding="utf-8",
        )
        return self.directory


def write_fixture(
    directory: Path,
    query: str,
    issues: list[dict],
    comments_by_id: dict[int, list[dict]] | None = None,
    sort: str | None = None,
    order: str | None = None,
) -> Path:
    """Convenience wrapper: one search recording plus comment pages per issue."""
    writer = FixtureWriter(directory)
    writer.add_search_pages(query, issues, sort=sort, order=order)
    comments_by_id = comments_by_id or {}
    for issue in issues:
        if issue["comments"] > 0:
            writer.add_comment_pages(issue, comments_by_id.get(issue["id"], []))
    return writer.write_manifest()
