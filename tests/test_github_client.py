import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from urllib.parse import quote, quote_plus, urlsplit

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ClockedTransport, FakeClock, ScriptedTransport, reply
from fixtureutil import FixtureWriter, make_comment, make_issue, write_fixture

import issuesift
from issuesift.errors import (
    FixtureNotFound,
    GitHubError,
    InvalidToken,
    IssueGone,
    NetworkFailure,
    QueryRejected,
    RateLimited,
)
from issuesift.github_client import (
    GITHUB_API,
    LIVE_PARALLELISM,
    MAX_HEADER_WAIT,
    PAGE_SIZE,
    REQUEST_TIMEOUT,
    SECONDARY_LIMIT_WAIT,
    LiveTransport,
    RateGate,
    ReplayTransport,
    TransportReply,
    IssueRef,
    canonical_url,
    open_session,
)


def replay_session(fixture_dir, **kwargs):
    return open_session(None, mode="replay", fixture_dir=fixture_dir, **kwargs)


def three_hit_fixture(tmp_path):
    issues = [
        make_issue(10, 1, title="tf.function one", comments=0),
        make_issue(20, 2, title="tf.function two", comments=0),
        make_issue(30, 3, title="tf.function three", comments=0),
    ]
    return write_fixture(tmp_path / "fx", query="tf.function", issues=issues)


class TestOpenSession:
    def test_missing_fixture_dir(self, tmp_path):
        with pytest.raises(FixtureNotFound):
            replay_session(tmp_path / "nowhere")

    def test_dir_without_manifest(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(FixtureNotFound):
            replay_session(empty)

    @pytest.mark.parametrize("token", [None, "t"], ids=["anonymous", "token"])
    def test_live_session_sends_no_request_when_it_opens(self, token):
        transport = ScriptedTransport([])
        open_session(token, mode="live", transport=transport)
        assert transport.requests == []

    def test_rejected_token_fails_the_first_search_page(self):
        transport = ScriptedTransport([reply(401, {"message": "Bad credentials"})])
        session = open_session("garbage", mode="live", transport=transport)
        with pytest.raises(InvalidToken, match="/search/issues"):
            session.search_issues("q", limit=5)
        assert len(transport.requests) == 1

    @pytest.mark.parametrize("token, position", [
        ("ghp_fakeSecret123\r", 18), ("ghp_fakeSecret123\n", 18), ("ghp fakeSecret123", 4),
        ("ghp_fakeSecret123\u2713", 18),
    ], ids=["cr", "lf", "space", "non-ascii"])
    def test_malformed_token_sends_nothing_and_is_not_echoed(self, monkeypatch, token, position):
        """A bearer token is an RFC 6750 b64token; anything else fails before a request or a
        sleep, naming the 1-based position of the first character it does not allow."""
        monkeypatch.setattr(time, "sleep", lambda seconds: pytest.fail(f"slept {seconds} s"))
        monkeypatch.setattr(requests.Session, "request", lambda *args, **kwargs: pytest.fail("sent a request"))
        with pytest.raises(InvalidToken, match=f"b64token syntax at character {position}:") as excinfo:
            open_session(token, mode="live")
        assert "fakeSecret" not in str(excinfo.value) and "ghp" not in str(excinfo.value)

    @pytest.mark.parametrize("token", ["t", "token", "secret-token", "ghp_benchmark", "a.b~c+d/e=="])
    def test_bearer_token_syntax_accepted(self, token):
        open_session(token, mode="live")  # opening sends nothing

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            open_session(None, mode="cached")

    def test_replay_without_fixture_dir_rejected(self):
        with pytest.raises(FixtureNotFound):
            open_session(None, mode="replay")

    @pytest.mark.parametrize("mode, slept", [("live", 1), ("replay", 0)])
    def test_default_sleep_follows_mode(self, monkeypatch, mode, slept):
        """Given no ``sleep``, a live session backs off on time.sleep; a replay does not sleep."""
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        transport = ScriptedTransport([reply(503), reply(200, {"total_count": 0, "items": []})])
        assert open_session(None, mode=mode, transport=transport).search_issues("q", limit=5) == []
        assert len(transport.requests) == 2 and len(sleeps) == slept

    def test_pool_size_follows_mode(self):
        """A replay has no network wait to overlap, so it fetches one thread at a time."""
        assert open_session(None, mode="replay", transport=ScriptedTransport([])).parallelism == 1
        assert open_session(None, mode="live", transport=ScriptedTransport([])).parallelism == 4


class TestReplayManifest:
    @staticmethod
    def fixture(tmp_path):
        return write_fixture(tmp_path / "fx", query="q", issues=[make_issue(10, 1)])

    @staticmethod
    def edit_manifest(fixture, edit):
        manifest = json.loads((fixture / "manifest.json").read_text(encoding="utf-8"))
        edit(manifest)
        (fixture / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

    @pytest.mark.parametrize("manifest", ["[]", "{", "[" * 3000 + "]" * 3000],
                             ids=["list", "truncated", "too-deep"])
    def test_manifest_not_an_object(self, tmp_path, manifest):
        fixture = self.fixture(tmp_path)
        (fixture / "manifest.json").write_text(manifest, encoding="utf-8")
        with pytest.raises(FixtureNotFound):
            replay_session(fixture)

    @pytest.mark.parametrize("edit", [
        lambda manifest: manifest.pop("fixture_format"),
        lambda manifest: manifest.update(fixture_format=1),
        lambda manifest: manifest.update(fixture_format="2"),
        lambda manifest: manifest.update(fixture_format=2.0),
    ], ids=["missing", "1", "string", "float"])
    def test_fixture_format_other_than_2(self, tmp_path, edit):
        fixture = self.fixture(tmp_path)
        self.edit_manifest(fixture, edit)
        with pytest.raises(FixtureNotFound, match="fixture_format"):
            replay_session(fixture)

    @pytest.mark.parametrize("key", ["url", "body", "status"])
    def test_entry_missing_key(self, tmp_path, key):
        fixture = self.fixture(tmp_path)
        self.edit_manifest(fixture, lambda manifest: manifest["entries"][0].pop(key))
        with pytest.raises(FixtureNotFound):
            replay_session(fixture)

    @pytest.mark.parametrize("key, value", [
        ("status", "200"), ("status", True), ("status", 200.0),
        ("headers", []), ("headers", "x"), ("body", 7), ("body", ["0000.body.json"]),
        ("body", "../outside.json"), ("body", "/0000.body.json"), ("body", "sub/0000.body.json"),
        ("body", "..\\outside.json"), ("body", ""), ("body", "."), ("body", ".."),
    ], ids=["status-string", "status-bool", "status-float", "headers-list", "headers-string",
            "body-int", "body-list", "body-parent", "body-absolute", "body-subdir",
            "body-backslash", "body-empty", "body-dot", "body-dotdot"])
    def test_entry_with_bad_value(self, tmp_path, key, value):
        """A malformed entry fails when the replay opens, before any request."""
        fixture = self.fixture(tmp_path)
        self.edit_manifest(fixture, lambda manifest: manifest["entries"][0].update({key: value}))
        with pytest.raises(FixtureNotFound, match="malformed fixture manifest"):
            replay_session(fixture)

    @pytest.mark.parametrize("url", [
        f"{GITHUB_API}/search/issues?q=q&per_page=100&page=1",
        f"{GITHUB_API}/search/issues?page=1&per_page=100&q=q",
    ], ids=["same", "query-reordered"])
    def test_url_recorded_twice(self, tmp_path, url):
        """A fixture holds one reply per URL: a second entry for it fails when the replay opens."""
        fixture = self.fixture(tmp_path)
        self.edit_manifest(fixture, lambda manifest: manifest["entries"].append(
            {**manifest["entries"][0], "url": url}))
        with pytest.raises(FixtureNotFound, match=re.escape(f"{url}: recorded more than once")):
            replay_session(fixture)

    def test_entry_url_that_urlsplit_rejects(self, tmp_path):
        fixture = self.fixture(tmp_path)
        manifest = json.loads((fixture / "manifest.json").read_text(encoding="utf-8"))
        manifest["entries"][0]["url"] = "http://[::1/x"
        (fixture / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(FixtureNotFound, match="Invalid IPv6 URL"):
            replay_session(fixture)

    def test_missing_body_file_fails_at_its_request(self, tmp_path):
        fixture = self.fixture(tmp_path)
        (fixture / "0000.body.json").unlink()
        session = replay_session(fixture)
        with pytest.raises(FixtureNotFound, match="^unreadable fixture file for GET .*/search/issues"):
            session.search_issues("q", limit=1)

    def test_entry_without_headers_replays_with_empty_headers(self, tmp_path):
        fixture = self.fixture(tmp_path)
        self.edit_manifest(fixture, lambda manifest: manifest["entries"][0].pop("headers"))
        url = f"{GITHUB_API}/search/issues?q=q&per_page=100&page=1"
        transport = ReplayTransport(fixture)
        first = transport.request("GET", url)
        assert (first.status, first.headers) == (200, {})
        first.headers["x"] = "y"  # each reply gets its own copy
        assert transport.request("GET", url).headers == {}


class TestSearchIssues:
    def test_replay_returns_recorded_order(self, tmp_path):
        session = replay_session(three_hit_fixture(tmp_path))
        hits = session.search_issues("tf.function", limit=1000)
        assert [h.id for h in hits] == [10, 20, 30]

    def test_limit_truncates(self, tmp_path):
        session = replay_session(three_hit_fixture(tmp_path))
        hits = session.search_issues("tf.function", limit=2)
        assert [h.id for h in hits] == [10, 20]

    def test_limit_zero_rejected(self, tmp_path):
        session = replay_session(three_hit_fixture(tmp_path))
        for limit in (0, 2.5, True, "5"):  # nor is a limit that is not an int
            with pytest.raises(ValueError, match="^limit must be"):
                session.search_issues("tf.function", limit=limit)

    def test_limit_above_cap_rejected(self, tmp_path):
        session = replay_session(three_hit_fixture(tmp_path))
        with pytest.raises(ValueError):
            session.search_issues("tf.function", limit=1001)

    def test_blank_query_rejected(self, tmp_path):
        session = replay_session(three_hit_fixture(tmp_path))
        with pytest.raises(ValueError):
            session.search_issues("   ", limit=10)

    def test_duplicate_ids_deduplicated_keeping_first(self, tmp_path):
        first = make_issue(10, 1, title="first copy", comments=0)
        duplicate = make_issue(10, 1, title="second copy", comments=0)
        other = make_issue(20, 2, title="other", comments=0)
        fixture = write_fixture(tmp_path / "fx", query="q", issues=[first, duplicate, other])
        session = replay_session(fixture)
        hits = session.search_issues("q", limit=10)
        assert [(h.id, h.title) for h in hits] == [(10, "first copy"), (20, "other")]

    def test_search_pagination_across_pages(self, tmp_path):
        issues = [make_issue(1000 + i, i + 1, comments=0) for i in range(150)]
        fixture = write_fixture(tmp_path / "fx", query="busy", issues=issues)
        session = replay_session(fixture)
        hits = session.search_issues("busy", limit=150)
        assert len(hits) == 150
        assert [h.id for h in hits] == [1000 + i for i in range(150)]

    def test_sorted_search_sends_sort_params(self, tmp_path):
        issues = [make_issue(10, 1, comments=0)]
        fixture = write_fixture(tmp_path / "fx", query="q", issues=issues,
                                sort="comments", order="asc")
        transport = ClockedTransport(ReplayTransport(fixture), FakeClock().time)
        session = open_session(None, mode="replay", transport=transport)
        hits = session.search_issues("q", limit=5, sort="comments", order="asc")
        assert [h.id for h in hits] == [10]
        assert "sort=comments" in transport.requests[0][1]

    def test_query_rejected_maps_422(self, tmp_path):
        writer = FixtureWriter(tmp_path / "fx")
        writer.add(f"{GITHUB_API}/search/issues?q=bad&per_page=100&page=1",
                   {"message": "Validation Failed"}, status=422)
        writer.write_manifest()
        session = replay_session(tmp_path / "fx")
        with pytest.raises(QueryRejected):
            session.search_issues("bad", limit=5)


class TestFetchComments:
    def test_replay_sorted_by_created_at(self, tmp_path):
        issue = make_issue(10, 1, comments=3)
        comments = [
            make_comment(103, "third", created="2021-01-03T00:00:00Z"),
            make_comment(101, "first", created="2021-01-01T00:00:00Z"),
            make_comment(102, "second", created="2021-01-02T00:00:00Z"),
        ]
        fixture = write_fixture(tmp_path / "fx", query="q", issues=[issue],
                                comments_by_id={10: comments})
        session = replay_session(fixture)
        [hit] = session.search_issues("q", limit=1)
        fetched = session.fetch_comments(hit)
        assert [c.comment_id for c in fetched] == [101, 102, 103]
        created = [c.created_at for c in fetched]
        assert created == sorted(created)
        assert fetched[0].issue_id == 10

    def test_zero_comment_issue_returns_empty(self, tmp_path):
        issue = make_issue(10, 1, comments=0)
        fixture = write_fixture(tmp_path / "fx", query="q", issues=[issue])
        session = replay_session(fixture)
        [hit] = session.search_issues("q", limit=1)
        assert session.fetch_comments(hit) == []

    def test_gone_issue_raises(self, tmp_path):
        issue = make_issue(10, 1, comments=2)
        writer = FixtureWriter(tmp_path / "fx")
        writer.add_search_pages("q", [issue])
        writer.add(f"{issue['comments_url']}?per_page=100&page=1",
                   {"message": "Not Found"}, status=404)
        writer.write_manifest()
        session = replay_session(tmp_path / "fx")
        [hit] = session.search_issues("q", limit=1)
        with pytest.raises(IssueGone):
            session.fetch_comments(hit)

    def test_pagination_returns_union_without_duplicates(self, tmp_path):
        issue = make_issue(10, 1, comments=130)
        comments = [make_comment(200 + i, f"c{i}", created=f"2021-01-01T00:{i // 60:02d}:{i % 60:02d}Z")
                    for i in range(130)]
        fixture = write_fixture(tmp_path / "fx", query="q", issues=[issue],
                                comments_by_id={10: comments})
        session = replay_session(fixture)
        [hit] = session.search_issues("q", limit=1)
        fetched = session.fetch_comments(hit)
        assert len(fetched) == 130
        assert len({c.comment_id for c in fetched}) == 130

    def test_exactly_one_full_page(self, tmp_path):
        issue = make_issue(10, 1, comments=100)
        comments = [make_comment(300 + i, f"c{i}") for i in range(100)]
        fixture = write_fixture(tmp_path / "fx", query="q", issues=[issue],
                                comments_by_id={10: comments})
        session = replay_session(fixture)
        [hit] = session.search_issues("q", limit=1)
        assert len(session.fetch_comments(hit)) == 100


class LastFirstTransport:
    """Comment threads for issues 1..n, issue ``k`` answered with ``replies[k - 1]``.

    With ``hold``, issue k's reply waits until issue k + 1's has been given, so
    fetches that run at once finish last first. ``answered`` lists the issue
    numbers in the order their replies were given.
    """

    def __init__(self, replies, hold):
        self.replies = replies
        self.hold = hold
        self.given = [threading.Event() for _ in replies]
        self.answered: list[int] = []
        self._lock = threading.Lock()

    def request(self, method, url, params=None):
        number = int(urlsplit(url).path.split("/")[-2])
        if self.hold and number < len(self.replies):
            assert self.given[number].wait(timeout=5), f"issue {number + 1} was never fetched"
        with self._lock:
            self.answered.append(number)
        self.given[number - 1].set()
        return self.replies[number - 1]


@pytest.mark.parametrize("mode", ["replay", "live"])
class TestFetchThreads:
    """A live session fetches on a pool, where later threads may arrive first; a replay
    fetches one by one. Either way the threads come out in search order."""

    def threads(self, mode, statuses, fake_clock):
        """The transport, and ``(issue id, comment ids or None)`` of each pair fetch_threads yields."""
        replies = [reply(status, [make_comment(100 * n, f"c{n}")] if status == 200 else {"message": "no"})
                   for n, status in enumerate(statuses, start=1)]
        transport = LastFirstTransport(replies, hold=mode == "live")
        session = open_session("t", mode=mode, transport=transport,
                               clock=fake_clock.time, sleep=fake_clock.sleep)
        assert session.parallelism == (1 if mode == "replay" else LIVE_PARALLELISM)
        issues = [make_issue_ref(1, n) for n in range(1, len(statuses) + 1)]
        return transport, ((issue.id, comments and [c.comment_id for c in comments])
                           for issue, comments in session.fetch_threads(issues))

    def test_threads_come_in_search_order(self, mode, fake_clock):
        transport, pairs = self.threads(mode, [200, 200, 200], fake_clock)
        assert list(pairs) == [(1, [100]), (2, [200]), (3, [300])]
        assert transport.answered == ([1, 2, 3] if mode == "replay" else [3, 2, 1])

    def test_a_gone_issue_yields_none(self, mode, fake_clock):
        _, pairs = self.threads(mode, [200, 404, 200], fake_clock)
        assert list(pairs) == [(1, [100]), (2, None), (3, [300])]

    def test_a_rejected_credential_raises_at_its_issue(self, mode, fake_clock):
        transport, pairs = self.threads(mode, [200, 401, 200], fake_clock)
        assert next(pairs) == (1, [100])
        with pytest.raises(InvalidToken, match="/issues/2/comments"):
            next(pairs)
        assert transport.answered == ([1, 2] if mode == "replay" else [3, 2, 1])

    def test_each_fetch_calls_the_instance_fetch_comments(self, mode, fake_clock):
        """The benchmark's simulated clock and tracer replace ``fetch_comments`` on the instance."""
        session = open_session("t", mode=mode, transport=ScriptedTransport([]),
                               clock=fake_clock.time, sleep=fake_clock.sleep)
        session.fetch_comments = lambda issue: [issue.id]
        issues = [make_issue_ref(1, n) for n in (1, 2)]
        assert list(session.fetch_threads(issues)) == [(issues[0], [1]), (issues[1], [2])]


class PagedTransport:
    """A search that finds the issues ``ids`` and one thread of ``comments`` comments,
    served in pages of the requested size; records the (path, page) of every request.

    With ``links``, a reply carries a ``link`` header as GitHub sends it: only when
    there is more than one page, with ``rel="next"`` on every page before the last.
    A ``page_2`` payload is served in place of page 2 of either endpoint."""

    def __init__(self, ids, comments, links=False, page_2=None):
        self.hits = [make_issue(i, i) for i in ids]
        self.comments = [make_comment(i + 1, f"c{i}") for i in range(comments)]
        self.links = links
        self.page_2 = page_2
        self.pages: list[tuple[str, int]] = []

    def request(self, method, url, params=None):
        path, page, size = urlsplit(url).path, int(params["page"]), int(params["per_page"])
        self.pages.append((path, page))
        served = self.hits if path == "/search/issues" else self.comments
        last = max(1, math.ceil(len(served) / size))
        rels = ([(page + 1, "next"), (last, "last")] if page < last else []) + \
               ([(1, "first"), (page - 1, "prev")] if page > 1 else [])
        headers = {"Link": ", ".join(f'<{GITHUB_API}{path}?per_page={size}&page={number}>; rel="{rel}"'
                                     for number, rel in rels)} if self.links and last > 1 else {}
        items = served[(page - 1) * size:page * size]
        if page == 2 and self.page_2 is not None:
            return reply(200, self.page_2, headers)
        if path == "/search/issues":
            return reply(200, {"total_count": len(self.hits), "items": items}, headers)
        return reply(200, items, headers)


class TestPageSequence:
    THREAD = "/repos/o/r/issues/1/comments"

    @pytest.mark.parametrize("hits, limit, comments, pages", [
        (150, 100, None, [1]),
        (150, 101, None, [1, 2]),
        (1200, 1000, None, list(range(1, 11))),  # the search API serves 10 pages at most
        (None, None, 0, []),
        (None, None, 99, [1]),
        (None, None, 100, [1]),  # the full page holds all the comments the search item counts
        (None, None, 101, [1, 2]),
        (None, None, 200, [1, 2]),
        ([1, *range(1, 151)], 100, None, [1, 2]),  # page 1 repeats id 1, so holds 99 issues
    ], ids=["search-150-limit-100", "search-150-limit-101", "search-1200-limit-1000",
            "thread-0", "thread-99", "thread-100", "thread-101", "thread-200",
            "search-repeat-limit-100"])
    def test_exact_pages_requested(self, hits, limit, comments, pages):
        ids = range(1, hits + 1) if isinstance(hits, int) else hits or []
        transport = PagedTransport(ids, comments or 0)
        session = open_session(None, mode="replay", transport=transport)
        if hits is not None:
            found = session.search_issues("q", limit=limit)
            assert [issue.id for issue in found] == list(dict.fromkeys(ids))[:limit]
            assert transport.pages == [("/search/issues", page) for page in pages]
        else:
            assert len(session.fetch_comments(make_issue_ref(comment_count=comments))) == comments
            assert transport.pages == [(self.THREAD, page) for page in pages]

    @pytest.mark.parametrize("ids, comments, page_2", [
        (range(1, 151), 0, {"items": None}),
        ((), 150, {"message": "not a list"}),
    ], ids=["search", "thread"])
    def test_malformed_second_page_fails_after_it(self, ids, comments, page_2):
        transport = PagedTransport(ids, comments, page_2=page_2)
        session = open_session(None, mode="replay", transport=transport)
        with pytest.raises(NetworkFailure, match="no 'items' list|non-list"):
            if ids:
                session.search_issues("q", limit=150)
            else:
                session.fetch_comments(make_issue_ref(comment_count=comments))
        assert [page for _, page in transport.pages] == [1, 2]

    @pytest.mark.parametrize("count, served, links, pages, fetched", [
        (100, 150, True, [1, 2], 150),  # page 1 links a next page: it is followed
        (200, 150, False, [1, 2], 150),  # comments were deleted: the short page ends paging
        (100, 150, False, [1], 100),  # no link header: the count is trusted
    ], ids=["stale-low-linked", "stale-high", "stale-low-unlinked"])
    def test_stale_comment_count(self, count, served, links, pages, fetched):
        transport = PagedTransport((), served, links=links)
        session = open_session(None, mode="replay", transport=transport)
        comments = session.fetch_comments(make_issue_ref(comment_count=count))
        assert [c.comment_id for c in comments] == list(range(1, fetched + 1))
        assert transport.pages == [(self.THREAD, page) for page in pages]

    @given(served=st.integers(0, 450), count=st.integers(0, 450))
    @settings(max_examples=300, deadline=None)
    def test_any_count_with_github_links(self, served, count):
        """With GitHub's link headers, any search-item count gets the whole thread in
        wire order, and no page after the first one that is not full (the short page,
        or else the first empty one) is requested. A count of 0 is trusted without a
        request; an exact count never costs an empty page."""
        transport = PagedTransport((), served, links=True)
        session = open_session(None, mode="replay", transport=transport)
        comments = session.fetch_comments(make_issue_ref(comment_count=count))
        requested = [page for _, page in transport.pages]
        if count == 0:
            assert comments == [] and requested == []
            return
        assert [c.comment_id for c in comments] == list(range(1, served + 1))
        assert requested == list(range(1, len(requested) + 1))
        first_not_full = served // PAGE_SIZE + 1
        assert len(requested) <= first_not_full
        if count == served:
            assert len(requested) == max(1, math.ceil(served / PAGE_SIZE))


class TestReplayDeterminism:
    def test_two_runs_identical(self, small_fixture_dir):
        def collect():
            session = replay_session(small_fixture_dir)
            hits = session.search_issues("tf.function", limit=1000)
            return hits, [session.fetch_comments(h) for h in hits]

        assert collect() == collect()

    def test_no_network_in_replay(self, small_fixture_dir, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("network call attempted in replay mode")

        monkeypatch.setattr(requests.Session, "request", explode)
        session = replay_session(small_fixture_dir)
        hits = session.search_issues("tf.function", limit=1000)
        for hit in hits:
            session.fetch_comments(hit)


class TestRetryPolicy:
    def _session(self, replies, fake_clock, **kwargs):
        transport = ScriptedTransport(replies)
        session = open_session("t", mode="live", transport=transport,
                               clock=fake_clock.time, sleep=fake_clock.sleep, **kwargs)
        return session, transport

    def test_transient_500_retried_with_backoff(self, fake_clock):
        replies = [reply(500), reply(500), reply(200, {"total_count": 0, "items": []})]
        session, transport = self._session(replies, fake_clock)
        assert session.search_issues("q", limit=5) == []
        assert len(transport.requests) == 3  # 3 tries
        backoffs = fake_clock.sleeps
        assert len(backoffs) == 2
        assert 0.8 <= backoffs[0] <= 1.2      # 1s +/- 20% jitter
        assert 1.6 <= backoffs[1] <= 2.4      # 2s +/- 20% jitter

    @pytest.mark.parametrize("failure, raised", [
        (NetworkFailure("timed out"), NetworkFailure),
        (reply(403, {"message": "API rate limit exceeded"}), RateLimited),
        (reply(429), RateLimited),
        (reply(500), NetworkFailure),
    ], ids=["transport", "403", "429", "500"])
    def test_gives_up_after_four_retries(self, fake_clock, failure, raised):
        session, transport = self._session([failure] * 5, fake_clock)
        with pytest.raises(raised, match="after 4 retries"):
            session.search_issues("q", limit=5)
        assert len(transport.requests) == 5  # 1 initial + 4 retries
        assert len(fake_clock.sleeps) == 4

    def test_bare_403_not_retried(self, fake_clock):
        replies = [reply(403, {"message": "Resource not accessible by integration"})]
        session, transport = self._session(replies, fake_clock)
        with pytest.raises(NetworkFailure, match="unexpected status 403"):
            session.search_issues("q", limit=5)
        assert len(transport.requests) == 1  # single attempt
        assert fake_clock.sleeps == []

    def test_plain_4xx_never_retried(self, fake_clock):
        session, transport = self._session([reply(400)], fake_clock)
        with pytest.raises(NetworkFailure):
            session.search_issues("q", limit=5)
        assert len(transport.requests) == 1  # single attempt

    def test_retry_after_honored_on_403(self, fake_clock):
        replies = [
            reply(403, {"message": "rate limited"}, headers={"Retry-After": "7"}),
            reply(200, {"total_count": 0, "items": []}),
        ]
        session, transport = self._session(replies, fake_clock)
        start = fake_clock.time()
        session.search_issues("q", limit=5)
        assert fake_clock.time() - start >= 7

    @pytest.mark.parametrize("value, low, high", [
        ("1e9", MAX_HEADER_WAIT, MAX_HEADER_WAIT),  # capped at one hour
        ("inf", SECONDARY_LIMIT_WAIT, SECONDARY_LIMIT_WAIT),  # not a finite number: ignored
        ("-inf", SECONDARY_LIMIT_WAIT, SECONDARY_LIMIT_WAIT),
        ("nan", SECONDARY_LIMIT_WAIT, SECONDARY_LIMIT_WAIT),
        ("0", SECONDARY_LIMIT_WAIT, SECONDARY_LIMIT_WAIT),  # not in the future: ignored
        ("-5", SECONDARY_LIMIT_WAIT, SECONDARY_LIMIT_WAIT),
    ])
    def test_retry_after_capped_or_ignored(self, fake_clock, value, low, high):
        replies = [
            reply(403, {}, headers={"Retry-After": value}),
            reply(200, {"total_count": 0, "items": []}),
        ]
        session, _ = self._session(replies, fake_clock)
        session.search_issues("q", limit=5)
        assert len(fake_clock.sleeps) == 1
        assert low <= fake_clock.sleeps[0] <= high

    def test_429_uses_reset_header_when_no_retry_after(self, fake_clock):
        reset = int(fake_clock.time()) + 11
        replies = [
            reply(429, {}, headers={"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": str(reset)}),
            reply(200, {"total_count": 0, "items": []}),
        ]
        session, _ = self._session(replies, fake_clock)
        start = fake_clock.time()
        session.search_issues("q", limit=5)
        assert fake_clock.time() - start >= 10

    @pytest.mark.parametrize("limited", [
        reply(403, {"message": "You have exceeded a secondary rate limit"}),
        reply(429),
        # a reset 5 s before the clock's start: already past, so no wait to take
        reply(403, {}, headers={"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": "1699999995"}),
    ], ids=["403-body", "429-bare", "403-stale-reset"])
    def test_rate_limit_without_wait_header_waits_a_minute(self, fake_clock, limited):
        session, _ = self._session([limited] * 5, fake_clock)
        with pytest.raises(RateLimited, match="after 4 retries"):
            session.search_issues("q", limit=5)
        assert fake_clock.sleeps == [60.0, 120.0, 240.0, 480.0]  # a minute, doubling on repeats

    def test_rate_limited_without_waiting(self, fake_clock):
        replies = [reply(403, {}, headers={"Retry-After": "7"})]
        session, _ = self._session(replies, fake_clock, wait_on_rate_limit=False)
        with pytest.raises(RateLimited):
            session.search_issues("q", limit=5)

    def test_transient_backoff_sleeps_without_waiting_on_rate_limits(self, fake_clock):
        """``wait_on_rate_limit=False`` refuses rate-limit waits only; a 5xx is still backed off."""
        replies = [reply(503), reply(200, {"total_count": 0, "items": []})]
        session, transport = self._session(replies, fake_clock, wait_on_rate_limit=False)
        assert session.search_issues("q", limit=5) == []
        assert len(transport.requests) == 2
        assert len(fake_clock.sleeps) == 1

    def test_timeout_is_transient(self, fake_clock):
        replies = [NetworkFailure("timed out"), reply(200, {"total_count": 0, "items": []})]
        session, _ = self._session(replies, fake_clock)
        assert session.search_issues("q", limit=5) == []

    @given(
        status=st.sampled_from([200, 403, 429]),
        header=st.sampled_from(["retry-after", "x-ratelimit-reset"]),
        value=st.one_of(
            st.text(),
            st.sampled_from(["inf", "-inf", "nan", "1e300", "1e309", "-1e300", "3601", "1_000"]),
            st.floats().map(str),
            st.integers().map(str),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_rate_header_text_gives_bounded_sleeps(self, status, header, value):
        clock = FakeClock()
        headers = {header: value}
        if header == "x-ratelimit-reset":
            headers["x-ratelimit-remaining"] = "0"
        replies = [reply(status, {"total_count": 0, "items": []}, headers=headers)] * 5
        session, _ = self._session(replies, clock)
        try:
            session.search_issues("q", limit=5)
            session.search_issues("q", limit=5)  # waits out a header block on the gate
        except GitHubError:
            pass
        assert all(math.isfinite(s) and 0 <= s <= MAX_HEADER_WAIT for s in clock.sleeps)

    @pytest.mark.parametrize("page", [
        {"total_count": 1, "items": None},
        {"total_count": 1, "items": {"id": 1}},
        {"total_count": 1, "items": "items"},
        [],
        "x",
        {"message": "oops"},
    ], ids=["None", "items1", "items", "page-list", "page-string", "page-without-items"])
    def test_non_list_search_items_rejected(self, fake_clock, page):
        session, _ = self._session([reply(200, page)], fake_clock)
        with pytest.raises(NetworkFailure):
            session.search_issues("q", limit=5)

    def test_non_list_comments_payload_rejected(self, fake_clock):
        replies = [reply(200, {"unexpected": "shape"})]
        session, _ = self._session(replies, fake_clock)
        with pytest.raises(NetworkFailure):
            session.fetch_comments(make_issue_ref(comment_count=2))

    def test_too_deeply_nested_body_rejected(self, fake_clock):
        nested = TransportReply(status=200, headers={}, body=b"[" * 3000 + b"]" * 3000)
        session, _ = self._session([nested], fake_clock)
        with pytest.raises(NetworkFailure, match="invalid JSON"):
            session.fetch_comments(make_issue_ref(comment_count=2))


class TestBudgetDefaults:
    def _search_reply(self):
        return reply(200, {"total_count": 0, "items": []})

    def test_anonymous_live_session_gets_lower_search_budget(self, fake_clock):
        script = [self._search_reply()] * 11
        session = open_session(None, mode="live", transport=ScriptedTransport(script),
                               clock=fake_clock.time, sleep=fake_clock.sleep)
        for _ in range(11):
            session.search_issues("q", limit=1)
        assert fake_clock.sleeps, "11th anonymous search should have waited"
        assert fake_clock.sleeps[0] >= 59

    def test_token_live_session_allows_thirty_per_minute(self, fake_clock):
        script = [self._search_reply()] * 30
        session = open_session("t", mode="live", transport=ScriptedTransport(script),
                               clock=fake_clock.time, sleep=fake_clock.sleep)
        for _ in range(30):
            session.search_issues("q", limit=1)
        assert fake_clock.sleeps == []


class TestRateGate:
    def test_burst_then_wait(self, fake_clock):
        gate = RateGate(clock=fake_clock.time, sleep=fake_clock.sleep, wait=True,
                        budgets={"search": (3, 60.0)})
        times = []
        for _ in range(5):
            gate.acquire("search")
            times.append(fake_clock.time())
        assert times[0] == times[1] == times[2]
        assert times[3] >= times[0] + 60
        assert times[4] >= times[1] + 60

    def test_refusal_when_waiting_disabled(self, fake_clock):
        gate = RateGate(clock=fake_clock.time, sleep=fake_clock.sleep, wait=False,
                        budgets={"search": (1, 60.0)})
        gate.acquire("search")
        with pytest.raises(RateLimited):
            gate.acquire("search")

    def test_unbudgeted_kind_passes_through(self, fake_clock):
        gate = RateGate(clock=fake_clock.time, sleep=fake_clock.sleep, wait=True, budgets={})
        for _ in range(1000):
            gate.acquire("search")
        assert fake_clock.sleeps == []

    def test_header_block_respected(self, fake_clock):
        gate = RateGate(clock=fake_clock.time, sleep=fake_clock.sleep, wait=True,
                        budgets={"core": (100, 3600.0)})
        gate.block_until("core", fake_clock.time() + 30)
        gate.acquire("core")
        assert fake_clock.sleeps and fake_clock.sleeps[0] >= 30


class TestLiveTransportHeaders:
    def test_credential_header_present_with_token(self):
        headers = LiveTransport("secret-token")._session.headers
        assert headers["Authorization"] == "Bearer secret-token"
        assert headers["Accept"] == "application/vnd.github+json"
        assert "issuesift" in headers["User-Agent"]

    def test_anonymous_has_no_credential(self):
        assert "Authorization" not in LiveTransport(None)._session.headers


class TestLiveTransportErrors:
    """A requests error inside the real LiveTransport is a transient, retried failure."""

    def _session(self, monkeypatch, fake_clock, outcomes):
        calls = []

        def scripted(self, method, url, **kwargs):
            calls.append(kwargs)
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(requests.Session, "request", scripted)
        session = open_session("t", mode="live", clock=fake_clock.time, sleep=fake_clock.sleep)
        return session, calls

    @staticmethod
    def _response(payload):
        return SimpleNamespace(status_code=200, headers={}, content=json.dumps(payload).encode())

    def test_connection_error_retried_then_gives_up(self, monkeypatch, fake_clock):
        outcomes = [requests.ConnectionError("connection refused")] * 5
        session, calls = self._session(monkeypatch, fake_clock, outcomes)
        with pytest.raises(NetworkFailure, match="after 4 retries"):
            session.search_issues("q", limit=5)
        assert len(calls) == 5  # 1 initial + 4 retries
        assert len(fake_clock.sleeps) == 4
        assert all(call["timeout"] == REQUEST_TIMEOUT for call in calls)

    def test_one_connection_error_then_success(self, monkeypatch, fake_clock):
        outcomes = [
            requests.ConnectionError("connection reset"),
            self._response({"total_count": 0, "items": []}),
        ]
        session, calls = self._session(monkeypatch, fake_clock, outcomes)
        assert session.search_issues("q", limit=5) == []
        assert len(calls) == 2
        assert len(fake_clock.sleeps) == 1


class TestHttpStackOnlyForLiveRuns:
    def test_offline_run_never_imports_requests(self, small_fixture_dir):
        script = textwrap.dedent(f"""
            import sys
            import issuesift, issuesift.cli
            from issuesift import PrepConfig, QuerySpec, load_default_model, open_session, run
            session = open_session(None, mode="replay", fixture_dir={str(small_fixture_dir)!r})
            records, _, _ = run(QuerySpec(query="tf.function"), session,
                                load_default_model(), PrepConfig.default())
            assert records, "the replay run classified nothing"
            assert "requests" not in sys.modules, "an offline run imported requests"
            from issuesift.github_client import LiveTransport
            LiveTransport(None)
            assert "requests" in sys.modules, "LiveTransport did not import requests"
        """)
        src = str(Path(issuesift.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


class TestCanonicalUrl:
    def test_sorts_params(self):
        a = canonical_url("https://x/y?b=2&a=1")
        b = canonical_url("https://x/y?a=1&b=2")
        assert a == b

    def test_merges_extra_params(self):
        url = canonical_url("https://x/y?a=1", {"b": 2})
        assert url == "https://x/y?a=1&b=2"


# Query keys and values: blanks, spaces, "%" and "+" (literal or escaped), "=" and "&"
# inside a pair, and a non-ASCII letter; values may also be integers.
QUERY_KEYS = st.sampled_from(["q", "page", "per_page", "", "a b", "%", "+", "k=&"])
QUERY_VALUES = st.one_of(st.text(alphabet="x %+=&é", max_size=3), st.integers(0, 200))
# Raw query text, escapes malformed or not ("%2", "%zz", a lone "=").
RAW_QUERY = st.text(alphabet="ab=&%+2Fz ", max_size=8)
COMMENTS_URL = f"{GITHUB_API}/repos/o/r/issues/1/comments"


def encoded_query(pairs, data) -> str:
    """``pairs`` as query text, each pair's style drawn from ``data``: a space as "+"
    or "%20", and a blank value after a key as "k=" or "k"."""
    parts = []
    for key, value in pairs:
        plus = data.draw(st.booleans())
        quoted = quote_plus if plus else (lambda text: quote(text, safe=""))
        value = str(value)
        parts.append(quoted(key) if plus and key and not value else f"{quoted(key)}={quoted(value)}")
    return "&".join(parts)


def recording_served(recorded_url: str, url: str, params: dict | None) -> bool:
    """Whether a replay of one recording at ``recorded_url`` answers GET ``url`` with ``params``."""
    with tempfile.TemporaryDirectory() as directory:
        writer = FixtureWriter(Path(directory))
        writer.add(recorded_url, [])
        writer.write_manifest()
        try:
            ReplayTransport(directory).request("GET", url, params)
        except FixtureNotFound:
            return False
        return True


class TestRecordingLookup:
    """Two requests hit the same recording exactly when their canonical URLs are equal."""

    @given(pairs=st.lists(st.tuples(QUERY_KEYS, QUERY_VALUES), max_size=5), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_reordered_escaped_and_merged_queries(self, pairs, data):
        recorded = f"{COMMENTS_URL}?{encoded_query(pairs, data)}"
        asked = data.draw(st.permutations(pairs))
        changed = data.draw(st.sampled_from(["as recorded", "one pair dropped", "one pair added"]))
        if changed == "one pair dropped" and asked:
            asked = asked[1:]
        elif changed == "one pair added":
            asked = [*asked, data.draw(st.tuples(QUERY_KEYS, QUERY_VALUES))]
        # Pairs whose key occurs once may travel as params, merged into the URL's own query.
        single = [pair for pair in asked if [k for k, _ in asked].count(pair[0]) == 1]
        moved = data.draw(st.lists(st.sampled_from(single), unique=True)) if single else []
        in_url = [pair for pair in asked if pair not in moved]
        url = f"{COMMENTS_URL}?{encoded_query(in_url, data)}"
        params = dict(moved) or None
        served = recording_served(recorded, url, params)
        assert served == (canonical_url(recorded) == canonical_url(url, params))
        if changed == "as recorded":
            assert served

    @given(recorded=RAW_QUERY, asked=RAW_QUERY)
    @settings(max_examples=200, deadline=None)
    def test_raw_query_text(self, recorded, asked):
        recorded_url, url = f"{COMMENTS_URL}?{recorded}", f"{COMMENTS_URL}?{asked}"
        served = recording_served(recorded_url, url, None)
        assert served == (canonical_url(recorded_url) == canonical_url(url))


def make_issue_ref(comment_count=0, number=1):
    return IssueRef(
        id=number, title="t", body="",
        html_url=f"https://github.com/o/r/issues/{number}",
        api_url=f"https://api.github.com/repos/o/r/issues/{number}",
        comments_url=f"https://api.github.com/repos/o/r/issues/{number}/comments",
        comment_count=comment_count,
    )
