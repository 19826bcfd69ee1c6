"""Rate-limit-aware GitHub REST client with recorded-fixture replay.

Live sessions speak HTTPS to the REST v3 search and comments endpoints.
Replay sessions answer every request from a fixture directory and never touch
the network, which keeps tests hermetic and byte-deterministic.

Fixture directory layout (format 2)::

    manifest.json          {"fixture_format": 2, "entries": [...]}
    NNNN.body.json         verbatim wire payload for one (endpoint, page)

Each manifest entry holds ``url`` (with its query string), the reply's integer
``status`` and ``headers`` ({} if missing), and the ``body`` file name, all
checked when the replay opens. A fixture records one reply per URL: a second
entry for it, even with its query in another order, is refused at open.
"""

from __future__ import annotations

import json
import itertools
import math
import random
import re
import threading
import time
from collections import deque
from pathlib import Path
from typing import Iterator, NamedTuple
from urllib.parse import parse_qsl, urlencode, urlsplit, urlunsplit

from .errors import (
    FixtureNotFound,
    GitHubError,
    InvalidToken,
    IssueGone,
    NetworkFailure,
    QueryRejected,
    RateLimited,
)

GITHUB_API = "https://api.github.com"
USER_AGENT = "issuesift/0.1"
PAGE_SIZE = 100
SEARCH_LIMIT_CAP = 1000  # the search API serves at most 1000 results
AUTH_SEARCH_PER_MINUTE = 30
ANON_SEARCH_PER_MINUTE = 10
AUTH_CORE_PER_HOUR = 5000
ANON_CORE_PER_HOUR = 60
MAX_RETRIES = 4
BACKOFF_BASE = 1.0
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.2
MAX_HEADER_WAIT = 3600.0  # GitHub's longest rate window
# A rate-limit reply with neither a usable retry-after nor a reset time waits at
# least a minute before the retry, and the wait doubles on each repeat (up to
# MAX_HEADER_WAIT), as GitHub asks for secondary limits:
# https://docs.github.com/en/rest/using-the-rest-api/rate-limits-for-the-rest-api
SECONDARY_LIMIT_WAIT = 60.0
REQUEST_TIMEOUT = 30.0
# Comment threads a live session fetches at once; not yet measured against GitHub.
LIVE_PARALLELISM = 4

SORT_KEYS = ("best-match", "comments", "created", "updated", "reactions")
SORT_ORDERS = ("asc", "desc")


def check_search(query: str, limit: int, sort: str, order: str) -> None:
    """Raise ValueError unless the search endpoint can serve this request.

    Each message starts with the name of the offending parameter.
    """
    if not isinstance(query, str):
        raise ValueError(f"query must be a string, got {query!r}")
    if not query.strip():
        raise ValueError("query must be non-empty")
    try:
        query.encode("utf-8")  # a byte that is not UTF-8 reaches argv as a lone surrogate
    except UnicodeEncodeError as exc:
        raise ValueError(f"query must be valid UTF-8; character {exc.start + 1} is not") from None
    if type(limit) is not int:
        raise ValueError(f"limit must be an integer, got {limit!r}")
    if not 1 <= limit <= SEARCH_LIMIT_CAP:
        raise ValueError(f"limit must be in 1..{SEARCH_LIMIT_CAP}, got {limit}")
    if sort not in SORT_KEYS:
        raise ValueError(f"sort must be one of {SORT_KEYS}, got {sort!r}")
    if order not in SORT_ORDERS:
        raise ValueError(f"order must be one of {SORT_ORDERS}, got {order!r}")


class IssueRef(NamedTuple):
    """One GitHub issue hit from search, read from the search item's ``id``, ``title``,
    ``body``, ``html_url``, ``url``, ``comments_url`` and ``comments``; no other key is read."""

    id: int
    title: str
    body: str
    html_url: str
    api_url: str
    comments_url: str
    comment_count: int


class RawComment(NamedTuple):
    """One unprocessed comment body, byte-exact as received."""

    issue_id: int
    comment_id: int
    author_login: str
    body: str
    created_at: str


class TransportReply(NamedTuple):
    status: int
    headers: dict[str, str]
    body: bytes


def url_key(url: str, params: dict | None = None) -> tuple:
    """The replay lookup key: scheme, host, path and the sorted query pairs, ``params`` merged."""
    scheme, netloc, path, query, _ = urlsplit(url)
    items = parse_qsl(query, keep_blank_values=True)
    if params:
        items.extend((k, str(v)) for k, v in params.items())
    return scheme, netloc, path, tuple(sorted(items))


def canonical_url(url: str, params: dict | None = None) -> str:
    """``url_key`` written out as a URL, for messages and request logs."""
    scheme, netloc, path, items = url_key(url, params)
    return urlunsplit((scheme, netloc, path, urlencode(items), ""))


# A bearer credential's syntax, b64token:
# https://datatracker.ietf.org/doc/html/rfc6750#section-2.1
_B64TOKEN_RE = re.compile(r"(?:[A-Za-z0-9._~+/-]+=*)?")


class LiveTransport:
    """Thin wrapper over a requests.Session with the standard GitHub headers.

    ``requests`` is imported here, not at module top, so library import and
    replay runs never load the HTTP stack.
    """

    def __init__(self, token: str | None):
        valid = _B64TOKEN_RE.match(token or "").end()
        if token and valid < len(token):  # the message never holds any part of the token
            raise InvalidToken(f"the token breaks RFC 6750's b64token syntax at character {valid + 1}: "
                               "it allows only A-Z a-z 0-9 - . _ ~ + / and a trailing =")
        import requests

        self._errors = requests.RequestException
        self._session = requests.Session()
        self._session.headers.update({"Accept": "application/vnd.github+json", "User-Agent": USER_AGENT})
        if token:
            self._session.headers["Authorization"] = f"Bearer {token}"

    def request(self, method: str, url: str, params: dict | None = None) -> TransportReply:
        try:
            response = self._session.request(method, url, params=params, timeout=REQUEST_TIMEOUT)
        except self._errors as exc:
            raise NetworkFailure(str(exc)) from exc
        headers = {k.lower(): v for k, v in response.headers.items()}
        return TransportReply(status=response.status_code, headers=headers, body=response.content)


class ReplayTransport:
    """A read-only table of recorded replies, one per URL, read from a fixture
    directory when the replay opens. No network, ever."""

    def __init__(self, fixture_dir: str | Path):
        self._dir = Path(fixture_dir)
        manifest_path = self._dir / "manifest.json"
        if not self._dir.is_dir() or not manifest_path.is_file():
            raise FixtureNotFound(f"fixture directory {self._dir} has no manifest.json")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise FixtureNotFound(f"unreadable fixture manifest {manifest_path}: {exc}") from exc
        self._entries: dict[tuple, tuple[int, dict[str, str], str]] = {}
        try:
            if type(manifest.get("fixture_format")) is not int or manifest["fixture_format"] != 2:
                raise ValueError(f"fixture_format must be 2, got {manifest.get('fixture_format')!r}")
            for entry in manifest.get("entries", []):
                status, headers, body = entry["status"], entry.get("headers", {}), entry["body"]
                if type(status) is not int or not isinstance(headers, dict) or not isinstance(body, str):
                    raise TypeError(f"{entry['url']}: needs an int status, object headers and string body")
                if body in ("", ".", "..") or "/" in body or "\\" in body:
                    raise ValueError(f"{entry['url']}: body {body!r} is not a file name in the fixture")
                key = url_key(entry["url"])
                if key in self._entries:
                    raise ValueError(f"{entry['url']}: recorded more than once")
                self._entries[key] = (status, {str(k).lower(): str(v) for k, v in headers.items()}, body)
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise FixtureNotFound(f"malformed fixture manifest {manifest_path}: {exc!r}") from exc

    def request(self, method: str, url: str, params: dict | None = None) -> TransportReply:
        try:
            status, headers, body_name = self._entries[url_key(url, params)]
        except KeyError:
            raise FixtureNotFound(f"no recorded response for: {method} {canonical_url(url, params)}") from None
        try:
            body = (self._dir / body_name).read_bytes()
        except (OSError, ValueError) as exc:  # ValueError: a NUL or lone surrogate in the name
            where = f"{method} {canonical_url(url, params)}"
            raise FixtureNotFound(f"unreadable fixture file for {where}: {exc}") from exc
        return TransportReply(status=status, headers=dict(headers), body=body)


class RateGate:
    """Shared sliding-window budget gate.

    ``acquire`` blocks through the injected sleep until a slot frees up in the
    window and any header-imposed block has expired. Kinds without a
    configured budget pass through untouched. ``clock``, ``sleep`` and ``wait``
    are the session's too: every wait in the client goes through ``sleep``.
    """

    def __init__(self, *, clock, sleep, wait: bool, budgets: dict[str, tuple[int, float]]):
        self.clock = clock
        self.sleep = sleep
        self.wait = wait
        self._budgets = budgets
        self._lock = threading.Lock()
        self._times = {kind: deque() for kind in budgets}
        self._blocked_until = {kind: 0.0 for kind in budgets}

    def acquire(self, kind: str) -> None:
        if kind not in self._budgets:
            return
        while True:
            with self._lock:
                now = self.clock()
                ready = self._next_free(kind, now)
                if ready <= now:
                    self._times[kind].append(now)
                    return
            if not self.wait:
                raise RateLimited(f"{kind} budget exhausted and waiting is disabled")
            self.sleep(max(0.0, ready - now))

    def _next_free(self, kind: str, now: float) -> float:
        count, window = self._budgets[kind]
        times = self._times[kind]
        while times and times[0] <= now - window:
            times.popleft()
        ready = self._blocked_until[kind]
        if len(times) >= count:
            ready = max(ready, times[0] + window)
        return ready

    def block_until(self, kind: str, when: float) -> None:
        with self._lock:
            if kind in self._blocked_until:
                self._blocked_until[kind] = max(self._blocked_until[kind], when)


def _header_wait(value: str | None, since: float = 0.0) -> float | None:
    """Seconds from ``since`` to the header's number (a ``Retry-After`` wait, or an
    ``x-ratelimit-reset`` epoch time), capped at MAX_HEADER_WAIT; None if the
    header is missing, not a finite number, or not in the future."""
    try:
        wait = float(value) - since
    except (TypeError, ValueError):
        return None
    return min(wait, MAX_HEADER_WAIT) if 0.0 < wait < math.inf else None


def _fields(item, what: str):
    """Typed reader over one wire item, which must be a JSON object.

    ``field(key, kind)`` is ``item[key]`` if that is a ``kind`` (never a bool),
    ``kind()`` if it is null or missing and not ``required``; anything else
    raises NetworkFailure. So does a string UTF-8 cannot encode (a ``\\ud800`` escape).
    """
    if not isinstance(item, dict):
        raise NetworkFailure(f"{what} is not an object")

    def field(key: str, kind: type = str, required: bool = False):
        value = item.get(key)
        if value is None and not required:
            return kind()
        if not isinstance(value, kind) or isinstance(value, bool):
            raise NetworkFailure(f"{what} has a missing or non-{kind.__name__} {key!r}")
        if kind is str and not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise NetworkFailure(f"{what} has a {key!r} that is not valid UTF-8") from exc
        return value

    return field


def _issue_from_item(item) -> IssueRef:
    field = _fields(item, "search item")
    issue = IssueRef(
        id=field("id", int, required=True),
        title=field("title"),
        body=field("body"),
        html_url=field("html_url"),
        api_url=field("url"),
        comments_url=field("comments_url"),
        comment_count=field("comments", int),
    )
    if issue.id <= 0:
        raise NetworkFailure(f"search item: issue id must be positive, got {issue.id}")
    if issue.comment_count < 0:
        raise NetworkFailure(f"search item: comment_count must be >= 0, got {issue.comment_count}")
    if not issue.html_url or not issue.api_url:
        raise NetworkFailure("search item: html_url and api_url must be non-empty")
    # The comments URL is the one URL taken from a reply; the token goes only to GITHUB_API.
    if not issue.comments_url.startswith(GITHUB_API + "/"):
        raise NetworkFailure(f"search item: comments_url {issue.comments_url!r} is outside {GITHUB_API}")
    return issue


def _comment_from_item(item, issue_id: int) -> RawComment:
    what = f"comment item of issue {issue_id}"
    field = _fields(item, what)
    return RawComment(
        issue_id=issue_id,
        comment_id=field("id", int, required=True),
        author_login=_fields(field("user", dict), f"{what}: user")("login"),
        body=field("body"),
        created_at=field("created_at"),
    )


class Session:
    """Shared client for the issue-search and issue-comments endpoints.

    Thread-safe: all rate accounting funnels through one gate, so ``fetch_threads``
    may run ``parallelism`` comment fetches at once. The gate also owns the clock,
    the sleep and whether to wait out a rate limit.
    """

    def __init__(self, *, transport, gate: RateGate, parallelism: int):
        self.parallelism = max(1, parallelism)
        self._transport = transport
        self._gate = gate
        self._rng = random.Random()

    # -- public operations -------------------------------------------------

    def search_issues(
        self,
        query: str,
        limit: int,
        sort: str = "best-match",
        order: str = "desc",
    ) -> list[IssueRef]:
        """Issues matching the query, in the endpoint's order under the requested sort.

        Pages of 100 hits are requested in turn. Paging stops at a page of fewer
        than 100 hits, at the page where ``limit`` distinct issues are in, or after
        page 10 (the API serves 1000 hits at most). A repeated id keeps its first
        occurrence.
        """
        check_search(query, limit, sort, order)
        params = {"q": query} if sort == "best-match" else {"q": query, "sort": sort, "order": order}
        results: dict[int, IssueRef] = {}
        for page in range(1, SEARCH_LIMIT_CAP // PAGE_SIZE + 1):
            reply, _ = self._request("search", f"{GITHUB_API}/search/issues",
                                     {**params, "per_page": PAGE_SIZE, "page": page})
            items = reply.get("items") if isinstance(reply, dict) else None
            if not isinstance(items, list):
                raise NetworkFailure(f"search endpoint returned no 'items' list for {query!r}")
            for item in items:
                issue = _issue_from_item(item)
                results.setdefault(issue.id, issue)
                if len(results) >= limit:
                    return list(results.values())
            if len(items) < PAGE_SIZE:
                break
        return list(results.values())

    def fetch_comments(self, issue: IssueRef) -> list[RawComment]:
        """All comments of one issue, ascending created_at.

        An issue whose search item counts 0 comments is not fetched. Otherwise
        pages of 100 are requested from page 1 until a short page, or until a full
        page brings the comments received to the search item's ``comment_count``
        and its reply's ``link`` header names no ``rel="next"`` page. A count that
        is too high ends at the short page; one that is too low is caught by the
        link, and trusted when the reply has no ``link`` header at all.
        """
        if issue.comment_count == 0:
            return []
        comments: list[RawComment] = []
        for page in itertools.count(1):
            items, headers = self._request("core", issue.comments_url,
                                           {"per_page": PAGE_SIZE, "page": page})
            if not isinstance(items, list):
                raise NetworkFailure(f"comments endpoint returned a non-list for issue {issue.id}")
            comments.extend(_comment_from_item(item, issue.id) for item in items)
            if len(items) < PAGE_SIZE or (len(comments) >= issue.comment_count
                                          and 'rel="next"' not in headers.get("link", "")):
                break
        comments.sort(key=lambda c: c.created_at)  # stable: ties keep wire order
        return comments

    def fetch_threads(self, issues: list[IssueRef]) -> Iterator[tuple[IssueRef, list[RawComment] | None]]:
        """Yield ``(issue, comments)`` in search order; ``comments`` is None if its fetch
        failed, and a rejected credential raises. Above 1, ``parallelism`` fetches run on a
        pool; closing the generator cancels the fetches not yet started and joins it."""
        def fetch(issue):
            try:
                return issue, self.fetch_comments(issue)
            except InvalidToken:
                raise  # a rejected credential fails every issue alike
            except GitHubError:
                return issue, None

        if self.parallelism == 1:  # a replay fetches on the calling thread
            yield from map(fetch, issues)
            return
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(self.parallelism) as pool:
            yield from pool.map(fetch, issues)

    # -- request machinery --------------------------------------------------

    def _request(self, kind: str, url: str, params: dict | None = None):
        """GET with retries, returning the decoded JSON and the reply's headers: each attempt
        returns, raises at once, or names the error to raise once retries run out and the
        wait before the next try."""
        for retries in range(MAX_RETRIES + 1):
            self._gate.acquire(kind)
            try:
                reply = self._transport.request("GET", url, params)
            except NetworkFailure as exc:
                failure = NetworkFailure(f"{url}: {exc} (after {retries} retries)")
                cause, wait = exc, None
            else:
                status, headers = reply.status, reply.headers
                cause = wait = reset = None
                exhausted = headers.get("x-ratelimit-remaining") == "0"
                if exhausted:
                    # Live response headers are authoritative over the static budgets.
                    now = self._gate.clock()
                    reset = _header_wait(headers.get("x-ratelimit-reset"), now)
                    if reset is not None:
                        self._gate.block_until(kind, now + reset)
                if 200 <= status < 300:
                    try:
                        return json.loads(reply.body.decode("utf-8")), headers
                    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
                        raise NetworkFailure(f"invalid JSON from {url}: {exc}") from exc
                if status == 401:
                    raise InvalidToken(f"credential rejected by {url}")
                if status in (404, 410):
                    raise IssueGone(f"{url} answered {status}")
                if status == 422:
                    raise QueryRejected(f"{url} rejected the query (422)")
                # A 403 is retried only if it says it is a rate limit (GitHub's primary
                # and secondary limit replies); a permission denial is not retried.
                if status == 429 or (status == 403 and (
                    exhausted or "retry-after" in headers or b"rate limit" in reply.body.lower()
                )):
                    if not self._gate.wait:
                        raise RateLimited(f"{url} answered {status} and waiting is disabled")
                    failure = RateLimited(f"{url} kept answering {status} after {retries} retries")
                    wait = _header_wait(headers.get("retry-after")) or reset or min(
                        SECONDARY_LIMIT_WAIT * BACKOFF_FACTOR ** retries, MAX_HEADER_WAIT)
                elif 500 <= status < 600:
                    failure = NetworkFailure(f"{url} answered {status} after {retries} retries")
                else:
                    raise NetworkFailure(f"unexpected status {status} from {url}")
            if retries == MAX_RETRIES:
                raise failure from cause
            if wait is None:
                wait = BACKOFF_BASE * BACKOFF_FACTOR ** retries * (
                    1.0 + self._rng.uniform(-BACKOFF_JITTER, BACKOFF_JITTER))
            self._gate.sleep(wait)


def open_session(
    token: str | None = None,
    mode: str = "live",
    fixture_dir: str | Path | None = None,
    *,
    wait_on_rate_limit: bool = True,
    clock=None,
    sleep=None,
    transport=None,
) -> Session:
    """Create a live or replay session. Opening one sends no request.

    A live token that is not an RFC 6750 b64token raises InvalidToken here; a
    rejected one fails the first request it is sent with, as InvalidToken.
    A live session takes GitHub's primary budgets for its credential and fetches
    LIVE_PARALLELISM threads at once. A replay session is unthrottled, and
    ``fetch_threads`` fetches its threads one by one on the calling thread. Given
    no ``sleep``, a replay does not sleep: a retry would get the same reply.
    """
    if mode not in ("live", "replay"):
        raise ValueError(f"mode must be 'live' or 'replay', got {mode!r}")
    budgets, parallelism = {}, 1  # a replay has no network wait for threads to overlap
    if mode == "live":
        parallelism = LIVE_PARALLELISM
        if transport is None:
            transport = LiveTransport(token)
        budgets = {"search": (AUTH_SEARCH_PER_MINUTE if token else ANON_SEARCH_PER_MINUTE, 60.0),
                   "core": (AUTH_CORE_PER_HOUR if token else ANON_CORE_PER_HOUR, 3600.0)}
    elif transport is None:
        if fixture_dir is None:
            raise FixtureNotFound("replay mode requires a fixture directory")
        transport = ReplayTransport(fixture_dir)
    if sleep is None:
        sleep = time.sleep if mode == "live" else lambda seconds: None
    gate = RateGate(clock=clock or time.time, sleep=sleep, wait=wait_on_rate_limit, budgets=budgets)
    return Session(transport=transport, gate=gate, parallelism=parallelism)
