"""Property: a run over hostile replay payloads keeps its invariants or fails cleanly.

A recorded fixture (two search pages, threads of 2, 100 + 1 and 1 comments, and
one thread whose page always answers 429, so every run retries on a simulated
clock) is mutated: keys dropped, values retyped, ids duplicated across pages,
bodies truncated or replaced, statuses and headers made odd. A fixture records
one reply per URL, so a retry gets the same reply again. Each run must either
keep conservation (searched = classified + omitted, each issue once) and
determinism (two runs, the same CSV bytes), or raise an IssueSiftError, and do
the same on the second run.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeClock
from fixtureutil import make_comment, make_issue

from issuesift.classifier import load_default_model
from issuesift.errors import IssueSiftError
from issuesift.github_client import GITHUB_API, PAGE_SIZE, open_session
from issuesift.pipeline import QuerySpec, run
from issuesift.report import write_omitted, write_results
from issuesift.text_prep import PrepConfig

QUERY = "widget"
SPEC = QuerySpec(query=QUERY)
MODEL = load_default_model()
PREP = PrepConfig.default()


def base_entries():
    """(url, payload, status, headers) per recording, in manifest order."""
    comment_counts = {1: 2, 2: PAGE_SIZE + 1, 3: 1, 4: 1, 101: 1}
    issues = [make_issue(i, i, title=f"{QUERY} {i}", comments=comment_counts.get(i, 0))
              for i in range(1, PAGE_SIZE + 4)]
    search = f"{GITHUB_API}/search/issues?q={QUERY}&per_page={PAGE_SIZE}&page="
    entries = [
        (search + "1", {"total_count": len(issues), "items": issues[:PAGE_SIZE]}, 200, {}),
        (search + "2", {"total_count": len(issues), "items": issues[PAGE_SIZE:]}, 200, {}),
    ]
    next_id = 1000
    for issue in (i for i in issues if i["comments"]):
        thread = [make_comment(next_id + n, f"the {QUERY} fails in line {n}\nTry this fix.")
                  for n in range(issue["comments"])]
        next_id += len(thread)
        for page in range(1, len(thread) // PAGE_SIZE + 2):
            url = f"{issue['comments_url']}?per_page={PAGE_SIZE}&page={page}"
            if issue["id"] == 4:  # every try is rate-limited: the retry path, then fetch_failed
                entries.append((url, {"message": "slow down"}, 429, {"retry-after": "2"}))
            else:
                entries.append((url, thread[(page - 1) * PAGE_SIZE:page * PAGE_SIZE], 200, {}))
    return entries


BASE = base_entries()
ENTRY = st.integers(0, len(BASE) - 1)
ITEM = st.integers(-1, PAGE_SIZE)  # -1: the page itself; otherwise an item, modulo the page size
KEY = st.sampled_from(["id", "number", "title", "body", "html_url", "url", "comments_url", "comments",
                       "created_at", "updated_at", "repository_url", "user", "items", "total_count"])
VALUE = st.sampled_from([None, True, 0, -1, 1.5, 10**30, "", "x", "\x00", [], {}, {"id": 1}])
ID = st.sampled_from([1, 2, 3, 101, 102, 1000, 1002, 1101, 1102])
BODY = st.sampled_from([b"", b"null", b"{}", b"[]", b'"x"', b"1e999", b"NaN", b"\xff\xfe",
                        b"\xef\xbb\xbf[]", b"[" * 3000, b"[" * 3000 + b"]" * 3000])
STATUS = st.sampled_from([0, 100, 201, 204, 299, 301, 304, 400, 401, 403, 404, 410, 418,
                          422, 429, 500, 503, 599, 600, -1, 10**30, "200", None, True, 200.0])
HEADER = st.sampled_from(["retry-after", "x-ratelimit-remaining", "x-ratelimit-reset", "X-Odd",
                          "h" * 1000])
HEADER_VALUE = st.one_of(
    st.sampled_from(["0", "1e309", "-1e309", "nan", "-5", "9" * 1000, "\x00", "", "2", 7, None]),
    st.text(max_size=20),
)
DROP = object()  # an "entry" mutation with this value removes the key
MUTATION = st.one_of(
    st.tuples(st.just("drop"), ENTRY, ITEM, KEY),
    st.tuples(st.just("retype"), ENTRY, ITEM, KEY, VALUE),
    st.tuples(st.just("duplicate"), ENTRY, ITEM, ID),
    st.tuples(st.just("truncate"), ENTRY, st.floats(0, 1)),
    st.tuples(st.just("body"), ENTRY, BODY),
    st.tuples(st.just("status"), ENTRY, STATUS),
    st.tuples(st.just("header"), ENTRY, HEADER, HEADER_VALUE),
    st.tuples(st.just("entry"), ENTRY, st.sampled_from([("headers", []), ("headers", "x"), ("status", DROP)])),
)


def target(payload, item):
    """The dict a key mutation edits: the page, or one of its items; None if neither is a dict."""
    items = payload.get("items") if isinstance(payload, dict) else payload
    if item >= 0 and isinstance(items, list) and items:
        payload = items[item % len(items)]
    return payload if isinstance(payload, dict) else None


def write_mutated(directory: Path, mutations) -> Path:
    payloads = [json.loads(json.dumps(payload)) for _, payload, _, _ in BASE]
    bodies: dict[int, bytes] = {}
    entries = [{"url": url, "body": f"{index:04d}.body.json", "status": status, "headers": dict(headers)}
               for index, (url, _, status, headers) in enumerate(BASE)]
    for kind, entry, *args in mutations:
        if kind in ("drop", "retype", "duplicate"):
            edited = target(payloads[entry], args[0])
            if edited is None:
                continue
            if kind == "drop":
                edited.pop(args[1], None)
            else:
                edited["id" if kind == "duplicate" else args[1]] = args[-1]
        elif kind == "truncate":
            body = bodies.get(entry, json.dumps(payloads[entry]).encode())
            bodies[entry] = body[:int(len(body) * args[0])]
        elif kind == "body":
            bodies[entry] = args[0]
        elif kind == "status":
            entries[entry]["status"] = args[0]
        elif kind == "header" and isinstance(entries[entry].get("headers"), dict):
            entries[entry]["headers"][args[0]] = args[1]
        elif kind == "entry":
            key, value = args[0]
            if value is DROP:
                entries[entry].pop(key, None)
            else:
                entries[entry][key] = value
    for index, entry in enumerate(entries):
        (directory / entry["body"]).write_bytes(bodies.get(index, json.dumps(payloads[index]).encode()))
    (directory / "manifest.json").write_text(json.dumps({"fixture_format": 2, "entries": entries}),
                                             encoding="utf-8")
    return directory


def session(fixture):
    clock = FakeClock()  # retries sleep on simulated time
    return open_session(None, mode="replay", fixture_dir=fixture, clock=clock.time, sleep=clock.sleep)


def run_to_csv(fixture: Path, out: Path):
    """(records, omitted, summary, CSV bytes) of one run, or the IssueSiftError it raised."""
    try:
        records, omitted, summary = run(SPEC, session(fixture), MODEL, PREP)
        write_results(records, out / "results.csv", True)
        write_omitted(omitted, out / "omitted.csv")
    except IssueSiftError as exc:
        return exc
    csvs = (out / "results.csv").read_bytes(), (out / "omitted.csv").read_bytes()
    return records, omitted, summary, csvs


@given(st.lists(MUTATION, min_size=1, max_size=3))
@settings(max_examples=120, derandomize=True, database=None, deadline=None)
def test_hostile_replay_keeps_invariants_or_fails_cleanly(mutations):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        fixture = write_mutated(root, mutations)
        (root / "a").mkdir()
        (root / "b").mkdir()
        first, second = run_to_csv(fixture, root / "a"), run_to_csv(fixture, root / "b")
        if isinstance(first, IssueSiftError):
            assert (type(second), str(second)) == (type(first), str(first))
            return
        records, omitted, summary, csvs = first
        assert not isinstance(second, IssueSiftError) and second[3] == csvs  # determinism

        searched = [issue.id for issue in session(fixture).search_issues(QUERY, SPEC.limit)]
        omitted_ids = [o.id for o in omitted]
        assert len(set(searched)) == len(searched) == summary.issues_searched
        assert len(set(omitted_ids)) == len(omitted_ids) == summary.issues_omitted
        assert set(omitted_ids) <= set(searched)
        assert {r.id for r in records} <= set(searched) - set(omitted_ids)
        assert summary.issues_classified == len(searched) - len(omitted_ids)


def test_unmutated_fixture_runs(tmp_path):
    """The property above is not met by a fixture that fails every run when it opens."""
    (tmp_path / "out").mkdir()
    result = run_to_csv(write_mutated(tmp_path, []), tmp_path / "out")
    assert not isinstance(result, IssueSiftError), result
    records, omitted, summary, _ = result
    assert records and summary.issues_classified == 3  # issues 1-3 have threads; 101 is past the limit
    assert (4, "fetch_failed") in {(o.id, o.reason) for o in omitted}  # its 429 was retried 4 times
