import threading
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import urlsplit

import pytest

from conftest import ClockedTransport, FakeClock, ScriptedTransport, reply
from fixtureutil import FixtureWriter, make_comment, make_issue, write_fixture

from issuesift import pipeline
from issuesift.classifier import LabeledCorpus, Taxonomy, load_default_model, train_baseline
from issuesift.errors import InvalidToken, NetworkFailure, UnknownCategory
from issuesift.github_client import (
    GITHUB_API,
    LIVE_PARALLELISM,
    IssueRef,
    RawComment,
    ReplayTransport,
    open_session,
)
from issuesift.pipeline import (
    ClassifiedRecord,
    OmittedIssue,
    QuerySpec,
    RunSummary,
    apply_category_filters,
    run,
    strict_match,
)
from issuesift.report import write_report
from issuesift.text_prep import PrepConfig, preprocess_comment

PREP = PrepConfig(stop_words=frozenset())


def issue_ref(issue_id=1, number=1, title="", body="", comment_count=1):
    return IssueRef(
        id=issue_id, title=title, body=body,
        html_url=f"https://github.com/o/r/issues/{number}",
        api_url=f"{GITHUB_API}/repos/o/r/issues/{number}",
        comments_url=f"{GITHUB_API}/repos/o/r/issues/{number}/comments",
        comment_count=comment_count,
    )


def raw_comment(body, issue_id=1, comment_id=100):
    return RawComment(issue_id=issue_id, comment_id=comment_id, author_login="u",
                      body=body, created_at="2021-01-01T00:00:00Z")


def keyword_model():
    """Tiny deterministic model: each category owns one keyword."""
    corpus = LabeledCorpus((
        (("fixing", "fixing"), "Solution Discussion"),
        (("cheers", "cheers"), "Social Discussion"),
        (("blank", "blank"), "Usage"),
    ))
    taxonomy = Taxonomy(("Solution Discussion", "Social Discussion", "Usage"))
    return train_baseline(corpus, taxonomy, alpha=1.0)


class TestStrictMatch:
    def test_issue_scope_keeps_all_comments_on_match(self):
        issue = issue_ref(title="unrelated", body="")
        comments = [raw_comment("call tf.function( now"), raw_comment("no keyword", comment_id=101)]
        kept, matched = strict_match(issue, comments, "tf.function", "issue")
        assert matched is True
        assert kept == comments

    def test_relaxed_hit_dropped_without_verbatim_substring(self):
        issue = issue_ref(title="tf function talk", body="still no period variant")
        comments = [raw_comment("tf function is nice")]
        kept, matched = strict_match(issue, comments, "tf.function", "issue")
        assert matched is False
        assert kept == []

    def test_title_match_with_empty_comments(self):
        issue = issue_ref(title="about tf.function here", body="")
        kept, matched = strict_match(issue, [], "tf.function", "issue")
        assert matched is True
        assert kept == []

    def test_case_insensitive(self):
        issue = issue_ref()
        comments = [raw_comment("USE TF.FUNCTION NOW")]
        _, matched = strict_match(issue, comments, "tf.function", "issue")
        assert matched is True

    def test_comment_scope_keeps_only_matching(self):
        issue = issue_ref(title="tf.function in title only")
        comments = [raw_comment("has tf.function"), raw_comment("does not", comment_id=101)]
        kept, matched = strict_match(issue, comments, "tf.function", "comment")
        assert matched is True
        assert [c.comment_id for c in kept] == [100]

    def test_comment_scope_title_does_not_count(self):
        issue = issue_ref(title="tf.function in title only")
        comments = [raw_comment("nothing relevant")]
        kept, matched = strict_match(issue, comments, "tf.function", "comment")
        assert matched is False
        assert kept == []

    @pytest.mark.parametrize("query, scope", [("", "issue"), ("tf.function", "thread")],
                             ids=["empty-query", "bad-scope"])
    def test_bad_arguments_rejected(self, query, scope):
        with pytest.raises(ValueError):
            strict_match(issue_ref(), [raw_comment("tf.function")], query, scope)


class TestHasDiscussion:
    """run() omits an issue as no_discussion iff it has fewer than min_comments."""

    @staticmethod
    def omissions(tmp_path, comment_count, min_comments):
        issue = make_issue(10, 1, title="tf.function", comments=comment_count)
        comments = [make_comment(100 + i, "fixing") for i in range(comment_count)]
        fixture = write_fixture(tmp_path / f"fx{comment_count}", query="tf.function",
                                issues=[issue], comments_by_id={10: comments})
        session = open_session(None, mode="replay", fixture_dir=fixture)
        spec = QuerySpec(query="tf.function", min_comments=min_comments)
        _, omitted, summary = run(spec, session, keyword_model(), PREP)
        assert summary.issues_classified + summary.issues_omitted == 1
        return [o.reason for o in omitted]

    def test_zero_comments(self, tmp_path):
        assert self.omissions(tmp_path, 0, 1) == ["no_discussion"]

    def test_one_comment(self, tmp_path):
        assert self.omissions(tmp_path, 1, 1) == []

    def test_higher_threshold(self, tmp_path):
        assert self.omissions(tmp_path, 5, 3) == []
        assert self.omissions(tmp_path, 2, 3) == ["no_discussion"]


def classified(issue, category, comment_id=100, line_index=0):
    from issuesift.classifier import predict_line
    model = keyword_model()
    token = {"Solution Discussion": "fixing", "Social Discussion": "cheers", "Usage": "blank"}[category]
    prediction = predict_line(model, (token,))
    assert prediction.category == category
    return ClassifiedRecord(id=issue.id, html_url=issue.html_url, api_url=issue.api_url,
                            comment_id=comment_id, line_index=line_index,
                            comment_line=token, category=prediction.category,
                            confidence=prediction.confidence)


class TestApplyCategoryFilters:
    def test_forbid_drops_issue(self):
        issue = issue_ref()
        records = [classified(issue, "Solution Discussion")]
        spec = QuerySpec(query="q", forbid_categories=frozenset({"Solution Discussion"}))
        assert apply_category_filters(records, spec) is None

    def test_omit_drops_rows_but_keeps_issue(self):
        issue = issue_ref()
        records = [
            classified(issue, "Usage", comment_id=100),
            classified(issue, "Social Discussion", comment_id=101),
            classified(issue, "Usage", comment_id=102),
        ]
        spec = QuerySpec(query="q", omit_categories=frozenset({"Social Discussion"}))
        kept = apply_category_filters(records, spec)
        assert kept == [records[0], records[2]]

    def test_empty_filters_identity(self):
        issue = issue_ref()
        records = [classified(issue, "Usage")]
        assert apply_category_filters(records, QuerySpec(query="q")) == records

    def test_require_needs_every_category(self):
        issue = issue_ref()
        records = [classified(issue, "Usage")]
        spec = QuerySpec(query="q",
                         require_categories=frozenset({"Usage", "Solution Discussion"}))
        assert apply_category_filters(records, spec) is None

    def test_require_satisfied(self):
        issue = issue_ref()
        records = [classified(issue, "Usage"), classified(issue, "Solution Discussion", comment_id=101)]
        spec = QuerySpec(query="q", require_categories=frozenset({"Usage"}))
        assert apply_category_filters(records, spec) == records

    def test_zero_line_issue_fails_require(self):
        spec = QuerySpec(query="q", require_categories=frozenset({"Usage"}))
        assert apply_category_filters([], spec) is None

    def test_issue_left_without_rows_stays_classified(self):
        issue = issue_ref()
        records = [classified(issue, "Social Discussion")]
        spec = QuerySpec(query="q", omit_categories=frozenset({"Social Discussion"}))
        assert apply_category_filters(records, spec) == []


class TestQuerySpecValidation:
    def test_limit_bounds(self):
        for limit in (0, 1001, 2.5, True, "5"):  # an int in 1..1000, and no other type
            with pytest.raises(ValueError, match="^limit must be"):
                QuerySpec(query="q", limit=limit)

    def test_require_forbid_disjoint(self):
        with pytest.raises(ValueError):
            QuerySpec(query="q", require_categories=frozenset({"A"}),
                      forbid_categories=frozenset({"A"}))

    def test_empty_query(self):
        with pytest.raises(ValueError):
            QuerySpec(query="  ")

    def test_bad_scope(self):
        with pytest.raises(ValueError):
            QuerySpec(query="q", strict_scope="thread")

    @pytest.mark.parametrize("option, value", [("sort", "stars"), ("order", "up")])
    def test_bad_sort_or_order(self, option, value):
        with pytest.raises(ValueError, match=f"^{option} must be one of"):
            QuerySpec(query="q", **{option: value})

    def test_negative_min_comments(self):
        for min_comments in (-1, 0.5, True, "5"):  # an int >= 0, and no other type
            with pytest.raises(ValueError, match="^min_comments must be"):
                QuerySpec(query="q", min_comments=min_comments)


def composition_fixture(tmp_path):
    """3 issues: one classifiable, one with no comments, one strict-match miss."""
    good = make_issue(10, 1, title="about tf.function", comments=1)
    silent = make_issue(20, 2, title="tf.function also", comments=0)
    relaxed = make_issue(30, 3, title="tf function spaced", comments=1)
    return write_fixture(
        tmp_path / "fx", query="tf.function",
        issues=[good, silent, relaxed],
        comments_by_id={
            10: [make_comment(100, "tf.function fixing cheers\nblank")],
            30: [make_comment(300, "tf function without the period")],
        },
    )


class TestRun:
    def test_composition_of_stage_contracts(self, tmp_path):
        session = open_session(None, mode="replay", fixture_dir=composition_fixture(tmp_path))
        spec = QuerySpec(query="tf.function", limit=1000)
        records, omitted, summary = run(spec, session, keyword_model(), PREP)
        assert {r.id for r in records} == {10}
        assert {(o.id, o.reason) for o in omitted} == {
            (20, "no_discussion"), (30, "no_strict_match"),
        }
        assert summary.issues_searched == 3
        assert summary.issues_classified == 1
        assert summary.issues_omitted == 2
        assert summary.issues_classified + summary.issues_omitted == summary.issues_searched

    def test_every_omission_reason_with_a_kept_issue(self, tmp_path):
        kept = make_issue(50, 5, title="tf.function kept", comments=1)
        failed = make_issue(40, 4, title="tf.function unrecorded", comments=2)
        relaxed = make_issue(30, 3, title="tf function spaced", comments=1)
        silent = make_issue(20, 2, title="tf.function quiet", comments=0)
        forbidden = make_issue(10, 1, title="tf.function fixed", comments=1)
        searched = [relaxed, forbidden, kept, silent, failed]
        writer = FixtureWriter(tmp_path / "fx")
        writer.add_search_pages("tf.function", searched)
        writer.add_comment_pages(kept, [make_comment(500, "tf.function cheers\nblank")])
        writer.add_comment_pages(relaxed, [make_comment(300, "tf function without the period")])
        writer.add_comment_pages(forbidden, [make_comment(100, "tf.function fixing")])
        # No recording of the comments of `failed`, so fetching them fails.
        session = open_session(None, mode="replay", fixture_dir=writer.write_manifest())
        spec = QuerySpec(query="tf.function", forbid_categories=frozenset({"Solution Discussion"}))
        records, omitted, summary = run(spec, session, keyword_model(), PREP)

        record_ids, omitted_ids = {r.id for r in records}, [o.id for o in omitted]
        assert record_ids == {50}
        assert not record_ids & set(omitted_ids)
        assert record_ids | set(omitted_ids) == {issue["id"] for issue in searched}
        assert omitted == [
            OmittedIssue(i["id"], i["html_url"], i["url"], reason) for i, reason in (
                (forbidden, "category_filtered"), (silent, "no_discussion"),
                (relaxed, "no_strict_match"), (failed, "fetch_failed"),
            )
        ]
        assert [r.category for r in records] == ["Social Discussion", "Usage"]
        assert (summary.issues_searched, summary.issues_classified, summary.issues_omitted) == (5, 1, 4)
        assert summary.per_reason == dict.fromkeys(pipeline.OMISSION_REASONS, 1)
        assert summary.per_category == {"Solution Discussion": 0, "Social Discussion": 1, "Usage": 1}

    def test_limit_one_processes_one(self, tmp_path):
        session = open_session(None, mode="replay", fixture_dir=composition_fixture(tmp_path))
        spec = QuerySpec(query="tf.function", limit=1)
        records, omitted, summary = run(spec, session, keyword_model(), PREP)
        assert summary.issues_searched == 1
        assert {r.id for r in records} == {10}

    def test_outputs_sorted_and_deterministic(self, tmp_path):
        fixture = composition_fixture(tmp_path)

        def once():
            session = open_session(None, mode="replay", fixture_dir=fixture)
            return run(QuerySpec(query="tf.function"), session, keyword_model(), PREP)

        first = once()
        second = once()
        assert first == second
        records = first[0]
        keys = [(r.id, r.comment_id, r.line_index) for r in records]
        assert keys == sorted(keys)

    def test_sort_ties_keep_thread_order(self, tmp_path):
        # Two comments share an id, so their lines tie on (id, comment_id,
        # line_index); the earlier one's text sorts after the later one's.
        first = make_issue(20, 2, comments=3)
        second = make_issue(10, 1, comments=1)
        fixture = write_fixture(
            tmp_path / "fx", query="anything", issues=[first, second],
            comments_by_id={
                20: [make_comment(201, "zeta fixing\nzeta cheers"),
                     make_comment(201, "alpha cheers"),
                     make_comment(200, "beta blank")],
                10: [make_comment(100, "gamma fixing")],
            },
        )
        session = open_session(None, mode="replay", fixture_dir=fixture)
        spec = QuerySpec(query="anything", strict_match=False)
        records, _, _ = run(spec, session, keyword_model(), PREP)
        assert [(r.id, r.comment_id, r.line_index, r.comment_line) for r in records] == [
            (10, 100, 0, "gamma fixing"),
            (20, 200, 0, "beta blank"),
            (20, 201, 0, "zeta fixing"),
            (20, 201, 0, "alpha cheers"),
            (20, 201, 1, "zeta cheers"),
        ]

    def test_fetch_failure_degrades_to_omission(self, tmp_path):
        good = make_issue(10, 1, title="tf.function ok", comments=1)
        gone = make_issue(20, 2, title="tf.function gone", comments=3)
        cut = make_issue(30, 3, title="tf.function cut", comments=150)
        writer = FixtureWriter(tmp_path / "fx")
        writer.add_search_pages("tf.function", [good, gone, cut])
        writer.add(f"{good['comments_url']}?per_page=100&page=1",
                   [make_comment(100, "tf.function fixing")])
        writer.add(f"{gone['comments_url']}?per_page=100&page=1",
                   {"message": "Not Found"}, status=404)
        # a full first page, then a second page that is not a list
        writer.add(f"{cut['comments_url']}?per_page=100&page=1",
                   [make_comment(300 + i, "tf.function fixing") for i in range(100)])
        writer.add(f"{cut['comments_url']}?per_page=100&page=2", {"message": "oops"})
        writer.write_manifest()
        session = open_session(None, mode="replay", fixture_dir=tmp_path / "fx")
        records, omitted, summary = run(QuerySpec(query="tf.function"), session,
                                        keyword_model(), PREP)
        assert {r.id for r in records} == {10}
        assert [(o.id, o.reason) for o in omitted] == [(20, "fetch_failed"), (30, "fetch_failed")]
        assert summary.per_reason["fetch_failed"] == 2

    def test_golden_run_requests_each_page_once(self, small_fixture_dir):
        """The golden run asks for the search page and each commented thread once, in
        search order; a replay would serve a repeated request without complaint."""
        transport = ClockedTransport(ReplayTransport(small_fixture_dir), FakeClock().time)
        session = open_session(None, mode="replay", transport=transport)
        run(QuerySpec(query="tf.function"), session, load_default_model(), PrepConfig.default())
        threads = ["tensorflow/tensorflow/issues/26104", "pytorch/pytorch/issues/4242",
                   "apple/coremltools/issues/1301"]  # issues/31000 counts 0 comments
        assert [url for _, url in transport.requests] == [
            f"{GITHUB_API}/search/issues?page=1&per_page=100&q=tf.function",
            *(f"{GITHUB_API}/repos/{thread}/comments?page=1&per_page=100" for thread in threads),
        ]

    def test_no_strict_match_mode_keeps_relaxed_hits(self, tmp_path):
        session = open_session(None, mode="replay", fixture_dir=composition_fixture(tmp_path))
        spec = QuerySpec(query="tf.function", strict_match=False)
        records, omitted, _ = run(spec, session, keyword_model(), PREP)
        assert {r.id for r in records} == {10, 30}
        assert all(o.reason != "no_strict_match" for o in omitted)

    def test_comment_scope_drops_nonmatching_comments(self, tmp_path):
        issue = make_issue(10, 1, title="x", comments=2)
        fixture = write_fixture(
            tmp_path / "fx", query="tf.function", issues=[issue],
            comments_by_id={10: [
                make_comment(100, "tf.function fixing", created="2021-01-01T00:00:00Z"),
                make_comment(101, "cheers only", created="2021-01-02T00:00:00Z"),
            ]},
        )
        session = open_session(None, mode="replay", fixture_dir=fixture)
        spec = QuerySpec(query="tf.function", strict_scope="comment")
        records, _, _ = run(spec, session, keyword_model(), PREP)
        assert {r.comment_id for r in records} == {100}

    def test_min_comments_zero_classifies_commentless_issue(self, tmp_path):
        issue = make_issue(10, 1, title="tf.function quiet", comments=0)
        fixture = write_fixture(tmp_path / "fx", query="tf.function", issues=[issue])
        session = open_session(None, mode="replay", fixture_dir=fixture)
        spec = QuerySpec(query="tf.function", min_comments=0)
        records, omitted, summary = run(spec, session, keyword_model(), PREP)
        assert records == [] and omitted == []
        assert summary.issues_classified == 1

    def test_unknown_filter_category_rejected(self, tmp_path):
        session = open_session(None, mode="replay", fixture_dir=composition_fixture(tmp_path))
        spec = QuerySpec(query="tf.function", omit_categories=frozenset({"Nope"}))
        with pytest.raises(UnknownCategory):
            run(spec, session, keyword_model(), PREP)

    def test_forbid_category_filters_issue(self, tmp_path):
        session = open_session(None, mode="replay", fixture_dir=composition_fixture(tmp_path))
        spec = QuerySpec(query="tf.function",
                         forbid_categories=frozenset({"Solution Discussion"}))
        records, omitted, _ = run(spec, session, keyword_model(), PREP)
        assert records == []
        assert any(o.reason == "category_filtered" and o.id == 10 for o in omitted)

    def test_conservation_per_stage_contracts(self, tmp_path):
        session = open_session(None, mode="replay", fixture_dir=composition_fixture(tmp_path))
        spec = QuerySpec(query="tf.function")
        records, omitted, summary = run(spec, session, keyword_model(), PREP)
        classified_ids = {r.id for r in records}
        omitted_ids = {o.id for o in omitted}
        assert not classified_ids & omitted_ids
        assert len(omitted) == len(omitted_ids)  # one omission per issue

    @pytest.mark.parametrize("bad_item", [
        {"body": "tf.function fixing"},
        {"id": None, "body": "tf.function fixing"},
        {"id": "301", "body": "tf.function fixing"},
        {"id": 3.5, "body": "tf.function fixing"},
        {"id": True, "body": "tf.function fixing"},
        "tf.function fixing",
        None,
        {"id": 1, "body": 5},
        {"id": 1, "user": "bob"},
        {"id": 1, "body": "tf.function", "created_at": 7},
        {"id": 1, "body": "tf.function", "user": {"login": ["bob"]}},
        {"id": 1, "body": "tf.function ab\ud800cd"},  # sent as the JSON escape \ud800
    ])
    def test_malformed_comment_item_degrades_to_fetch_failed(self, bad_item):
        good = make_issue(10, 1, title="tf.function ok", comments=1)
        broken = make_issue(30, 3, title="tf.function broken", comments=2)
        later = make_issue(40, 4, title="tf.function later", comments=1)
        transport = ScriptedTransport([
            reply(200, {"total_count": 3, "incomplete_results": False,
                        "items": [good, broken, later]}),
            reply(200, [make_comment(100, "tf.function fixing")]),
            reply(200, [make_comment(300, "tf.function cheers"), bad_item]),
            reply(200, [make_comment(400, "tf.function blank")]),
        ])
        session = open_session(None, mode="replay", transport=transport)
        records, omitted, summary = run(QuerySpec(query="tf.function"), session,
                                        keyword_model(), PREP)
        assert [(o.id, o.reason) for o in omitted] == [(30, "fetch_failed")]
        assert {r.id for r in records} == {10, 40}
        assert summary.issues_searched == 3
        assert summary.issues_classified + summary.issues_omitted == summary.issues_searched
        assert not transport.replies

    @pytest.mark.parametrize("bad_item", [
        {k: v for k, v in make_issue(20, 2, title="tf.function").items() if k != "id"},
        "tf.function",
        {**make_issue(20, 2, title="tf.function"), "id": True},
        {**make_issue(20, 2), "title": 5},
        {**make_issue(20, 2, title="tf.function"), "comments": -1},
        {**make_issue(20, 2, title="tf.function"), "comments_url": None},
        {**make_issue(20, 2, title="tf.function"), "id": 0},
        {**make_issue(20, 2, title="tf.function"), "html_url": ""},
        {**make_issue(20, 2, title="tf.function", comments=1),
         "comments_url": "https://evil.example/repos/o/r/issues/2/comments"},
        {**make_issue(20, 2, title="tf.function", comments=1),
         "comments_url": "https://api.github.com.evil.example/repos/o/r/issues/2/comments"},
    ], ids=["no-id", "string", "bool-id", "int-title", "negative-comments", "null-comments-url",
            "zero-id", "empty-html-url", "foreign-comments-url", "lookalike-host"])
    def test_malformed_search_item_raises_network_failure(self, bad_item, fake_clock):
        good = make_issue(10, 1, title="tf.function ok", comments=0)
        transport = ScriptedTransport([
            reply(200, {"total_count": 2, "incomplete_results": False,
                        "items": [good, bad_item]}),
        ])
        session = open_session("t", mode="live", transport=transport,
                               clock=fake_clock.time, sleep=fake_clock.sleep)
        with pytest.raises(NetworkFailure):
            run(QuerySpec(query="tf.function"), session, keyword_model(), PREP)
        assert not transport.replies

    @pytest.mark.parametrize("unread", [
        {"number": "2"}, {"repository_url": 5}, {"created_at": []}, {"updated_at": {}},
    ], ids=["string-number", "int-repository-url", "list-created-at", "dict-updated-at"])
    def test_unread_search_item_keys_are_ignored(self, unread, tmp_path):
        """Keys the run never reads are not type-checked: the CSVs match the well-formed item's."""
        def csv_bytes(name, item):
            fixture = write_fixture(tmp_path / name, query="tf.function", issues=[item],
                                    comments_by_id={20: [make_comment(200, "tf.function fixing")]})
            session = open_session(None, mode="replay", fixture_dir=fixture)
            records, omitted, _ = run(QuerySpec(query="tf.function"), session, keyword_model(), PREP)
            write_report(records, omitted, tmp_path / f"{name}-r.csv", tmp_path / f"{name}-o.csv")
            return [(tmp_path / f"{name}-{kind}.csv").read_bytes() for kind in "ro"]

        well_formed = make_issue(20, 2, title="tf.function", comments=1)
        good = csv_bytes("good", well_formed)
        assert good[0].endswith(b",200,0,tf.function fixing,Solution Discussion\n")
        assert csv_bytes("odd", {**well_formed, **unread}) == good


class RoutedTransport:
    """A live GitHub whose search finds ``count`` issues; safe to call from any thread.

    Issue ``n`` has id ``10 * n`` and one comment. ``comments(n)`` answers its
    comments request on the requesting thread; the numbers asked for are kept
    in ``comment_requests``, in the order they arrived.
    """

    def __init__(self, count, comments):
        self.issues = [make_issue(10 * n, n, title=f"tf.function {n}", comments=1)
                       for n in range(1, count + 1)]
        self.comments = comments
        self.comment_requests: list[int] = []
        self._lock = threading.Lock()

    def request(self, method, url, params=None):
        path = urlsplit(url).path
        if path == "/search/issues":
            return reply(200, {"total_count": len(self.issues), "incomplete_results": False,
                               "items": self.issues})
        number = int(path.split("/")[-2])
        with self._lock:
            self.comment_requests.append(number)
        return self.comments(number)


def thread_reply(number):
    return reply(200, [make_comment(100 * number, "tf.function fixing")])


class TestStreamedRun:
    def run(self, transport, clock):
        session = open_session("t", mode="live", transport=transport,
                               clock=clock.time, sleep=clock.sleep)
        return run(QuerySpec(query="tf.function"), session, keyword_model(), PREP)

    def test_invalid_token_on_comments_raises(self):
        """A 401 is not one issue's failure: the first issue in search order raises it."""
        denied = reply(401, {"message": "Bad credentials"})
        transport = ScriptedTransport([
            reply(200, {"total_count": 2, "incomplete_results": False, "items": [
                make_issue(10, 1, title="tf.function a", comments=1),
                make_issue(20, 2, title="tf.function b", comments=1),
            ]}),
            denied, denied,
        ])
        session = open_session(None, mode="replay", transport=transport)
        with pytest.raises(InvalidToken, match="/issues/1/comments"):
            run(QuerySpec(query="tf.function"), session, keyword_model(), PREP)

    @pytest.mark.parametrize("status", [400, 403, 410, 422])
    def test_other_comment_errors_degrade_to_fetch_failed(self, status, fake_clock):
        def comments(number):
            return reply(status, {"message": "no"}) if number == 1 else thread_reply(number)

        records, omitted, _ = self.run(RoutedTransport(2, comments), fake_clock)
        assert [(o.id, o.reason) for o in omitted] == [(10, "fetch_failed")]
        assert {r.id for r in records} == {20}

    def test_first_issue_is_classified_before_the_last_thread_arrives(self, fake_clock,
                                                                      monkeypatch):
        classified = threading.Event()
        waited = []
        classify = pipeline.classify_lines

        def classify_and_signal(model, lines):
            classified.set()
            return classify(model, lines)

        def comments(number):
            if number == 3:
                waited.append(classified.wait(timeout=5))
            return thread_reply(number)

        monkeypatch.setattr(pipeline, "classify_lines", classify_and_signal)
        records, omitted, _ = self.run(RoutedTransport(3, comments), fake_clock)
        assert waited == [True]
        assert {r.id for r in records} == {10, 20, 30} and omitted == []

    @pytest.mark.parametrize("failure", ["401", "processing"])
    def test_a_failure_stops_the_fetches_not_yet_started(self, failure, fake_clock, monkeypatch):
        """Every comments request after the first blocks until the pool shuts down,
        which is after the run stopped reading results; none may time out."""
        release = threading.Event()
        timed_out = []

        class ReleasingPool(ThreadPoolExecutor):
            def shutdown(self, *args, **kwargs):
                release.set()
                super().shutdown(*args, **kwargs)

        def comments(number):
            if number == 1:
                return reply(401, {"message": "Bad credentials"}) if failure == "401" \
                    else thread_reply(number)
            if not release.wait(timeout=5):
                timed_out.append(number)
                release.set()
            return thread_reply(number)

        def fail(*args):
            raise RuntimeError("processing failed")

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", ReleasingPool)
        if failure == "processing":
            monkeypatch.setattr(pipeline, "strict_match", fail)
        transport = RoutedTransport(30, comments)
        with pytest.raises(InvalidToken if failure == "401" else RuntimeError):
            self.run(transport, fake_clock)
        assert timed_out == []
        # The failing request, plus at most one in flight on each pool thread.
        assert 1 in transport.comment_requests
        assert len(transport.comment_requests) <= 1 + LIVE_PARALLELISM


class TestSummaryInvariants:
    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValueError):
            RunSummary(issues_searched=3, issues_classified=1, issues_omitted=1,
                       per_category={}, per_reason={})

    def test_records_come_from_their_own_issue_thread(self, small_fixture_dir):
        session = open_session(None, mode="replay", fixture_dir=small_fixture_dir)
        records, _, _ = run(QuerySpec(query="tf.function"), session,
                            load_default_model(), PrepConfig.default())
        threads = {
            issue.id: {c.comment_id for c in session.fetch_comments(issue)}
            for issue in session.search_issues("tf.function", 1000)
        }
        assert len({r.id for r in records}) == 2
        for r in records:
            assert r.comment_id in threads[r.id]
        keys = [(r.id, r.comment_id, r.line_index) for r in records]
        assert len(set(keys)) == len(keys)

    def test_line_data_has_no_instance_dict(self, small_fixture_dir):
        session = open_session(None, mode="replay", fixture_dir=small_fixture_dir)
        prep = PrepConfig.default()
        records, _, _ = run(QuerySpec(query="tf.function"), session, load_default_model(), prep)
        issue = session.search_issues("tf.function", 1)[0]
        comment = session.fetch_comments(issue)[0]
        lines = preprocess_comment(comment, prep)
        assert records and lines
        for instance in (records[0], lines[0], comment, issue):
            assert not hasattr(instance, "__dict__")