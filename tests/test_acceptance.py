"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import functools
import io
import math
import random
import re
import string
import time

import pytest

from conftest import ClockedTransport, FakeClock, FIXTURE_SMALL, GOLDEN_DIR, ScriptedTransport, reply
from fixtureutil import make_comment, make_issue, write_fixture
from test_classifier import oracle_argmax, oracle_log_posteriors

from issuesift.classifier import (
    FORMAT_VERSION,
    LabeledCorpus,
    ModelFile,
    Taxonomy,
    load_corpus,
    load_default_model,
    load_model,
    predict_line,
    save_model,
    train_baseline,
)
from issuesift.cli import main
from issuesift.github_client import RawComment, ReplayTransport, open_session
from issuesift.pipeline import QuerySpec, run
from issuesift.text_prep import PrepConfig, preprocess_comment, replace_tokens

PREP = PrepConfig.default()


def criterion(number, title):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                result = func(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL — {title}")
                raise
            print(f"ACCEPTANCE {number} PASS — {title}")
            return result
        return wrapper
    return decorate


# --- 1: golden end-to-end ----------------------------------------------------

@criterion(1, "golden end-to-end run is byte-identical and under 5 s")
def test_c1_golden_end_to_end(tmp_path):
    results = tmp_path / "results.csv"
    omitted = tmp_path / "omitted.csv"
    started = time.perf_counter()
    code = main(
        ["--query", "tf.function", "--fixtures", str(FIXTURE_SMALL),
         "--output", str(results), "--omitted-output", str(omitted)],
        {}, stdin=io.StringIO(), stdout=io.StringIO(), stderr=io.StringIO(),
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    assert results.read_bytes() == (GOLDEN_DIR / "results.csv").read_bytes()
    assert omitted.read_bytes() == (GOLDEN_DIR / "omitted.csv").read_bytes()
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


# --- 2: naive-Bayes oracle ---------------------------------------------------

@criterion(2, "500 randomized corpora match the brute-force posterior oracle")
def test_c2_naive_bayes_oracle():
    rng = random.Random(7001)
    names = ("Alpha", "Beta", "Gamma")
    pool = ("red", "blue", "green", "gold", "gray")
    for _ in range(500):
        class_count = rng.randint(1, 3)
        taxonomy = Taxonomy(names[:class_count])
        doc_count = rng.randint(class_count, 6)
        examples = tuple(
            (
                tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))),
                taxonomy.categories[i % class_count],
            )
            for i in range(doc_count)
        )
        query = [rng.choice(pool + ("oov",)) for _ in range(rng.randint(0, 5))]
        model = train_baseline(LabeledCorpus(examples), taxonomy, alpha=1.0)
        prediction = predict_line(model, query)
        expected = oracle_log_posteriors(examples, taxonomy, query, alpha=1.0)
        assert prediction.category == taxonomy.categories[oracle_argmax(expected)]
        for got, want in zip(prediction.scores, expected):
            assert abs(got - want) <= 1e-9


# --- 3: model round-trip -----------------------------------------------------

def random_model(rng):
    class_count = rng.randint(1, 4)
    taxonomy = Taxonomy(tuple(f"Cat{i}-{rng.randint(0, 999)}" for i in range(class_count)))
    vocab_size = rng.randint(0, 6)
    tokens = rng.sample([c + str(n) for c in string.ascii_lowercase[:8] for n in range(3)],
                        vocab_size)
    indexes = list(range(vocab_size))
    rng.shuffle(indexes)
    vocabulary = {token: index for token, index in zip(tokens, indexes)}
    weights = [[rng.uniform(-10, 10) for _ in range(vocab_size)] for _ in range(class_count)]
    bias = [rng.uniform(-5, 5) for _ in range(class_count)]
    metadata = {f"k{i}": f"v{rng.randint(0, 99)}" for i in range(rng.randint(0, 3))}
    return ModelFile(FORMAT_VERSION, taxonomy, vocabulary, weights, bias, metadata), tokens


@criterion(3, "1000 random models round-trip losslessly with identical predictions")
def test_c3_model_round_trip(tmp_path):
    rng = random.Random(7002)
    for i in range(1000):
        model, tokens = random_model(rng)
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        save_model(model, path_a)
        save_model(model, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        loaded = load_model(path_a)
        assert loaded == model
        for _ in range(3):
            query = [rng.choice(tokens + ["oov"]) for _ in range(rng.randint(0, 5))]
            original = predict_line(model, query)
            reloaded = predict_line(loaded, query)
            assert original == reloaded


# --- 4: tokenizer properties -------------------------------------------------

_FRAGMENTS = list("abcXYZ ('\"`\n.:/-_#!@)") + [
    "http://", "https://ex.io/a?b=1", "```", "``", "@bob", "@alice-2", "bob@host.io",
    "CODE", "QUOTE", "URL", "SCREEN_NAME", "tf.function", "don't", "''", '""',
]

MENTION_PATTERN = re.compile(r"(?<!\w)@[A-Za-z0-9-]{1,39}(?![\w-])")
SCHEME_PATTERN = re.compile(r"https?://", re.IGNORECASE)


@criterion(4, "replace_tokens idempotent on 10000 strings; no URLs/mentions/backticks survive")
def test_c4_tokenizer_properties():
    rng = random.Random(7003)
    for _ in range(10_000):
        text = "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(0, 20)))
        once = replace_tokens(text)
        assert replace_tokens(once) == once, f"not idempotent for {text!r}"
        comment = RawComment(issue_id=1, comment_id=1, author_login="u",
                             body=text, created_at="t")
        rendered = "\n".join(l.rendered for l in preprocess_comment(comment, PREP))
        assert "`" not in rendered, f"backtick survived {text!r}"
        assert not SCHEME_PATTERN.search(rendered), f"url survived {text!r}"
        assert not MENTION_PATTERN.search(rendered), f"mention survived {text!r}"


# --- 5: rate limiter ---------------------------------------------------------

@criterion(5, "<=30 search dispatches per sliding minute; Retry-After delays >=7 s")
def test_c5_rate_limiter(tmp_path):
    issue = make_issue(10, 1, title="busy", comments=0)
    fixture = write_fixture(tmp_path / "throttle", query="busy", issues=[issue])
    clock = FakeClock()
    transport = ClockedTransport(ReplayTransport(fixture), clock.time)
    session = open_session("token", mode="live", transport=transport,
                           clock=clock.time, sleep=clock.sleep)
    for _ in range(100):
        session.search_issues("busy", limit=1)
    times = sorted(at for at, _ in transport.requests)
    assert len(times) == 100
    for anchor in times:
        in_window = [t for t in times if anchor <= t < anchor + 60.0]
        assert len(in_window) <= 30, f"{len(in_window)} dispatches in window at {anchor}"

    # a 403 with Retry-After: 7, then success
    clock2 = FakeClock()
    transport2 = ClockedTransport(ScriptedTransport([
        reply(403, {"message": "slow down"}, {"Retry-After": "7"}),
        reply(200, {"total_count": 0, "items": []}),
    ]), clock2.time)
    session2 = open_session(None, mode="replay", transport=transport2,
                            clock=clock2.time, sleep=clock2.sleep)
    started = clock2.time()
    session2.search_issues("limited", limit=5)
    dispatches = [at for at, _ in transport2.requests]
    assert len(dispatches) == 2
    assert dispatches[1] - dispatches[0] >= 7.0
    assert clock2.time() - started >= 7.0


# --- randomized pipeline scenarios (criteria 6, 7, 9) -------------------------

SCENARIO_WORDS = (
    "error", "traceback", "workaround", "bypass", "thanks", "great",
    "reproduce", "steps", "docker", "version", "fix", "patch", "merge",
    "expected", "documented", "feature", "request", "closing", "stale",
    "contribute", "happy", "goal", "scenario", "plain", "misc", "words",
)
QUERIES = ("tf.function", "np.einsum(", "parallelStream()", "lock-free")


def build_scenario(rng, directory, index):
    query = rng.choice(QUERIES)
    issue_count = rng.randint(1, 20)
    issues, comments_by_id = [], {}
    for i in range(issue_count):
        issue_id = (index + 1) * 100_000 + i
        comment_count = rng.randint(0, 4)
        title = f"issue {issue_id}" + (f" mentions {query}" if rng.random() < 0.3 else "")
        body = query if rng.random() < 0.2 else "plain body text"
        comments = []
        for j in range(comment_count):
            words = [rng.choice(SCENARIO_WORDS) for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.4:
                words.append(query)
            comments.append(
                make_comment(issue_id * 10 + j, " ".join(words),
                             created=f"2021-01-01T00:00:{j:02d}Z")
            )
        issues.append(make_issue(issue_id, i + 1, title=title, body=body,
                                 comments=comment_count))
        comments_by_id[issue_id] = comments
    limit = rng.randint(1, 1000) if rng.random() < 0.5 else rng.randint(1, issue_count)
    fixture = write_fixture(directory, query=query, issues=issues,
                            comments_by_id=comments_by_id)
    return query, limit, issues, comments_by_id, fixture


@criterion(6, "conservation and the issue cap hold on randomized fixtures")
def test_c6_conservation_and_cap(tmp_path):
    rng = random.Random(7006)
    model = load_default_model()
    for index in range(30):
        query, limit, issues, _, fixture = build_scenario(rng, tmp_path / f"s{index}", index)
        session = open_session(None, mode="replay", fixture_dir=fixture)
        spec = QuerySpec(query=query, limit=limit)
        records, omitted, summary = run(spec, session, model, PREP)
        assert summary.issues_classified + summary.issues_omitted == summary.issues_searched
        assert summary.issues_searched == min(len(issues), limit)
        processed_ids = {r.id for r in records} | {o.id for o in omitted}
        assert len(processed_ids) <= limit <= 1000
        # every searched issue appears exactly once: as rows of a classified
        # issue or as exactly one omission
        searched_ids = {issue["id"] for issue in issues[:limit]}
        omitted_ids = [o.id for o in omitted]
        assert len(omitted_ids) == len(set(omitted_ids))
        assert set(omitted_ids) <= searched_ids
        assert {r.id for r in records} <= searched_ids - set(omitted_ids)


@criterion(7, "strict-match soundness on randomized fixtures; none omitted when disabled")
def test_c7_strict_match_soundness(tmp_path):
    rng = random.Random(7007)
    model = load_default_model()
    for index in range(30):
        query, limit, issues, comments_by_id, fixture = build_scenario(
            rng, tmp_path / f"s{index}", index)
        session = open_session(None, mode="replay", fixture_dir=fixture)
        records, omitted, summary = run(QuerySpec(query=query, limit=limit),
                                        session, model, PREP)
        needle = query.lower()
        raw = {issue["id"]: issue for issue in issues}
        omitted_ids = {o.id for o in omitted}
        searched_ids = {issue["id"] for issue in issues[:limit]}
        classified_ids = searched_ids - omitted_ids
        for issue_id in classified_ids:
            item = raw[issue_id]
            bodies = [c["body"] for c in comments_by_id[issue_id]]
            hit = (
                any(needle in body.lower() for body in bodies)
                or needle in item["title"].lower()
                or needle in item["body"].lower()
            )
            assert hit, f"classified issue {issue_id} never contains {query!r}"

        session2 = open_session(None, mode="replay", fixture_dir=fixture)
        _, omitted2, _ = run(QuerySpec(query=query, limit=limit, strict_match=False),
                             session2, model, PREP)
        assert all(o.reason != "no_strict_match" for o in omitted2)


# --- 8: baseline quality on the bundled separable corpus ----------------------

def macro_f1(expected, predicted, categories):
    scores = []
    for category in categories:
        tp = sum(1 for e, p in zip(expected, predicted) if e == category and p == category)
        fp = sum(1 for e, p in zip(expected, predicted) if e != category and p == category)
        fn = sum(1 for e, p in zip(expected, predicted) if e == category and p != category)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(scores) / len(scores)


@criterion(8, "baseline macro-F1 >= 0.95 on the held-out split of the bundled corpus")
def test_c8_separable_corpus_quality():
    from importlib import resources
    with resources.as_file(
        resources.files("issuesift").joinpath("data/training_corpus.csv")
    ) as path:
        corpus = load_corpus(path)
    assert len(corpus) == 200
    examples = list(corpus.examples)
    rng = random.Random(13)
    rng.shuffle(examples)
    cut = int(len(examples) * 0.8)
    train, held_out = examples[:cut], examples[cut:]
    taxonomy = load_default_model().taxonomy
    model = train_baseline(LabeledCorpus(tuple(train)), taxonomy, alpha=1.0)
    expected = [category for _, category in held_out]
    predicted = [predict_line(model, list(tokens)).category for tokens, _ in held_out]
    score = macro_f1(expected, predicted, taxonomy.categories)
    assert score >= 0.95, f"macro-F1 {score:.3f}"


# --- 9: category filters ------------------------------------------------------

@criterion(9, "omit filter suppresses rows; forbid leaves no issue with that category")
def test_c9_category_filters(tmp_path):
    rng = random.Random(7009)
    model = load_default_model()
    categories = list(model.taxonomy.categories)
    saw_omitted_row, saw_forbidden_issue = False, False
    for index in range(20):
        query, limit, issues, _, fixture = build_scenario(rng, tmp_path / f"s{index}", index)
        omit = frozenset(rng.sample(categories, rng.randint(0, 3)))
        session = open_session(None, mode="replay", fixture_dir=fixture)
        spec = QuerySpec(query=query, limit=limit, omit_categories=omit)
        records, _, _ = run(spec, session, model, PREP)
        assert all(r.category not in omit for r in records)
        if omit:
            saw_omitted_row = True

        session2 = open_session(None, mode="replay", fixture_dir=fixture)
        forbidden = QuerySpec(query=query, limit=limit,
                              forbid_categories=frozenset({"Solution Discussion"}))
        records2, omitted2, _ = run(forbidden, session2, model, PREP)
        assert all(r.category != "Solution Discussion" for r in records2)
        if any(o.reason == "category_filtered" for o in omitted2):
            saw_forbidden_issue = True
    assert saw_omitted_row and saw_forbidden_issue, "filters never exercised; scenarios too tame"
