"""Spans around the calls into each issuesift layer, recorded from outside.

The traced run replaces the references that ``pipeline.run`` resolves at call
time (module globals of ``issuesift.pipeline`` and ``issuesift.text_prep``,
the session's bound methods, the injected transport) with wrappers that
record a span per call: id, parent id, trace id (the issue id), name, start
and end. Spans stay in memory until the run ends. Nothing under ``src/``
knows about them.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[tuple[int, int, object, str, float, float]] = []
        self.counts: Counter = Counter()
        self.root = 0  # parent of spans on threads with no open span
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    @contextmanager
    def span(self, name: str, trace=None):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, trace, name, start, end))

    def wrap(self, name: str, fn, trace_of=None, after=None):
        """``fn`` with a span per call; ``after(args, result)`` counts work."""
        local = self._local

        def traced(*args, **kwargs):
            trace = trace_of(*args) if trace_of else None
            if trace is None:
                trace = getattr(local, "trace", None)
            else:
                local.trace = trace
            with self.span(name, trace):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, trace, name, start, end in self.spans:
                out.write(json.dumps({"id": sid, "parent": parent, "trace": trace, "name": name,
                                      "start": start, "end": end}) + "\n")


def install(recorder: Recorder, pipeline, text_prep, session, model) -> None:
    """Wrap every call site ``pipeline.run`` reaches, in place."""
    vocabulary = model.vocabulary

    def count_lines(args, lines):
        recorder.add("text_prep.lines_out", len(lines))
        recorder.add("text_prep.tokens_out", sum(len(line.tokens) for line in lines))

    def count_classified(args, pairs):
        tokens = [t for line, _ in pairs for t in line.tokens]
        recorder.add("classifier.lines", len(pairs))
        recorder.add("classifier.tokens", len(tokens))
        recorder.add("classifier.in_vocab", sum(1 for t in tokens if t in vocabulary))

    pipeline.preprocess_comment = recorder.wrap(
        "text_prep.preprocess_comment", pipeline.preprocess_comment,
        trace_of=lambda comment, *rest: comment.issue_id, after=count_lines)
    pipeline.classify_lines = recorder.wrap(
        "classifier.classify_lines", pipeline.classify_lines,
        trace_of=lambda model, lines: lines[0].issue_id if lines else None,
        after=count_classified)
    pipeline.strict_match = recorder.wrap(
        "pipeline.strict_match", pipeline.strict_match, trace_of=lambda issue, *rest: issue.id)
    pipeline.apply_category_filters = recorder.wrap(
        "pipeline.apply_category_filters", pipeline.apply_category_filters)
    text_prep.replace_tokens = recorder.wrap("text_prep.replace_tokens", text_prep.replace_tokens)
    session.search_issues = recorder.wrap("github_client.search_issues", session.search_issues)
    session.fetch_comments = recorder.wrap(
        "github_client.fetch_comments", session.fetch_comments, trace_of=lambda issue: issue.id)


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(recorder: Recorder, run_span: int) -> dict[str, float]:
    """Per-layer figures from one traced run's spans and counts."""
    by_name: dict[str, list[tuple[float, float]]] = defaultdict(list)
    children: list[tuple[float, float]] = []
    run_start = run_end = 0.0
    for sid, parent, _, name, start, end in recorder.spans:
        by_name[name].append((start, end))
        if parent == run_span:
            children.append((start, end))
        if sid == run_span:
            run_start, run_end = start, end

    def durations(name):
        return [end - start for start, end in by_name[name]]

    def busy(name):
        return sum(durations(name))

    fetches = by_name["github_client.fetch_comments"]
    fetch_first = min((s for s, _ in fetches), default=run_start)
    fetch_last = max((e for _, e in fetches), default=run_start)
    fetch_stage = fetch_last - fetch_first
    requests = durations("github_client.transport.request")
    counts = recorder.counts
    return {
        "text_prep.preprocess_comment.busy_s": busy("text_prep.preprocess_comment"),
        "text_prep.preprocess_comment.calls": len(by_name["text_prep.preprocess_comment"]),
        "text_prep.replace_tokens.busy_s": busy("text_prep.replace_tokens"),
        "text_prep.lines_out": counts["text_prep.lines_out"],
        "text_prep.tokens_out": counts["text_prep.tokens_out"],
        "classifier.classify_lines.busy_s": busy("classifier.classify_lines"),
        "classifier.lines": counts["classifier.lines"],
        "classifier.in_vocab_ratio": counts["classifier.in_vocab"] / max(1, counts["classifier.tokens"]),
        "report.write_results.busy_s": busy("report.write_results"),
        "report.write_omitted.busy_s": busy("report.write_omitted"),
        "pipeline.run.self_s": (run_end - run_start) - _covered(children, run_start, run_end),
        "pipeline.strict_match.busy_s": busy("pipeline.strict_match"),
        "pipeline.apply_category_filters.busy_s": busy("pipeline.apply_category_filters"),
        "pipeline.fetch_stage_s": fetch_stage,
        "pipeline.post_fetch_s": run_end - fetch_last,
        "github_client.fetch_comments.calls": len(fetches),
        "github_client.fetch_comments.p50_ms": 1000 * _quantile(durations("github_client.fetch_comments"), 50),
        "github_client.fetch_comments.p99_ms": 1000 * _quantile(durations("github_client.fetch_comments"), 99),
        "github_client.fetch_concurrency": busy("github_client.fetch_comments") / fetch_stage if fetch_stage else 0.0,
        "github_client.transport.requests": len(requests),
        "github_client.transport.p50_ms": 1000 * _quantile(requests, 50),
        "github_client.transport.p99_ms": 1000 * _quantile(requests, 99),
        "github_client.search_issues.busy_s": busy("github_client.search_issues"),
    }


def guard(recorder: Recorder, summary, rows: int, strict: bool) -> list[str]:
    """Layers that did work but left no spans: a wrapped call site was bypassed."""
    names = Counter(name for _, _, _, name, _, _ in recorder.spans)
    problems = []

    def need(name, why):
        if names[name] == 0:
            problems.append(f"no {name} span although {why}")

    if summary.issues_searched:
        need("github_client.search_issues", f"{summary.issues_searched} issues were searched")
        need("github_client.fetch_comments", "issues were searched")
        need("github_client.transport.request", "issues were searched")
    reached = summary.issues_searched - summary.per_reason.get("no_discussion", 0) \
        - summary.per_reason.get("fetch_failed", 0)
    if strict and reached:
        need("pipeline.strict_match", f"{reached} issues had a discussion")
    if rows:
        need("text_prep.preprocess_comment", f"{rows} rows were written")
        need("text_prep.replace_tokens", f"{rows} rows were written")
        need("classifier.classify_lines", f"{rows} rows were written")
        need("pipeline.apply_category_filters", f"{rows} rows were written")
    for counter in ("text_prep.lines_out", "classifier.lines"):
        if recorder.counts[counter] < rows:
            problems.append(f"{counter} = {recorder.counts[counter]} < {rows} rows written: "
                            "some lines bypassed the wrapped call")
    return problems
