"""One repetition of one workload, in a fresh process.

A repetition never inherits heap, caches or imported modules from another:
``run.py`` starts this script once per repetition. It prints one JSON object.

Modes:
  rep    set up, run the pipeline, write both CSVs, report timings and counts
  setup  set up only (more set-up samples per run)
  shape  describe the workload's inputs; also warms the bytecode cache
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402  (must not import issuesift: set-up is timed)
import tracing  # noqa: E402
from simclock import SimClock  # noqa: E402

PLACEHOLDERS = ("CODE", "URL", "SCREEN_NAME", "QUOTE")


class MemoryTransport:
    """GitHub from pre-encoded pages: fixed latency per request, scripted faults.

    Each fault is served once, in place of the first reply for its page.
    """

    def __init__(self, workload: inputs.Workload, clock):
        self._latency = workload.latency_s
        self._clock = clock
        self._pages: dict[tuple[str, int], bytes] = {}
        self._faults: dict[tuple[str, int], str] = {}
        for page, body in enumerate(inputs.search_pages(workload), start=1):
            self._pages[("/search/issues", page)] = body
        for page, fault in workload.search_faults.items():
            self._faults[("/search/issues", page)] = fault
        for issue in workload.issues:
            path = urlsplit(issue.item["comments_url"]).path
            for page, body in enumerate(inputs.thread_pages(issue), start=1):
                self._pages[(path, page)] = body
            if issue.fault:
                self._faults[(path, 1)] = issue.fault

    def bind(self, reply_cls) -> None:
        self._reply = reply_cls

    def request(self, method, url, params=None):
        if self._latency:
            time.sleep(self._latency)
        path = urlsplit(url).path
        if path == "/rate_limit":
            return self._reply(200, {}, self._rate_payload())
        key = (path, int(params["page"]))
        fault = self._faults.pop(key, None)
        if fault is not None:
            status, headers = inputs.FAULT_REPLIES[fault]
            if fault == "403-reset":
                headers = {**headers, "x-ratelimit-reset": str(int(self._clock()) + inputs.RESET_AFTER_S)}
            return self._reply(status, headers, b'{"message": "scripted fault"}')
        return self._reply(200, {}, self._pages[key])

    def _rate_payload(self) -> bytes:
        reset = int(self._clock()) + 3600
        window = {"limit": 60, "remaining": 60, "reset": reset}
        return json.dumps({"resources": {"core": window, "search": window}}).encode()


class MeteredTransport:
    """Counts what reaches the transport; with a recorder, one span per request."""

    def __init__(self, inner, recorder: tracing.Recorder | None = None):
        self._lock = threading.Lock()
        self.requests = 0
        self.ok = 0
        self.empty_pages = 0
        self.keys: set[tuple[str, str]] = set()
        self._send = inner.request if recorder is None else recorder.wrap(
            "github_client.transport.request", inner.request)

    def request(self, method, url, params=None):
        with self._lock:
            self.requests += 1
            self.keys.add((url, repr(sorted((params or {}).items()))))
        reply = self._send(method, url, params)
        with self._lock:
            if 200 <= reply.status < 300:
                self.ok += 1
                if reply.body.strip() == b"[]":
                    self.empty_pages += 1
        return reply


class RealSleep:
    """time.sleep that adds up how long it slept."""

    def __init__(self):
        self.slept = 0.0
        self.sleeps = 0
        self._lock = threading.Lock()

    def __call__(self, seconds: float) -> None:
        start = time.perf_counter()
        time.sleep(seconds)
        with self._lock:
            self.sleeps += 1
            self.slept += time.perf_counter() - start


def shape(workload: inputs.Workload, root: Path) -> dict:
    """Input properties a later change may depend on, measured with the program."""
    from issuesift import PrepConfig, load_default_model, preprocess_comment
    from issuesift.github_client import RawComment

    prep, vocabulary = PrepConfig.default(), load_default_model().vocabulary
    lines = tokens = in_vocab = 0
    with_placeholder = dict.fromkeys(PLACEHOLDERS, 0)
    for issue in workload.issues:
        for c in issue.comments:
            raw = RawComment(issue.id, c["id"], c["user"]["login"], c["body"], c["created_at"])
            for line in preprocess_comment(raw, prep):
                lines += 1
                tokens += len(line.tokens)
                in_vocab += sum(1 for t in line.tokens if t in vocabulary)
                for name in PLACEHOLDERS:
                    with_placeholder[name] += name in line.tokens
    threads = [issue for issue in workload.issues if issue.comments]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (root / "src").rglob("*.py"))
    return {
        "issues": len(workload.issues),
        "comments": sum(len(issue.comments) for issue in workload.issues),
        "comment_pages": sum(inputs.comment_pages(issue) for issue in workload.issues),
        "lines": lines,
        "tokens": tokens,
        **{f"lines_with_{name}": round(count / max(1, lines), 4) for name, count in with_placeholder.items()},
        "in_vocab_share": round(in_vocab / max(1, tokens), 4),
        "threads_over_100_share": round(sum(len(i.comments) > 100 for i in threads) / max(1, len(threads)), 4),
        "python": sys.version.split()[0],
        "src_lines": src_lines,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--scale", default="full", choices=inputs.SCALES)
    parser.add_argument("--mode", default="rep", choices=("rep", "setup", "shape"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.root / "src"))
    replay = args.workload == "bulk-replay"
    # bulk-replay reads its fixture from disk; the others hold their pages here.
    workload = None if replay and args.mode != "shape" else inputs.build(args.workload, args.seed, args.scale)
    if args.mode == "shape":
        print(json.dumps(shape(workload, args.root)))
        return 0
    if args.workload == "anon-throttled":
        clock = SimClock(inputs.START_CLOCK)
        now, sleep = clock.time, clock.sleep
    else:
        clock = sleep = RealSleep()
        now = time.time
    memory = None if replay else MemoryTransport(workload, now)
    token = None if replay else workload.token
    del workload
    recorder = tracing.Recorder() if args.trace else None

    started = time.perf_counter()
    import issuesift
    from issuesift import pipeline, report, text_prep
    from issuesift.github_client import ReplayTransport, TransportReply

    loaded = time.perf_counter()
    model = issuesift.load_default_model()
    model_s = time.perf_counter() - loaded
    prep = issuesift.PrepConfig.default()
    opened = time.perf_counter()
    if replay:
        transport = MeteredTransport(ReplayTransport(args.work / "fixture"), recorder)
    else:
        memory.bind(TransportReply)
        transport = MeteredTransport(memory, recorder)
    session = issuesift.open_session(
        token, mode="replay" if replay else "live",
        transport=transport, clock=now, sleep=sleep,
    )
    finished = time.perf_counter()
    if args.mode == "setup":
        print(json.dumps({"setup_s": finished - started}))
        return 0

    spec = issuesift.QuerySpec(**inputs.spec_args(args.workload, args.scale))
    if recorder is not None:
        tracing.install(recorder, pipeline, text_prep, session, model)
    simulated = isinstance(clock, SimClock)
    if simulated:
        search = session.search_issues

        def search_then_begin(*a, **kw):
            issues = search(*a, **kw)
            clock.begin_fetch([issue.id for issue in issues], session.parallelism)
            return issues

        session.search_issues = search_then_begin
        session.fetch_comments = clock.wrap_fetch(session.fetch_comments)
    results_path, omitted_path = args.work / "results.csv", args.work / "omitted.csv"
    for path in (results_path, omitted_path):
        path.unlink(missing_ok=True)

    sim_start = now()
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    if recorder is None:
        records, omitted, summary = pipeline.run(spec, session, model, prep)
        rows = report.write_results(records, results_path, include_confidence=True)
        report.write_omitted(omitted, omitted_path)
    else:
        with recorder.span("pipeline.run") as run_span:
            recorder.root = run_span
            records, omitted, summary = pipeline.run(spec, session, model, prep)
        with recorder.span("report.write_results"):
            rows = report.write_results(records, results_path, include_confidence=True)
        with recorder.span("report.write_omitted"):
            report.write_omitted(omitted, omitted_path)
    run_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_start
    sim_elapsed = now() - sim_start if simulated else 0.0

    result = {
        "setup_s": finished - started,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "api_requests": transport.requests,
        "throttle_wait_s": clock.slept,
        "sleeps": clock.sleeps,
        "sim_elapsed_s": sim_elapsed,
        "elapsed_s": run_s + sim_elapsed,
        "summary": {
            "issues_searched": summary.issues_searched,
            "issues_classified": summary.issues_classified,
        },
    }
    if recorder is not None:
        layers = tracing.layer_metrics(recorder, run_span)
        layers.update({
            "report.write_results.bytes": os.path.getsize(results_path),
            "classifier.load_default_model_s": model_s,
            "github_client.open_session_s": finished - opened,
            "github_client.transport.ok_ratio": transport.ok / max(1, transport.requests),
            "github_client.empty_pages": transport.empty_pages,
            "github_client.retries": transport.requests - len(transport.keys),
            "github_client.sleeps": clock.sleeps,
            "github_client.throttle_wait_s": clock.slept,
        })
        result["layers"] = layers
        result["guard"] = tracing.guard(recorder, summary, rows, spec.strict_match)
        recorder.write(args.work / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    status = main(sys.argv[1:])
    sys.stdout.flush()
    # Skip tearing down the run's heap: no timing covers it, and it only
    # delays the next repetition.
    os._exit(status)
