#!/usr/bin/env python3
"""Regenerate the bundled replay fixture used by the end-to-end tests.

Four recorded issues for the query "tf.function": two classifiable threads,
one issue without discussion, and one relaxed-match false positive whose
thread never contains the literal query string.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from fixtureutil import FixtureWriter, make_comment, make_issue

FIXTURE_DIR = REPO / "tests" / "fixtures" / "tf_function_small"

ISSUE_TRACE = make_issue(
    415902593, 26104, "tensorflow/tensorflow",
    title="tf.function: tensorboard trace viewer shows no graph",
    body="Profiling a model wrapped in tf.function shows an empty trace viewer.",
    comments=5, created="2019-02-21T18:00:00Z", updated="2019-03-03T08:20:00Z",
)
ISSUE_SLOW = make_issue(
    500000001, 31000, "tensorflow/tensorflow",
    title="tf.function slows down my training loop",
    body="Switching to tf.function makes each epoch slower. No idea why.",
    comments=0, created="2019-07-30T09:00:00Z", updated="2019-07-30T09:00:00Z",
)
ISSUE_TORCH = make_issue(
    600000002, 4242, "pytorch/pytorch",
    title="tf function equivalent for torch modules",
    body="Coming from tensorflow: is there a tf function analog here?",
    comments=3, created="2022-05-09T20:00:00Z", updated="2022-05-11T09:30:00Z",
)
ISSUE_CONVERT = make_issue(
    1004824336, 1301, "apple/coremltools",
    title="Conversion crashes when the model uses tf.function",
    body="",
    comments=4, created="2021-05-28T11:00:00Z", updated="2021-06-03T15:00:00Z",
)

TRACE_COMMENTS = [
    make_comment(
        480001001,
        "@tessalt however to get us a step closer: running the original code, the actual "
        "error message from tensorboard does not propagate to the ui\n"
        "```\nRuntimeError: tracing already enabled\n```",
        author="danzafar", created="2019-02-25T14:05:00Z",
    ),
    make_comment(
        480001002,
        "I think the simplest fix around this would be to call `trace_on` and `trace_export` "
        "separately around the graph call, so something like:\n"
        "```python\nwriter = tf.summary.create_file_writer('logs')\n```",
        author="omalleyt12", created="2019-02-26T09:00:00Z",
    ),
    make_comment(
        480001003,
        "Thanks @omalleyt12, the workaround helped me bypass the crash temporarily!",
        author="ktsiounis", created="2019-03-01T10:30:00Z",
    ),
    make_comment(
        480001004,
        "Can you attach a minimal snippet to reproduce the traceback? See "
        "https://github.com/tensorflow/tensorflow/issues/26405 for related steps.",
        author="lgeiger", created="2019-03-02T16:45:00Z",
    ),
    make_comment(
        480001005,
        'The docs say it is "expected" that tf.function retraces here, so I guess this is '
        "the documented contract.",
        author="tessalt", created="2019-03-03T08:20:00Z",
    ),
]

TORCH_COMMENTS = [
    make_comment(
        600100001,
        "torch.compile is the closest tf function analog, it wraps your module graph.",
        author="jansel", created="2022-05-10T10:00:00Z",
    ),
    make_comment(
        600100002,
        "There is no direct equivalent, the tracing semantics differ between frameworks.",
        author="ezyang", created="2022-05-10T11:00:00Z",
    ),
    make_comment(
        600100003,
        "You could look at torch.jit.trace for a tf function style workflow.",
        author="soulitzer", created="2022-05-11T09:30:00Z",
    ),
]

CONVERT_COMMENTS = [
    make_comment(
        900200001,
        "@pcuenca could you specify which tensorflow version you use? do you use docker?",
        author="TobyRoseman", created="2021-06-01T12:00:00Z",
    ),
    make_comment(
        900200002,
        "tf version is `2.4.1`, and unfortunately I use docker. The conversion of the "
        "tf.function wrapper still crashes.",
        author="pcuenca", created="2021-06-01T13:30:00Z",
    ),
    make_comment(
        900200003,
        "Attached minimal steps to reproduce: the crash triggers consistently on a clean install.",
        author="TobyRoseman", created="2021-06-02T09:00:00Z",
    ),
    make_comment(
        900200004,
        "Great, thanks for looking into it! I appreciate the help.",
        author="pcuenca", created="2021-06-03T15:00:00Z",
    ),
]


def main() -> None:
    shutil.rmtree(FIXTURE_DIR, ignore_errors=True)  # so a file the writer no longer makes shows as deleted
    writer = FixtureWriter(FIXTURE_DIR)
    writer.add_search_pages(
        "tf.function", [ISSUE_TRACE, ISSUE_SLOW, ISSUE_TORCH, ISSUE_CONVERT]
    )
    writer.add_comment_pages(ISSUE_TRACE, TRACE_COMMENTS)
    writer.add_comment_pages(ISSUE_TORCH, TORCH_COMMENTS)
    writer.add_comment_pages(ISSUE_CONVERT, CONVERT_COMMENTS)
    writer.write_manifest()
    print(f"wrote fixture with {len(writer.entries)} recordings to {FIXTURE_DIR}")


if __name__ == "__main__":
    main()
