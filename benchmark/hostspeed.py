"""Host speed probe: a fixed pure-stdlib workload, timed as one block.

    python3 benchmark/hostspeed.py     # prints the block's time in seconds

The benchmark runs on a few cores of a shared host whose speed drifts by a
third and more for tens of seconds at a time, so a run's timings carry the
host's speed during that run as much as the program's cost. ``run.py`` starts
this probe in a fresh process after every repetition and rescales the CPU
seconds it measured by the ratio of REFERENCE_S to the run's fastest probe
(see ``speed_factor``). Like the timings themselves, which report the fastest
repetition, the fastest probe is the host's least disturbed speed during the
run; rescaling by it cancels much of the drift from run to run. The probe
reacts to the host's interference more or less strongly than a given
workload does, so it narrows the spread without removing it.

The work resembles the pipeline's CPU path (regex tokenising of markdown
lines, dictionary counts, log sums, CSV and JSON encoding) and imports nothing
from issuesift, so no change to the program can move it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import time

CHUNKS = 8
# Fastest block on an undisturbed 2.1 GHz Xeon vCPU with Python 3.11; the unit
# of the rescaled timings. Only its constancy matters for comparisons.
REFERENCE_S = 0.240

_LINES = (
    "Traceback (most recent call last): crash when @tf.function retraces `model.fit()`",
    "See https://github.com/tensorflow/tensorflow/issues/41234 for the workaround @octocat",
    "> quoted from the docs: the expected behavior is documented in the contract",
    "pin tensorflow==2.4 and downgrade keras; the graph compiles with xla again",
) * 6
_TOKEN = re.compile(r"https?://\S+|@\w+|`[^`]*`|[a-z_][a-z0-9_.]*|\S")


def chunk() -> float:
    """Seconds for one fixed unit of work."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    out = io.StringIO()
    writer = csv.writer(out)
    for i in range(160):
        for line in _LINES:
            tokens = _TOKEN.findall(line.lower())
            score = 0.0
            for token in tokens:
                counts[token] = counts.get(token, 0) + 1
                score += math.log(counts[token] + 1)
            writer.writerow([i, line[:20], len(tokens), f"{score:.3f}"])
        json.dumps(counts, sort_keys=True)
    return time.perf_counter() - start


def speed_factor(probe_times: list[float]) -> float:
    """Reference speed over the run's best speed: below 1 when the host ran slow."""
    return REFERENCE_S / min(probe_times)


if __name__ == "__main__":
    chunk()  # warm the regex and allocator before timing
    print(json.dumps(sum(chunk() for _ in range(CHUNKS))))
