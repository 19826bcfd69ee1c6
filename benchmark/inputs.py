"""Seeded synthetic inputs for the three benchmark workloads.

Nothing here imports issuesift: a repetition generates its in-memory inputs
before the set-up clock starts, and importing the package is part of set-up.

Each workload's *structure* (how many issues, how many comments each, which
issues have no discussion or only a loose query match, where faults land) is
a fixed multiset shuffled by the seed, so request counts and line counts stay
the same from seed to seed and only the text and the order change.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

API = "https://api.github.com"
PAGE_SIZE = 100
QUERY = "tf.function"
LOOSE = "tf function"
OMIT_CATEGORY = "Social Discussion"
FORBID_CATEGORY = "Contribution & Commitment"
WORKLOADS = ("bulk-replay", "paged-latency", "anon-throttled")
SCALES = ("full", "tiny")
DEFAULT_SEED = 0
START_CLOCK = 1_700_000_000.0
PAGED_LATENCY_S = 0.010

# Keywords the bundled model knows, per category; everything else in a line is
# out-of-vocabulary filler or a placeholder.
KEYWORDS = {
    "Observed Bug Behavior": "error traceback crash crashes exception segfault hang broken",
    "Workarounds": "workaround bypass downgrade fallback pin revert stopgap temporarily",
    "Motivation": "motivation deadline production research rationale usecase goal latency",
    "Potential New Issues & Requests": "feature enhancement proposal roadmap ticket followup wishlist",
    "Solution Discussion": "fix patch merge commit refactor implementation approach upstream",
    "Action on Issue": "closing duplicate stale triage reopen label assigned linked",
    "Contribution & Commitment": "volunteer contribute willing tackle submit draft gladly",
    "Usage": "install configure example argument parameter docker tutorial version",
    "Bug Reproduction": "reproduce repro snippet steps minimal consistently trigger rerun",
    "Expected Behavior": "expected documented contract semantics intended guarantee default",
    "Social Discussion": "thanks great awesome appreciate cheers kudos welcome",
}
KEYWORDS = {name: words.split() for name, words in KEYWORDS.items()}
# Categories a generated line may carry; the forbidden one is placed on purpose.
LINE_CATEGORIES = [c for c in KEYWORDS if c != FORBID_CATEGORY]
FILLER = (
    "model graph tensor layer training eager retracing session gpu keras shape dtype "
    "loop batch compile decorator python variable input output signature autograph "
    "xla trace optimizer dataset checkpoint"
).split()
STOP = "the a is it this we to of in and on with for that".split()
LOGINS = "octocat mdanatg alextp jvishnuvardhan omalleyt12 tessalt ezyang ravikyram".split()
CODE_LINES = (
    "@tf.function",
    "def step(x):",
    "    return model(x, training=True)",
    "y = step(tf.constant([1.0, 2.0]))",
    "print(tf.autograph.to_code(step.python_function))",
)


@dataclass
class Issue:
    """One generated issue: its search item, its comment items, and its design."""

    item: dict
    comments: list[dict]
    kind: str  # "match", "loose" or "empty"
    fault: str | None = None

    @property
    def id(self) -> int:
        return self.item["id"]

    def text(self) -> str:
        """Everything the strict-match refilter may look at, lower-cased."""
        parts = [self.item["title"], self.item["body"]] + [c["body"] for c in self.comments]
        return "\n".join(parts).lower()


@dataclass
class Workload:
    name: str
    issues: list[Issue]
    token: str | None
    latency_s: float = 0.0
    search_faults: dict[int, str] = field(default_factory=dict)

    def by_id(self) -> dict[int, Issue]:
        return {issue.id: issue for issue in self.issues}


def spec_args(name: str, scale: str) -> dict:
    """Keyword arguments for issuesift.QuerySpec: every workload searches up to the cap."""
    return {
        "query": QUERY,
        "limit": min(1000, len(_structure(name, scale)[0])),
        "omit_categories": frozenset({OMIT_CATEGORY}),
        "forbid_categories": frozenset({FORBID_CATEGORY}),
    }


def _pages(items: list) -> list[list]:
    """Page split as the API does it: a full last page implies an empty one."""
    pages = [items[i : i + PAGE_SIZE] for i in range(0, len(items), PAGE_SIZE)] or [[]]
    if len(pages[-1]) == PAGE_SIZE:
        pages.append([])
    return pages


def comment_pages(issue: Issue) -> int:
    """Requests one comment thread costs, without retries."""
    return len(_pages(issue.comments)) if issue.comments else 0


def _stamp(seconds: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(1_600_000_000 + seconds))


class _Text:
    """Markdown-ish comment text from one seeded generator."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def sentence(self, category: str, decorate: bool) -> str:
        rng = self.rng
        words = rng.sample(KEYWORDS[category], rng.randint(2, 3))
        words += rng.choices(FILLER, k=rng.randint(3, 8)) + rng.choices(STOP, k=rng.randint(1, 4))
        rng.shuffle(words)
        if decorate:
            roll = rng.random()
            if roll < 0.25:
                words.insert(rng.randrange(len(words)), f"`{rng.choice(FILLER)}.{rng.choice(FILLER)}()`")
            elif roll < 0.4:
                words.append(f"https://github.com/tensorflow/tensorflow/issues/{rng.randint(1000, 60000)}")
            elif roll < 0.55:
                words.insert(0, f"@{rng.choice(LOGINS)}")
            elif roll < 0.65:
                words.insert(rng.randrange(len(words)), f'"{rng.choice(FILLER)} {rng.choice(FILLER)}"')
            elif roll < 0.7:
                words.append("> quoted from the docs")
        return " ".join(words).capitalize() + rng.choice(".!?")

    def body(self, categories: list[str], lines: int, fence: bool) -> str:
        out = [self.sentence(self.rng.choice(categories), True) for _ in range(lines)]
        if fence:
            code = self.rng.sample(CODE_LINES, self.rng.randint(2, 4))
            out.insert(self.rng.randrange(len(out) + 1), "```python\n" + "\n".join(code) + "\n```")
        return "\n".join(out)


def _issue_item(index: int, issue_id: int, title: str, body: str, comments: int) -> dict:
    repo = ("tensorflow/tensorflow", "keras-team/keras", "tensorflow/addons")[index % 3]
    number = 10_000 + index
    return {
        "id": issue_id,
        "number": number,
        "title": title,
        "body": body,
        "html_url": f"https://github.com/{repo}/issues/{number}",
        "url": f"{API}/repos/{repo}/issues/{number}",
        "comments_url": f"{API}/repos/{repo}/issues/{number}/comments",
        "comments": comments,
        "created_at": _stamp(index * 3600),
        "updated_at": _stamp(index * 3600 + 1800),
        "repository_url": f"{API}/repos/{repo}",
    }


def _structure(name: str, scale: str) -> tuple[list[int], tuple[int, int], bool]:
    """Comment counts per issue (before shuffling), lines per comment, fences."""
    rng = random.Random(f"{name}:{scale}:structure")
    if name == "bulk-replay":
        n = 1000 if scale == "full" else 40
        counts = [rng.randint(5, 25) for _ in range(n)]
        return counts, (1, 6), True
    if name == "paged-latency":
        n = 1000 if scale == "full" else 40
        long_threads = [101, 130, 160, 190, 220, 250] * 5 if scale == "full" else [130]
        exact = [100] * (20 if scale == "full" else 1)
        short = [rng.randint(1, 6) for _ in range(n - len(long_threads) - len(exact))]
        return long_threads + exact + short, (1, 1), False
    n = 1000 if scale == "full" else 150
    special = [100] * 5 + [150] * 3 if scale == "full" else [100]
    short = [rng.randint(1, 3) for _ in range(n - len(special))]
    return special + short, (1, 1), False


# Fault replies on anon-throttled, each served once on the first comment page
# of the issue at that share of the search order. 5xx faults sit early enough
# that the rate gate is full when their jittered backoff ends, so the
# unseeded jitter never changes when a request is sent.
ANON_FAULTS = (
    (0.05, "403-retry-after"),
    (0.15, "429-retry-after"),
    (0.30, "403-reset"),
    (0.40, "502"),
    (0.50, "503"),
    (0.60, "502"),
    (0.80, "429-retry-after-long"),
)
# Status and headers of each fault; "403-reset" also gets x-ratelimit-reset,
# RESET_AFTER_S past the simulated now.
FAULT_REPLIES = {
    "403-retry-after": (403, {"retry-after": "120"}),
    "429-retry-after": (429, {"retry-after": "60"}),
    "429-retry-after-long": (429, {"retry-after": "900"}),
    "429-retry-after-search": (429, {"retry-after": "30"}),
    "403-reset": (403, {"x-ratelimit-remaining": "0"}),
    "502": (502, {}),
    "503": (503, {}),
}
RESET_AFTER_S = 600


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """The inputs of one workload for one seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    counts, (lo, hi), fences = _structure(name, scale)
    n = len(counts)
    rng = random.Random(f"{name}:{seed}")
    text = _Text(rng)
    # Designed omissions: bulk-replay has every reason but fetch_failed; the
    # live workloads keep a few so their filters still run. The specials that
    # _structure puts first (long threads) always match the query.
    share_empty, share_loose, share_forbid = {
        "bulk-replay": (0.08, 0.07, 0.08),
        "paged-latency": (0.02, 0.03, 0.03),
        "anon-throttled": (0.0, 0.03, 0.03),
    }[name]
    n_empty, n_loose = round(n * share_empty), round(n * share_loose)
    keep = n - n_empty - n_loose
    designed = [(c, "match") for c in counts[:keep]]
    designed += [(c, "loose") for c in counts[keep : keep + n_loose]] + [(0, "empty")] * n_empty
    rng.shuffle(designed)
    forbid_flags = [i < round(n * share_forbid) for i in range(n)]
    rng.shuffle(forbid_flags)
    ids = rng.sample(range(100_000_000, 200_000_000), n)

    issues = []
    for index, ((count, kind), forbid) in enumerate(zip(designed, forbid_flags)):
        mention = QUERY if kind == "match" else LOOSE
        in_title = kind != "match" or rng.random() < 0.7
        title = f"{text.sentence(rng.choice(LINE_CATEGORIES), False)} ({mention})" if in_title \
            else text.sentence(rng.choice(LINE_CATEGORIES), False)
        body = text.body(LINE_CATEGORIES, rng.randint(1, 3), False)
        if kind == "loose":
            body += f"\nSeen with {LOOSE} in eager mode."
        comments = []
        for j in range(count):
            lines = rng.randint(lo, hi)
            fence = fences and kind == "match" and rng.random() < 0.2
            comment = text.body(LINE_CATEGORIES, lines, fence)
            comments.append({
                "id": ids[index] * 1000 + j,
                "user": {"login": rng.choice(LOGINS)},
                "body": comment,
                "created_at": _stamp(index * 3600 + 60 * (j + 1)),
            })
        if comments and kind == "match" and not in_title:
            c = comments[rng.randrange(len(comments))]
            c["body"] += f"\nSame result without {QUERY} though."
        if comments and forbid and kind == "match":
            c = comments[rng.randrange(len(comments))]
            c["body"] += "\n" + text.sentence(FORBID_CATEGORY, False)
        item = _issue_item(index, ids[index], title, body, len(comments))
        issues.append(Issue(item=item, comments=comments, kind=kind))

    workload = Workload(name=name, issues=issues, token="ghp_benchmark")
    if name == "paged-latency":
        workload.latency_s = PAGED_LATENCY_S
    if name == "anon-throttled":
        workload.token = None
        workload.search_faults = {3: "429-retry-after-search"} if n > 2 * PAGE_SIZE else {}
        with_comments = [issue for issue in issues if issue.comments]
        for share, fault in ANON_FAULTS:
            with_comments[int(share * len(with_comments))].fault = fault
    return workload


def search_pages(workload: Workload) -> list[bytes]:
    items = [issue.item for issue in workload.issues]
    return [
        json.dumps({"total_count": len(items), "incomplete_results": False, "items": page}).encode()
        for page in _pages(items)
    ]


def thread_pages(issue: Issue) -> list[bytes]:
    return [json.dumps(page).encode() for page in _pages(issue.comments)]


def write_fixture(workload: Workload, directory, writer_cls) -> None:
    """Record a workload as a replay fixture with the tests' FixtureWriter."""
    writer = writer_cls(directory)
    writer.add_search_pages(QUERY, [issue.item for issue in workload.issues])
    for issue in workload.issues:
        if issue.comments:
            writer.add_comment_pages(issue.item, issue.comments)
    writer.write_manifest()
