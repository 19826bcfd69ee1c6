#!/usr/bin/env python3
"""Regenerate the bundled training corpus and baseline model.

The corpus is synthetic: each category owns a disjoint keyword pool and every
sentence samples only from its own pool, so the categories are cleanly
separable and the baseline model's held-out quality is testable. Fixed seed;
reruns produce byte-identical data files.
"""

from __future__ import annotations

import csv
import io
import random
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from issuesift.classifier import default_taxonomy, load_corpus, save_model, train_baseline
from issuesift.text_prep import default_stop_words

SEED = 20240331
SENTENCES = 200
DATA_DIR = REPO / "src" / "issuesift" / "data"

CATEGORY_WORDS = {
    "Observed Bug Behavior": [
        "error", "traceback", "crash", "crashes", "exception", "segfault",
        "hang", "hangs", "broken", "failure", "stacktrace", "garbage",
        "corrupted", "misbehaves",
    ],
    "Workarounds": [
        "workaround", "bypass", "temporarily", "downgrade", "downgrading",
        "revert", "reverting", "sidestep", "stopgap", "pin", "pinned",
        "interim", "fallback", "disable",
    ],
    "Motivation": [
        "motivation", "goal", "usecase", "scenario", "background", "reason",
        "rationale", "adoption", "research", "project", "deadline",
        "production", "migrating", "latency",
    ],
    "Potential New Issues & Requests": [
        "feature", "request", "proposal", "enhancement", "suggestion",
        "roadmap", "milestone", "ticket", "filed", "tracking", "wishlist",
        "propose", "separate", "followup",
    ],
    "Solution Discussion": [
        "solution", "fix", "patch", "merge", "merged", "branch", "refactor",
        "implement", "implementation", "approach", "upstream", "commit",
        "review", "resolve",
    ],
    "Action on Issue": [
        "closing", "closed", "stale", "duplicate", "label", "labels",
        "assign", "assigned", "triage", "reopen", "reopened", "moving",
        "escalate", "linked",
    ],
    "Contribution & Commitment": [
        "contribute", "contributing", "volunteer", "willing", "happy",
        "gladly", "submit", "draft", "tackle", "onboard", "mentor",
        "bandwidth", "signup", "pledge",
    ],
    "Usage": [
        "usage", "install", "installed", "configure", "configuration",
        "parameter", "argument", "api", "invoke", "tutorial", "example",
        "wrapper", "docker", "version",
    ],
    "Bug Reproduction": [
        "reproduce", "reproduced", "repro", "reproducing", "steps",
        "minimal", "isolate", "trigger", "triggered", "consistently",
        "intermittent", "rerun", "attached", "snippet",
    ],
    "Expected Behavior": [
        "expected", "expect", "intended", "documented", "contract",
        "semantics", "guarantee", "invariant", "convention", "definition",
        "promised", "supposed", "default", "standard",
    ],
    "Social Discussion": [
        "thanks", "thank", "awesome", "great", "appreciate", "appreciated",
        "congrats", "welcome", "cheers", "kudos", "amazing", "wonderful",
        "nice", "folks",
    ],
}


def check_pools() -> None:
    stops = default_stop_words()
    seen: dict[str, str] = {}
    for category, words in CATEGORY_WORDS.items():
        for word in words:
            assert word == word.lower(), f"{word!r} must be lowercase"
            assert word not in stops, f"{word!r} is a stop word"
            assert word not in seen, f"{word!r} shared by {seen[word]!r} and {category!r}"
            seen[word] = category


def build_sentences() -> list[tuple[str, str]]:
    rng = random.Random(SEED)
    taxonomy = default_taxonomy()
    assert set(CATEGORY_WORDS) == set(taxonomy.categories)
    rows = []
    for i in range(SENTENCES):
        category = taxonomy.categories[i % len(taxonomy)]
        pool = CATEGORY_WORDS[category]
        length = rng.randint(4, 8)
        rows.append((category, " ".join(rng.choice(pool) for _ in range(length))))
    return rows


def main() -> None:
    check_pools()
    rows = build_sentences()

    DATA_DIR.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["category", "text"])
    writer.writerows(rows)
    corpus_path = DATA_DIR / "training_corpus.csv"
    corpus_path.write_text(buffer.getvalue(), encoding="utf-8", newline="")

    model = train_baseline(
        load_corpus(corpus_path),
        default_taxonomy(),
        alpha=1.0,
        metadata={
            "corpus": "bundled synthetic keyword corpus v1",
            "examples": str(len(rows)),
            "note": "partial taxonomy; retrain with your own corpus for real studies",
        },
    )
    model_path = DATA_DIR / "baseline_model.json"
    save_model(model, model_path)
    print(f"wrote {corpus_path} ({len(rows)} sentences)")
    print(f"wrote {model_path} (V={len(model.vocabulary)}, C={len(model.taxonomy)})")


if __name__ == "__main__":
    main()
