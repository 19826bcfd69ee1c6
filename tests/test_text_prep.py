import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issuesift.github_client import RawComment
from issuesift.text_prep import (
    PrepConfig,
    ProcessedLine,
    default_stop_words,
    preprocess_comment,
    replace_tokens,
)

CFG = PrepConfig(stop_words=frozenset())


def comment(body, issue_id=1, comment_id=2):
    return RawComment(issue_id=issue_id, comment_id=comment_id, author_login="u",
                      body=body, created_at="2021-01-01T00:00:00Z")


def token_lines(body, config=CFG):
    """The token lists preprocess_comment gives for body, one per kept line."""
    return [list(line.tokens) for line in preprocess_comment(comment(body), config)]


class TestReplaceTokens:
    def test_mention_url_code(self):
        assert replace_tokens("@alice see https://ex.io/a `foo()`") == "SCREEN_NAME see URL CODE"

    def test_apostrophe_survives_quote_rule(self):
        assert replace_tokens('I\'ve said "hello there" once') == "I've said QUOTE once"

    def test_fenced_block_collapses_to_one_token(self):
        assert replace_tokens("```\nx = 1\ny = 2\n```") == "CODE"

    def test_single_quotes(self):
        assert replace_tokens("say 'hi there' now") == "say QUOTE now"

    def test_unterminated_fence_runs_to_end(self):
        out = replace_tokens("pre\n```\nx = 1\nnever closed")
        assert out == "pre\nCODE"
        assert "`" not in out

    def test_dangling_backtick_consumed(self):
        assert "`" not in replace_tokens("broken `snippet here")

    def test_scheme_case_insensitive(self):
        assert replace_tokens("go HTTPS://EX.IO now") == "go URL now"

    def test_email_not_a_mention(self):
        assert replace_tokens("mail me bob@example.com") == "mail me bob@example.com"

    def test_code_masks_contents_from_later_rules(self):
        assert replace_tokens("`see https://x.io @bob 'hi'`") == "CODE"

    def test_empty_string(self):
        assert replace_tokens("") == ""


class TestSplitLines:
    """The line split inside preprocess_comment."""

    def test_drops_blank_and_trims(self):
        assert token_lines("a\n\n b \n") == [["a"], ["b"]]

    def test_empty_input(self):
        assert token_lines("") == []

    def test_single_line(self):
        assert token_lines("CODE") == [["CODE"]]

    def test_carriage_returns_stripped(self):
        assert token_lines("a\r\nb\r") == [["a"], ["b"]]

    def test_carriage_return_inside_a_token_joins_it(self):
        assert token_lines("a\rb") == [["ab"]]


class TestNormalize:
    """The token rule inside preprocess_comment, with no stop words."""

    def test_case_and_punctuation(self):
        assert token_lines("However, get US closer!") == [["however", "get", "us", "closer"]]

    def test_placeholders_exempt(self):
        assert token_lines("CODE stays CODE") == [["CODE", "stays", "CODE"]]

    def test_identifier_periods_survive(self):
        assert token_lines("use tf.function here.") == [["use", "tf.function", "here"]]

    def test_interior_apostrophes_survive(self):
        assert token_lines("don't stop") == [["don't", "stop"]]

    def test_slash_hash_underscore_kept(self):
        assert token_lines("see issues/27120 #42 trace_on") == [["see", "issues/27120", "#42", "trace_on"]]

    def test_all_punct_token_dropped(self):
        assert token_lines("a !!! b") == [["a", "b"]]

    def test_placeholder_with_edge_punct(self):
        assert token_lines("(CODE).") == [["CODE"]]


class TestRemoveStopWords:
    """The stop rule inside preprocess_comment."""

    def test_membership(self):
        cfg = PrepConfig(stop_words=frozenset({"this", "is", "a"}))
        assert token_lines("this is a fix", cfg) == [["fix"]]

    def test_placeholder_never_removed(self):
        cfg = PrepConfig(stop_words=frozenset({"code"}))
        assert token_lines("CODE", cfg) == [["CODE"]]

    def test_empty(self):
        cfg = PrepConfig(stop_words=frozenset({"x"}))
        assert token_lines("", cfg) == []

    def test_custom_words_augment(self):
        cfg = PrepConfig.default(frozenset({"nit"}))
        assert token_lines("the nit fix", cfg) == [["fix"]]

    def test_uppercase_stop_word_matches_any_case(self):
        cfg = PrepConfig.default(frozenset({"LGTM"}))
        assert token_lines("lgtm LGTM fix", cfg) == [["fix"]]


class TestPreprocessComment:
    def test_composition(self):
        cfg = PrepConfig(stop_words=frozenset({"thanks"}))
        lines = preprocess_comment(comment("@bob thanks!\nsee https://x.y"), cfg)
        assert [(l.line_index, list(l.tokens)) for l in lines] == [
            (0, ["SCREEN_NAME"]),
            (1, ["see", "URL"]),
        ]

    def test_all_stop_words_drops_everything(self):
        cfg = PrepConfig(stop_words=frozenset({"the", "a"}))
        assert preprocess_comment(comment("the a\nthe the"), cfg) == []

    def test_already_clean_text_round_trips(self):
        body = ("i think simplest fix around would call trace_on trace_export "
                "separately around graph call so something like")
        lines = preprocess_comment(comment(body), CFG)
        assert len(lines) == 1
        assert lines[0].rendered == body

    def test_line_index_renumbers_survivors(self):
        cfg = PrepConfig(stop_words=frozenset({"dropme"}))
        lines = preprocess_comment(comment("keep one\ndropme\nkeep two"), cfg)
        assert [(l.line_index, l.rendered) for l in lines] == [(0, "keep one"), (1, "keep two")]

    def test_identity_fields(self):
        lines = preprocess_comment(comment("hello", issue_id=7, comment_id=9), CFG)
        assert lines[0].issue_id == 7 and lines[0].comment_id == 9


class TestConfig:
    def test_placeholder_colliding_with_stop_word_rejected(self):
        with pytest.raises(ValueError):
            PrepConfig(stop_words=frozenset({"URL"}))

    def test_lowercase_stop_word_matching_placeholder_is_fine(self):
        PrepConfig(stop_words=frozenset({"url", "code"}))

    @pytest.mark.parametrize("stop_words", ["the", ["the"], frozenset({1}), None],
                             ids=["bare-string", "list", "int-word", "none"])
    def test_stop_words_must_be_a_set_of_strings(self, stop_words):
        with pytest.raises(ValueError, match="^stop_words "):
            PrepConfig(stop_words=stop_words)

    @pytest.mark.parametrize("extra", ["lgtm", ("lgtm",), {b"lgtm"}],
                             ids=["bare-string", "tuple", "bytes-word"])
    def test_extra_stop_words_must_be_a_set_of_strings(self, extra):
        with pytest.raises(ValueError, match="^extra_stop_words "):
            PrepConfig.default(extra)

    def test_plain_set_of_extra_words_accepted(self):
        assert "lgtm" in PrepConfig.default({"LGTM"}).stop_words

    def test_default_loads_vendored_list(self):
        stops = default_stop_words()
        assert {"the", "is", "don't", "wouldn't"} <= stops
        assert len(stops) > 150
        # blank lines and `#` comment lines of the vendored file are skipped
        assert all(word and not word.startswith("#") for word in stops)
        assert all(word == word.lower() for word in stops)


_FRAGMENTS = list("abcXYZ @'\"`\n.:/-_#!") + [
    "http://", "https://ex.io/a", "```", "@bob", "CODE", "QUOTE", "URL", "SCREEN_NAME",
]
MARKDOWNISH = st.lists(st.sampled_from(_FRAGMENTS), max_size=25).map("".join)


class TestProperties:
    @given(MARKDOWNISH)
    @settings(max_examples=300, deadline=None)
    def test_replace_tokens_idempotent(self, text):
        once = replace_tokens(text)
        assert replace_tokens(once) == once

    @given(MARKDOWNISH)
    @settings(max_examples=300, deadline=None)
    def test_absence_after_preprocess(self, text):
        rendered = " ".join(l.rendered for l in preprocess_comment(comment(text), CFG))
        assert "`" not in rendered
        assert not re.search(r"https?://", rendered, re.IGNORECASE)
        assert not re.search(r"(?<!\w)@[A-Za-z0-9-]{1,39}(?![\w-])", rendered)

    @given(MARKDOWNISH)
    @settings(max_examples=200, deadline=None)
    def test_determinism(self, text):
        first = preprocess_comment(comment(text), CFG)
        second = preprocess_comment(comment(text), CFG)
        assert first == second

    @given(MARKDOWNISH)
    @settings(max_examples=200, deadline=None)
    def test_line_index_strictly_increasing(self, text):
        lines = preprocess_comment(comment(text), CFG)
        assert [l.line_index for l in lines] == list(range(len(lines)))

    @given(st.lists(st.sampled_from(["CODE", "URL", "QUOTE", "SCREEN_NAME", "fix", "the"]), max_size=8),
           st.frozensets(st.sampled_from(["code", "url", "quote", "screen_name", "fix", "the"]), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_stop_removal_never_drops_placeholders(self, tokens, stops):
        cfg = PrepConfig(stop_words=stops)
        kept = [t for line in token_lines(" ".join(tokens), cfg) for t in line]
        for placeholder in ("CODE", "URL", "QUOTE", "SCREEN_NAME"):
            assert kept.count(placeholder) == tokens.count(placeholder)

    @given(MARKDOWNISH)
    @settings(max_examples=200, deadline=None)
    def test_rendered_joins_tokens(self, text):
        for line in preprocess_comment(comment(text), CFG):
            assert line.rendered == " ".join(line.tokens)
            assert line.tokens


# --- Reference copy of the original preprocessing --------------------------
# The module's hot path skips regex stages and edge scans that cannot change
# the text. These functions are the straightforward versions it must agree
# with exactly.

_REF_FENCED_CODE_RE = re.compile(r"```.*?(?:```|\Z)", re.DOTALL)
_REF_DOUBLE_TICK_RE = re.compile(r"``[^`]*``")
_REF_INLINE_CODE_RE = re.compile(r"`[^`\n]*`")
_REF_DANGLING_TICK_RE = re.compile(r"`\S*")
_REF_URL_RE = re.compile(r"https?://\S*", re.IGNORECASE)
_REF_MENTION_RE = re.compile(r"(?<!\w)@[A-Za-z0-9-]{1,39}(?![\w-])")
_REF_DQUOTE_RE = re.compile(r'(?<!\w)"[^"\n]*"')
_REF_SQUOTE_RE = re.compile(r"(?<!\w)'[^'\n]*'")
_REF_EDGE_KEEP = frozenset("/#_")
_REF_PLACEHOLDERS = frozenset(("CODE", "URL", "SCREEN_NAME", "QUOTE"))


def ref_replace_once(text):
    text = _REF_FENCED_CODE_RE.sub("CODE", text)
    text = _REF_DOUBLE_TICK_RE.sub("CODE", text)
    text = _REF_INLINE_CODE_RE.sub("CODE", text)
    text = _REF_DANGLING_TICK_RE.sub("CODE", text)
    text = _REF_URL_RE.sub("URL", text)
    text = _REF_MENTION_RE.sub("SCREEN_NAME", text)
    text = _REF_DQUOTE_RE.sub("QUOTE", text)
    text = _REF_SQUOTE_RE.sub("QUOTE", text)
    return text


def ref_replace_tokens(body):
    text = body
    for _ in range(4):
        replaced = ref_replace_once(text)
        if replaced == text:
            break
        text = replaced
    return text


def ref_strip_edges(token):
    start, end = 0, len(token)
    while start < end and not token[start].isalnum() and token[start] not in _REF_EDGE_KEEP:
        start += 1
    while end > start and not token[end - 1].isalnum() and token[end - 1] not in _REF_EDGE_KEEP:
        end -= 1
    return token[start:end]


def ref_normalize(line):
    out = []
    for token in line.split():
        core = ref_strip_edges(token)
        if not core:
            continue
        out.append(core if core in _REF_PLACEHOLDERS else core.lower())
    return out


def ref_remove_stop_words(tokens, config):
    return [t for t in tokens if t in _REF_PLACEHOLDERS or t.lower() not in config.stop_words]


def ref_split_lines(tokenized_body):
    lines = []
    for raw in tokenized_body.split("\n"):
        line = raw.replace("\r", "").strip()
        if line:
            lines.append(line)
    return lines


def ref_preprocess_comment(comment, config):
    lines = []
    for raw_line in ref_split_lines(ref_replace_tokens(comment.body)):
        tokens = ref_remove_stop_words(ref_normalize(raw_line), config)
        if not tokens:
            continue
        lines.append(
            ProcessedLine(
                issue_id=comment.issue_id,
                comment_id=comment.comment_id,
                line_index=len(lines),
                tokens=tuple(tokens),
            )
        )
    return lines


_MIXED_FRAGMENTS = list("abcXYZéßÑ日½ @'\"`\n\r\t .,:;/-_#!?()*[]") + [
    "http://", "https://ex.io/a", "HTTP://x", "://", "```", "``", "@bob", "@@", "a@b.io",
    "don't", "'tis", "\"q\"", "CODE", "QUOTE", "URL", "SCREEN_NAME", "the", "The", "is",
    "Is", "fix", "FIX", "İ", "\u00a0", "\u3000", "ΟΔΟΣ", "Σ", "ΣΑ",
]
MIXED_TEXT = st.lists(st.sampled_from(_MIXED_FRAGMENTS), max_size=40).map("".join)
CONFIGS = st.sampled_from([
    CFG,
    PrepConfig.default(),
    PrepConfig(stop_words=frozenset({"fix", "the", "is", "don't", "οδος", "ς", "σα"})),
])


class TestMatchesReference:
    @given(MIXED_TEXT)
    @settings(max_examples=500, deadline=None)
    def test_replace_tokens(self, text):
        assert replace_tokens(text) == ref_replace_tokens(text)

    @given(MIXED_TEXT, CONFIGS)
    @settings(max_examples=500, deadline=None)
    def test_preprocess_comment(self, text, config):
        raw = comment(text)
        assert preprocess_comment(raw, config) == ref_preprocess_comment(raw, config)

    # "@" right before a quoted span: the quote rules leave "@QUOTE", which only
    # the trailing mention run in replace_tokens turns into SCREEN_NAME. In
    # "@-'x'" the mention "@-" goes first, so the quote after it stays.
    @pytest.mark.parametrize("text, expected", [
        ("@'bob'", "SCREEN_NAME"),
        ('@"x"', "SCREEN_NAME"),
        ("-@'x'", "-SCREEN_NAME"),
        ("@'x'-\"y\"", "SCREEN_NAME"),
        ("@-'x'", "SCREEN_NAME'x'"),
    ])
    def test_mention_before_quote(self, text, expected):
        assert ref_replace_tokens(text) == expected
        assert replace_tokens(text) == expected

    def test_every_short_string(self):
        """Every string of up to 5 symbols over the characters the rules react to."""
        symbols = ["@", "'", '"', "`", "a", "-", " ", "\n", "http://", "_"]
        for size in range(6):
            for parts in itertools.product(symbols, repeat=size):
                text = "".join(parts)
                out = replace_tokens(text)
                assert out == ref_replace_tokens(text), text
                assert replace_tokens(out) == out, text
