"""Linear text classification over preprocessed token lines.

Models are plain linear scorers (per-category weight vector plus bias) kept
in a portable JSON document, so externally trained models — e.g. logistic
regression weights — plug in as long as they speak the same file format.
Models never preprocess or tokenize: they score exactly the tokens given.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from importlib import resources
from itertools import repeat
from operator import add, mul
from pathlib import Path
from typing import NamedTuple

from .errors import (
    EmptyCategory,
    EmptyCorpus,
    IoFailure,
    SchemaViolation,
    UnknownCategory,
    UnsupportedVersion,
)

FORMAT_VERSION = 1

# Category names the default model knows about. The set is intentionally
# partial (see the bundled model's metadata); users supply their own taxonomy
# by shipping their own model file.
DEFAULT_CATEGORIES = (
    "Observed Bug Behavior",
    "Workarounds",
    "Motivation",
    "Potential New Issues & Requests",
    "Solution Discussion",
    "Action on Issue",
    "Contribution & Commitment",
    "Usage",
    "Bug Reproduction",
    "Expected Behavior",
    "Social Discussion",
)


class Taxonomy(tuple):
    """Ordered category names, as a tuple. Order matters: ties break low-index.

    Takes a non-empty list or tuple, and equals and hashes as the plain tuple of
    its names. Each name is a non-empty str, unique regardless of case, else ValueError.
    """

    def __new__(cls, names):
        if not isinstance(names, (list, tuple)) or not names:
            raise ValueError(f"taxonomy must be a non-empty list or tuple of names, got {names!r}")
        seen = set()
        for name in names:
            if not isinstance(name, str) or not name:
                raise ValueError(f"category names must be non-empty strings, got {name!r}")
            key = name.lower()
            if key in seen:
                raise ValueError(f"duplicate category name (case-insensitive): {name!r}")
            seen.add(key)
        return super().__new__(cls, names)


def default_taxonomy() -> Taxonomy:
    return Taxonomy(DEFAULT_CATEGORIES)


def _check_version(version) -> None:
    if type(version) is not int:
        raise SchemaViolation("format_version", f"must be an integer, got {version!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(
            f"format_version {version!r} not supported (expected {FORMAT_VERSION})"
        )


def _finite_numbers(values) -> bool:
    """True if every value is an int or a float (never a bool) with a finite float value."""
    try:
        return {type(value) for value in values} <= {int, float} and all(map(math.isfinite, values))
    except OverflowError:  # an int beyond the float range
        return False


@dataclass
class ModelFile:
    """Serialized linear classifier: taxonomy, vocabulary, weights, bias.

    Every rule on a model is checked here, when it is built: loaded, trained,
    constructed in code or rebuilt by save_model. A bad field raises
    SchemaViolation naming it. The taxonomy may be a Taxonomy, list or tuple,
    and is stored as a Taxonomy; numbers are checked as given, then stored as
    float copies. Scoring reads a column-major copy of the weights built on
    the first prediction, so a model must not be mutated once it has scored.
    """

    format_version: int
    taxonomy: Taxonomy
    vocabulary: dict[str, int]
    weights: list[list[float]]
    bias: list[float]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        _check_version(self.format_version)
        try:
            self.taxonomy = Taxonomy(self.taxonomy)
        except ValueError as exc:
            raise SchemaViolation("taxonomy", str(exc).removeprefix("taxonomy ")) from None
        if not isinstance(self.vocabulary, dict):
            raise SchemaViolation("vocabulary", "must map tokens to integer indexes")
        if not isinstance(self.weights, list) or not all(isinstance(r, list) for r in self.weights):
            raise SchemaViolation("weights", "must be a list of rows")
        if not isinstance(self.bias, list):
            raise SchemaViolation("bias", "must be a list")
        if not isinstance(self.metadata, dict):
            raise SchemaViolation("metadata", "must be an object")
        c = len(self.taxonomy)
        v = len(self.vocabulary)
        if not {type(index) for index in self.vocabulary.values()} <= {int}:
            raise SchemaViolation("vocabulary", "must map tokens to integer indexes")
        if sorted(self.vocabulary.values()) != list(range(v)):
            raise SchemaViolation("vocabulary", "indexes must cover 0..V-1 exactly once")
        for token in self.vocabulary:
            if not isinstance(token, str) or not token:
                raise SchemaViolation("vocabulary", f"bad token {token!r}")
        if len(self.weights) != c:
            raise SchemaViolation("weights", f"expected {c} rows, found {len(self.weights)}")
        for row_index, row in enumerate(self.weights):
            if len(row) != v:
                raise SchemaViolation(
                    "weights", f"row {row_index} has {len(row)} columns, expected {v}"
                )
            if not _finite_numbers(row):
                raise SchemaViolation("weights", f"row {row_index}: a value is not a finite number")
        if len(self.bias) != c:
            raise SchemaViolation("bias", f"expected length {c}, found {len(self.bias)}")
        if not _finite_numbers(self.bias):
            raise SchemaViolation("bias", "a value is not a finite number")
        for key, value in self.metadata.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise SchemaViolation("metadata", f"entries must be string/string, got {key!r}")
        self.weights = [[float(x) for x in row] for row in self.weights]
        self.bias = [float(x) for x in self.bias]

    @cached_property
    def _columns(self) -> dict[str, tuple[float, ...]]:
        """token -> its weight in every category, in taxonomy order."""
        columns = list(zip(*self.weights))
        return {token: columns[index] for token, index in self.vocabulary.items()}


class Prediction(NamedTuple):
    """Chosen category plus the full log-score vector and a softmax confidence."""

    category: str
    scores: tuple[float, ...]
    confidence: float


class LabeledCorpus(tuple):
    """Training examples: a tuple of (tokens, category) pairs, tokens a tuple of str.

    Takes a list or tuple of pairs, each with a non-empty list or tuple of
    non-empty str tokens, else raises a ValueError that starts with ``examples``.
    """

    def __new__(cls, examples):
        if not isinstance(examples, (list, tuple)):
            raise ValueError(f"examples: must be a list or tuple of pairs, got {examples!r}")
        pairs = []
        for example in examples:
            if not isinstance(example, (list, tuple)) or len(example) != 2:
                raise ValueError(f"examples: each example must be a (tokens, category) pair, got {example!r}")
            tokens, category = example
            if (not isinstance(tokens, (list, tuple)) or not tokens
                    or not all(isinstance(t, str) and t for t in tokens)):
                raise ValueError(f"examples: {category!r} example needs non-empty str tokens, got {tokens!r}")
            pairs.append((tuple(tokens), category))
        return super().__new__(cls, pairs)


def _model_from_document(doc: object, source: str) -> ModelFile:
    if not isinstance(doc, dict):
        raise SchemaViolation("document", f"{source} is not a JSON object")
    if "format_version" in doc:
        _check_version(doc["format_version"])  # first: another version may have another layout
    top_level_fields = {f.name for f in fields(ModelFile)}
    if missing := top_level_fields - doc.keys():
        raise SchemaViolation(sorted(missing)[0], "required field missing")
    if extra := doc.keys() - top_level_fields:
        raise SchemaViolation(sorted(extra)[0], "unexpected top-level field")
    return ModelFile(**doc)


def load_model(path: str | Path) -> ModelFile:
    """Load and fully validate a model file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read model file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaViolation("document", f"not UTF-8: {exc}") from None
    except ValueError as exc:  # a NUL, or a character the file system encoding cannot take
        raise IoFailure(f"cannot read model file {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaViolation("document", f"not valid JSON: {exc}") from None
    return _model_from_document(doc, str(path))


def load_default_model() -> ModelFile:
    """The baseline model bundled with the package."""
    text = resources.files("issuesift").joinpath("data/baseline_model.json").read_text("utf-8")
    return _model_from_document(json.loads(text), "bundled baseline model")


def save_model(model: ModelFile, path: str | Path) -> None:
    """Write the canonical on-disk form: sorted keys, lossless number text.

    The model is built again first, so a field reassigned since it was built
    raises SchemaViolation and nothing is written. Two saves of the same model
    produce byte-identical files.
    """
    model = replace(model)
    doc = {f.name: getattr(model, f.name) for f in fields(model)}
    text = json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2, allow_nan=False) + "\n"
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write model file {path}: {exc}") from exc


def train_baseline(
    corpus: LabeledCorpus,
    taxonomy: Taxonomy,
    alpha: float = 1.0,
    metadata: dict[str, str] | None = None,
) -> ModelFile:
    """Multinomial naive Bayes with add-alpha smoothing, in linear form.

    vocabulary: every distinct corpus token, sorted lexicographically.
    bias[c]    = ln(examples in class c / total examples)
    weights[c][t] = ln((count of t in c + alpha) / (tokens in c + alpha * V))

    The taxonomy is checked by Taxonomy first. The corpus may be a LabeledCorpus
    or a plain list or tuple of (tokens, category) pairs; either is checked by
    LabeledCorpus next.
    """
    taxonomy = Taxonomy(taxonomy)
    corpus = LabeledCorpus(corpus)
    if not 0 < alpha < math.inf:  # also false for nan
        raise ValueError(f"alpha must be a positive finite number, got {alpha}")
    if not corpus:
        raise EmptyCorpus("cannot train on an empty corpus")
    class_examples: Counter[str] = Counter()
    token_counts: dict[str, Counter[str]] = {name: Counter() for name in taxonomy}
    vocabulary_set: set[str] = set()
    for tokens, category in corpus:
        if category not in taxonomy:
            raise UnknownCategory(f"example labeled {category!r}, not in the taxonomy")
        class_examples[category] += 1
        token_counts[category].update(tokens)
        vocabulary_set.update(tokens)
    for name in taxonomy:
        if class_examples[name] == 0:
            raise EmptyCategory(f"category {name!r} has no training examples")
    vocabulary = {token: i for i, token in enumerate(sorted(vocabulary_set))}
    v = len(vocabulary)
    total = len(corpus)
    bias = [math.log(class_examples[name] / total) for name in taxonomy]
    weights = []
    for name in taxonomy:
        counts = token_counts[name]
        denominator = sum(counts.values()) + alpha * v
        shares = [(counts[token] + alpha) / denominator for token in vocabulary]
        # A huge alpha overflows the denominator, a tiny one underflows a share.
        if 0.0 in shares:
            raise ValueError(f"alpha {alpha!r} is out of range for this corpus: "
                             f"a smoothed share of category {name!r} rounds to 0")
        weights.append([math.log(share) for share in shares])
    meta = {"trainer": "multinomial_naive_bayes", "alpha": repr(float(alpha))}
    if metadata:
        meta.update(metadata)
    return ModelFile(
        format_version=FORMAT_VERSION,
        taxonomy=taxonomy,
        vocabulary=vocabulary,
        weights=weights,
        bias=bias,
        metadata=meta,
    )


def _scores(model: ModelFile, tokens) -> list[float]:
    """The log-score of every category; the returned list must not be mutated.

    One weight * count term per distinct in-vocabulary token, in
    first-occurrence order: summing per occurrence, or in another order, moves
    the last bits of the scores, and ties break on exact equality. A count of
    one adds the column as it is, which is the same float as w * 1.
    """
    columns = model._columns
    counts: dict[str, int] = {}
    for token in tokens:
        if token in columns:
            counts[token] = counts.get(token, 0) + 1
    scores = model.bias
    for token, count in counts.items():
        column = columns[token]
        if count != 1:
            column = map(mul, column, repeat(count))
        scores = list(map(add, scores, column))
    return scores


def _choose(model: ModelFile, scores: list[float]) -> tuple[str, float]:
    """(category, softmax confidence); ties break toward the lowest taxonomy index.

    exp(peak - peak) is exactly 1.0, so 1.0 / sum is the best category's
    exp over the sum, bit for bit.
    """
    best = scores.index(max(scores))
    peak = scores[best]
    return model.taxonomy[best], 1.0 / sum([math.exp(s - peak) for s in scores])


def predict_line(model: ModelFile, tokens) -> Prediction:
    """Score one token sequence; out-of-vocabulary tokens contribute nothing.

    Ties break toward the lowest taxonomy index. An empty token list is
    scored on the bias alone.
    """
    scores = _scores(model, tokens)
    category, confidence = _choose(model, scores)
    return Prediction(category=category, scores=tuple(scores), confidence=confidence)


def classify_lines(model: ModelFile, lines) -> list[tuple[object, tuple[str, float]]]:
    """``(line, (category, confidence))`` for every line, in order.

    The pair equals ``predict_line``'s category and confidence exactly; the
    score vector is not kept.
    """
    return [(line, _choose(model, _scores(model, line.tokens))) for line in lines]


def load_corpus(path: str | Path) -> LabeledCorpus:
    """Read a training corpus CSV with columns `category` and `text`.

    Text is whitespace-split into tokens verbatim: the model contract says
    all preprocessing happens upstream, never here. A leading UTF-8 byte
    order mark, as spreadsheet "CSV UTF-8" exports write, is skipped.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or not {"category", "text"} <= set(reader.fieldnames):
                raise SchemaViolation("corpus", f"{path} must have 'category' and 'text' columns")
            examples = []
            for row in reader:
                tokens = (row["text"] or "").split()
                if not tokens:
                    continue
                examples.append((tokens, row["category"]))
    except OSError as exc:
        raise IoFailure(f"cannot read corpus {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a field over csv.field_size_limit()
        raise SchemaViolation("corpus", f"{path} is not a readable CSV: {exc}") from None
    return LabeledCorpus(examples)
