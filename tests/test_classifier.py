import csv
import hashlib
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_SMALL

from issuesift.classifier import (
    FORMAT_VERSION,
    LabeledCorpus,
    ModelFile,
    Taxonomy,
    classify_lines,
    default_taxonomy,
    load_corpus,
    load_default_model,
    load_model,
    predict_line,
    save_model,
    train_baseline,
)
from issuesift.errors import (
    EmptyCategory,
    EmptyCorpus,
    IoFailure,
    SchemaViolation,
    UnknownCategory,
    UnsupportedVersion,
)
from issuesift.github_client import open_session
from issuesift.text_prep import PrepConfig, ProcessedLine, preprocess_comment

TWO_CLASS = Taxonomy(("A", "B"))


def two_class_model():
    corpus = LabeledCorpus((
        (("fix", "bug"), "A"),
        (("thanks",), "B"),
    ))
    return train_baseline(corpus, TWO_CLASS, alpha=1.0)


def oracle_log_posteriors(examples, taxonomy, tokens, alpha=1.0):
    """Brute-force naive-Bayes posterior by direct probability arithmetic.

    Recounts everything from the raw examples; shares no code with the
    linear-scoring path it checks.
    """
    total = len(examples)
    vocabulary = sorted({t for toks, _ in examples for t in toks})
    v = len(vocabulary)
    scores = []
    for category in taxonomy:
        docs = [toks for toks, c in examples if c == category]
        counts = Counter(t for toks in docs for t in toks)
        class_tokens = sum(counts.values())
        log_posterior = math.log(len(docs) / total)
        for token in tokens:
            if token in vocabulary:
                log_posterior += math.log((counts[token] + alpha) / (class_tokens + alpha * v))
        scores.append(log_posterior)
    return scores


def oracle_argmax(scores):
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
    return best


def assert_oracle_choice(category, taxonomy, scores, tolerance=1e-9):
    """category is one within the tolerance of the oracle's best score.

    Where the best leads by more than the tolerance that is the exact argmax.
    Scores that tie in real arithmetic can differ by an ulp in floats, so a
    near-tie accepts any of the tied categories.
    """
    peak = max(scores)
    assert category in [name for name, s in zip(taxonomy, scores) if peak - s <= tolerance]


class TestTrainBaseline:
    def test_hand_computed_weights(self):
        model = two_class_model()
        assert list(model.vocabulary) == sorted(model.vocabulary)
        assert model.vocabulary == {"bug": 0, "fix": 1, "thanks": 2}
        assert model.bias == pytest.approx([math.log(0.5), math.log(0.5)])
        a, b = model.weights
        assert a[model.vocabulary["fix"]] == pytest.approx(math.log(2 / 5))
        assert a[model.vocabulary["bug"]] == pytest.approx(math.log(2 / 5))
        assert a[model.vocabulary["thanks"]] == pytest.approx(math.log(1 / 5))
        assert b[model.vocabulary["thanks"]] == pytest.approx(math.log(2 / 4))
        assert b[model.vocabulary["fix"]] == pytest.approx(math.log(1 / 4))

    def test_single_class_prior_is_zero(self):
        corpus = LabeledCorpus(((("hello",), "Only"),))
        model = train_baseline(corpus, Taxonomy(("Only",)), alpha=1.0)
        assert model.bias == [0.0]

    def test_unknown_category_rejected(self):
        corpus = LabeledCorpus(((("x",), "Nonexistent"),))
        with pytest.raises(UnknownCategory):
            train_baseline(corpus, TWO_CLASS, alpha=1.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            train_baseline(LabeledCorpus(()), TWO_CLASS, alpha=1.0)

    def test_category_without_examples_rejected(self):
        corpus = LabeledCorpus(((("x",), "A"),))
        with pytest.raises(EmptyCategory):
            train_baseline(corpus, TWO_CLASS, alpha=1.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_alpha_rejected(self, alpha):
        corpus = LabeledCorpus(((("x",), "A"), (("y",), "B")))
        with pytest.raises(ValueError, match="alpha"):
            train_baseline(corpus, TWO_CLASS, alpha=alpha)

    def test_huge_alpha_rejected(self):
        # alpha * V overflows to inf, so every smoothed share is 0.
        corpus = LabeledCorpus(((("x",), "A"), (("y",), "B")))
        with pytest.raises(ValueError, match="alpha"):
            train_baseline(corpus, TWO_CLASS, alpha=1e308)

    def test_tiny_alpha_rejected(self):
        # alpha / 5 underflows to 0 for "y", which category A never saw.
        corpus = LabeledCorpus(((("x",) * 5, "A"), (("y",), "B")))
        with pytest.raises(ValueError, match="alpha"):
            train_baseline(corpus, TWO_CLASS, alpha=5e-324)

    def test_example_without_tokens_rejected(self):
        with pytest.raises(ValueError):
            LabeledCorpus((((), "A"),))

    @pytest.mark.parametrize(
        "examples",
        [5, None, "ab", {(("x",), "A"): 1}, {(("x",), "A")},
         ((("a",),),), ((("a",), "A", "B"),), ("ab",), (None,)],
        ids=["int", "none", "bare-string", "dict", "set",
             "one-item-example", "three-item-example", "bare-string-example", "none-example"])
    def test_examples_must_be_a_list_or_tuple_of_pairs(self, examples):
        with pytest.raises(ValueError, match="^examples: "):
            LabeledCorpus(examples)

    def test_list_of_examples_stored_as_tuple(self):
        corpus = LabeledCorpus([(("x",), "A"), (("y",), "B")])
        assert corpus == ((("x",), "A"), (("y",), "B"))
        assert corpus == LabeledCorpus(((("x",), "A"), (("y",), "B")))

    def test_list_tokens_stored_as_tuples_so_a_corpus_hashes(self):
        corpus = LabeledCorpus([(["a"], "A")])
        assert corpus == LabeledCorpus(((("a",), "A"),))
        assert hash(corpus) == hash(LabeledCorpus(((("a",), "A"),)))

    def test_plain_list_of_pairs_trains(self):
        model = train_baseline([(("a",), "A"), (("b",), "B")], Taxonomy(["A", "B"]))
        assert model.vocabulary == {"a": 0, "b": 1}

    def test_plain_list_is_checked_before_training(self):
        with pytest.raises(ValueError, match="^examples"):
            train_baseline([("ab", "A")], Taxonomy(["A"]))

    @pytest.mark.parametrize("taxonomy, message", [
        ("AB", "^taxonomy must be a non-empty list or tuple"),
        (["A", "a"], "^duplicate category name"),
        (5, "^taxonomy must be a non-empty list or tuple"),
    ], ids=["bare-string", "case-duplicate", "int"])
    def test_taxonomy_is_checked_before_training(self, taxonomy, message):
        """A bare string is not read as one-letter names, nor a duplicate as an empty category."""
        with pytest.raises(ValueError, match=message):
            train_baseline([(("a",), "A"), (("b",), "AB")], taxonomy)

    @pytest.mark.parametrize("tokens", ["thanks", ("x", 1), ("x", ""), 5, iter(["x"]), {"x"}],
                             ids=["bare-string", "int-token", "empty-token", "int", "iterator", "set"])
    def test_example_tokens_must_be_non_empty_strings(self, tokens):
        with pytest.raises(ValueError, match="^examples: "):
            LabeledCorpus(((tokens, "A"), (("y",), "B")))

    def test_metadata_adds_to_and_overrides_trainer_keys(self):
        corpus = LabeledCorpus(((("x",), "A"), (("y",), "B")))
        model = train_baseline(corpus, TWO_CLASS, alpha=1.0, metadata={"trainer": "mine", "source": "x"})
        assert model.metadata == {"trainer": "mine", "alpha": "1.0", "source": "x"}


class TestPredictLine:
    def test_hand_computed_argmax(self):
        model = two_class_model()
        prediction = predict_line(model, ["fix"])
        assert prediction.category == "A"
        assert prediction.scores[0] == pytest.approx(math.log(0.5) + math.log(2 / 5))
        assert prediction.scores[1] == pytest.approx(math.log(0.5) + math.log(1 / 4))

    def test_empty_tokens_scored_on_bias(self):
        model = ModelFile(FORMAT_VERSION, TWO_CLASS, {}, [[], []], [0.0, -1.0], {})
        assert predict_line(model, []).category == "A"

    def test_oov_only_equals_empty(self):
        model = two_class_model()
        assert predict_line(model, ["zzz", "qqq"]) == predict_line(model, [])

    def test_tie_breaks_to_lowest_index(self):
        model = ModelFile(FORMAT_VERSION, Taxonomy(("X", "Y", "Z")), {}, [[], [], []],
                          [1.0, 1.0, 1.0], {})
        assert predict_line(model, []).category == "X"

    def test_token_multiplicity_counts(self):
        model = two_class_model()
        single = predict_line(model, ["thanks"])
        double = predict_line(model, ["thanks", "thanks"])
        expected = model.bias[1] + 2 * model.weights[1][model.vocabulary["thanks"]]
        assert double.scores[1] == pytest.approx(expected)
        assert double.category == "B" == single.category

    def test_confidences_sum_to_one(self):
        model = two_class_model()
        prediction = predict_line(model, ["fix", "bug", "thanks"])
        peak = max(prediction.scores)
        total = sum(math.exp(s - peak) for s in prediction.scores)
        softmax = [math.exp(s - peak) / total for s in prediction.scores]
        assert sum(softmax) == pytest.approx(1.0, abs=1e-9)
        assert prediction.confidence == pytest.approx(max(softmax))
        assert 0 < prediction.confidence <= 1


class TestClassifyLines:
    def line(self, tokens, index=0):
        return ProcessedLine(issue_id=1, comment_id=2, line_index=index,
                             tokens=tuple(tokens))

    def test_empty(self):
        assert classify_lines(two_class_model(), []) == []

    def test_order_preserved(self):
        model = two_class_model()
        lines = [self.line(["fix"]), self.line(["thanks"], 1)]
        results = classify_lines(model, lines)
        assert [line for line, _ in results] == lines
        assert [category for _, (category, _) in results] == ["A", "B"]

    def test_duplicate_lines_identical_predictions(self):
        model = two_class_model()
        line = self.line(["fix", "bug"])
        results = classify_lines(model, [line, line])
        assert results[0][1] == results[1][1]

    def test_classification_never_mutates_model(self, tmp_path):
        model = two_class_model()
        save_model(model, tmp_path / "before.json")
        before = hashlib.sha256((tmp_path / "before.json").read_bytes()).hexdigest()
        classify_lines(model, [self.line(["fix"]), self.line(["thanks"], 1)])
        save_model(model, tmp_path / "after.json")
        after = hashlib.sha256((tmp_path / "after.json").read_bytes()).hexdigest()
        assert before == after


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        model = two_class_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model

    def test_two_saves_byte_identical(self, tmp_path):
        model = two_class_model()
        save_model(model, tmp_path / "one.json")
        save_model(model, tmp_path / "two.json")
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    def test_save_to_unwritable_path(self, tmp_path):
        with pytest.raises(IoFailure):
            save_model(two_class_model(), tmp_path)  # a directory, not a file

    def test_bundled_model_saves_byte_for_byte(self, tmp_path):
        from importlib import resources
        save_model(load_default_model(), tmp_path / "saved.json")
        bundled = resources.files("issuesift").joinpath("data/baseline_model.json").read_bytes()
        assert (tmp_path / "saved.json").read_bytes() == bundled

    def test_bundled_model_is_consistent(self):
        model = load_default_model()
        assert len(model.taxonomy) == len(default_taxonomy())
        assert model.taxonomy == default_taxonomy()
        assert model.metadata["trainer"] == "multinomial_naive_bayes"

    def _doc(self):
        model = two_class_model()
        return {
            "format_version": 1,
            "taxonomy": list(model.taxonomy),
            "vocabulary": model.vocabulary,
            "weights": model.weights,
            "bias": model.bias,
            "metadata": {},
        }

    def _write(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_missing_weight_row_names_weights(self, tmp_path):
        doc = self._doc()
        doc["weights"] = doc["weights"][:-1]
        with pytest.raises(SchemaViolation) as excinfo:
            load_model(self._write(tmp_path, doc))
        assert excinfo.value.field == "weights"

    def test_duplicate_vocab_index_names_vocabulary(self, tmp_path):
        doc = self._doc()
        doc["vocabulary"] = {"bug": 0, "fix": 0, "thanks": 2}
        with pytest.raises(SchemaViolation) as excinfo:
            load_model(self._write(tmp_path, doc))
        assert excinfo.value.field == "vocabulary"

    def test_nonfinite_weight_rejected(self, tmp_path):
        doc = self._doc()
        doc["weights"][0][0] = float("nan")
        with pytest.raises(SchemaViolation) as excinfo:
            load_model(self._write(tmp_path, doc))
        assert excinfo.value.field == "weights"

    @pytest.mark.parametrize("field, value", [
        ("weights", "x"),
        ("weights", "1.5"),
        ("weights", True),
        ("weights", 10**400),
        ("bias", None),
        ("bias", "0"),
        ("format_version", True),
    ], ids=["string-weight", "numeric-string-weight", "bool-weight", "huge-int-weight",
            "null-bias", "string-bias", "bool-version"])
    def test_non_number_rejected_before_conversion(self, tmp_path, field, value):
        doc = self._doc()
        if field == "weights":
            doc["weights"][0][0] = value
        elif field == "bias":
            doc["bias"][0] = value
        else:
            doc[field] = value
        with pytest.raises(SchemaViolation) as excinfo:
            load_model(self._write(tmp_path, doc))
        assert excinfo.value.field == field

    @pytest.mark.parametrize("field, value", [
        ("taxonomy", "AB"),
        ("taxonomy", ["A", 1]),
        ("taxonomy", ["A", ["B"]]),
        ("taxonomy", ["A", "a"]),
        ("taxonomy", ["A", ""]),
        ("vocabulary", {"bug": 0.0, "fix": 1, "thanks": 2}),
        ("vocabulary", {"": 0, "fix": 1, "thanks": 2}),
        ("metadata", {"k": 1}),
    ], ids=["string-taxonomy", "int-category", "list-category", "case-duplicate-category",
            "empty-category", "float-vocab-index", "empty-vocab-token", "int-metadata-value"])
    def test_bad_field_names_the_field(self, tmp_path, field, value):
        with pytest.raises(SchemaViolation) as excinfo:
            load_model(self._write(tmp_path, {**self._doc(), field: value}))
        assert excinfo.value.field == field

    @pytest.mark.parametrize("taxonomy", [[], "AB", ["A", "a"], ["A", 1]],
                             ids=["empty", "bare-string", "case-duplicate", "int-name"])
    def test_bad_taxonomy_names_the_field_once(self, tmp_path, taxonomy):
        with pytest.raises(SchemaViolation) as excinfo:
            load_model(self._write(tmp_path, {**self._doc(), "taxonomy": taxonomy}))
        assert str(excinfo.value).startswith("taxonomy: ")
        assert str(excinfo.value).count("taxonomy") == 1

    def test_top_level_array_names_document(self, tmp_path):
        with pytest.raises(SchemaViolation) as excinfo:
            load_model(self._write(tmp_path, [self._doc()]))
        assert excinfo.value.field == "document"

    def test_bad_bias_length_names_bias(self, tmp_path):
        doc = self._doc()
        doc["bias"] = doc["bias"] + [0.0]
        with pytest.raises(SchemaViolation) as excinfo:
            load_model(self._write(tmp_path, doc))
        assert excinfo.value.field == "bias"

    def test_unsupported_version(self, tmp_path):
        doc = self._doc()
        doc["format_version"] = 99
        with pytest.raises(UnsupportedVersion):
            load_model(self._write(tmp_path, doc))

    def test_other_version_with_another_layout_is_unsupported(self, tmp_path):
        doc = self._doc()
        doc["format_version"] = 2
        doc["labels"] = doc.pop("taxonomy")
        with pytest.raises(UnsupportedVersion):
            load_model(self._write(tmp_path, doc))

    def test_missing_field_rejected(self, tmp_path):
        doc = self._doc()
        del doc["bias"]
        with pytest.raises(SchemaViolation) as excinfo:
            load_model(self._write(tmp_path, doc))
        assert excinfo.value.field == "bias"

    def test_extra_field_rejected(self, tmp_path):
        doc = self._doc()
        doc["surprise"] = 1
        with pytest.raises(SchemaViolation) as excinfo:
            load_model(self._write(tmp_path, doc))
        assert excinfo.value.field == "surprise"

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json at all", encoding="utf-8")
        with pytest.raises(SchemaViolation):
            load_model(path)

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            load_model(tmp_path / "absent.json")


class TestModelFileChecks:
    """A ModelFile built in code gets the same checks as a loaded one."""

    @staticmethod
    def good_fields():
        model = two_class_model()
        return {
            "format_version": FORMAT_VERSION,
            "taxonomy": model.taxonomy,
            "vocabulary": model.vocabulary,
            "weights": model.weights,
            "bias": model.bias,
            "metadata": {},
        }

    @pytest.mark.parametrize("field, value", [
        ("bias", None),
        ("weights", None),
        ("vocabulary", ["bug", "fix", "thanks"]),
        ("metadata", []),
        ("taxonomy", "AB"),
        ("weights", [[0.0, 0.0, 0.0], [0.0, 0.0]]),
        ("weights", [[True, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    ], ids=["none-bias", "none-weights", "list-vocabulary", "list-metadata", "string-taxonomy",
            "ragged-weight-row", "bool-weight"])
    def test_bad_field_rejected_when_built(self, field, value):
        with pytest.raises(SchemaViolation) as excinfo:
            ModelFile(**{**self.good_fields(), field: value})
        assert excinfo.value.field == field

    @pytest.mark.parametrize("taxonomy", [["A", "B"], ("A", "B")], ids=["list", "tuple"])
    def test_list_or_tuple_taxonomy_stored_as_taxonomy(self, taxonomy):
        model = ModelFile(**{**self.good_fields(), "taxonomy": taxonomy})
        assert type(model.taxonomy) is Taxonomy
        assert model.taxonomy == TWO_CLASS

    def test_built_model_stores_floats(self):
        model = ModelFile(**{**self.good_fields(), "weights": [[1, 2, 3], [4, 5, 6]], "bias": [0, -1]})
        assert model.weights == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert all(type(x) is float for x in model.bias + model.weights[0] + model.weights[1])

    def test_save_writes_float_copies_of_reassigned_numbers(self, tmp_path):
        model = two_class_model()
        model.bias = [0, -1]
        save_model(model, tmp_path / "model.json")
        saved = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        assert saved["bias"] == [0.0, -1.0] and all(type(x) is float for x in saved["bias"])

    def test_save_after_field_reassigned(self, tmp_path):
        model = two_class_model()
        model.bias = None
        with pytest.raises(SchemaViolation) as excinfo:
            save_model(model, tmp_path / "model.json")
        assert excinfo.value.field == "bias"
        assert not (tmp_path / "model.json").exists()


class TestLoadCorpus:
    def test_parses_category_and_text(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text('category,text\nA,fix bug\nB,thanks\n', encoding="utf-8")
        corpus = load_corpus(path)
        assert corpus == ((("fix", "bug"), "A"), (("thanks",), "B"))

    def test_row_without_tokens_skipped(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("category,text\nA,fix bug\nB,   \nB\nB,thanks\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert corpus == ((("fix", "bug"), "A"), (("thanks",), "B"))

    def test_text_split_verbatim_no_preprocessing(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text('category,text\nA,"Fix THE bug!"\n', encoding="utf-8")
        corpus = load_corpus(path)
        assert corpus[0][0] == ("Fix", "THE", "bug!")

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("kind,words\nA,x\n", encoding="utf-8")
        with pytest.raises(SchemaViolation):
            load_corpus(path)

    def test_directory_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            load_corpus(tmp_path)

    def test_leading_byte_order_mark_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("category,text\nUsage,install docker\n", encoding="utf-8")
        marked.write_text("category,text\nUsage,install docker\n", encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_corpus(marked) == load_corpus(plain) == ((("install", "docker"), "Usage"),)

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_bytes(b"category,text\nA,caf\xe9\n")
        with pytest.raises(SchemaViolation, match="^corpus: "):
            load_corpus(path)

    def test_field_over_csv_size_limit_rejected(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("category,text\nA," + "x" * (csv.field_size_limit() + 1) + "\n", encoding="utf-8")
        with pytest.raises(SchemaViolation, match="^corpus: "):
            load_corpus(path)

    def test_bundled_corpus_loads(self):
        from importlib import resources
        with resources.as_file(
            resources.files("issuesift").joinpath("data/training_corpus.csv")
        ) as path:
            corpus = load_corpus(path)
        assert len(corpus) == 200


CATEGORY_NAMES = ("Alpha", "Beta", "Gamma")
TOKEN_POOL = ("red", "blue", "green", "gold", "gray")


@st.composite
def small_corpora(draw):
    class_count = draw(st.integers(min_value=1, max_value=3))
    taxonomy = Taxonomy(CATEGORY_NAMES[:class_count])
    doc_count = draw(st.integers(min_value=class_count, max_value=6))
    examples = []
    for i in range(doc_count):
        # guarantee every class at least one example
        category = taxonomy[i % class_count]
        tokens = draw(st.lists(st.sampled_from(TOKEN_POOL), min_size=1, max_size=4))
        examples.append((tuple(tokens), category))
    query = draw(st.lists(st.sampled_from(TOKEN_POOL + ("oov",)), max_size=5))
    return taxonomy, tuple(examples), query


# Scores that tie in real arithmetic but differ by one ulp in floats.
ULP_TIE_SHIFTED = (
    Taxonomy(CATEGORY_NAMES),
    ((("red",), "Alpha"), (("red",), "Beta"), (("blue",), "Gamma")),
    ["blue", "red"],
)
ULP_TIE = (
    Taxonomy(CATEGORY_NAMES[:2]),
    ((("blue", "blue", "green", "gold"), "Alpha"), (("red", "blue", "blue", "blue"), "Beta")),
    ["red", "red", "green", "green"],
)


class TestOracleEquivalence:
    @given(small_corpora())
    @example(ULP_TIE)
    @example(ULP_TIE_SHIFTED)
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_posterior(self, case):
        taxonomy, examples, query = case
        model = train_baseline(LabeledCorpus(examples), taxonomy, alpha=1.0)
        prediction = predict_line(model, query)
        expected = oracle_log_posteriors(examples, taxonomy, query, alpha=1.0)
        assert_oracle_choice(prediction.category, taxonomy, expected)
        for got, want in zip(prediction.scores, expected):
            assert abs(got - want) <= 1e-9

    @given(small_corpora(), st.floats(min_value=-50, max_value=50))
    @example(ULP_TIE_SHIFTED, 1.0)
    @settings(max_examples=150, deadline=None)
    def test_argmax_shift_invariant(self, case, shift):
        taxonomy, examples, query = case
        model = train_baseline(LabeledCorpus(examples), taxonomy, alpha=1.0)
        shifted = ModelFile(
            FORMAT_VERSION, taxonomy, model.vocabulary, model.weights,
            [b + shift for b in model.bias], {},
        )
        original = predict_line(model, query)
        moved = predict_line(shifted, query)
        expected = oracle_log_posteriors(examples, taxonomy, query, alpha=1.0)
        assert_oracle_choice(original.category, taxonomy, expected)
        assert_oracle_choice(moved.category, taxonomy, expected)
        assert abs(moved.confidence - original.confidence) <= 1e-12

    def test_monotonicity_of_dominant_token(self):
        # appending a token with the strictly maximal weight ratio for the
        # current argmax never moves the argmax away from it
        corpus = LabeledCorpus((
            (("win", "win", "win"), "A"),
            (("other",), "B"),
        ))
        model = train_baseline(corpus, TWO_CLASS, alpha=1.0)
        tokens = ["win"]
        for _ in range(20):
            assert predict_line(model, tokens).category == "A"
            tokens.append("win")


class TestTaxonomy:
    def test_duplicate_names_rejected_case_insensitive(self):
        with pytest.raises(ValueError):
            Taxonomy(("Usage", "usage"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Taxonomy(())

    @pytest.mark.parametrize("categories", [("A", 1), ("A", b"B"), ("A", None), "AB"],
                             ids=["int-name", "bytes-name", "none-name", "bare-string"])
    def test_names_must_be_strings(self, categories):
        with pytest.raises(ValueError):
            Taxonomy(categories)

    @pytest.mark.parametrize("categories", [5, None, "AB", {"A": 1}, {"A", "B"}],
                             ids=["int", "none", "bare-string", "dict", "set"])
    def test_categories_must_be_list_or_tuple(self, categories):
        with pytest.raises(ValueError, match="^taxonomy "):
            Taxonomy(categories)

    def test_list_and_tuple_taxonomies_equal_and_hash_equal(self):
        assert Taxonomy(["A"]) == ("A",)
        assert Taxonomy(["A"]) == Taxonomy(("A",))
        assert hash(Taxonomy(["A"])) == hash(Taxonomy(("A",)))
        assert isinstance(Taxonomy(["A", "B"]), tuple)
        assert Taxonomy(["A", "B"])[1] == "B"


def ref_predict_line(model, tokens):
    """The original row-major scorer: Counter, then a loop over every row."""
    scores = list(model.bias)
    for token, count in Counter(tokens).items():
        index = model.vocabulary.get(token)
        if index is None:
            continue
        for c, row in enumerate(model.weights):
            scores[c] += row[index] * count
    best = 0
    for c in range(1, len(scores)):
        if scores[c] > scores[best]:
            best = c
    peak = scores[best]
    exps = [math.exp(s - peak) for s in scores]
    return model.taxonomy[best], tuple(scores), exps[best] / sum(exps)


BUNDLED = load_default_model()
OUT_OF_VOCABULARY = ["zzz-not-a-word", "CODE", "Fix", "", "tf.function", "日本"]


def golden_fixture_lines():
    session = open_session(None, mode="replay", fixture_dir=FIXTURE_SMALL)
    prep = PrepConfig.default()
    return [
        line
        for issue in session.search_issues("tf.function", limit=1000)
        for comment in session.fetch_comments(issue)
        for line in preprocess_comment(comment, prep)
    ]


class TestColumnScoringMatchesReference:
    def assert_same(self, model, tokens):
        category, scores, confidence = ref_predict_line(model, tokens)
        prediction = predict_line(model, tokens)
        assert prediction.scores == scores
        assert prediction.confidence == confidence
        assert prediction.category == category

    def test_golden_fixture_lines(self):
        lines = golden_fixture_lines()
        assert len(lines) > 10
        for line in lines:
            self.assert_same(BUNDLED, line.tokens)

    @given(st.lists(st.sampled_from(sorted(BUNDLED.vocabulary) + OUT_OF_VOCABULARY), max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_random_token_lists(self, tokens):
        self.assert_same(BUNDLED, tokens)

    def test_repeated_tokens_use_count_times_weight(self):
        token = sorted(BUNDLED.vocabulary)[0]
        for count in range(1, 12):
            self.assert_same(BUNDLED, [token] * count + ["oov"] + [token])


# A and B have the same weights and bias, so they always tie, and C ties
# with both on a line holding as many "x" as "y".
TIED = ModelFile(
    format_version=FORMAT_VERSION,
    taxonomy=Taxonomy(("A", "B", "C")),
    vocabulary={"x": 0, "y": 1},
    weights=[[1.0, 0.5], [1.0, 0.5], [0.5, 1.0]],
    bias=[0.0, 0.0, 0.0],
)
# Few distinct tokens, so lines repeat them; the bundled model reads x and y
# as out of vocabulary, and TIED reads its words as such.
LINE_TOKENS = sorted(BUNDLED.vocabulary)[:6] + ["x", "y"] + OUT_OF_VOCABULARY


class TestClassifyLinesMatchesPredictLine:
    @given(st.sampled_from([BUNDLED, TIED]),
           st.lists(st.lists(st.sampled_from(LINE_TOKENS), min_size=1, max_size=30), max_size=8))
    @settings(max_examples=500, deadline=None)
    def test_pairs_equal_predict_line(self, model, token_lists):
        lines = [ProcessedLine(1, 2, index, tuple(tokens)) for index, tokens in enumerate(token_lists)]
        results = classify_lines(model, lines)
        assert [line for line, _ in results] == lines
        for line, pair in results:
            prediction = predict_line(model, line.tokens)
            assert pair == (prediction.category, prediction.confidence)

    def test_three_way_tie_goes_to_the_first_category(self):
        line = ProcessedLine(1, 2, 0, ("x", "y", "y", "x"))
        [(_, pair)] = classify_lines(TIED, [line])
        assert pair == ("A", 1.0 / 3.0)
        assert pair == ref_predict_line(TIED, line.tokens)[::2]
