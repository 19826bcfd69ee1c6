"""Query GitHub issues by keyword and classify every comment line.

The pieces compose: a throttled GitHub client retrieves issues and comment
threads, the preprocessor cleans them into token lines, a pluggable linear
model labels each line, and the report writer emits the results and omitted
CSVs.
"""

from .classifier import (LabeledCorpus, ModelFile, Prediction, Taxonomy, classify_lines, default_taxonomy,
                         load_corpus, load_default_model, load_model, predict_line, save_model, train_baseline)
from .github_client import IssueRef, RawComment, Session, open_session
from .pipeline import (
    ClassifiedRecord,
    OmittedIssue,
    QuerySpec,
    RunSummary,
    apply_category_filters,
    run,
    strict_match,
)
from .report import render_summary, write_omitted, write_report, write_results
from .text_prep import (
    PrepConfig,
    ProcessedLine,
    preprocess_comment,
    replace_tokens,
)

__version__ = "0.1.0"

__all__ = [
    "ClassifiedRecord",
    "IssueRef",
    "LabeledCorpus",
    "ModelFile",
    "OmittedIssue",
    "Prediction",
    "PrepConfig",
    "ProcessedLine",
    "QuerySpec",
    "RawComment",
    "RunSummary",
    "Session",
    "Taxonomy",
    "apply_category_filters",
    "classify_lines",
    "default_taxonomy",
    "load_corpus",
    "load_default_model",
    "load_model",
    "open_session",
    "predict_line",
    "preprocess_comment",
    "render_summary",
    "replace_tokens",
    "run",
    "save_model",
    "strict_match",
    "train_baseline",
    "write_omitted",
    "write_report",
    "write_results",
]
