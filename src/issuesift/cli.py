"""Batch and interactive command-line front end.

Batch mode takes everything from flags and never prompts, so it is safe in
scripts and CI. Interactive mode builds the query through a prompt loop.
Diagnostics go to stderr; only progress lines and the run summary go to
stdout. Exit codes: 0 success (omissions included), 1 usage (an unknown
category included) or abort, 2 authentication/query/API failure (a malformed
payload included), 3 local I/O failure (a malformed fixture included).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import pipeline, report
from .classifier import Taxonomy, load_default_model, load_model
from .errors import (
    Aborted,
    FixtureNotFound,
    InvalidToken,
    IoFailure,
    IssueSiftError,
    ModelError,
    NetworkFailure,
    QueryRejected,
    RateLimited,
    UnknownCategory,
    UsageError,
)
from .github_client import SEARCH_LIMIT_CAP, SORT_KEYS, SORT_ORDERS, check_search, open_session
from .pipeline import QuerySpec
from .text_prep import PrepConfig

DEFAULT_LIMIT = 100
DEFAULT_OUTPUT = "results.csv"
DEFAULT_OMITTED = "omitted.csv"

# QuerySpec field -> the flag that sets it, so a rejected spec names the flag.
_FIELD_FLAGS = {
    "query": "--query",
    "limit": "--limit",
    "min_comments": "--min-comments",
    "require_categories": "--require-category",
    "forbid_categories": "--forbid-category",
}


@dataclass
class CliConfig:
    """Everything main() needs, resolved from argv plus the environment."""

    spec: QuerySpec | None  # None in interactive mode, whose spec is built after the prompts
    flags: argparse.Namespace
    token: str | None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep parse_args a pure function: no exits
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="issuesift",
        description="Search GitHub issues for a keyword and classify every comment line.",
    )
    parser.add_argument("--query", help="search string, punctuation preserved")
    parser.add_argument("--limit", type=int, default=DEFAULT_LIMIT,
                        help=f"max issues to retrieve, 1-{SEARCH_LIMIT_CAP} (default {DEFAULT_LIMIT})")
    parser.add_argument("--sort", default="best-match", choices=SORT_KEYS,
                        help="search sort criterion (default best-match)")
    parser.add_argument("--order", default="desc", choices=SORT_ORDERS,
                        help="sort order (default desc)")
    parser.add_argument("--model", help="path to a model file (default: bundled baseline)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"classified-results CSV path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--omitted-output", default=DEFAULT_OMITTED,
                        help=f"omitted-issues CSV path (default {DEFAULT_OMITTED})")
    parser.add_argument("--omit-category", action="append", default=[], metavar="NAME",
                        help="drop result rows of this category (repeatable)")
    parser.add_argument("--require-category", action="append", default=[], metavar="NAME",
                        help="keep only issues with at least one line of this category (repeatable)")
    parser.add_argument("--forbid-category", action="append", default=[], metavar="NAME",
                        help="drop issues containing any line of this category (repeatable)")
    parser.add_argument("--no-strict-match", action="store_true",
                        help="skip the verbatim query-string refilter")
    parser.add_argument("--strict-scope", default="issue", choices=pipeline.STRICT_SCOPES,
                        help="apply the strict filter per issue or per comment (default issue)")
    parser.add_argument("--min-comments", type=int, default=1,
                        help="issues with fewer comments count as having no discussion (default 1)")
    parser.add_argument("--token", help="GitHub token (default: env GITHUB_TOKEN)")
    parser.add_argument("--fixtures", metavar="DIR",
                        help="replay recorded responses from DIR instead of the live API")
    parser.add_argument("--interactive", action="store_true",
                        help="build the query through prompts instead of flags")
    parser.add_argument("--confidence", action="store_true",
                        help="add a confidence column to the results CSV")
    return parser


def parse_args(argv: list[str], environment: dict) -> CliConfig:
    """Translate (argv, environment) into a CliConfig; reads files only to resolve paths."""
    args = build_parser().parse_args(argv)
    if args.interactive and args.query is not None:
        raise UsageError("--interactive and --query are mutually exclusive")
    if not args.interactive and args.query is None:
        raise UsageError("either --query or --interactive is required")
    if Path(args.output).resolve() == Path(args.omitted_output).resolve():
        raise UsageError("--output and --omitted-output must differ")
    if args.interactive:
        # The prompts answer the query, limit and categories; check the other flags
        # now, before the first prompt.
        _query_spec(args, query="?", limit=DEFAULT_LIMIT, require_categories=frozenset())
    return CliConfig(
        spec=None if args.interactive else _query_spec(args),
        flags=args,
        token=args.token if args.token is not None else environment.get("GITHUB_TOKEN") or None,
    )


def _query_spec(flags: argparse.Namespace, **answers) -> QuerySpec:
    """The QuerySpec of a run: the flags, with prompted answers in place of theirs.

    A rejected spec raises UsageError naming the flag.
    """
    fields = {
        "query": flags.query,
        "limit": flags.limit,
        "sort": flags.sort,
        "order": flags.order,
        "strict_match": not flags.no_strict_match,
        "strict_scope": flags.strict_scope,
        "omit_categories": frozenset(flags.omit_category),
        "require_categories": frozenset(flags.require_category),
        "forbid_categories": frozenset(flags.forbid_category),
        "min_comments": flags.min_comments,
    }
    try:
        return QuerySpec(**{**fields, **answers})
    except ValueError as exc:
        names, colon, detail = str(exc).partition(":")
        names = " ".join(_FIELD_FLAGS.get(word, word) for word in names.split(" "))
        raise UsageError(names + colon + detail) from None


def _ask(stdin, stdout, prompt: str) -> str:
    stdout.write(prompt)
    stdout.flush()
    line = stdin.readline()
    if line == "":
        raise Aborted("end of input")
    return line.strip()


def _ask_categories(stdin, stdout, taxonomy: Taxonomy, label: str) -> frozenset[str]:
    stdout.write(f"{label} — pick numbers separated by commas, empty for none:\n")
    for i, name in enumerate(taxonomy, start=1):
        stdout.write(f"  {i}. {name}\n")
    names = list(taxonomy)
    while True:
        answer = _ask(stdin, stdout, "> ")
        if not answer:
            return frozenset()
        chosen = set()
        bad = None
        for part in answer.split(","):
            part = part.strip()
            if part.isdigit() and 1 <= int(part) <= len(names):
                chosen.add(names[int(part) - 1])
            elif part in names:
                chosen.add(part)
            else:
                bad = part
                break
        if bad is None:
            return frozenset(chosen)
        stdout.write(f"'{bad}' is not a category number or name, try again.\n")


def interactive_session(stdin, stdout, taxonomy: Taxonomy, flags: argparse.Namespace) -> QuerySpec:
    """Prompt loop building a QuerySpec; raises Aborted on cancel or EOF.

    Fields without a prompt come from ``flags``.
    """
    query = ""
    while not query:
        query = _ask(stdin, stdout, "Query string: ")
        if not query:
            stdout.write("The query cannot be empty.\n")

    limit = None
    while limit is None:
        answer = _ask(stdin, stdout, f"Issue limit (1-{SEARCH_LIMIT_CAP}) [{DEFAULT_LIMIT}]: ")
        try:
            limit = int(answer) if answer else DEFAULT_LIMIT
            check_search(query, limit, "best-match", "desc")
        except ValueError:
            limit = None
            stdout.write(f"The limit must be a number between 1 and {SEARCH_LIMIT_CAP}.\n")

    stdout.write("Sort criterion:\n")
    for i, key in enumerate(SORT_KEYS, start=1):
        stdout.write(f"  {i}. {key}\n")
    sort = None
    while sort is None:
        answer = _ask(stdin, stdout, "Sort [best-match]: ")
        if not answer:
            sort = "best-match"
        elif answer.isdigit() and 1 <= int(answer) <= len(SORT_KEYS):
            sort = SORT_KEYS[int(answer) - 1]
        elif answer in SORT_KEYS:
            sort = answer
        else:
            stdout.write(f"Pick one of {', '.join(SORT_KEYS)}.\n")

    order = None
    while order is None:
        answer = _ask(stdin, stdout, "Order (asc/desc) [desc]: ")
        if not answer:
            order = "desc"
        elif answer in SORT_ORDERS:
            order = answer
        else:
            stdout.write("Order must be 'asc' or 'desc'.\n")

    omit = _ask_categories(stdin, stdout, taxonomy, "Omit comment categories from the output")
    require = _ask_categories(stdin, stdout, taxonomy, "Require issues to contain these categories")
    forbid = None
    while forbid is None:
        candidate = _ask_categories(stdin, stdout, taxonomy, "Drop issues containing these categories")
        if candidate & require:
            stdout.write(f"Cannot both require and forbid: {sorted(candidate & require)}.\n")
        else:
            forbid = candidate

    stdout.write(
        f"Query {query!r}, limit {limit}, sort {sort}, order {order}, "
        f"omit {sorted(omit)}, require {sorted(require)}, forbid {sorted(forbid)}\n"
    )
    answer = _ask(stdin, stdout, "Run this query? [y/N]: ")
    if answer.lower() not in ("y", "yes"):
        raise Aborted("cancelled at confirmation")
    return _query_spec(
        flags,
        query=query,
        limit=limit,
        sort=sort,
        order=order,
        omit_categories=omit,
        require_categories=require,
        forbid_categories=forbid,
    )


def main(argv: list[str], environment: dict | None = None, *, stdin=None, stdout=None, stderr=None) -> int:
    environment = dict(environment if environment is not None else os.environ)
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        config = parse_args(argv, environment)
        flags = config.flags
        model = load_model(flags.model) if flags.model else load_default_model()
        spec = config.spec or interactive_session(stdin, stdout, model.taxonomy, flags)
        if flags.fixtures:
            session = open_session(config.token, mode="replay", fixture_dir=flags.fixtures)
        else:
            session = open_session(config.token, mode="live")
        stdout.write(f"searching for {spec.query!r} (limit {spec.limit})...\n")
        records, omitted, summary = pipeline.run(spec, session, model, PrepConfig.default())
        rows = report.write_results(records, flags.output, flags.confidence)
        report.write_omitted(omitted, flags.omitted_output)
        stdout.write(f"wrote {rows} rows to {flags.output}, "
                     f"{len(omitted)} omissions to {flags.omitted_output}\n\n")
        stdout.write(report.render_summary(summary) + "\n")
        return 0
    except (UsageError, UnknownCategory) as exc:
        stderr.write(f"usage error: {exc}\n")
        return 1
    except Aborted as exc:
        stderr.write(f"aborted: {exc}\n")
        return 1
    except (InvalidToken, QueryRejected, RateLimited, NetworkFailure) as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    except (IoFailure, FixtureNotFound, ModelError) as exc:
        stderr.write(f"error: {exc}\n")
        return 3
    except IssueSiftError as exc:
        stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:], dict(os.environ)))


if __name__ == "__main__":
    entry()
