"""Batch and interactive command-line front end.

Batch mode takes everything from flags and never prompts, so it is safe in
scripts and CI. Interactive mode builds the query through a prompt loop.
Diagnostics go to stderr; only progress lines and the run summary go to
stdout. Exit codes (0 success, 1 usage or abort, 2 GitHub, 3 local I/O) are
declared on each error type in ``errors.py``; ``main`` reports them all alike.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import pipeline, report
from .classifier import Taxonomy, load_default_model, load_model
from .errors import Aborted, IoFailure, IssueSiftError, UsageError
from .github_client import SEARCH_LIMIT_CAP, SORT_KEYS, SORT_ORDERS, check_search, open_session
from .pipeline import QuerySpec
from .text_prep import PrepConfig

DEFAULT_OUTPUT = "results.csv"
DEFAULT_OMITTED = "omitted.csv"

# QuerySpec field -> the flag that sets it. The parser stores each flag under
# its field's name, and a rejected spec names the flag.
_SPEC_FLAGS = {
    "query": "--query",
    "limit": "--limit",
    "sort": "--sort",
    "order": "--order",
    "strict_match": "--no-strict-match",
    "strict_scope": "--strict-scope",
    "omit_categories": "--omit-category",
    "require_categories": "--require-category",
    "forbid_categories": "--forbid-category",
    "min_comments": "--min-comments",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep parse_args a pure function: no exits
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="issuesift",
        description="Search GitHub issues for a keyword and classify every comment line.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--query", help="search string, punctuation preserved")
    mode.add_argument("--interactive", action="store_true",
                      help="build the query through prompts instead of flags")
    parser.add_argument("--limit", type=int, default=QuerySpec.limit,
                        help=f"max issues to retrieve, 1-{SEARCH_LIMIT_CAP} (default {QuerySpec.limit})")
    parser.add_argument("--sort", default=QuerySpec.sort, choices=SORT_KEYS,
                        help=f"search sort criterion (default {QuerySpec.sort})")
    parser.add_argument("--order", default=QuerySpec.order, choices=SORT_ORDERS,
                        help=f"sort order (default {QuerySpec.order})")
    parser.add_argument("--model", help="path to a model file (default: bundled baseline)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"classified-results CSV path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--omitted-output", default=DEFAULT_OMITTED,
                        help=f"omitted-issues CSV path (default {DEFAULT_OMITTED})")
    parser.add_argument("--omit-category", dest="omit_categories", action="append", default=[],
                        metavar="NAME", help="drop result rows of this category (repeatable)")
    parser.add_argument("--require-category", dest="require_categories", action="append", default=[],
                        metavar="NAME",
                        help="keep only issues with at least one line of this category (repeatable)")
    parser.add_argument("--forbid-category", dest="forbid_categories", action="append", default=[],
                        metavar="NAME", help="drop issues containing any line of this category (repeatable)")
    parser.add_argument("--no-strict-match", dest="strict_match", action="store_false",
                        help="skip the verbatim query-string refilter")
    parser.add_argument("--strict-scope", default=QuerySpec.strict_scope, choices=pipeline.STRICT_SCOPES,
                        help="apply the strict filter per issue or per comment "
                             f"(default {QuerySpec.strict_scope})")
    parser.add_argument("--min-comments", type=int, default=QuerySpec.min_comments,
                        help="issues with fewer comments count as having no discussion "
                             f"(default {QuerySpec.min_comments})")
    parser.add_argument("--token", help="GitHub token (default: env GITHUB_TOKEN)")
    parser.add_argument("--fixtures", metavar="DIR",
                        help="replay recorded responses from DIR instead of the live API")
    parser.add_argument("--confidence", action="store_true",
                        help="add a confidence column to the results CSV")
    return parser


def parse_args(argv: list[str], environment: dict) -> argparse.Namespace:
    """Translate (argv, environment) into the run's settings; reads files only to resolve paths.

    The namespace holds the flags plus ``spec`` (None in interactive mode) and ``token``.
    """
    args = build_parser().parse_args(argv)
    # "" would quietly mean going live, the bundled model, or the working directory.
    for flag in ("--fixtures", "--model", "--output", "--omitted-output"):
        if vars(args)[flag[2:].replace("-", "_")] == "":
            raise UsageError(f"{flag} must not be empty")
    real = {}
    for flag, path in (("--output", args.output), ("--omitted-output", args.omitted_output)):
        try:
            real[flag] = os.path.realpath(path)
        except ValueError as exc:  # a NUL, or a surrogate the OS cannot encode (library callers only)
            raise UsageError(f"{flag} is not a path the OS can take: {exc}") from None
    if real["--output"] == real["--omitted-output"]:
        raise UsageError("--output and --omitted-output must differ")
    if args.interactive:
        # Check the flags that no prompt answers now, before the first prompt.
        _query_spec(args, query="?", limit=QuerySpec.limit, require_categories=frozenset())
    args.spec = None if args.interactive else _query_spec(args)
    args.token = args.token if args.token is not None else environment.get("GITHUB_TOKEN") or None
    return args


def _query_spec(args: argparse.Namespace, **answers) -> QuerySpec:
    """The QuerySpec of a run: the flags, with prompted answers in place of theirs.

    A rejected spec raises UsageError naming the flag.
    """
    values = ((name, getattr(args, name)) for name in _SPEC_FLAGS)  # the category flags append to lists
    fields = {name: frozenset(value) if isinstance(value, list) else value for name, value in values}
    try:
        return QuerySpec(**{**fields, **answers})
    except ValueError as exc:
        names, colon, detail = str(exc).partition(":")
        names = " ".join(_SPEC_FLAGS.get(word, word) for word in names.split(" "))
        raise UsageError(names + colon + detail) from None


def _say(stdout, text: str) -> None:
    """Write and flush, so a closed stdout fails here as a local I/O failure."""
    try:
        if stdout is None:  # fd 1 was closed when the process started
            raise OSError("it was closed at start")
        stdout.write(text)
        stdout.flush()
    except OSError as exc:
        raise IoFailure(f"cannot write to stdout: {exc}") from None


def _ask(stdin, stdout, prompt: str, parse):
    """Prompt until ``parse`` accepts the answer and return what it returns.

    A ValueError from ``parse`` is shown and the prompt repeats; end of input
    raises Aborted.
    """
    while True:
        _say(stdout, prompt)
        try:
            line = stdin.readline() if stdin is not None else ""  # None: fd 0 closed at start
        except UnicodeDecodeError as exc:  # a strict stdin; in UTF-8 mode it escapes the byte
            raise UsageError(f"standard input is not valid {exc.encoding}") from None
        if line == "":
            raise Aborted("end of input")
        try:
            return parse(line.strip())
        except ValueError as exc:
            _say(stdout, f"{exc}\n")


def _menu(label: str, names) -> str:
    return "\n".join([label, *(f"  {i}. {name}" for i, name in enumerate(names, start=1))])


def _pick(names, answer: str, error: str) -> str:
    """The entry of ``names`` that ``answer`` gives by 1-based number or by name."""
    if answer.isdecimal() and 1 <= int(answer) <= len(names):
        return names[int(answer) - 1]
    if answer in names:
        return answer
    raise ValueError(error)


def _ask_categories(stdin, stdout, names, label: str, exclude=frozenset()) -> frozenset[str]:
    """Categories picked from a numbered menu; a pick that meets ``exclude`` is asked again."""
    menu = _menu(f"{label} — pick numbers separated by commas, empty for none:", names)

    def parse(answer):
        parts = map(str.strip, answer.split(",")) if answer else ()
        chosen = frozenset(
            _pick(names, part, f"'{part}' is not a category number or name, try again.")
            for part in parts
        )
        if chosen & exclude:
            raise ValueError(f"Cannot both require and forbid: {sorted(chosen & exclude)}.\n{menu}")
        return chosen

    _say(stdout, menu + "\n")
    return _ask(stdin, stdout, "> ", parse)


def interactive_session(stdin, stdout, taxonomy: Taxonomy, args: argparse.Namespace) -> QuerySpec:
    """Prompt loop building a QuerySpec; raises Aborted on cancel or end of input.

    Fields without a prompt come from ``args``.
    """
    def parse_query(answer):
        if not answer:
            raise ValueError("The query cannot be empty.")
        try:  # before parse_limit, whose check_search would blame the limit
            check_search(answer, QuerySpec.limit, QuerySpec.sort, QuerySpec.order)
        except ValueError as exc:
            raise ValueError(f"The {exc}.") from None
        return answer

    def parse_limit(answer):
        try:
            limit = int(answer) if answer else QuerySpec.limit
            check_search(query, limit, QuerySpec.sort, QuerySpec.order)
        except ValueError:
            raise ValueError(f"The limit must be a number between 1 and {SEARCH_LIMIT_CAP}.") from None
        return limit

    def parse_order(answer):
        if (answer or QuerySpec.order) not in SORT_ORDERS:
            raise ValueError("Order must be 'asc' or 'desc'.")
        return answer or QuerySpec.order

    query = _ask(stdin, stdout, "Query string: ", parse_query)
    limit = _ask(stdin, stdout, f"Issue limit (1-{SEARCH_LIMIT_CAP}) [{QuerySpec.limit}]: ", parse_limit)
    _say(stdout, _menu("Sort criterion:", SORT_KEYS) + "\n")
    sort = _ask(stdin, stdout, f"Sort [{QuerySpec.sort}]: ", lambda answer: _pick(
        SORT_KEYS, answer or QuerySpec.sort, f"Pick one of {', '.join(SORT_KEYS)}."))
    order = _ask(stdin, stdout, f"Order (asc/desc) [{QuerySpec.order}]: ", parse_order)
    names = list(taxonomy)
    omit = _ask_categories(stdin, stdout, names, "Omit comment categories from the output")
    require = _ask_categories(stdin, stdout, names, "Require issues to contain these categories")
    forbid = _ask_categories(stdin, stdout, names, "Drop issues containing these categories", require)
    _say(stdout,
         f"Query {query!r}, limit {limit}, sort {sort}, order {order}, "
         f"omit {sorted(omit)}, require {sorted(require)}, forbid {sorted(forbid)}\n")
    if not _ask(stdin, stdout, "Run this query? [y/N]: ", lambda answer: answer.lower() in ("y", "yes")):
        raise Aborted("cancelled at confirmation")
    return _query_spec(args, query=query, limit=limit, sort=sort, order=order,
                       omit_categories=omit, require_categories=require, forbid_categories=forbid)


def main(argv: list[str], environment: dict | None = None, *, stdin=None, stdout=None, stderr=None) -> int:
    environment = dict(environment if environment is not None else os.environ)
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        args = parse_args(argv, environment)
        model = load_model(args.model) if args.model else load_default_model()
        spec = args.spec or interactive_session(stdin, stdout, model.taxonomy, args)
        if args.fixtures:
            session = open_session(args.token, mode="replay", fixture_dir=args.fixtures)
        else:
            session = open_session(args.token, mode="live")
        _say(stdout, f"searching for {spec.query!r} (limit {spec.limit})...\n")
        records, omitted, summary = pipeline.run(spec, session, model, PrepConfig.default())
        rows, _ = report.write_report(records, omitted, args.output, args.omitted_output, args.confidence)
        _say(stdout, f"wrote {rows} rows to {args.output}, "
                     f"{len(omitted)} omissions to {args.omitted_output}\n\n"
                     f"{report.render_summary(summary)}\n")
        return 0
    except KeyboardInterrupt:  # Ctrl-C at a prompt or during the run
        error = Aborted("interrupted")
    except IssueSiftError as exc:
        error = exc
    stderr.write(f"{error.label}: {error}\n")
    return error.exit_status


def entry() -> None:
    status = main(sys.argv[1:], dict(os.environ))
    try:
        if sys.stdout is not None:  # None: fd 1 was closed at start, and main has said so
            sys.stdout.flush()
    except OSError:
        # stdout was closed early and main has said so: send what is still
        # buffered to devnull, so the flush at interpreter exit cannot fail
        # again (see the SIGPIPE note in Python's signal module docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    entry()
