import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fixtureutil import FixtureWriter, make_comment, make_issue, write_fixture

import issuesift
from issuesift import cli, errors
from issuesift.classifier import default_taxonomy
from issuesift.cli import interactive_session, main, parse_args
from issuesift.errors import Aborted, IssueSiftError, UsageError
from issuesift.github_client import GITHUB_API
from issuesift.pipeline import QuerySpec


class TestParseArgs:
    def test_defaults(self):
        config = parse_args(["--query", "tf.function"], {})
        assert config.spec.query == "tf.function"
        assert config.spec.limit == 100
        assert config.spec.sort == "best-match"
        assert config.spec.order == "desc"
        assert config.spec.strict_match is True
        assert config.spec.min_comments == 1
        assert config.flags.output == "results.csv"
        assert config.flags.omitted_output == "omitted.csv"
        assert config.token is None
        assert config.flags.interactive is False
        assert config.flags.confidence is False

    def test_limit_cap_accepted(self):
        config = parse_args(["--query", "tf.function", "--limit", "1000"], {})
        assert config.spec.limit == 1000

    def test_limit_over_cap_names_flag(self):
        with pytest.raises(UsageError) as excinfo:
            parse_args(["--query", "x", "--limit", "1001"], {})
        assert "--limit" in str(excinfo.value)

    def test_query_or_interactive_required(self):
        with pytest.raises(UsageError):
            parse_args([], {})

    def test_query_and_interactive_conflict(self):
        with pytest.raises(UsageError):
            parse_args(["--query", "x", "--interactive"], {})

    def test_same_output_paths_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["--query", "x", "--output", "a.csv", "--omitted-output", "a.csv"], {})

    def test_same_output_file_through_dotdot_rejected(self, tmp_path):
        (tmp_path / "o" / "d").mkdir(parents=True)
        with pytest.raises(UsageError, match="--output and --omitted-output must differ"):
            parse_args(["--query", "x", "--output", str(tmp_path / "o" / "out.csv"),
                        "--omitted-output", str(tmp_path / "o" / "d" / ".." / "out.csv")], {})

    def test_same_output_file_through_symlink_rejected(self, tmp_path):
        (tmp_path / "real").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "real", target_is_directory=True)
        with pytest.raises(UsageError, match="--output and --omitted-output must differ"):
            parse_args(["--query", "x", "--output", str(tmp_path / "real" / "out.csv"),
                        "--omitted-output", str(tmp_path / "link" / "out.csv")], {})

    def test_unknown_flag(self):
        with pytest.raises(UsageError):
            parse_args(["--query", "x", "--frobnicate"], {})

    def test_bad_sort_value(self):
        with pytest.raises(UsageError):
            parse_args(["--query", "x", "--sort", "stars"], {})

    def test_token_env_fallback(self):
        config = parse_args(["--query", "x"], {"GITHUB_TOKEN": "env-token"})
        assert config.token == "env-token"

    def test_token_flag_wins_over_env(self):
        config = parse_args(["--query", "x", "--token", "flag-token"],
                            {"GITHUB_TOKEN": "env-token"})
        assert config.token == "flag-token"

    def test_category_flags_repeatable(self):
        config = parse_args(
            ["--query", "x",
             "--omit-category", "Usage", "--omit-category", "Social Discussion",
             "--require-category", "Bug Reproduction",
             "--forbid-category", "Solution Discussion"],
            {},
        )
        assert config.spec.omit_categories == {"Usage", "Social Discussion"}
        assert config.spec.require_categories == {"Bug Reproduction"}
        assert config.spec.forbid_categories == {"Solution Discussion"}

    def test_require_forbid_overlap_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["--query", "x", "--require-category", "Usage",
                        "--forbid-category", "Usage"], {})

    def test_no_strict_match_and_scope(self):
        config = parse_args(["--query", "x", "--no-strict-match",
                             "--strict-scope", "comment"], {})
        assert config.spec.strict_match is False
        assert config.spec.strict_scope == "comment"

    def test_purity(self):
        argv = ["--query", "x", "--limit", "5"]
        env = {"GITHUB_TOKEN": "t"}
        assert parse_args(argv, env) == parse_args(argv, env)
        assert argv == ["--query", "x", "--limit", "5"]


NO_FLAGS = parse_args(["--interactive"], {}).flags


CATEGORY_LINES = (
    "  1. Observed Bug Behavior\n"
    "  2. Workarounds\n"
    "  3. Motivation\n"
    "  4. Potential New Issues & Requests\n"
    "  5. Solution Discussion\n"
    "  6. Action on Issue\n"
    "  7. Contribution & Commitment\n"
    "  8. Usage\n"
    "  9. Bug Reproduction\n"
    "  10. Expected Behavior\n"
    "  11. Social Discussion\n"
)


def scripted(answers):
    return io.StringIO("".join(a + "\n" for a in answers))


class TestInteractiveSession:
    def test_defaults_accepted(self):
        stdin = scripted(["tf.function", "", "", "", "", "", "", "y"])
        spec = interactive_session(stdin, io.StringIO(), default_taxonomy(), NO_FLAGS)
        assert spec.query == "tf.function"
        assert spec.limit == 100
        assert spec.sort == "best-match"
        assert spec.order == "desc"
        assert spec.omit_categories == frozenset()

    def test_invalid_limit_reprompts(self):
        stdout = io.StringIO()
        stdin = scripted(["q", "0", "10", "", "", "", "", "", "y"])
        spec = interactive_session(stdin, stdout, default_taxonomy(), NO_FLAGS)
        assert spec.limit == 10
        assert "between 1 and 1000" in stdout.getvalue()

    def test_cancel_at_confirmation(self):
        stdin = scripted(["q", "", "", "", "", "", "", "n"])
        with pytest.raises(Aborted):
            interactive_session(stdin, io.StringIO(), default_taxonomy(), NO_FLAGS)

    def test_end_of_input_aborts(self):
        with pytest.raises(Aborted):
            interactive_session(io.StringIO(""), io.StringIO(), default_taxonomy(), NO_FLAGS)

    def test_category_selection_by_number(self):
        taxonomy = default_taxonomy()
        stdin = scripted(["q", "", "", "", "8", "", "", "y"])
        spec = interactive_session(stdin, io.StringIO(), taxonomy, NO_FLAGS)
        assert spec.omit_categories == {taxonomy.categories[7]}

    def test_sort_menu_by_number(self):
        stdin = scripted(["q", "", "2", "asc", "", "", "", "y"])
        spec = interactive_session(stdin, io.StringIO(), default_taxonomy(), NO_FLAGS)
        assert spec.sort == "comments"
        assert spec.order == "asc"

    def test_golden_transcript(self):
        # A bad answer at every prompt; each is answered again until it is valid.
        stdin = scripted(["", "tf.function", "0", "abc", "5", "x", "2", "up", "asc",
                          "bad,1", "1", "2", "nope", "2", "3", "y"])
        stdout = io.StringIO()
        spec = interactive_session(stdin, stdout, default_taxonomy(), NO_FLAGS)
        assert spec == QuerySpec(
            query="tf.function", limit=5, sort="comments", order="asc",
            strict_match=True, strict_scope="issue",
            omit_categories=frozenset({"Observed Bug Behavior"}),
            require_categories=frozenset({"Workarounds"}),
            forbid_categories=frozenset({"Motivation"}), min_comments=1)
        assert stdout.getvalue() == (
            "Query string: The query cannot be empty.\n"
            "Query string: Issue limit (1-1000) [100]: "
            "The limit must be a number between 1 and 1000.\n"
            "Issue limit (1-1000) [100]: The limit must be a number between 1 and 1000.\n"
            "Issue limit (1-1000) [100]: Sort criterion:\n"
            "  1. best-match\n"
            "  2. comments\n"
            "  3. created\n"
            "  4. updated\n"
            "  5. reactions\n"
            "Sort [best-match]: Pick one of best-match, comments, created, updated, reactions.\n"
            "Sort [best-match]: Order (asc/desc) [desc]: Order must be 'asc' or 'desc'.\n"
            "Order (asc/desc) [desc]: "
            "Omit comment categories from the output — pick numbers separated by commas,"
            " empty for none:\n" + CATEGORY_LINES +
            "> 'bad' is not a category number or name, try again.\n"
            "> Require issues to contain these categories — pick numbers separated by commas,"
            " empty for none:\n" + CATEGORY_LINES +
            "> Drop issues containing these categories — pick numbers separated by commas,"
            " empty for none:\n" + CATEGORY_LINES +
            "> 'nope' is not a category number or name, try again.\n"
            "> Cannot both require and forbid: ['Workarounds'].\n"
            "Drop issues containing these categories — pick numbers separated by commas,"
            " empty for none:\n" + CATEGORY_LINES +
            "> Query 'tf.function', limit 5, sort comments, order asc,"
            " omit ['Observed Bug Behavior'], require ['Workarounds'], forbid ['Motivation']\n"
            "Run this query? [y/N]: "
        )

    def test_bad_category_reprompts(self):
        stdout = io.StringIO()
        stdin = scripted(["q", "", "", "", "not-a-category", "", "", "", "y"])
        spec = interactive_session(stdin, stdout, default_taxonomy(), NO_FLAGS)
        assert spec.omit_categories == frozenset()
        assert "not a category" in stdout.getvalue()


class TestMain:
    def run_main(self, argv, env=None):
        out, err = io.StringIO(), io.StringIO()
        code = main(argv, env or {}, stdin=io.StringIO(), stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def test_fixture_run_success(self, small_fixture_dir, tmp_path):
        results = tmp_path / "results.csv"
        omitted = tmp_path / "omitted.csv"
        code, out, err = self.run_main([
            "--query", "tf.function", "--fixtures", str(small_fixture_dir),
            "--output", str(results), "--omitted-output", str(omitted),
        ])
        assert code == 0, err
        assert results.exists() and omitted.exists()
        assert "issues searched" in out
        assert err == ""

    def test_usage_error_exit_1(self):
        code, _, err = self.run_main(["--limit", "5"])
        assert code == 1
        assert "usage error" in err

    def test_query_rejection_exit_2(self, tmp_path):
        writer = FixtureWriter(tmp_path / "fx")
        writer.add(f"{GITHUB_API}/search/issues?q=bad&per_page=100&page=1",
                   {"message": "Validation Failed"}, status=422)
        writer.write_manifest()
        code, _, err = self.run_main(["--query", "bad", "--fixtures", str(tmp_path / "fx")])
        assert code == 2
        assert "rejected" in err

    def test_unwritable_output_exit_3(self, small_fixture_dir, tmp_path):
        blocker = tmp_path / "results.csv"
        blocker.mkdir()
        code, _, err = self.run_main([
            "--query", "tf.function", "--fixtures", str(small_fixture_dir),
            "--output", str(blocker), "--omitted-output", str(tmp_path / "omitted.csv"),
        ])
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("bad_item", [{"number": 1, "title": "x"}, "x"],
                             ids=["no-id", "string"])
    def test_malformed_search_item_exit_2(self, tmp_path, bad_item):
        writer = FixtureWriter(tmp_path / "fx")
        writer.add(f"{GITHUB_API}/search/issues?q=x&per_page=100&page=1",
                   {"total_count": 1, "incomplete_results": False, "items": [bad_item]})
        writer.write_manifest()
        code, _, err = self.run_main([
            "--query", "x", "--fixtures", str(tmp_path / "fx"),
            "--output", str(tmp_path / "r.csv"), "--omitted-output", str(tmp_path / "o.csv"),
        ])
        assert code == 2
        assert "search item" in err

    def test_lone_surrogate_in_search_item_exit_2(self, tmp_path):
        item = make_issue(1, 1, title="x")
        item["html_url"] += "-SURROGATE"
        writer = FixtureWriter(tmp_path / "fx")
        writer.add(f"{GITHUB_API}/search/issues?q=x&per_page=100&page=1",
                   {"total_count": 1, "incomplete_results": False, "items": [item]})
        writer.write_manifest()
        # On the wire the item holds the JSON escape, which decodes to a lone surrogate.
        page = tmp_path / "fx" / writer.entries[0]["body"]
        page.write_text(page.read_text(encoding="utf-8").replace("-SURROGATE", "\\ud800"),
                        encoding="utf-8")
        code, _, err = self.run_main([
            "--query", "x", "--fixtures", str(tmp_path / "fx"),
            "--output", str(tmp_path / "r.csv"), "--omitted-output", str(tmp_path / "o.csv"),
        ])
        assert code == 2
        assert "search item" in err and "UTF-8" in err

    def test_malformed_manifest_exit_3(self, tmp_path):
        fixture = write_fixture(tmp_path / "fx", query="x", issues=[])
        (fixture / "manifest.json").write_text('{"entries": [{"url": "x"}]}', encoding="utf-8")
        code, _, err = self.run_main([
            "--query", "x", "--fixtures", str(fixture),
            "--output", str(tmp_path / "r.csv"), "--omitted-output", str(tmp_path / "o.csv"),
        ])
        assert code == 3
        assert "manifest" in err

    def test_missing_fixture_dir_exit_3(self, tmp_path):
        code, _, err = self.run_main(
            ["--query", "x", "--fixtures", str(tmp_path / "missing")])
        assert code == 3

    def test_unknown_category_flag_exit_1(self, small_fixture_dir, tmp_path):
        code, _, err = self.run_main([
            "--query", "tf.function", "--fixtures", str(small_fixture_dir),
            "--omit-category", "Not A Real Category",
            "--output", str(tmp_path / "r.csv"), "--omitted-output", str(tmp_path / "o.csv"),
        ])
        assert code == 1
        assert "Not A Real Category" in err

    def test_bad_model_file_exit_3(self, small_fixture_dir, tmp_path):
        bad_model = tmp_path / "model.json"
        bad_model.write_text("{}", encoding="utf-8")
        code, _, err = self.run_main([
            "--query", "tf.function", "--fixtures", str(small_fixture_dir),
            "--model", str(bad_model),
            "--output", str(tmp_path / "r.csv"), "--omitted-output", str(tmp_path / "o.csv"),
        ])
        assert code == 3

    def test_interactive_flow_end_to_end(self, small_fixture_dir, tmp_path):
        stdin = io.StringIO("".join(a + "\n" for a in
                                    ["tf.function", "", "", "", "", "", "", "y"]))
        out, err = io.StringIO(), io.StringIO()
        code = main([
            "--interactive", "--fixtures", str(small_fixture_dir),
            "--output", str(tmp_path / "r.csv"), "--omitted-output", str(tmp_path / "o.csv"),
        ], {}, stdin=stdin, stdout=out, stderr=err)
        assert code == 0, err.getvalue()
        assert (tmp_path / "r.csv").exists()

    def test_interactive_honours_filter_flags(self, small_fixture_dir, tmp_path):
        stdin = scripted(["tf.function", "", "", "", "", "", "", "y"])
        out, err = io.StringIO(), io.StringIO()
        code = main([
            "--interactive", "--min-comments", "0", "--no-strict-match",
            "--fixtures", str(small_fixture_dir),
            "--output", str(tmp_path / "r.csv"), "--omitted-output", str(tmp_path / "o.csv"),
        ], {}, stdin=stdin, stdout=out, stderr=err)
        assert code == 0, err.getvalue()
        reasons = {row.rsplit(",", 1)[1]
                   for row in (tmp_path / "o.csv").read_text(encoding="utf-8").splitlines()[1:]}
        assert not reasons & {"no_discussion", "no_strict_match"}

    def test_interactive_bad_flag_rejected_before_any_prompt(self, small_fixture_dir, tmp_path):
        stdin = scripted(["tf.function", "", "", "", "", "", "", "y"])
        out, err = io.StringIO(), io.StringIO()
        code = main([
            "--interactive", "--min-comments", "-1", "--fixtures", str(small_fixture_dir),
            "--output", str(tmp_path / "r.csv"), "--omitted-output", str(tmp_path / "o.csv"),
        ], {}, stdin=stdin, stdout=out, stderr=err)
        assert code == 1
        assert err.getvalue() == "usage error: --min-comments must be >= 0, got -1\n"
        assert out.getvalue() == ""

    def test_interactive_abort_exit_1(self, small_fixture_dir, tmp_path):
        stdin = io.StringIO("".join(a + "\n" for a in
                                    ["tf.function", "", "", "", "", "", "", "n"]))
        out, err = io.StringIO(), io.StringIO()
        code = main([
            "--interactive", "--fixtures", str(small_fixture_dir),
            "--output", str(tmp_path / "r.csv"), "--omitted-output", str(tmp_path / "o.csv"),
        ], {}, stdin=stdin, stdout=out, stderr=err)
        assert code == 1
        assert not (tmp_path / "r.csv").exists()

    def test_ctrl_c_at_prompt_aborts(self, small_fixture_dir, tmp_path):
        class Interrupted:
            def readline(self):
                raise KeyboardInterrupt

        out, err = io.StringIO(), io.StringIO()
        try:
            code = main([
                "--interactive", "--fixtures", str(small_fixture_dir),
                "--output", str(tmp_path / "r.csv"), "--omitted-output", str(tmp_path / "o.csv"),
            ], {}, stdin=Interrupted(), stdout=out, stderr=err)
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped main")
        assert (code, out.getvalue(), err.getvalue()) == (1, "Query string: ", "aborted: interrupted\n")

    def test_symlink_loop_in_output_path_exit_3(self, small_fixture_dir, tmp_path):
        (tmp_path / "a").symlink_to(tmp_path / "b")
        (tmp_path / "b").symlink_to(tmp_path / "a")
        code, _, err = self.run_main([
            "--query", "tf.function", "--fixtures", str(small_fixture_dir),
            "--output", str(tmp_path / "a" / "out.csv"),
            "--omitted-output", str(tmp_path / "o.csv"),
        ])
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exit_3(self, small_fixture_dir, tmp_path, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(issuesift.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               "PYTHONUNBUFFERED": unbuffered}
        try:
            result = subprocess.run(
                [sys.executable, "-c", "from issuesift.cli import entry; entry()",
                 "--query", "tf.function", "--fixtures", str(small_fixture_dir),
                 "--output", str(tmp_path / "r.csv"), "--omitted-output", str(tmp_path / "o.csv")],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert result.returncode == 3
        assert result.stderr == "error: cannot write to stdout: [Errno 32] Broken pipe\n"

    def test_confidence_flag_adds_column(self, small_fixture_dir, tmp_path):
        results = tmp_path / "results.csv"
        code, _, _ = self.run_main([
            "--query", "tf.function", "--fixtures", str(small_fixture_dir),
            "--confidence",
            "--output", str(results), "--omitted-output", str(tmp_path / "o.csv"),
        ])
        assert code == 0
        header = results.read_text(encoding="utf-8").splitlines()[0]
        assert header.endswith(",confidence")

    # Exit status and stderr prefix of every error type, as the README lists them.
    EXIT_TABLE = {
        "IssueSiftError": (2, "error"),
        "GitHubError": (2, "error"),
        "InvalidToken": (2, "error"),
        "QueryRejected": (2, "error"),
        "RateLimited": (2, "error"),
        "NetworkFailure": (2, "error"),
        "IssueGone": (2, "error"),
        "FixtureNotFound": (3, "error"),
        "ModelError": (3, "error"),
        "UnsupportedVersion": (3, "error"),
        "SchemaViolation": (3, "error"),
        "EmptyCorpus": (3, "error"),
        "EmptyCategory": (3, "error"),
        "UnknownCategory": (1, "usage error"),
        "IoFailure": (3, "error"),
        "UsageError": (1, "usage error"),
        "Aborted": (1, "aborted"),
    }

    def test_exit_table_covers_every_error_type(self):
        found, todo = {IssueSiftError}, [IssueSiftError]
        while todo:
            for sub in todo.pop().__subclasses__():
                found.add(sub)
                todo.append(sub)
        assert sorted(cls.__name__ for cls in found) == sorted(self.EXIT_TABLE)

    @pytest.mark.parametrize("name", sorted(EXIT_TABLE))
    def test_exit_status_and_stderr_line(self, monkeypatch, name):
        cls = getattr(errors, name)
        error = cls("field", "boom") if cls is errors.SchemaViolation else cls("boom")

        def fail(argv, environment):
            raise error

        monkeypatch.setattr(cli, "parse_args", fail)
        code, out, err = self.run_main(["--query", "x"])
        status, prefix = self.EXIT_TABLE[name]
        assert (code, out, err) == (status, "", f"{prefix}: {error}\n")

    def test_diagnostics_never_on_stdout(self):
        code, out, err = self.run_main(["--limit", "9999", "--query", "x"])
        assert code == 1
        assert out == ""
        assert err != ""
