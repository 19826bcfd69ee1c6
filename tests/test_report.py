import csv
import io
import os
import re
import stat
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issuesift.errors import IoFailure
from issuesift.github_client import GITHUB_API, IssueRef
from issuesift.pipeline import OMISSION_REASONS, ClassifiedRecord, OmittedIssue, RunSummary
from issuesift.report import RESULT_COLUMNS, render_summary, write_omitted, write_report, write_results


def issue_ref(issue_id=415902593, number=26104):
    return IssueRef(
        id=issue_id, title="t", body="",
        html_url=f"https://github.com/tensorflow/tensorflow/issues/{number}",
        api_url=f"{GITHUB_API}/repos/tensorflow/tensorflow/issues/{number}",
        comments_url=f"{GITHUB_API}/repos/tensorflow/tensorflow/issues/{number}/comments",
        comment_count=1,
    )


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def omission(reason, issue_id=415902593, number=26104):
    issue = issue_ref(issue_id=issue_id, number=number)
    return OmittedIssue(issue.id, issue.html_url, issue.api_url, reason)


def record(rendered, category="Observed Bug Behavior", issue_id=415902593,
           comment_id=100, line_index=0, confidence=0.875):
    issue = issue_ref(issue_id=issue_id)
    return ClassifiedRecord(id=issue.id, html_url=issue.html_url, api_url=issue.api_url,
                            comment_id=comment_id, line_index=line_index, comment_line=rendered,
                            category=category, confidence=confidence)


class TestWriteResults:
    def test_paper_style_row(self, tmp_path):
        rendered = ("however get u step closer running original code actual error "
                    "message tensorboard propagate ui CODE")
        path = tmp_path / "results.csv"
        count = write_results([record(rendered)], path)
        assert count == 1
        rows = read_rows(path)
        assert rows[0]["id"] == "415902593"
        assert rows[0]["comment_line"] == rendered
        assert rows[0]["category"] == "Observed Bug Behavior"

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "results.csv"
        assert write_results([], path) == 0
        assert path.read_text(encoding="utf-8") == (
            "id,html_url,api_url,comment_id,line_index,comment_line,category\n"
        )

    def test_comma_field_quoted(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results([record("hello, world")], path)
        text = path.read_text(encoding="utf-8")
        assert '"hello, world"' in text
        rows = read_rows(path)
        assert rows[0]["comment_line"] == "hello, world"

    def test_round_trip_recovers_fields(self, tmp_path):
        records = [
            record("first line", comment_id=100, line_index=0),
            record('with "quotes" inside', comment_id=100, line_index=1),
            record("categorical, comma", category="Usage", comment_id=101, line_index=0),
        ]
        path = tmp_path / "results.csv"
        write_results(records, path)
        rows = read_rows(path)
        assert len(rows) == 3
        for row, rec in zip(rows, records):
            assert row["id"] == str(rec.id)
            assert row["html_url"] == rec.html_url
            assert row["api_url"] == rec.api_url
            assert row["comment_id"] == str(rec.comment_id)
            assert row["line_index"] == str(rec.line_index)
            assert row["comment_line"] == rec.comment_line
            assert row["category"] == rec.category

    def test_confidence_column_optional(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results([record("x", confidence=0.66666)], path, include_confidence=True)
        rows = read_rows(path)
        assert rows[0]["confidence"] == "0.6667"
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header.endswith(",confidence")

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results([record("x"), record("y", line_index=1)], path)
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_byte_determinism(self, tmp_path):
        records = [record("same input")]
        write_results(records, tmp_path / "a.csv")
        write_results(records, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(IoFailure):
            write_results([], tmp_path)  # directory, not file


class TestReplaceOnSuccess:
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results([record("old row")], path)
        before = path.read_bytes()

        def records_then_disk_error():
            yield record("new row")
            raise OSError("disk full")

        with pytest.raises(IoFailure, match="disk full"):
            write_results(records_then_disk_error(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]

    def test_planted_symlink_at_the_temp_name_is_not_followed(self, tmp_path, monkeypatch):
        victim = tmp_path / "victim.txt"
        victim.write_bytes(b"keep me\n")
        monkeypatch.setattr(os, "urandom", lambda size: bytes(size))  # the temp name's random part
        planted = tmp_path / f".{bytes(8).hex()}.tmp"
        planted.symlink_to(victim)
        with pytest.raises(IoFailure, match="File exists"):
            write_omitted([], tmp_path / "omitted.csv")
        assert victim.read_bytes() == b"keep me\n"
        assert planted.is_symlink()  # not this call's file, so not removed either
        assert sorted(p.name for p in tmp_path.iterdir()) == [planted.name, "victim.txt"]

    def test_new_file_mode_is_that_of_open_w(self, tmp_path):
        write_omitted([], tmp_path / "omitted.csv")
        with open(tmp_path / "plain.csv", "w"):
            pass
        modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("omitted.csv", "plain.csv")}
        assert len(modes) == 1

    def test_symlink_is_written_through(self, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        link.symlink_to(real)
        write_omitted([], link)
        assert link.is_symlink()
        assert real.read_text(encoding="utf-8") == "id,html_url,api_url,reason\n"

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "omitted.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_omitted([], fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [b"id,html_url,api_url,reason\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)


class TestWriteReport:
    def test_same_bytes_as_the_two_writers(self, tmp_path):
        records = [record("first, line"), record("second", line_index=1)]
        omitted = [omission("no_discussion", issue_id=5, number=5)]
        counts = write_report(records, omitted, tmp_path / "r.csv", tmp_path / "o.csv", True)
        assert counts == (2, 1)
        write_results(records, tmp_path / "r2.csv", True)
        write_omitted(omitted, tmp_path / "o2.csv")
        assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
        assert (tmp_path / "o.csv").read_bytes() == (tmp_path / "o2.csv").read_bytes()

    def old_files(self, tmp_path):
        results, omitted = tmp_path / "results.csv", tmp_path / "omitted.csv"
        write_results([record("old row")], results)
        write_omitted([omission("fetch_failed")], omitted)
        return results, omitted, results.read_bytes(), omitted.read_bytes()

    def test_omitted_path_a_directory_replaces_neither_file(self, tmp_path):
        results, omitted, results_before, omitted_before = self.old_files(tmp_path)
        (tmp_path / "dir").mkdir()
        with pytest.raises(IoFailure):
            write_report([record("new row")], [], results, tmp_path / "dir")
        assert results.read_bytes() == results_before
        assert omitted.read_bytes() == omitted_before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "omitted.csv", "results.csv"]
        assert list((tmp_path / "dir").iterdir()) == []

    def test_omitted_rows_failing_replace_neither_file(self, tmp_path):
        results, omitted, results_before, omitted_before = self.old_files(tmp_path)

        def omissions_then_disk_error():
            yield omission("no_discussion")
            raise OSError("disk full")

        with pytest.raises(IoFailure, match="disk full"):
            write_report([record("new row")], omissions_then_disk_error(), results, omitted)
        assert results.read_bytes() == results_before
        assert omitted.read_bytes() == omitted_before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["omitted.csv", "results.csv"]


    @pytest.mark.parametrize("alias", ["same-path", "symlink", "new-file"])
    def test_two_names_for_one_file_replace_nothing(self, tmp_path, alias):
        results, _, results_before, _ = self.old_files(tmp_path)
        first = second = tmp_path / "new.csv" if alias == "new-file" else results
        if alias == "symlink":
            second = tmp_path / "link.csv"
            second.symlink_to(results)
        names = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(ValueError, match=re.escape(os.path.realpath(first))):
            write_report([record("new row")], [omission("no_discussion")], first, second)
        assert results.read_bytes() == results_before
        assert sorted(p.name for p in tmp_path.iterdir()) == names  # no temp file left behind

    def test_two_streams_are_both_written_in_place(self):
        assert write_report([record("row")], [omission("no_discussion")], os.devnull, os.devnull) == (1, 1)


def ref_write_results(records, path, include_confidence=False):
    """The results writer as it was when it built the whole CSV in a StringIO."""
    header = RESULT_COLUMNS + ("confidence",) if include_confidence else RESULT_COLUMNS
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(header)
    for r in records:
        row = [r.id, r.html_url, r.api_url, r.comment_id, r.line_index,
               r.comment_line, r.category]
        if include_confidence:
            row.append(f"{r.confidence:.4f}")
        writer.writerow(row)
    Path(path).write_text(buffer.getvalue(), encoding="utf-8", newline="")
    return len(records)


_CSV_FRAGMENTS = list('ab ,"\'\n\r\téß日½') + ['""', ", ", "\r\n", "CODE", "tf.function"]
CSV_TEXT = st.lists(st.sampled_from(_CSV_FRAGMENTS), max_size=12).map("".join)
RECORDS = st.lists(
    st.builds(
        record,
        CSV_TEXT,
        category=st.sampled_from(["Usage", "Social Discussion", "Observed Bug Behavior"]),
        issue_id=st.integers(1, 10**12),
        comment_id=st.integers(1, 10**12),
        line_index=st.integers(0, 50),
        confidence=st.floats(0.0, 1.0),
    ),
    max_size=8,
)


class TestStreamedWriteMatchesReference:
    @given(RECORDS, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_stringio_writer(self, records, include_confidence):
        with tempfile.TemporaryDirectory() as tmp:
            streamed, reference = Path(tmp, "streamed.csv"), Path(tmp, "reference.csv")
            count = write_results(records, streamed, include_confidence)
            assert count == ref_write_results(records, reference, include_confidence)
            assert streamed.read_bytes() == reference.read_bytes()


def ref_write_omitted(omitted, path):
    """The omitted writer as a plain csv.writer over each omission's fields by name."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(["id", "html_url", "api_url", "reason"])
        for o in omitted:
            writer.writerow([o.id, o.html_url, o.api_url, o.reason])
    return len(omitted)


OMISSIONS = st.lists(
    st.builds(OmittedIssue, st.integers(1, 10**12), CSV_TEXT, CSV_TEXT,
              st.sampled_from(OMISSION_REASONS)),
    max_size=8,
)


class TestWriteOmitted:
    @given(OMISSIONS)
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_plain_csv_writer(self, omitted):
        with tempfile.TemporaryDirectory() as tmp:
            written, reference = Path(tmp, "omitted.csv"), Path(tmp, "reference.csv")
            assert write_omitted(omitted, written) == ref_write_omitted(omitted, reference)
            assert written.read_bytes() == reference.read_bytes()

    def test_single_omission_row(self, tmp_path):
        path = tmp_path / "omitted.csv"
        count = write_omitted([omission("no_strict_match")], path)
        assert count == 1
        rows = read_rows(path)
        assert rows[0]["reason"] == "no_strict_match"
        assert rows[0]["id"] == "415902593"

    def test_empty_header_only(self, tmp_path):
        path = tmp_path / "omitted.csv"
        assert write_omitted([], path) == 0
        assert path.read_text(encoding="utf-8") == "id,html_url,api_url,reason\n"

    def test_mixed_reasons_preserve_order(self, tmp_path):
        omissions = [
            omission("no_discussion", issue_id=5, number=5),
            omission("fetch_failed", issue_id=6, number=6),
            omission("category_filtered", issue_id=7, number=7),
        ]
        path = tmp_path / "omitted.csv"
        write_omitted(omissions, path)
        rows = read_rows(path)
        assert [r["reason"] for r in rows] == ["no_discussion", "fetch_failed", "category_filtered"]


class TestRenderSummary:
    def test_all_zero_summary(self):
        summary = RunSummary(0, 0, 0, {"Usage": 0}, {"no_strict_match": 0})
        text = render_summary(summary)
        assert "issues searched    0" in text
        assert "Usage" in text

    def test_totals_reflect_conservation(self):
        summary = RunSummary(3, 1, 2, {}, {"no_discussion": 1, "no_strict_match": 1})
        text = render_summary(summary)
        assert "issues searched    3" in text
        assert "issues classified  1" in text
        assert "issues omitted     2" in text

    def test_per_category_row(self):
        summary = RunSummary(1, 1, 0, {"Usage": 4}, {})
        lines = render_summary(summary).splitlines()
        [usage_line] = [l for l in lines if "Usage" in l]
        assert usage_line.split() == ["Usage", "4"]

    def test_reason_rows_in_fixed_order(self):
        summary = RunSummary(0, 0, 0, {}, {})
        text = render_summary(summary)
        order = [text.index(r) for r in
                 ("no_strict_match", "no_discussion", "fetch_failed", "category_filtered")]
        assert order == sorted(order)

    def test_deterministic(self):
        summary = RunSummary(2, 1, 1, {"A": 1, "B": 0}, {"fetch_failed": 1})
        assert render_summary(summary) == render_summary(summary)
