import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = textwrap.dedent("""\
    from hypothesis import given, settings, strategies as st


    @settings(database=None)
    @given(st.integers())
    def test_fails(n):
        assert n != n


    def test_passes():
        pass
    """)


def test_failing_given_test_is_reported_as_a_failure(tmp_path):
    """Under the repo's pytest settings, a failing @given test is one failure, not INTERNALERROR.

    Hypothesis's report hook imports libcst to suggest a patch, and libcst raises a
    DeprecationWarning that the settings would turn into an error inside the hook.
    Where libcst is not installed, the warning never comes and this test guards nothing.
    """
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_two.py"],
        cwd=tmp_path, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout + result.stderr
    assert result.returncode == 1
