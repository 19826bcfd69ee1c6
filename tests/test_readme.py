import builtins
import inspect
import re
from importlib import resources
from pathlib import Path

import issuesift
from issuesift import github_client

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_use_section():
    return section("Library use")


def library_use_calls():
    """Names called in backticks in README's "Library use" section, builtins left out."""
    names = set(re.findall(r"`([A-Za-z_][\w.]*)\(", library_use_section()))
    return {name for name in names if not hasattr(builtins, name.split(".")[0])}


def test_library_use_names_only_exported_callables():
    names = library_use_calls()
    assert names, "no calls found in README's Library use section"
    missing = []
    for name in sorted(names):
        target = issuesift
        for part in name.split("."):
            target = getattr(target, part, None)
        if target is None or name.split(".")[0] not in issuesift.__all__:
            missing.append(name)
    assert not missing, f"README Library use names what issuesift does not export: {missing}"


def test_library_use_open_session_signature_matches_the_code():
    """The backticked ``open_session(...)`` lists the parameters in order, ``*`` included."""
    (written,) = re.findall(r"`open_session\(([^`)]*)\)`", library_use_section())
    expected = []
    for parameter in inspect.signature(issuesift.open_session).parameters.values():
        if parameter.kind is parameter.KEYWORD_ONLY and "*" not in expected:
            expected.append("*")
        expected.append(parameter.name)
    assert [name.strip() for name in written.split(",")] == expected


def test_library_use_retry_rule_matches_the_code():
    """The retry sentence names MAX_RETRIES and each backoff ``base * BACKOFF_FACTOR ** r``."""
    text = " ".join(library_use_section().split())
    (retries,) = re.findall(r"`MAX_RETRIES` = (\d+) times", text)
    assert int(retries) == github_client.MAX_RETRIES
    written = [[float(n) for n in re.findall(r"\d+", waits)]
               for waits in re.findall(r"(\d+(?:, \d+)* and \d+) s\b", text)]
    expected = [[base * github_client.BACKOFF_FACTOR ** r for r in range(github_client.MAX_RETRIES)]
                for base in (github_client.BACKOFF_BASE, github_client.SECONDARY_LIMIT_WAIT)]
    assert written == expected
    assert "each wait is capped at an hour" in text and github_client.MAX_HEADER_WAIT == 3600


def test_bring_your_own_model_code_runs(tmp_path):
    """The training block in "Bring your own model" runs on the bundled corpus."""
    (code,) = re.findall(r"```python\n(.*?)```", section("Bring your own model"), re.S)
    output = tmp_path / "my_model.json"
    with resources.as_file(resources.files("issuesift").joinpath("data/training_corpus.csv")) as corpus:
        code = code.replace('"my_corpus.csv"', repr(str(corpus))).replace('"my_model.json"', repr(str(output)))
        exec(code, {})
    model = issuesift.load_model(output)
    assert model.taxonomy == issuesift.default_taxonomy()
    line = issuesift.ProcessedLine(1, 2, 0, ("thanks",))
    [(_, (category, confidence))] = issuesift.classify_lines(model, [line])
    assert category in model.taxonomy and 0 < confidence <= 1
