import builtins
import inspect
import re
from pathlib import Path

import issuesift

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


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
