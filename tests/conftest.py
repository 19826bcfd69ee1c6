from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from issuesift.github_client import TransportReply, canonical_url

TESTS_DIR = Path(__file__).resolve().parent
FIXTURE_SMALL = TESTS_DIR / "fixtures" / "tf_function_small"
GOLDEN_DIR = TESTS_DIR / "golden"


class FakeClock:
    """Deterministic clock whose sleep advances simulated time."""

    def __init__(self, start: float = 1_700_000_000.0):
        self.now = start
        self.sleeps: list[float] = []
        self._lock = threading.Lock()

    def time(self) -> float:
        with self._lock:
            return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds >= 0, f"negative sleep {seconds}"
        with self._lock:
            self.sleeps.append(seconds)
            self.now += seconds


class ScriptedTransport:
    """Serves a fixed sequence of replies (or exceptions) in order."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests: list[tuple[str, str, dict | None]] = []

    def request(self, method, url, params=None):
        self.requests.append((method, url, params))
        if not self.replies:
            raise AssertionError(f"unexpected request beyond the script: {url}")
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


class ClockedTransport:
    """Passes requests to ``inner`` and records (clock time, canonical URL) of each."""

    def __init__(self, inner, clock):
        self.inner = inner
        self.clock = clock
        self.requests: list[tuple[float, str]] = []

    def request(self, method, url, params=None):
        self.requests.append((self.clock(), canonical_url(url, params)))
        return self.inner.request(method, url, params)


def reply(status: int = 200, payload=None, headers: dict | None = None) -> TransportReply:
    body = json.dumps(payload if payload is not None else {}).encode("utf-8")
    lowered = {k.lower(): str(v) for k, v in (headers or {}).items()}
    return TransportReply(status=status, headers=lowered, body=body)


@pytest.fixture
def fake_clock():
    return FakeClock()


@pytest.fixture
def small_fixture_dir():
    return FIXTURE_SMALL
