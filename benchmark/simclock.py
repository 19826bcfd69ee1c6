"""A simulated clock that repeats exactly under the session's thread pool.

A shared ``now`` that every ``sleep`` adds to only repeats when threads never
sleep at the same time: two pool threads that see one rate-gate deadline would
each add their wait. This clock runs the fetch threads one at a time instead,
as a discrete-event simulation:

* Before the fetch stage the calling thread is the only participant, so a
  sleep just moves ``now`` forward.
* During the fetch stage each ``fetch_comments`` call is a participant. It
  parks on entry and on every sleep, keyed by (due time, position of its
  issue in the search results). Once every participant that can exist is
  parked, the one with the smallest key runs and ``now`` moves to its due
  time. Time never passes while a participant runs. Only the thread that
  may run is woken, so a hand-over costs one thread switch, not one per
  parked thread.

Which pool thread serves which issue does not matter: the order of events
depends only on due times and issue positions. Due times are rounded to the
microsecond, so the client's unseeded backoff jitter cannot reorder two
sleepers whose deadlines agree up to float rounding.
"""

from __future__ import annotations

import heapq
import itertools
import threading

STALL_S = 30.0  # real seconds without progress before the simulation gives up


class SimulationStalled(RuntimeError):
    pass


class SimClock:
    def __init__(self, start: float):
        self._now = start
        self._lock = threading.Lock()
        self._parked: list[tuple[float, int, int, threading.Condition]] = []
        self._tickets = itertools.count()
        self._granted = -1
        self._running = False
        self._local = threading.local()
        self._positions: dict[int, int] | None = None
        self._parallelism = 1
        self._completed = 0
        self.slept = 0.0
        self.sleeps = 0

    def time(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative sleep {seconds}")
        with self._lock:
            start = self._now
            due = round(start + seconds, 6)
            self.sleeps += 1
            if self._positions is None:
                self._now = max(self._now, due)
            else:
                self._running = False
                self._park_and_wait(due, self._local.position)
            self.slept += self._now - start

    # -- fetch stage ------------------------------------------------------

    def begin_fetch(self, issue_ids: list[int], parallelism: int) -> None:
        """Called with the search results, before any comment fetch starts."""
        with self._lock:
            self._positions = {issue_id: i for i, issue_id in enumerate(issue_ids)} or None
            self._parallelism = parallelism
            self._completed = 0
            self._running = False

    def wrap_fetch(self, fetch):
        """Make each call of ``fetch(issue)`` a participant of the simulation."""

        def participant(issue):
            with self._lock:
                self._local.position = self._positions[issue.id]
                self._park_and_wait(self._now, self._local.position)
            try:
                return fetch(issue)
            finally:
                with self._lock:
                    self._completed += 1
                    self._running = False
                    if self._completed == len(self._positions):
                        self._positions = None
                    else:
                        self._schedule()

        return participant

    def _park_and_wait(self, due: float, position: int) -> None:
        # Caller holds the lock; each thread waits on its own condition.
        wake = getattr(self._local, "wake", None)
        if wake is None:
            wake = self._local.wake = threading.Condition(self._lock)
        ticket = next(self._tickets)
        heapq.heappush(self._parked, (due, position, ticket, wake))
        self._schedule()
        if not wake.wait_for(lambda: self._granted == ticket, timeout=STALL_S):
            raise SimulationStalled(f"no participant ran for {STALL_S} s")

    def _schedule(self) -> None:
        # Caller holds the lock. Participants that can still exist: one
        # per pool thread while unstarted issues remain, then one per issue.
        expected = min(self._parallelism, len(self._positions) - self._completed)
        if self._running or not self._parked or len(self._parked) < expected:
            return
        due, _, ticket, wake = heapq.heappop(self._parked)
        self._now = max(self._now, due)
        self._granted = ticket
        self._running = True
        wake.notify()
