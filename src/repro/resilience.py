"""Shared self-healing primitives: bounded retry and circuit breaking.

Before this module every subsystem hand-rolled its own failure policy:
the object-store client had an inline retry loop, the remote executor
gave up on a lane at the first connect failure, and an unreachable store
paid its full retry × backoff budget on *every* request forever.  The two
classes here make the policies explicit, shared and tunable:

:class:`RetryPolicy`
    Bounded attempts with exponential backoff and **full jitter**
    (``sleep ~ U(0, base · 2^attempt)``, clamped) — the AWS-style
    decorrelation that keeps a thundering herd of benchmark workers from
    hammering a recovering service in lockstep.  One immutable policy
    value can be shared by every caller in a class of failures
    (transport, CAS contention, lane reconnect), which is what "per-class
    budgets" means in practice.

:class:`CircuitBreaker`
    The classic closed → open → half-open automaton.  ``closed`` passes
    requests through; ``failure_threshold`` *consecutive* failures trip
    it ``open``, where requests are refused instantly (fast local miss
    instead of a retry-amplified slow path); after ``reset_after``
    seconds one probe is let through ``half-open`` — success closes the
    circuit, failure re-opens it for another cooldown.  All transitions
    and refusals are counted so operators can see the breaker working
    (:meth:`CircuitBreaker.stats`).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

__all__ = ["RetryPolicy", "CircuitBreaker", "BreakerStats"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with full jitter.

    Parameters
    ----------
    attempts:
        Total tries including the first (``attempts=1`` = no retry).
    base_backoff:
        Backoff scale of the first retry; retry *k* (0-based) backs off
        up to ``base_backoff * 2**k`` seconds.
    max_backoff:
        Clamp on any single sleep.
    jitter:
        ``True`` (default) draws each sleep uniformly from
        ``[0, delay]``; ``False`` sleeps the full deterministic delay —
        useful in tests that assert timing.
    """

    attempts: int = 4
    base_backoff: float = 0.1
    max_backoff: float = 2.0
    jitter: bool = True

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("a retry policy needs at least one attempt")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff durations must be >= 0")

    @property
    def retries(self) -> int:
        """Retries on top of the first attempt."""
        return self.attempts - 1

    def backoff(self, retry: int, rng: random.Random | None = None) -> float:
        """Sleep duration before 0-based retry number ``retry``."""
        delay = min(self.base_backoff * (2.0 ** max(retry, 0)), self.max_backoff)
        if not self.jitter:
            return delay
        draw = rng.random() if rng is not None else random.random()
        return delay * draw

    def sleep(self, retry: int, rng: random.Random | None = None) -> None:
        delay = self.backoff(retry, rng)
        if delay > 0:
            time.sleep(delay)


@dataclass(frozen=True)
class BreakerStats:
    """Counter snapshot of one :class:`CircuitBreaker` (wire-stats style)."""

    state: str
    consecutive_failures: int
    failures: int = 0
    successes: int = 0
    opens: int = 0
    short_circuits: int = 0


class CircuitBreaker:
    """Closed → open → half-open failure isolation (thread-safe).

    Callers bracket each protected operation with :meth:`allow` (refusing
    means *do not even try* — degrade immediately) and exactly one of
    :meth:`record_success` / :meth:`record_failure`.  Failures here mean
    *exhausted* operations (a whole retry budget spent), not individual
    attempts, so a transient blip the retry layer absorbs never reaches
    the breaker.

    Parameters
    ----------
    failure_threshold:
        Consecutive exhausted failures that trip the circuit open.
    reset_after:
        Seconds the circuit stays open before letting one half-open
        probe through.
    clock:
        Monotonic time source (injectable for tests).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after: float = 10.0,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.reset_after = float(reset_after)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive = 0
        self._opened_at = 0.0
        self._failures = 0
        self._successes = 0
        self._opens = 0
        self._short_circuits = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """True when a request may proceed; False = refuse instantly.

        An open circuit whose cooldown has elapsed admits exactly one
        caller as the half-open probe; everyone else keeps getting
        refused until that probe reports back.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN and (
                self._clock() - self._opened_at >= self.reset_after
            ):
                self._state = self.HALF_OPEN
                return True  # this caller is the probe
            self._short_circuits += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self._successes += 1
            self._consecutive = 0
            self._state = self.CLOSED

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._consecutive += 1
            tripped = (
                self._state == self.HALF_OPEN  # failed probe: straight back open
                or self._consecutive >= self.failure_threshold
            )
            if tripped:
                if self._state != self.OPEN:
                    self._opens += 1
                self._state = self.OPEN
                self._opened_at = self._clock()

    def stats(self) -> BreakerStats:
        with self._lock:
            return BreakerStats(
                state=self._state,
                consecutive_failures=self._consecutive,
                failures=self._failures,
                successes=self._successes,
                opens=self._opens,
                short_circuits=self._short_circuits,
            )

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"threshold={self.failure_threshold}, reset_after={self.reset_after})"
        )
