"""Bounded retries with exponential backoff and deterministic jitter.

A :class:`RetryPolicy` is a frozen schedule; :meth:`RetryPolicy.call`
executes a thunk under it, sleeping on a pluggable clock.  Production
would pass a wall clock; everything in this repository passes a
:class:`SimulatedClock`, so a hostile-profile sweep that "backs off"
for minutes of simulated time still finishes in milliseconds — and the
jitter comes from a seeded RNG, so two runs back off identically.

Only :class:`~repro.errors.TransientError` subclasses are retried.
Anything else — an app bug, a bad test case, a missing package — is a
real signal and propagates on the first raise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from repro.errors import TransientError

T = TypeVar("T")


class SimulatedClock:
    """A clock that jumps instead of waiting."""

    def __init__(self) -> None:
        self.now = 0.0

    def sleep(self, seconds: float) -> None:
        self.now += seconds


@dataclass(frozen=True)
class RetryPolicy:
    """max_attempts total tries; delay = base * multiplier^retry,
    capped at max_delay, then jittered by ±jitter (a fraction).

    ``max_total_delay`` adds a *total-deadline* budget on top of the
    per-attempt schedule: the sum of all backoff sleeps under one
    ``call`` never exceeds it, and once the budget is spent the next
    transient failure gives up immediately even if attempts remain.
    ``None`` (the default) keeps the pre-existing attempts-only bound.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    max_total_delay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, "
                             f"got {self.max_attempts}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.max_total_delay is not None and self.max_total_delay <= 0:
            raise ValueError(f"max_total_delay must be positive, "
                             f"got {self.max_total_delay}")

    def delay_for(self, retry: int,
                  rng: Optional[random.Random] = None,
                  elapsed: float = 0.0) -> float:
        """The backoff before retry number ``retry`` (0-based).

        ``elapsed`` is the backoff already spent under the current
        call; when ``max_total_delay`` is set the returned delay is
        clamped so the total never crosses the deadline budget.
        """
        delay = min(self.max_delay, self.base_delay * self.multiplier ** retry)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        if self.max_total_delay is not None:
            delay = max(0.0, min(delay, self.max_total_delay - elapsed))
        return delay

    def call(
        self,
        fn: Callable[[], T],
        *,
        clock: SimulatedClock,
        rng: Optional[random.Random] = None,
        on_retry: Optional[Callable[[TransientError, float], None]] = None,
    ) -> T:
        """Run ``fn`` under this policy.

        Retries on :class:`TransientError` only; re-raises the last
        failure once the attempt budget — or the ``max_total_delay``
        budget of backoff slept on ``clock`` — is spent.  ``on_retry``
        runs after each backoff sleep with the failure and the delay
        slept: the hook the adb layer uses to record the retry and to
        issue its ``adb reconnect``.
        """
        slept = 0.0
        for attempt in range(self.max_attempts):
            try:
                return fn()
            except TransientError as exc:
                budget_spent = (self.max_total_delay is not None
                                and slept >= self.max_total_delay)
                if attempt + 1 >= self.max_attempts or budget_spent:
                    raise
                delay = self.delay_for(attempt, rng, elapsed=slept)
                slept += delay
                clock.sleep(delay)
                if on_retry is not None:
                    on_retry(exc, delay)
        raise AssertionError("unreachable")  # pragma: no cover
