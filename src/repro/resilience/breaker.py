"""Per-source circuit breakers: stop hammering a source that is down.

Classic closed → open → half-open automaton, one breaker per source
identity. ``failure_threshold`` consecutive failures open the circuit;
while open every call is rejected immediately with
:class:`~repro.errors.CircuitOpenError` (a ``SourceUnavailableError``, so
delivery fails closed exactly as for a direct outage); after
``cooldown_s`` the breaker half-opens and admits up to
``half_open_max_calls`` probes — a success closes it, a failure re-opens
it and restarts the cool-down. The clock is injectable so the state
machine is unit-testable without real waiting.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, TypeVar

from repro.errors import CircuitOpenError, FaultError
from repro.obs import instrument
from repro.obs.trace import TRACER

__all__ = ["BreakerState", "BreakerConfig", "CircuitBreaker", "BreakerRegistry"]

T = TypeVar("T")


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Gauge encoding of each state (exported as ``repro_breaker_state``).
_STATE_VALUE = {
    BreakerState.CLOSED: 0,
    BreakerState.HALF_OPEN: 1,
    BreakerState.OPEN: 2,
}


@dataclass(frozen=True)
class BreakerConfig:
    """Thresholds of the state machine."""

    failure_threshold: int = 5
    cooldown_s: float = 30.0
    half_open_max_calls: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise FaultError("failure_threshold must be >= 1")
        if self.cooldown_s <= 0:
            raise FaultError("cooldown_s must be positive")
        if self.half_open_max_calls < 1:
            raise FaultError("half_open_max_calls must be >= 1")


class CircuitBreaker:
    """One source's breaker; thread-safe, clock-injectable."""

    def __init__(
        self,
        name: str,
        config: BreakerConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.name = name
        self.config = config if config is not None else BreakerConfig()
        self._clock = clock
        self._lock = threading.RLock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._half_open_inflight = 0

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        """Current state, advancing OPEN → HALF_OPEN after the cool-down."""
        with self._lock:
            if (
                self._state is BreakerState.OPEN
                and self._clock() - self._opened_at >= self.config.cooldown_s
            ):
                self._transition(BreakerState.HALF_OPEN)
            return self._state

    def allow(self) -> bool:
        """May a call proceed right now? (Reserves a half-open slot.)

        A closed breaker answers without its lock: reading the state is
        atomic, and a failure recorded concurrently orders after this call.
        """
        if self._state is BreakerState.CLOSED:
            return True
        with self._lock:
            state = self.state
            if state is BreakerState.CLOSED:
                return True
            if state is BreakerState.OPEN:
                return False
            if self._half_open_inflight >= self.config.half_open_max_calls:
                return False
            self._half_open_inflight += 1
            return True

    # -- outcomes ------------------------------------------------------------

    def record_success(self) -> None:
        # Closed with no failures counted: there is nothing to reset.
        if self._state is BreakerState.CLOSED and not self._consecutive_failures:
            return
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._half_open_inflight = 0
                self._transition(BreakerState.CLOSED)
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._half_open_inflight = 0
                self._open()
                return
            self._consecutive_failures += 1
            if (
                self._state is BreakerState.CLOSED
                and self._consecutive_failures >= self.config.failure_threshold
            ):
                self._open()

    def call(self, fn: Callable[..., T], *args: Any, **kwargs: Any) -> T:
        """Run ``fn(*args, **kwargs)`` through the breaker.

        Rejected calls raise :class:`CircuitOpenError` without invoking
        ``fn``; only :class:`~repro.errors.FaultError` outcomes count as
        breaker failures (a compliance refusal is not a source failure).
        """
        if not self.allow():
            raise CircuitOpenError(
                f"circuit for {self.name} is {self.state.value}; "
                f"call rejected without contacting the source"
            )
        try:
            result = fn(*args, **kwargs)
        except FaultError:
            self.record_failure()
            raise
        except BaseException:
            with self._lock:  # release any half-open slot we reserved
                self._half_open_inflight = max(0, self._half_open_inflight - 1)
            raise
        self.record_success()
        return result

    # -- transitions ---------------------------------------------------------

    def _open(self) -> None:
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._transition(BreakerState.OPEN)

    def _transition(self, to: BreakerState) -> None:
        if self._state is to:
            return
        self._state = to
        if TRACER.active():
            instrument.BREAKER_TRANSITIONS.inc(1, (to.value,))
            instrument.BREAKER_STATE.set(_STATE_VALUE[to], (self.name,))


class BreakerRegistry:
    """Get-or-create breakers keyed by source identity."""

    def __init__(
        self,
        config: BreakerConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config if config is not None else BreakerConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}

    def get(self, name: str) -> CircuitBreaker:
        # A known source's breaker is read without the lock; only creation
        # takes it, and checks again under it.
        breaker = self._breakers.get(name)
        if breaker is not None:
            return breaker
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = self._breakers[name] = CircuitBreaker(
                    name, self.config, clock=self._clock
                )
            return breaker

    def states(self) -> dict[str, str]:
        """Current state name per known source, sorted — for reporting."""
        with self._lock:
            breakers = list(self._breakers.values())
        return {b.name: b.state.value for b in sorted(breakers, key=lambda b: b.name)}

    def __iter__(self) -> Iterator[CircuitBreaker]:
        with self._lock:
            return iter(list(self._breakers.values()))

    def __len__(self) -> int:
        return len(self._breakers)
