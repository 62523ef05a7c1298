"""The composed call path: injector → retry → breaker, and process defaults.

:class:`ResiliencePolicy` is the one object ETL flows and the delivery
service thread a guarded call through. Layering, outermost first:

* the **circuit breaker** for the target rejects immediately while open —
  a down source costs one exception, not ``max_attempts`` timeouts;
* the **retry loop** absorbs transient/timeout failures with backoff,
  capped by the propagated deadline;
* the **fault injector** (when installed) gets the chance to fail the
  call before the real work runs.

``REPRO_FAULTS=<plan>`` installs a process-default injector at import
time (e.g. ``smoke`` in CI, which the default retry policy absorbs), and
:func:`default_policy` / :func:`default_delivery_resilience` hand it to
call sites that were not given an explicit policy. Without the
environment variable both return ``None`` and the wrapped code paths are
skipped entirely — the disabled path stays free.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, TypeVar

from repro.resilience.breaker import BreakerConfig, BreakerRegistry
from repro.resilience.faults import FaultInjector, named_plan
from repro.resilience.retry import Deadline, RetryPolicy, call_with_retry

__all__ = [
    "ResiliencePolicy",
    "DeliveryResilience",
    "install",
    "uninstall",
    "active_injector",
    "default_policy",
    "default_delivery_resilience",
]

T = TypeVar("T")

#: Delivery degradation modes: refuse outright, or deliver minus the
#: affected source's rows (explicitly marked, audited with the cause).
DEGRADATION_MODES = ("refuse", "degrade")


@dataclass
class ResiliencePolicy:
    """Injector + retry + breaker, composed around one callable."""

    injector: FaultInjector | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breakers: BreakerRegistry | None = None
    sleep: Callable[[float], None] = time.sleep

    def call(
        self,
        target: str,
        fn: Callable[..., T],
        *args: Any,
        deadline: Deadline | None = None,
    ) -> T:
        """Run ``fn(*args)`` as a guarded source/ETL call against ``target``.

        Each attempt of the retry loop runs the injector's guard, then
        ``fn``; the breaker, when present, wraps the whole loop.
        """
        injector = self.injector

        def guarded() -> T:
            if injector is not None:
                injector.guard(target, deadline=deadline)
            return fn(*args)

        if self.breakers is not None:
            return self.breakers.get(target).call(
                call_with_retry,
                guarded,
                self.retry,
                target=target,
                deadline=deadline,
                sleep=self.sleep,
            )
        return call_with_retry(
            guarded, self.retry, target=target, deadline=deadline, sleep=self.sleep
        )


@dataclass
class DeliveryResilience:
    """What the delivery service needs: a call policy plus the failure mode.

    ``mode="refuse"`` (the fail-closed default) raises
    :class:`~repro.errors.SourceUnavailableError` when any source in the
    report's lineage footprint is down; ``mode="degrade"`` delivers an
    explicitly marked instance with that source's rows dropped entirely.
    Either way nothing stale or unfiltered is ever substituted.
    """

    policy: ResiliencePolicy = field(default_factory=ResiliencePolicy)
    mode: str = "refuse"
    deadline_budget_s: float | None = None
    #: The simulated remote availability check, one per source identity.
    #: Replace to integrate a real transport; the default is a no-op the
    #: injector (and breaker) wrap — exactly a ping.
    probe: Callable[[str], None] = lambda source: None

    def __post_init__(self) -> None:
        if self.mode not in DEGRADATION_MODES:
            raise ValueError(
                f"unknown degradation mode {self.mode!r}; "
                f"expected one of {DEGRADATION_MODES}"
            )

    def new_deadline(self) -> Deadline | None:
        if self.deadline_budget_s is None:
            return None
        return Deadline(self.deadline_budget_s)

    def check_source(self, source: str, *, deadline: Deadline | None = None) -> None:
        """Probe one source through the full injector→retry→breaker path."""
        self.policy.call(source, self.probe, source, deadline=deadline)


# ---------------------------------------------------------------------------
# Process-default injector (REPRO_FAULTS)
# ---------------------------------------------------------------------------

_DEFAULT_INJECTOR: FaultInjector | None = None


def install(injector: FaultInjector | None) -> None:
    """Set (or clear, with ``None``) the process-default fault injector."""
    global _DEFAULT_INJECTOR
    _DEFAULT_INJECTOR = injector


def uninstall() -> None:
    install(None)


def active_injector() -> FaultInjector | None:
    """The process-default injector, if one is installed."""
    return _DEFAULT_INJECTOR


def default_policy() -> ResiliencePolicy | None:
    """A policy around the process-default injector; ``None`` when inactive.

    Used by call sites not given an explicit policy. A fresh
    :class:`BreakerRegistry` per policy keeps independently constructed
    flows/services from tripping each other's breakers.
    """
    injector = active_injector()
    if injector is None:
        return None
    return ResiliencePolicy(injector=injector, breakers=BreakerRegistry(BreakerConfig()))


def default_delivery_resilience() -> DeliveryResilience | None:
    """Delivery-side default: fail-closed refusal around the env injector."""
    policy = default_policy()
    if policy is None:
        return None
    return DeliveryResilience(policy=policy, mode="refuse")


def _init_from_env() -> None:
    name = os.environ.get("REPRO_FAULTS", "").strip()
    if name and name.lower() not in {"0", "off", "none", "false"}:
        install(FaultInjector(named_plan(name)))


_init_from_env()
