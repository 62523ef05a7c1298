"""Execution configuration: which engine runs a query, and with what caching.

Two modes:

* ``"columnar"`` (default) — the production executor in
  :mod:`repro.relational.columnar` (fused vector kernels per SELECT core,
  the row operators for the rest), optionally fronted by the
  normalized-plan result cache;
* ``"row"`` — the row-at-a-time reference executor, never cached. Keeping
  the reference path cache-free is what lets the differential test suite
  treat it as ground truth.

The process default can be overridden with the ``REPRO_ENGINE_MODE``
environment variable (``row`` or ``columnar``), which is how the CI matrix
and benchmark harness flip engines without touching call sites. Any other
non-empty value raises :class:`ValueError` at import, so a mistyped CI leg
fails instead of silently testing the default twice.

``observe`` opts one config into :mod:`repro.obs` tracing: ``None`` (the
default) follows the process-wide switch (``repro.obs.enable()`` /
``REPRO_OBS``), ``True`` traces queries run under this config even when the
global switch is off, ``False`` silences them even when it is on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.obs.trace import TRACER as _TRACER
from repro.relational.plancache import PlanCache, default_plan_cache

__all__ = [
    "ExecutionConfig",
    "get_default_config",
    "set_default_config",
    "ROW",
    "COLUMNAR",
]

_MODES = ("columnar", "row")


@dataclass(frozen=True)
class ExecutionConfig:
    """How :func:`repro.relational.engine.execute` should run a query."""

    mode: str = "columnar"
    use_plan_cache: bool = True
    plan_cache: PlanCache | None = field(default=None, compare=False)
    observe: bool | None = None  # None = follow repro.obs process switch

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"unknown execution mode {self.mode!r}; expected one of {_MODES}"
            )

    def effective_plan_cache(self) -> PlanCache | None:
        """The cache this config routes through, or ``None`` when caching is
        off (disabled explicitly, or implicitly on the row reference path)."""
        if self.mode == "row" or not self.use_plan_cache:
            return None
        return self.plan_cache if self.plan_cache is not None else default_plan_cache()

    def with_mode(self, mode: str) -> "ExecutionConfig":
        return replace(self, mode=mode)

    def observing(self) -> bool:
        """Should executions under this config be traced right now?"""
        if self.observe is not None:
            return self.observe
        return _TRACER.active()


# Canonical configs for tests and benchmarks.
ROW = ExecutionConfig(mode="row")
COLUMNAR = ExecutionConfig(mode="columnar")


def _initial_default() -> ExecutionConfig:
    mode = os.environ.get("REPRO_ENGINE_MODE", "").strip().lower()
    if mode and mode not in _MODES:
        raise ValueError(
            f"REPRO_ENGINE_MODE={mode!r} is not an execution mode; "
            f"expected one of {_MODES}"
        )
    return ExecutionConfig(mode=mode) if mode else ExecutionConfig()


_default_config = _initial_default()


def get_default_config() -> ExecutionConfig:
    """The process-wide config used when a call site passes none."""
    return _default_config


def set_default_config(config: ExecutionConfig) -> ExecutionConfig:
    """Replace the process-wide default; returns the previous one."""
    global _default_config
    previous = _default_config
    _default_config = config
    return previous
