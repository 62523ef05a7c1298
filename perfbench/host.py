"""Host control and host-speed normalization.

On a small shared VM the speed at which a vCPU runs this interpreter's
code changes by up to 1.7x from one second to the next, as other tenants
load the same physical core; over a 10-second run that moved the delivery
p50 by 28% (quartile spread over six runs). The benchmark therefore

* pins itself to one CPU, so the probe below measures the core the
  daemon's threads run on (with the interpreter lock only one of them
  runs Python at a time anyway);
* limits glibc to one malloc arena, so peak RSS does not depend on which
  threads happened to allocate at the same moment;
* brackets every window of requests with :func:`probe`, a fixed workload
  of the standard library (JSON encoding, SHA-256, sorting tuples), and
  reports times scaled to the speed at which that probe runs in
  :data:`NOMINAL_PROBE_S`: ``t * NOMINAL_PROBE_S / probe_s``.

Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import gc
import hashlib
import json
import os
import statistics
import time

__all__ = ["NOMINAL_PROBE_S", "pin_to_one_cpu", "single_malloc_arena", "probe"]

#: Probe time on an uncontended core of the 2-vCPU host the benchmark was
#: defined on, so scaled times read as milliseconds on that core.
NOMINAL_PROBE_S = 0.002

_PROBE_REPEATS = 3
_M_ARENA_MAX = -8  # mallopt parameter number (glibc malloc.h)

_DATA = [
    {f"k{i}": (i, str(i) * 3, list(range(5))) for i in range(60)}
    for _ in range(20)
]


def pin_to_one_cpu() -> int | None:
    """Restrict this process (and threads it starts later) to one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def single_malloc_arena() -> bool:
    """Ask glibc for one malloc arena; False where that is not available."""
    name = ctypes.util.find_library("c")
    if name is None:
        return False
    try:
        mallopt = ctypes.CDLL(name).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_ARENA_MAX, 1) == 1


def _unit() -> None:
    digest = hashlib.sha256()
    for doc in _DATA:
        digest.update(json.dumps(doc, sort_keys=True).encode())
    sorted((value[1], key) for doc in _DATA for key, value in doc.items())


def probe() -> float:
    """Seconds one probe unit takes now (median of a few, collector off)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(_PROBE_REPEATS):
            started = time.perf_counter()
            _unit()
            times.append(time.perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)
