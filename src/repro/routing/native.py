"""The ``"native"`` kernel tier: loading and dispatch.

This module is the only place that knows *how* the native tier is
provided: :mod:`repro.routing._native_cext`, three kernels in plain C,
compiled once per machine with the system C compiler into a per-user
build cache and loaded via ctypes.  Anything importing this module
stays cheap -- nothing is compiled or loaded until :func:`load` runs,
so ``import repro`` never touches the toolchain (a test pins that).
:func:`repro.routing.impls.default_impl` calls :func:`available` once
per process to decide the tier.

The kernel contract (all in place, C-contiguous float64/int64):

* ``row_dist_batch(d)`` -- the left-to-right row Floyd-Warshall over a
  ``(B, n, n)`` stack, distances only, relaxing the ``i < k < j``
  block of each pivot,
* ``fw_batch(d, nh)`` -- batched min-plus Floyd-Warshall over any
  ``(B, n, n)`` stack, emitting next-hop tables,
* ``engine_apply(s, w, hop)`` -- binds an incremental engine's arrays
  and returns ``apply(changes, total)``: one call per link diff.

All are bit-identical to their NumPy counterparts on the domain the
weight builders produce (nonnegative weights, zero diagonal, ``inf``
sentinels, no NaN); see :mod:`repro.routing._native_cext` for the
invariance argument and the cross-tier parity suites for the pin.

:func:`warmup` front-loads the load (and, on a cold cache, the C build)
once per process -- the parallel engine's workers call it before their
solve spans open -- and reports the cost through the
``kernel.compile`` obs event and the ``kernel.compile_seconds`` gauge,
so profiled runs never attribute build time to
``latency.floyd_warshall``.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.util.errors import ConfigurationError

#: The one backend; :func:`backend_name` reports it once loaded.
BACKEND = "cext"

_state = {
    "kernels": None,
    "error": None,
    "warm": False,
}


def load():
    """The loaded kernel namespace, loading (and compiling) on first use.

    Raises :class:`ConfigurationError` when the kernels cannot be built
    or loaded; the outcome (either way) is cached for the life of the
    process.
    """
    if _state["kernels"] is not None:
        return _state["kernels"]
    if _state["error"] is not None:
        raise ConfigurationError(f"native tier unavailable: {_state['error']}")
    try:
        from repro.routing import _native_cext

        kernels = _native_cext.load()
    except Exception as exc:  # noqa: BLE001
        _state["error"] = f"{BACKEND}: {exc}"
        raise ConfigurationError(
            f"native tier unavailable: {_state['error']}"
        ) from exc
    _state["kernels"] = kernels
    return kernels


def available() -> bool:
    """True when the tier loads on this machine (result cached)."""
    try:
        load()
    except ConfigurationError:
        return False
    return True


def backend_name() -> Optional[str]:
    """:data:`BACKEND` once loaded, else None."""
    return BACKEND if _state["kernels"] is not None else None


def unavailable_reason() -> Optional[str]:
    """Why the last load attempt failed, or None."""
    return _state["error"]


def warmup(obs=None) -> str:
    """Load (building if needed) and exercise the kernels, outside any span.

    Idempotent per process: the first call pays the load -- and the C
    build on a cold cache -- plus a tiny-input run of every kernel;
    later calls return immediately.  With an
    :class:`~repro.obs.Instrumentation` attached, the first call emits
    a ``kernel.compile`` event and sets the ``kernel.compile_seconds``
    gauge so profiles and traces account for the cost explicitly
    instead of folding it into the first solve span.  Returns the
    backend name.
    """
    if _state["warm"]:
        return BACKEND
    start = time.perf_counter()
    kernels = load()
    d = np.array([[[0.0, 1.0, 3.0], [np.inf, 0.0, 1.0], [np.inf, np.inf, 0.0]]])
    kernels.row_dist_batch(d)
    d2 = np.array([[[0.0, 1.0], [np.inf, 0.0]]])
    nh = np.array([[[0, 1], [-1, 1]]], dtype=np.int64)
    kernels.fw_batch(d2, nh)
    w = np.array([[0.0, 1.0, np.inf], [np.inf, 0.0, 1.0], [np.inf, np.inf, 0.0]])
    kernels.engine_apply(d[0], w, np.arange(3.0))([(0, 2, True)], 4.0)
    seconds = time.perf_counter() - start
    _state["warm"] = True
    if obs is not None and not getattr(obs, "is_null", True):
        if obs.enabled:
            obs.emit(
                "kernel.compile",
                backend=BACKEND,
                seconds=round(seconds, 6),
            )
        obs.metrics.gauge("kernel.compile_seconds").set(seconds)
    return BACKEND
