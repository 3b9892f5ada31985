"""The ``impl="native"`` kernel tier: loading and dispatch.

This module is the only place that knows *how* the native tier is
provided: :mod:`repro.routing._native_cext`, three kernels in plain C,
compiled once with the system C compiler into ``.repro/native/`` and
loaded via ctypes.  Anything importing this module stays cheap --
nothing is compiled or loaded until :func:`load` runs, so ``import
repro`` never touches the toolchain (a test pins that).

The kernel contract (all in place, C-contiguous float64/int64):

* ``row_dist_batch(d)`` -- the left-to-right row Floyd-Warshall over a
  ``(B, n, n)`` stack, distances only, relaxing the ``i < k < j``
  block of each pivot,
* ``fw_batch(d, nh)`` -- batched min-plus Floyd-Warshall over any
  ``(B, n, n)`` stack, emitting next-hop tables,
* ``inc_update(S, rows, b, us, vs, cs)`` -- the crossing-block rewrite
  of :class:`repro.routing.incremental.IncrementalApspEngine` on its
  one ``(n, n)`` layer.

All three are bit-identical to their NumPy counterparts on the domain
the weight builders produce (nonnegative weights, zero diagonal,
``inf`` sentinels, no NaN); see :mod:`repro.routing._native_cext` for
the invariance argument and the cross-impl parity suites for the pin.

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
    "warmup_seconds": None,
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
    build on a cold cache -- plus a tiny-input run of all three
    kernels; later calls return immediately.  With an
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
    S = np.zeros((2, 2))
    kernels.inc_update(
        S, 1, 1,
        np.array([0], dtype=np.int64),
        np.array([1], dtype=np.int64),
        np.array([1.0]),
    )
    seconds = time.perf_counter() - start
    _state["warm"] = True
    _state["warmup_seconds"] = seconds
    if obs is not None and not getattr(obs, "is_null", True):
        if obs.enabled:
            obs.emit(
                "kernel.compile",
                backend=BACKEND,
                seconds=round(seconds, 6),
            )
        obs.metrics.gauge("kernel.compile_seconds").set(seconds)
    return BACKEND


def warmup_seconds() -> Optional[float]:
    """Wall time the in-process warm-up took, or None if not yet warm."""
    return _state["warmup_seconds"]


# -- dispatch surface used by the kernel call sites ---------------------

def row_distances_batch_inplace(dist: np.ndarray) -> None:
    """In-place left-to-right row FW (``(B, n, n)`` float64 C-order)."""
    load().row_dist_batch(dist)


def fw_batch_inplace(dist: np.ndarray, next_hop: np.ndarray) -> None:
    """In-place batched FW with next-hop emission."""
    load().fw_batch(dist, next_hop)


def inc_update_boundary(S, rows, b, us, vs, cs) -> None:
    """Crossing-block rewrite on the incremental engine's ``(n, n)`` layer."""
    load().inc_update(S, rows, b, us, vs, cs)
