"""Kernel-tier registry: which Floyd-Warshall implementation runs.

The tier is a property of the machine, not a user knob.
:func:`default_impl` decides it once per process, lazily: ``"native"``
when the compiled kernels of :mod:`repro.routing.native` load (from the
per-user build cache, or after compiling them there), otherwise
``"vectorized"``.  Every ``impl=None`` in the package -- the kernel
functions, :class:`~repro.core.latency.RowObjective`,
:func:`repro.api.evaluate_placement` and everything that builds on
them -- resolves through :func:`resolve_impl`, so one search, one
routing table and one served evaluation all run on the same tier.

``"vectorized"``
    The batched NumPy kernels (always available; the tier of a machine
    without a C compiler).
``"native"``
    Compiled C kernels, bit-identical to ``"vectorized"`` by the
    cross-tier parity suites -- distances, next-hop tables and SA
    trajectories -- so the tier never changes a result, a run id or a
    result digest.
``"reference"``
    The pure-Python oracle in :mod:`repro.routing.shortest_path_ref`.
    Never chosen by :func:`default_impl`; named explicitly by the parity
    suites and by callers that re-price a result against the oracle
    (``evaluate_placement(..., impl="reference")``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.util.errors import ConfigurationError, UnknownImplementationError

#: Recognized implementations of the directional kernels.
IMPLEMENTATIONS = ("vectorized", "reference", "native")

#: What a machine needs for the native tier.
NATIVE_INSTALL_HINT = "make a C compiler available (cc, gcc, clang or $CC)"

#: The process tier, decided on first use by :func:`default_impl`.
_tier = {"name": None}


def native_available() -> bool:
    """True when the native tier actually loads (compiles on first use)."""
    from repro.routing import native

    return native.available()


def default_impl() -> str:
    """The tier every ``impl=None`` runs on: the one tier decision.

    ``"native"`` when the compiled kernels load on this machine,
    otherwise ``"vectorized"``.  Decided once per process, on first
    use, so ``import repro`` compiles and loads nothing.
    """
    if _tier["name"] is None:
        _tier["name"] = "native" if native_available() else "vectorized"
    return _tier["name"]


def available_impls(probe: bool = True) -> Tuple[str, ...]:
    """The tiers usable right now, in :data:`IMPLEMENTATIONS` order.

    ``probe=False`` skips the (one-time, cached) native load attempt
    and reports only the always-available tiers.
    """
    tiers = ["vectorized", "reference"]
    if probe and native_available():
        tiers.append("native")
    return tuple(tiers)


def check_impl(impl: str) -> None:
    """Reject names outside :data:`IMPLEMENTATIONS`, naming the known
    tiers (the error path probes nothing: ``repro doctor`` reports
    whether the native tier loads)."""
    if impl not in IMPLEMENTATIONS:
        raise UnknownImplementationError(
            f"unknown impl {impl!r}; expected one of {IMPLEMENTATIONS} "
            f"(`repro doctor` reports the native tier's state)"
        )


def resolve_impl(impl: Optional[str] = None) -> str:
    """A concrete, usable tier name for an ``impl`` argument.

    ``None`` is the process tier (:func:`default_impl`).  An explicit
    name is validated, and an explicit ``"native"`` on a machine where
    the compiled kernels cannot load raises :class:`ConfigurationError`
    with the install hint.
    """
    if impl is None or impl == _tier["name"]:
        return default_impl()
    check_impl(impl)
    if impl == "native" and not native_available():
        from repro.routing import native

        reason = native.unavailable_reason() or "the kernels could not load"
        raise ConfigurationError(
            f"impl='native' requested but the native tier could not load "
            f"({reason}); {NATIVE_INSTALL_HINT}"
        )
    return impl
