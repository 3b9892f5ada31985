"""Implementation-tier registry for the kernel seam (``impl=``).

Every hot kernel in the package is reachable through one seam: the
``impl=`` parameter threaded from :class:`repro.api.SearchConfig` and
the CLI ``--impl`` flag down to the directional Floyd-Warshall calls.
This module is the single authority on which tiers exist, which are
usable on the current machine, and how a request resolves:

``"vectorized"``
    The batched NumPy kernels (default, always available).
``"reference"``
    The pure-Python oracle in :mod:`repro.routing.shortest_path_ref`
    (always available; exists for verification, not speed).
``"native"``
    Compiled kernels (:mod:`repro.routing.native`): a small C extension
    built on demand with the system C compiler (the tier needs one, or
    an already-built cache).  Bit-identical to ``"vectorized"`` by
    the cross-impl parity suites -- distances, next-hop tables, and SA
    trajectories -- so the tier is a pure wall-clock knob, excluded
    from ledger run identities like ``--jobs``.

Resolution semantics (:func:`resolve_impl`):

* An unknown name raises :class:`UnknownImplementationError` (a
  ``ConfigurationError`` *and* a ``ValueError``) naming the known
  tiers and whether native is installed.
* An explicit ``"native"`` request on a machine where the tier cannot
  load raises :class:`ConfigurationError` with the install hint (make
  a C compiler available).
* ``impl=None`` resolves from the :data:`IMPL_ENV_VAR` environment
  default (``REPRO_IMPL``) and falls back to ``"vectorized"`` with a
  warning when the environment asks for an unavailable ``"native"`` --
  an env default must degrade gracefully, an explicit argument must
  not.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Tuple

from repro.util.errors import ConfigurationError, UnknownImplementationError

#: Recognized implementations of the directional kernels.
IMPLEMENTATIONS = ("vectorized", "reference", "native")

#: The tier used when nothing (argument or environment) asks otherwise.
DEFAULT_IMPL = "vectorized"

#: Environment variable consulted when ``impl=None`` is resolved.
IMPL_ENV_VAR = "REPRO_IMPL"

#: What a machine needs for the native tier.
NATIVE_INSTALL_HINT = "make a C compiler available (cc, gcc, clang or $CC)"


def native_installed() -> bool:
    """Cheap static probe: could the native tier plausibly load?

    True when the C extension has a toolchain (or an already-built
    cache) to work with.  Never compiles or loads anything -- this is
    safe to call on error paths; :func:`native_available` gives the
    real answer.
    """
    from repro.routing import _native_cext

    return _native_cext.plausible()


def native_available() -> bool:
    """True when the native tier actually loads (compiles on first use)."""
    from repro.routing import native

    return native.available()


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
    """Reject names outside :data:`IMPLEMENTATIONS`.

    The error names the known tiers and whether the optional native
    tier is installed, so every seam reports the same actionable
    message.
    """
    if impl not in IMPLEMENTATIONS:
        native_note = (
            "native tier installed"
            if native_installed()
            else f"native tier not installed: {NATIVE_INSTALL_HINT}"
        )
        raise UnknownImplementationError(
            f"unknown impl {impl!r}; expected one of {IMPLEMENTATIONS} "
            f"({native_note})"
        )


def resolve_impl(impl: Optional[str] = None) -> str:
    """Resolve an ``impl`` request to a concrete, usable tier name.

    See the module docstring for the explicit-vs-environment
    semantics.  Returns one of :data:`IMPLEMENTATIONS`.
    """
    from_env = impl is None
    if impl is None:
        impl = os.environ.get(IMPL_ENV_VAR) or DEFAULT_IMPL
    check_impl(impl)
    if impl == "native" and not native_available():
        from repro.routing import native

        reason = native.unavailable_reason() or "the kernels could not load"
        if from_env:
            warnings.warn(
                f"{IMPL_ENV_VAR}=native requested but the native tier is "
                f"unavailable ({reason}); falling back to "
                f"{DEFAULT_IMPL!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            return DEFAULT_IMPL
        raise ConfigurationError(
            f"impl='native' requested but the native tier could not load "
            f"({reason}); {NATIVE_INSTALL_HINT}, or use impl='vectorized'"
        )
    return impl
