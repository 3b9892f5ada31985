"""Contract tests for the impl registry (:mod:`repro.routing.impls`).

Every seam that accepts ``impl=`` delegates validation and resolution
here, so these tests pin the semantics for all of them at once:
explicit unknown names fail loudly, explicit ``"native"`` on a machine
without a backend fails with the install hint, while the ``REPRO_IMPL``
environment default degrades gracefully with a warning.
"""

from __future__ import annotations

import warnings

import pytest

from repro.routing import impls, native
from repro.routing.impls import (
    DEFAULT_IMPL,
    IMPL_ENV_VAR,
    IMPLEMENTATIONS,
    NATIVE_INSTALL_HINT,
    available_impls,
    check_impl,
    resolve_impl,
)
from repro.util.errors import ConfigurationError, UnknownImplementationError


class TestRegistry:
    def test_known_tiers(self):
        assert IMPLEMENTATIONS == ("vectorized", "reference", "native")
        assert DEFAULT_IMPL == "vectorized"

    def test_available_impls_always_has_portable_tiers(self):
        tiers = available_impls()
        assert tiers[:2] == ("vectorized", "reference")
        assert set(tiers) <= set(IMPLEMENTATIONS)

    def test_available_impls_without_probe_never_lists_native(self):
        assert available_impls(probe=False) == ("vectorized", "reference")

    def test_available_matches_native_probe(self):
        has_native = "native" in available_impls()
        assert has_native == native.available()
        if has_native:
            assert native.backend_name() == native.BACKEND
        else:
            assert native.unavailable_reason()


class TestCheckImpl:
    @pytest.mark.parametrize("impl", IMPLEMENTATIONS)
    def test_accepts_every_registered_tier(self, impl):
        check_impl(impl)  # must not raise, even if native can't load

    @pytest.mark.parametrize("bad", ["numpy", "Vectorized", "", "cext"])
    def test_unknown_name_raises_both_families(self, bad):
        # Dual inheritance: callers catching either the package's
        # ConfigurationError or plain ValueError see the failure.
        with pytest.raises(UnknownImplementationError) as exc:
            check_impl(bad)
        assert isinstance(exc.value, ConfigurationError)
        assert isinstance(exc.value, ValueError)

    def test_error_names_tiers_and_install_state(self):
        with pytest.raises(UnknownImplementationError) as exc:
            check_impl("nope")
        msg = str(exc.value)
        for tier in IMPLEMENTATIONS:
            assert tier in msg
        assert "native tier" in msg


class TestResolveImpl:
    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv(IMPL_ENV_VAR, raising=False)
        assert resolve_impl(None) == DEFAULT_IMPL

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(IMPL_ENV_VAR, "reference")
        assert resolve_impl("vectorized") == "vectorized"

    def test_env_default_is_used_when_no_argument(self, monkeypatch):
        monkeypatch.setenv(IMPL_ENV_VAR, "reference")
        assert resolve_impl(None) == "reference"

    def test_empty_env_value_means_default(self, monkeypatch):
        monkeypatch.setenv(IMPL_ENV_VAR, "")
        assert resolve_impl(None) == DEFAULT_IMPL

    def test_unknown_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(IMPL_ENV_VAR, "turbo")
        with pytest.raises(UnknownImplementationError):
            resolve_impl(None)

    def test_explicit_native_errors_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(impls, "native_available", lambda: False)
        monkeypatch.setattr(
            native, "unavailable_reason", lambda: "no backend (test)"
        )
        with pytest.raises(ConfigurationError) as exc:
            resolve_impl("native")
        msg = str(exc.value)
        assert "no backend (test)" in msg
        assert NATIVE_INSTALL_HINT in msg
        assert "C compiler" in msg

    def test_env_native_falls_back_with_warning(self, monkeypatch):
        monkeypatch.setenv(IMPL_ENV_VAR, "native")
        monkeypatch.setattr(impls, "native_available", lambda: False)
        monkeypatch.setattr(
            native, "unavailable_reason", lambda: "no backend (test)"
        )
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_impl(None) == DEFAULT_IMPL

    def test_native_resolves_when_available(self, monkeypatch):
        monkeypatch.setattr(impls, "native_available", lambda: True)
        assert resolve_impl("native") == "native"
        monkeypatch.setenv(IMPL_ENV_VAR, "native")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # fallback warning would fail
            assert resolve_impl(None) == "native"
