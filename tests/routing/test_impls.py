"""Contract tests for the tier registry (:mod:`repro.routing.impls`).

Every seam that accepts ``impl=`` delegates validation and resolution
here, so these tests pin the semantics for all of them at once: the
process tier is decided once by :func:`default_impl` -- compiled where
the kernels load, NumPy otherwise, never from the environment --
explicit unknown names fail loudly, and an explicit ``"native"`` on a
machine without a backend fails with the install hint.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings

import pytest

from repro.routing import _native_cext, impls, native
from repro.routing.impls import (
    IMPLEMENTATIONS,
    NATIVE_INSTALL_HINT,
    available_impls,
    check_impl,
    default_impl,
    resolve_impl,
)
from repro.util.errors import ConfigurationError, UnknownImplementationError


@pytest.fixture
def undecided(monkeypatch):
    """Forget the process tier so the next resolution decides it again."""
    monkeypatch.setitem(impls._tier, "name", None)


class TestRegistry:
    def test_known_tiers(self):
        assert IMPLEMENTATIONS == ("vectorized", "reference", "native")
        # The oracle is never the machine's tier.
        assert default_impl() in ("vectorized", "native")

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
    def test_default_is_vectorized(self, monkeypatch, undecided):
        # Without the compiled kernels the machine runs NumPy, silently.
        monkeypatch.setattr(impls, "native_available", lambda: False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_impl(None) == default_impl() == "vectorized"

    def test_default_is_decided_once(self, monkeypatch, undecided):
        probes = []

        def probe():
            probes.append(1)
            return True

        monkeypatch.setattr(impls, "native_available", probe)
        assert default_impl() == "native"
        assert resolve_impl(None) == "native"
        assert len(probes) == 1

    def test_empty_env_value_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_IMPL", "")
        assert resolve_impl(None) == default_impl()

    @pytest.mark.parametrize("value", ["reference", "native", "turbo"])
    def test_environment_never_chooses_the_tier(self, monkeypatch, value):
        machine = default_impl()
        monkeypatch.setenv("REPRO_IMPL", value)
        monkeypatch.setitem(impls._tier, "name", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_impl(None) == machine

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        # An explicit tier wins over the machine's (and the retired
        # REPRO_IMPL variable is not read at all).
        monkeypatch.setenv("REPRO_IMPL", "native")
        assert resolve_impl("vectorized") == "vectorized"
        assert resolve_impl("reference") == "reference"

    def test_explicit_native_errors_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(impls, "native_available", lambda: False)
        monkeypatch.setitem(impls._tier, "name", "vectorized")
        monkeypatch.setattr(
            native, "unavailable_reason", lambda: "no backend (test)"
        )
        with pytest.raises(ConfigurationError) as exc:
            resolve_impl("native")
        msg = str(exc.value)
        assert "no backend (test)" in msg
        assert NATIVE_INSTALL_HINT in msg
        assert "C compiler" in msg

    def test_env_native_falls_back_with_warning(self, monkeypatch, undecided):
        # Asking for the compiled tier through the environment cannot
        # force it: a machine whose kernels do not load runs NumPy, and
        # the warning is the probe's reason, which `repro doctor`
        # prints, while each run's manifest records the tier that ran.
        from repro.obs.ledger import environment_snapshot

        monkeypatch.setenv("REPRO_IMPL", "native")
        monkeypatch.setattr(impls, "native_available", lambda: False)
        monkeypatch.setattr(
            native, "unavailable_reason", lambda: "no backend (test)"
        )
        assert resolve_impl(None) == "vectorized"
        assert environment_snapshot()["kernel_tier"] == "vectorized"
        with pytest.raises(ConfigurationError, match="no backend \\(test\\)"):
            resolve_impl("native")

    def test_native_resolves_when_available(self, monkeypatch, undecided):
        monkeypatch.setattr(impls, "native_available", lambda: True)
        assert resolve_impl("native") == "native"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_impl(None) == "native"


class TestBuildCacheLocation:
    """The compiled kernels live in a per-user cache, never under cwd."""

    def test_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(_native_cext.CACHE_ENV_VAR, str(tmp_path / "nc"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert _native_cext.cache_dir() == str(tmp_path / "nc")

    def test_xdg_cache_home(self, monkeypatch, tmp_path):
        monkeypatch.delenv(_native_cext.CACHE_ENV_VAR, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert _native_cext.cache_dir() == str(tmp_path / "repro" / "native")

    def test_home_cache_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv(_native_cext.CACHE_ENV_VAR, raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert _native_cext.cache_dir() == str(
            tmp_path / ".cache" / "repro" / "native"
        )

    def test_unwritable_cache_runs_numpy(self, tmp_path):
        # A cache path under a regular file cannot be created: the
        # machine runs NumPy and says why, whether or not it has a
        # compiler.
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        env = dict(os.environ)
        env[_native_cext.CACHE_ENV_VAR] = str(blocker / "native")
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.routing import native\n"
             "from repro.routing.impls import default_impl\n"
             "print(default_impl())\n"
             "print(native.unavailable_reason())\n"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        tier, reason = proc.stdout.splitlines()
        assert tier == "vectorized"
        assert reason.startswith("cext: ")
