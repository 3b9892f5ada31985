"""``import repro`` builds nothing; the first priced row decides the tier.

The native tier is a C extension compiled on first use
(:mod:`repro.routing._native_cext`) into a per-user build cache.
Importing the package and building configs must not pay for -- or
depend on -- that build, so a machine without a C compiler loses only
the tier.  The first evaluation then decides the tier once: it builds
into the per-user cache where a compiler exists, and it never writes
under the working directory.  The test runs a fresh interpreter with an
empty per-user cache, so this module's own imports cannot mask an
eager import sneaking into the package.
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.routing import _native_cext


def test_import_repro_does_not_load_native(tmp_path):
    home_cache = tmp_path / "xdg"
    cache = home_cache / "repro" / "native"
    work = tmp_path / "work"
    work.mkdir()
    env = dict(os.environ, XDG_CACHE_HOME=str(home_cache))
    env.pop(_native_cext.CACHE_ENV_VAR, None)
    # The child runs in an empty directory: put the package on its path.
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(_native_cext.__file__)
    )))
    env["PYTHONPATH"] = package_root
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, sys\n"
         "import repro\n"
         "import repro.api\n"
         "import repro.cli\n"
         "import repro.routing.shortest_path\n"
         "import repro.routing.impls\n"
         "from repro.api import SearchConfig, evaluate_placement\n"
         "from repro.topology.row import RowPlacement\n"
         "SearchConfig(seed=1)\n"
         "bad = [m for m in sys.modules if m.endswith('_native_cext')]\n"
         "assert not bad, f'native library imported eagerly: {bad}'\n"
         f"assert not os.path.exists({str(home_cache)!r}), 'built at import'\n"
         "p = RowPlacement(6, frozenset({(0, 2), (3, 5)}))\n"
         "assert evaluate_placement(p, link_limit=4).total_latency > 0\n"
         "from repro.routing.impls import default_impl\n"
         "print('clean', default_impl())\n"],
        capture_output=True, text=True, timeout=120, env=env, cwd=str(work),
    )
    assert proc.returncode == 0, proc.stderr
    word, tier = proc.stdout.split()
    assert word == "clean"
    # The first evaluation decided the tier: compiled into the per-user
    # cache where a compiler exists, NumPy otherwise -- and nothing was
    # written under the working directory either way.
    assert tier == ("native" if _native_cext._find_compiler() else "vectorized")
    assert cache.is_dir() == (tier == "native")
    assert not (work / ".repro").exists()
