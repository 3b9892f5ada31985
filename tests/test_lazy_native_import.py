"""``import repro`` must never build or load the native kernel library.

The native tier is a C extension compiled on first use
(:mod:`repro.routing._native_cext`).  Importing the package, building
configs and running the default vectorized tier must not pay for --
or depend on -- that build, so a machine without a C compiler loses
only the tier.  The test runs a fresh interpreter, with an empty build
cache, so this module's own imports cannot mask an eager import
sneaking into the package.
"""

from __future__ import annotations

import os
import subprocess
import sys


def test_import_repro_does_not_load_native(tmp_path):
    cache = tmp_path / "native-cache"
    env = dict(os.environ, REPRO_NATIVE_CACHE=str(cache))
    env.pop("REPRO_IMPL", None)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "import repro\n"
         "import repro.api\n"
         "import repro.cli\n"
         "import repro.routing.shortest_path\n"
         "import repro.routing.impls\n"
         "from repro.api import SearchConfig, evaluate_placement\n"
         "from repro.topology.row import RowPlacement\n"
         "assert SearchConfig().impl == 'vectorized'\n"
         "p = RowPlacement(6, frozenset({(0, 2), (3, 5)}))\n"
         "assert evaluate_placement(p, link_limit=4).total_latency > 0\n"
         "bad = [m for m in sys.modules if m.endswith('_native_cext')]\n"
         "assert not bad, f'native library imported eagerly: {bad}'\n"
         "print('clean')\n"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "clean" in proc.stdout
    # Nothing was compiled: the build cache was never even created.
    assert not cache.exists()
