"""``import repro`` does not load networkx; a deadlock check does.

Only the channel-dependency-graph checks of
:mod:`repro.routing.deadlock` use networkx, and nothing in the package
calls them on a search, pricing or serving path.  The test runs a
fresh interpreter, so this module's own imports cannot mask an eager
import sneaking into the package.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro


def _run(code: str) -> subprocess.CompletedProcess:
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=package_root)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)


def test_import_repro_does_not_load_networkx():
    proc = _run(
        "import sys\n"
        "import repro\n"
        "import repro.cli\n"
        "from repro.api import SearchConfig, evaluate_placement\n"
        "from repro.topology.row import RowPlacement\n"
        "SearchConfig(seed=1)\n"
        "p = RowPlacement(6, frozenset({(0, 2), (3, 5)}))\n"
        "assert evaluate_placement(p, link_limit=4).total_latency > 0\n"
        "assert 'networkx' not in sys.modules, 'networkx imported eagerly'\n"
        "print('clean')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["clean"]


def test_deadlock_check_loads_networkx_on_use():
    proc = _run(
        "import sys\n"
        "from repro import MeshTopology, RoutingTables, is_deadlock_free\n"
        "from repro.topology.row import RowPlacement\n"
        "assert 'networkx' not in sys.modules\n"
        "p = RowPlacement(4, frozenset({(0, 2)}))\n"
        "assert is_deadlock_free(RoutingTables.build(MeshTopology.uniform(p)))\n"
        "assert 'networkx' in sys.modules\n"
        "print('loaded')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["loaded"]
