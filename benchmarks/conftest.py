"""Shared benchmark infrastructure.

Every benchmark file regenerates one paper table/figure: a
module-scoped fixture computes the experiment once, ``publish`` writes
the rendered table both to the terminal (bypassing pytest capture) and
to ``benchmarks/results/<name>.txt``, and the timed function exercises
the experiment's dominant kernel.

Scale knob: set ``REPRO_BENCH_EFFORT=quick`` for a fast smoke pass
(CI), default is the paper-fidelity configuration.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: "paper" (default) or "quick".
EFFORT = os.environ.get("REPRO_BENCH_EFFORT", "paper")

#: Shared seed so cached design sweeps are reused across bench files.
SEED = 2019


def sa_effort() -> str:
    return "paper" if EFFORT == "paper" else "quick"


def git_sha() -> str:
    """Short commit hash of the benchmarked tree ("unknown" off-repo).

    Suffixed ``-dirty`` when a tracked file differs from that commit, so
    a twin regenerated on an uncommitted tree does not name the commit
    it was built on as the code that produced it.
    """

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()

    try:
        sha = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except Exception:
        return "unknown"
    return f"{sha}-dirty" if dirty else sha


def publish(capsys, name: str, text: str, record: dict | None = None) -> None:
    """Write a rendered experiment table to terminal and results files.

    Alongside the human-readable ``<name>.txt``, a machine-readable
    ``<name>.json`` is written carrying the run's provenance (effort
    knob, git sha, timestamp) plus whatever structured ``record`` the
    bench supplies -- typically the n/C grid, wall times and speedups
    -- so sweeps across commits can be diffed without re-parsing
    tables.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    payload = {
        "name": name,
        "effort": EFFORT,
        "git_sha": git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if record:
        payload.update(record)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    with capsys.disabled():
        print()
        print(text)


@pytest.fixture(scope="session")
def effort() -> str:
    return sa_effort()


@pytest.fixture(scope="session")
def campaign():
    """The PARSEC simulation campaign shared by Figures 6 and 9."""
    from repro.harness.parsec import parsec_campaign
    from repro.traffic.parsec import PARSEC_NAMES

    quick = sa_effort() != "paper"
    return parsec_campaign(
        n=8,
        benchmarks=PARSEC_NAMES[:4] if quick else PARSEC_NAMES,
        seed=SEED,
        effort=sa_effort(),
        warmup_cycles=300 if quick else 500,
        measure_cycles=1_000 if quick else 2_000,
    )
