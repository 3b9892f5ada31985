"""Figure 8: synthetic traffic latency and saturation throughput, 8x8.

UR/TP/BR on Mesh, HFB and D&C_SA: low-load latency plus an injection
sweep to saturation.  Times one low-load simulation window.
"""

import pytest

from repro import SimConfig, SimJob, TrafficSpec, run_campaign
from repro.harness.designs import mesh_design
from repro.harness.synthetic import fig8

from benchmarks.conftest import SEED, publish, sa_effort


def low_load_window():
    """One-job campaign: 8x8 mesh, UR at 1 packet/cycle, 200 + 500 cycles."""
    design = mesh_design(8)
    job = SimJob(
        design=design,
        traffic=TrafficSpec(kind="synthetic", pattern="uniform_random", rate=1.0),
        config=SimConfig(
            flit_bits=design.point.flit_bits,
            warmup_cycles=200,
            measure_cycles=500,
            max_cycles=200 + 500 + 6_000,
            seed=SEED,
        ),
        seed=SEED,
    )
    return run_campaign([job])


@pytest.fixture(scope="module")
def result():
    quick = sa_effort() != "paper"
    return fig8(
        n=8,
        patterns=("uniform_random",) if quick else ("uniform_random", "transpose", "bit_reverse"),
        seed=SEED,
        effort=sa_effort(),
        low_rate=1.0,
        warmup=300,
        measure=800 if quick else 1_200,
    )


def test_fig8_synthetic_traffic(benchmark, result, capsys):
    publish(capsys, "fig8", result.render())

    mesh_lat = result.avg_latency("Mesh")
    dc_lat = result.avg_latency("D&C_SA")
    hfb_lat = result.avg_latency("HFB")
    # Paper: 24.4% latency reduction vs Mesh, 16.9% vs HFB.
    assert dc_lat < mesh_lat
    assert dc_lat < hfb_lat

    mesh_thr = result.avg_throughput("Mesh")
    hfb_thr = result.avg_throughput("HFB")
    dc_thr = result.avg_throughput("D&C_SA")
    # Paper: Mesh throughput highest; HFB below half of Mesh; D&C_SA
    # recovers a large part (>= 3/4 of Mesh, > HFB).
    assert mesh_thr >= dc_thr * 0.95
    assert dc_thr > hfb_thr
    assert dc_thr >= 0.55 * mesh_thr

    benchmark.pedantic(low_load_window, rounds=2, iterations=1)
