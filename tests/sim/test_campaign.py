"""Campaign layer: grid building, determinism, and early stopping.

The headline guarantee under test: a campaign is a pure function of its
job list -- the same grid returns bit-identical results at every
``--jobs`` value, and ``run_until`` keeps exactly the prefix a serial
early-stopping loop would have kept.
"""

from dataclasses import asdict

import pytest

from repro.harness.designs import hfb_design, mesh_design
from repro.obs.instrument import Instrumentation
from repro.obs.sinks import MemorySink
from repro.sim import campaign
from repro.sim.campaign import (
    SimJob,
    TrafficSpec,
    campaign_grid,
    derive_job_seed,
    run_campaign,
    run_until,
)
from repro.sim.config import SimConfig
from repro.util.errors import ConfigurationError

from tests.sim.oracle import PollEverythingSimulator


def small_grid(seeds=1, rates=(1.0, 2.0)):
    return campaign_grid(
        designs=[mesh_design(4)],
        patterns=["uniform_random", "transpose"],
        rates=list(rates),
        base_seed=7,
        seeds_per_point=seeds,
        warmup=100,
        measure=300,
    )


class TestGridBuilder:
    def test_grid_shape_and_keys(self):
        grid = small_grid(seeds=2)
        assert len(grid) == 1 * 2 * 2 * 2
        keys = [job.key for job in grid]
        assert len(set(keys)) == len(keys)
        assert ("Mesh", "uniform_random", 1.0, 0) in keys

    def test_seeds_are_coordinate_pure(self):
        # Adding rows to one axis must not perturb another axis' seeds.
        narrow = small_grid(rates=(1.0,))
        wide = small_grid(rates=(1.0, 2.0, 4.0))
        narrow_seeds = {j.key: j.seed for j in narrow}
        wide_seeds = {j.key: j.seed for j in wide}
        for key, seed in narrow_seeds.items():
            assert wide_seeds[key] == seed
        assert derive_job_seed(7, 0, 0, 0, 0) != derive_job_seed(7, 0, 0, 0, 1)

    def test_config_reflects_design_width(self):
        grid = campaign_grid(
            designs=[hfb_design(4)], patterns=["uniform_random"],
            rates=[1.0], base_seed=1,
        )
        assert grid[0].config.flit_bits == hfb_design(4).point.flit_bits


class TestTrafficSpec:
    def test_synthetic_rate_split(self):
        spec = TrafficSpec(kind="synthetic", pattern="uniform_random", rate=4.0)
        traffic = spec.build(4, seed=3)
        assert traffic.rate == pytest.approx(4.0 / 16)

    def test_rate_above_capacity_rejected(self):
        spec = TrafficSpec(kind="synthetic", rate=20.0)
        with pytest.raises(ConfigurationError):
            spec.build(1 + 1, seed=1)  # n=2: 20/4 > 1 packet/node/cycle

    def test_parsec_needs_workload(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(kind="parsec").build(4, seed=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(kind="pcap").build(4, seed=1)

    def test_labels(self):
        assert TrafficSpec(kind="synthetic", pattern="transpose").label == "transpose"
        assert TrafficSpec(kind="parsec", workload="canneal").label == "canneal"
        assert TrafficSpec(kind="trace").label == "trace"


class TestCampaignDeterminism:
    def test_results_identical_for_every_jobs_value(self):
        grid = small_grid()
        serial = run_campaign(grid, jobs=1)
        parallel = run_campaign(grid, jobs=2)
        assert len(serial.results) == len(parallel.results)
        for a, b in zip(serial.results, parallel.results):
            assert a.key == b.key
            assert asdict(a.run) == asdict(b.run)

    def test_engines_agree_within_campaign(self, monkeypatch):
        grid = small_grid()
        active = run_campaign(grid, jobs=1)
        # jobs=1 runs in-process, so the patched class reaches _run_job.
        monkeypatch.setattr(campaign, "Simulator", PollEverythingSimulator)
        reference = run_campaign(grid, jobs=1)
        for a, b in zip(active.results, reference.results):
            assert asdict(a.run.summary) == asdict(b.run.summary)

    def test_keyed_lookup(self):
        res = run_campaign(small_grid(), jobs=1)
        run = res.run_for("Mesh", "uniform_random", 1.0, 0)
        assert run is res.results[0].run
        assert res.runs[0] is run

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign(small_grid(), jobs=0)


class TestObservabilityMerge:
    def test_events_and_metrics_fold_in_job_order(self):
        sink = MemorySink()
        obs = Instrumentation(sinks=[sink])
        grid = small_grid()
        run_campaign(grid, jobs=2, obs=obs)
        kinds = [e.kind for e in sink.events]
        assert kinds[0] == "campaign.start"
        assert kinds[-1] == "campaign.end"
        ends = [e for e in sink.events if e.kind == "sim.end"]
        assert len(ends) == len(grid)
        snap = obs.metrics.snapshot()
        assert snap["counters"]["campaign.runs"] == len(grid)


class TestRunUntil:
    def stop_grid(self):
        # Ascending rates; predicate stops at the first rate >= 2.0.
        return campaign_grid(
            designs=[mesh_design(4)], patterns=["uniform_random"],
            rates=[0.5, 1.0, 2.0, 4.0, 8.0], base_seed=3,
            warmup=100, measure=300,
        )

    def test_truncates_at_first_hit_inclusive(self):
        grid = self.stop_grid()

        def run_with(jobs):
            return run_until(
                grid, lambda res: res.key[2] >= 2.0, jobs=jobs
            )

        serial = run_with(1)
        assert [j.traffic.rate for j in serial.jobs] == [0.5, 1.0, 2.0]
        speculative = run_with(2)
        assert [j.traffic.rate for j in speculative.jobs] == [0.5, 1.0, 2.0]
        for a, b in zip(serial.results, speculative.results):
            assert asdict(a.run) == asdict(b.run)

    def test_no_hit_runs_everything(self):
        grid = self.stop_grid()
        res = run_until(grid, lambda r: False, jobs=2)
        assert len(res.results) == len(grid)
