"""SimConfig validation and buffer-normalization tests."""

import pytest

from repro.sim.config import SimConfig
from repro.util.errors import ConfigurationError


class TestValidation:
    def test_defaults_valid(self):
        SimConfig()

    def test_bad_flit_bits(self):
        with pytest.raises(ConfigurationError):
            SimConfig(flit_bits=0)

    def test_bad_vcs(self):
        with pytest.raises(ConfigurationError):
            SimConfig(vcs_per_port=0)

    def test_min_depth(self):
        with pytest.raises(ConfigurationError):
            SimConfig(vc_depth_flits=1)

    def test_window_may_be_truncated_by_budget(self):
        # A budget-capped run may cut the measurement window short;
        # statistics normalize by the actual overlap with the window.
        SimConfig(warmup_cycles=900, measure_cycles=200, max_cycles=1000)

    def test_window_must_start(self):
        with pytest.raises(ConfigurationError):
            SimConfig(warmup_cycles=1000, measure_cycles=200, max_cycles=1000)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ConfigurationError, match="warmup_cycles"):
            SimConfig(warmup_cycles=-5)

    @pytest.mark.parametrize("measure", [0, -1])
    def test_empty_measurement_window_rejected(self, measure):
        # An empty window measures no packet; the summary would be NaN.
        with pytest.raises(ConfigurationError, match="measure_cycles"):
            SimConfig(measure_cycles=measure)


class TestBufferNormalization:
    def test_reference_budget(self):
        cfg = SimConfig()
        assert cfg.total_buffer_bits() == 5 * 4 * 4 * 256

    def test_mesh_router_keeps_reference_depth(self):
        cfg = SimConfig(flit_bits=256)
        # A 4-radix (5-port) mesh router at full width: depth 4.
        assert cfg.vc_depth_for_radix(4) == 4

    def test_narrow_flits_get_deeper_buffers(self):
        cfg = SimConfig(flit_bits=64)
        # Same bit budget, quarter-width flits, same ports -> 4x depth.
        assert cfg.vc_depth_for_radix(4) == 16

    def test_high_radix_gets_shallower_buffers(self):
        cfg = SimConfig(flit_bits=256)
        assert cfg.vc_depth_for_radix(9) == 2  # floor but >= 2

    def test_normalization_off(self):
        cfg = SimConfig(flit_bits=64, normalize_buffer_bits=False)
        assert cfg.vc_depth_for_radix(10) == 4

    def test_equal_total_bits_across_schemes(self):
        # The paper's equal-buffer rule: total bits per router roughly
        # constant across (radix, width) combinations, up to flooring.
        budget = SimConfig().total_buffer_bits()
        for radix, bits in ((4, 256), (7, 64), (9, 32)):
            cfg = SimConfig(flit_bits=bits)
            depth = cfg.vc_depth_for_radix(radix)
            total = (radix + 1) * cfg.vcs_per_port * depth * bits
            assert total <= budget
            assert total >= budget * 0.4  # flooring never loses most of it
