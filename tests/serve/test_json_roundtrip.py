"""One wire schema, bit-exact: ``from_json(to_json(x)) == x``.

The HTTP layer, the run ledger and the design store all serialize
results through the same :mod:`repro.api` schema, so these property
tests are the only round-trip proof the whole serving stack needs.
Floats travel as ``float.hex`` strings and placements as canonical
bytes, so equality here is bitwise, not approximate -- every case
additionally survives an actual JSON text encode/decode.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    RESULT_SCHEMA,
    EvalResult,
    PlacementResult,
    SearchConfig,
    evaluate_placement,
)
from repro.core.optimizer import optimize
from repro.harness.designs import EFFORTS
from repro.util.errors import ConfigurationError

from tests.conftest import row_placements

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, max_value=1e6,
                     allow_nan=False, allow_infinity=False)


@st.composite
def search_configs(draw):
    return SearchConfig(
        seed=draw(st.one_of(st.none(), st.integers(0, 2**31))),
        restarts=draw(st.integers(1, 4)),
        jobs=draw(st.integers(1, 4)),
        max_evaluations=draw(st.one_of(st.none(), st.integers(1, 10**6))),
        trace_out=draw(st.one_of(st.none(), st.just("trace.jsonl"))),
        metrics_every=draw(st.integers(0, 100)),
        profile=draw(st.booleans()),
        ledger=draw(st.one_of(st.none(), st.just(".repro/runs"))),
        space=draw(st.sampled_from(("row", "hetero", "grid2d"))),
    )


@st.composite
def placement_results(draw):
    placement = draw(row_placements())
    curve_limits = draw(st.lists(st.integers(1, 64), unique=True,
                                 max_size=4))
    return PlacementResult(
        n=placement.n,
        method=draw(st.sampled_from(("dc_sa", "only_sa", "exact"))),
        space="row",
        link_limit=draw(st.integers(1, 64)),
        placement=placement,
        express_links=tuple(sorted(placement.express_links)),
        energy=draw(finite),
        evaluations=draw(st.integers(0, 10**9)),
        wall_time_s=draw(positive),
        config=draw(search_configs().filter(lambda c: c.space == "row")),
        flit_bits=draw(st.one_of(st.none(), st.integers(1, 4096))),
        head_latency=draw(st.one_of(st.none(), finite)),
        serialization_latency=draw(st.one_of(st.none(), finite)),
        total_latency=draw(st.one_of(st.none(), finite)),
        latency_curve=tuple((c, draw(finite)) for c in curve_limits),
        restart_energies=tuple(
            (c, tuple(draw(st.lists(finite, min_size=1, max_size=3))))
            for c in curve_limits[:2]
        ),
    )


@st.composite
def eval_results(draw):
    limited = draw(st.booleans())
    return EvalResult(
        n=draw(st.integers(2, 64)),
        link_limit=draw(st.integers(1, 64)) if limited else None,
        row_head_latency=draw(finite),
        head_latency=draw(finite),
        worst_case_latency=draw(st.one_of(st.none(), finite)),
        serialization_latency=draw(finite) if limited else None,
        total_latency=draw(finite) if limited else None,
        flit_bits=draw(st.integers(1, 4096)) if limited else None,
    )


def _through_text(payload):
    """Encode/decode through actual JSON text, as every consumer does."""
    return json.loads(json.dumps(payload))


class TestSearchConfigRoundTrip:
    @given(search_configs())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, cfg):
        assert SearchConfig.from_json(_through_text(cfg.to_json())) == cfg

    def test_unknown_field_rejected(self):
        # A typo, and the retired knobs old clients may send.
        for field in ("sead", "incremental", "resync_every", "chains"):
            with pytest.raises(ConfigurationError, match="unknown SearchConfig"):
                SearchConfig.from_json({"seed": 1, field: 2})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError, match="must be an object"):
            SearchConfig.from_json([1, 2, 3])


class TestPlacementResultRoundTrip:
    @given(placement_results())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, result):
        restored = PlacementResult.from_json(
            _through_text(result.to_json())
        )
        assert restored == result
        # Equality covers every compared field bit-exactly; the
        # placement object itself must also survive.
        assert restored.placement == result.placement

    def test_real_row_result_round_trips(self):
        result = optimize(6, params=EFFORTS["smoke"],
                          config=SearchConfig(seed=2019))
        assert PlacementResult.from_json(
            _through_text(result.to_json())
        ) == result

    def test_real_mesh_result_round_trips(self):
        # Mesh placements serialize per-row exact bytes, NOT the
        # mirror-folded canonical form -- this is the case that would
        # break if the fold ever leaked into the schema.
        result = optimize(
            4, params=EFFORTS["smoke"],
            config=SearchConfig(seed=3, space="hetero"),
        )
        restored = PlacementResult.from_json(
            _through_text(result.to_json())
        )
        assert restored == result
        assert restored.placement == result.placement
        assert restored.space == "hetero"

    def test_schema_and_kind_checked(self):
        result = optimize(6, params=EFFORTS["smoke"],
                          config=SearchConfig(seed=2019))
        payload = result.to_json()
        with pytest.raises(ConfigurationError, match="schema"):
            PlacementResult.from_json(dict(payload, schema=RESULT_SCHEMA + 1))
        with pytest.raises(ConfigurationError, match="kind"):
            PlacementResult.from_json(dict(payload, kind="eval_result"))


class TestEvalResultRoundTrip:
    @given(eval_results())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, result):
        assert EvalResult.from_json(_through_text(result.to_json())) == result

    @given(row_placements(max_n=8))
    @settings(max_examples=25, deadline=None)
    def test_real_evaluations_round_trip(self, placement):
        result = evaluate_placement(placement)
        assert EvalResult.from_json(
            _through_text(result.to_json())
        ) == result
