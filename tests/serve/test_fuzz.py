"""Malformed input never escapes as a traceback or an HTTP 500.

Hypothesis drives the four ``from_json`` readers -- what the design
store, the ledger and ``repro optimize --save`` write, and the Pareto
fronts ``repro pareto`` writes -- and the three POST bodies of the
server.  Every input either parses/serves or fails with a
:class:`ConfigurationError` (a 400 over HTTP) that names the field.
The server's search, pricing and campaign work is stubbed out: only
validation is under test, so no example can start real work.
"""

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import EvalResult, PlacementResult, SearchConfig, evaluate_placement
from repro.core.annealing import AnnealingParams
from repro.core.optimizer import optimize
from repro.core.pareto import ParetoFront, pareto_front
from repro.serve.server import ServeApp
from repro.serve.store import DesignStore
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError

SMOKE = AnnealingParams(total_moves=100, moves_per_cooldown=50)

#: The values the field-level contract names, plus near misses.
ADVERSARIAL = [None, "x", 1.5, [], {}, -1, 0, 1, 2, True, "", float("nan"),
               [0], [[0, 2]], ["x"], {"a": 1}, "0x1p+0", 10**30]

#: Arbitrary small JSON (bounded so no value can size real work).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.floats(allow_nan=True) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
field_values = st.sampled_from(ADVERSARIAL) | json_values

_PLACEMENT = optimize(4, params=SMOKE, config=SearchConfig(seed=1))
_EVAL = evaluate_placement(RowPlacement(6, frozenset({(0, 3)})), link_limit=2)
_FRONT = pareto_front(6, 2, objectives=("latency", "power"), points=1,
                      params=SMOKE, config=SearchConfig(seed=1))


def _mutations(valid: dict):
    """``valid`` with one field replaced, dropped, or a key added."""
    keys = sorted(valid)
    replace = st.tuples(st.sampled_from(keys), field_values).map(
        lambda kv: {**valid, kv[0]: kv[1]}
    )
    drop = st.sampled_from(keys).map(
        lambda k: {key: v for key, v in valid.items() if key != k}
    )
    extra = st.tuples(st.text(max_size=6), field_values).map(
        lambda kv: {**valid, kv[0]: kv[1]}
    )
    return replace | drop | extra


def _parses_or_names_the_error(reader, data):
    try:
        reader(data)
    except ConfigurationError as exc:
        assert str(exc)


class TestFromJson:
    @given(data=_mutations(_PLACEMENT.to_json()))
    @settings(max_examples=150, deadline=None)
    def test_placement_result(self, data):
        _parses_or_names_the_error(PlacementResult.from_json, data)

    @given(data=_mutations(_EVAL.to_json()))
    @settings(max_examples=100, deadline=None)
    def test_eval_result(self, data):
        _parses_or_names_the_error(EvalResult.from_json, data)

    @given(data=_mutations(SearchConfig(seed=3).to_json()))
    @settings(max_examples=150, deadline=None)
    def test_search_config(self, data):
        _parses_or_names_the_error(SearchConfig.from_json, data)

    @given(data=_mutations(_FRONT.to_json()))
    @settings(max_examples=150, deadline=None)
    def test_pareto_front(self, data):
        _parses_or_names_the_error(ParetoFront.from_json, data)

    @pytest.mark.parametrize("field", [
        "energy", "head_latency", "serialization_latency", "total_latency",
        "wall_time_s", "express_links", "placement_rows", "latency_curve",
        "restart_energies", "n", "method", "link_limit", "evaluations",
        "flit_bits",
    ])
    @pytest.mark.parametrize("value", [None, "x", 1.5, [], {}, -1, True],
                             ids=["None", "x", "1.5", "list", "dict", "-1",
                                  "True"])
    def test_placement_result_field_is_named(self, field, value):
        data = dict(_PLACEMENT.to_json(), **{field: value})
        # Sweep-only latencies and the flit width may be null; the three
        # lists may be empty.
        valid = (value is None and (field.endswith("latency")
                                    or field == "flit_bits")) or (
            value == [] and field in ("express_links", "latency_curve",
                                      "restart_energies"))
        if valid:
            PlacementResult.from_json(data)
            return
        with pytest.raises(ConfigurationError) as exc:
            PlacementResult.from_json(data)
        assert repr(field) in str(exc.value)

    @pytest.mark.parametrize("field,value", [
        ("n", _PLACEMENT.n + 5),
        ("n", 2),
        ("method", "annealing"),
        ("link_limit", 0),
        ("flit_bits", 0),
        ("latency_curve", [[0, "0x1p+0"]]),
        ("latency_curve", [[True, "0x1p+0"]]),
        ("restart_energies", [["2", ["0x1p+0"]]]),
        ("restart_energies", [[1.0, ["0x1p+0"]]]),
    ])
    def test_placement_result_scalar_is_checked(self, field, value):
        """Well-typed JSON that no search could have written: a size
        other than the placement's, an unknown method, non-positive
        limits and counts, a pair whose ``C`` is not a limit."""
        data = dict(_PLACEMENT.to_json(), **{field: value})
        with pytest.raises(ConfigurationError) as exc:
            PlacementResult.from_json(data)
        assert repr(field) in str(exc.value)

    @pytest.mark.parametrize("field", ["n", "link_limit", "flit_bits"])
    @pytest.mark.parametrize("value", [None, "x", 1.5, {}, 0, True],
                             ids=["None", "x", "1.5", "dict", "0", "True"])
    def test_eval_result_field_is_named(self, field, value):
        data = dict(_EVAL.to_json(), **{field: value})
        # Without a link limit there is no flit width: both may be null.
        if value is None and field != "n":
            EvalResult.from_json(data)
            return
        with pytest.raises(ConfigurationError) as exc:
            EvalResult.from_json(data)
        assert repr(field) in str(exc.value)

    @pytest.mark.parametrize("field,changes", [
        ("n", {"n": 8.5}),
        ("n", {"n": "8"}),
        ("n", {"n": 1}),
        ("method", {"method": "banana"}),
        ("evaluations", {"evaluations": -5}),
        ("link_limit", {"link_limit": 0}),
        ("objectives", {"objectives": ["latency", "latency"]}),
        ("objectives", {"objectives": []}),
        ("driver", {"driver": "weighted-sum"}),
        ("seed", {"seed": "1"}),
        # Two values per point on a one-axis front.
        ("points", {"objectives": ["latency"]}),
        # Points of 6 routers on a front that says n=8.
        ("points", {"n": 8}),
    ])
    def test_pareto_front_field_is_named(self, field, changes):
        """Well-typed JSON no front search could have written is refused
        with the field named, as are the mistyped scalars."""
        with pytest.raises(ConfigurationError) as exc:
            ParetoFront.from_json(dict(_FRONT.to_json(), **changes))
        assert repr(field) in str(exc.value)

    @pytest.mark.parametrize("field,value", [
        ("trace_out", 5), ("trace_out", ["t.jsonl"]), ("ledger", 3.5),
        ("ledger", True), ("profile", "yes"), ("profile", 1),
        ("profile", None),
    ])
    def test_search_config_observability_field_is_named(self, field, value):
        # The CLI's trace, ledger and profile flags are no config
        # fields: a document naming one is refused, the name quoted.
        with pytest.raises(ConfigurationError,
                           match=rf"^unknown SearchConfig field\(s\) \['{field}'\]"):
            SearchConfig.from_json({field: value})

    def test_search_config_objectives_is_named(self):
        with pytest.raises(ConfigurationError, match="objectives"):
            SearchConfig.from_json({"objectives": 1})


@pytest.fixture
def stubbed_app(tmp_path, monkeypatch):
    """A server whose search, campaign and pricing work is canned."""
    import repro.serve.batcher as batcher
    import repro.serve.server as server

    monkeypatch.setattr(server, "optimize", lambda *a, **k: _PLACEMENT)
    monkeypatch.setattr(server, "_run_campaign_grid",
                        lambda spec: {"runs": 0, "results": [],
                                      "result_digest": "0"})
    monkeypatch.setattr(batcher, "_price_batch",
                        lambda batch: [_EVAL for _ in batch])
    app = ServeApp(DesignStore(str(tmp_path / "designs")), capacity=4,
                   default_effort="smoke")
    yield app
    app.executor.shutdown(wait=True)


def _bodies(fields):
    """Request bodies over ``fields``: ``n`` (mostly a valid size, so
    the other fields' checks are reached) and any subset of the rest,
    each with any value."""
    return st.fixed_dictionaries(
        {"n": st.integers(2, 8) | field_values},
        optional={name: field_values for name in fields if name != "n"},
    )


PLACE_FIELDS = ["n", "method", "effort", "config", "link_limits",
                "deadline_s"]
EVALUATE_FIELDS = ["n", "express_links", "placement_row", "link_limit",
                   "weights", "deadline_s"]
CAMPAIGN_FIELDS = ["n", "schemes", "patterns", "rates", "seeds", "warmup",
                   "measure", "effort", "seed", "jobs", "deadline_s"]


#: One app serves every example of a test (validation keeps no state).
SERVED = settings(max_examples=120, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


def _status(app, path, body):
    """The response status; 504 is a (tiny) deadline honoured, not an
    input failure -- the contract is that nothing answers 500."""
    payload = json.dumps(body).encode()
    status, _, data, _ = asyncio.run(app.handle("POST", path, payload))
    assert status in (200, 400, 504), json.loads(data)
    return status


class TestPostBodies:
    @given(body=_bodies(PLACE_FIELDS))
    @SERVED
    def test_place(self, stubbed_app, body):
        _status(stubbed_app, "/place", body)

    @given(body=_bodies(EVALUATE_FIELDS))
    @SERVED
    def test_evaluate(self, stubbed_app, body):
        _status(stubbed_app, "/evaluate", body)

    @given(body=_bodies(CAMPAIGN_FIELDS))
    @SERVED
    def test_campaign(self, stubbed_app, body):
        _status(stubbed_app, "/campaign", body)

    @given(config=_mutations(SearchConfig(seed=3).to_json()))
    @SERVED
    def test_place_config(self, stubbed_app, config):
        _status(stubbed_app, "/place", {"n": 4, "config": config})
