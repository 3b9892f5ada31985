"""repro: Express Link Placement for NoC-Based Many-Core Platforms.

A complete reproduction of Li, Zhu and Chen (ICPP 2019): the express
link placement optimizer (divide-and-conquer seeded simulated annealing
over a connection-matrix search space), the mesh/HFB baselines, a
cycle-accurate wormhole NoC simulator, synthetic and PARSEC-style
traffic models, a DSENT-style power/area model, and drivers that
regenerate every figure and table of the paper's evaluation.

Quickstart::

    from repro import SearchConfig, place_express_links, MeshTopology

    result = place_express_links(8, config=SearchConfig(seed=2019))
    print(result.link_limit, result.total_latency, result.express_links)
    topology = MeshTopology.uniform(result.placement)

The lower-level entry points remain available (``optimize`` for the raw
sweep, ``solve_row_problem`` for one ``P~(n, C)`` instance); their
execution knobs also travel in a ``SearchConfig`` -- see ``docs/api.md``.
"""

from repro.api import (
    EvalResult,
    PlacementResult,
    SearchConfig,
    evaluate_placement,
    place_express_links,
)
from repro.core import (
    AnnealingParams,
    BandwidthConfig,
    ConnectionMatrix,
    DesignPoint,
    PacketMix,
    RowObjective,
    SweepResult,
    anneal,
    design_point,
    exhaustive_matrix_search,
    initial_solution,
    network_average_latency,
    network_worst_case_latency,
    optimize,
    optimize_application_aware,
    optimize_rectangular,
    best_rectangular,
    naive_anneal,
    solve_row_problem,
    ParetoFront,
    ParetoPoint,
    hypervolume,
    pareto_front,
    pareto_sweep,
)
from repro.routing import HopCostModel, RoutingTables, compute_route, is_deadlock_free
from repro.sim import (
    CampaignResult,
    SimConfig,
    SimJob,
    Simulator,
    TrafficSpec,
    campaign_grid,
    run_campaign,
)
from repro.topology import (
    MeshTopology,
    RowPlacement,
    flattened_butterfly,
    hybrid_flattened_butterfly,
)
from repro.traffic import (
    MatrixTraffic,
    SyntheticTraffic,
    make_pattern,
    parsec_traffic,
)
from repro.power import power_report, router_static_power
from repro.analysis import channel_loads

__version__ = "1.0.0"

__all__ = [
    "EvalResult",
    "PlacementResult",
    "SearchConfig",
    "evaluate_placement",
    "place_express_links",
    "AnnealingParams",
    "BandwidthConfig",
    "ConnectionMatrix",
    "DesignPoint",
    "PacketMix",
    "RowObjective",
    "SweepResult",
    "anneal",
    "design_point",
    "exhaustive_matrix_search",
    "initial_solution",
    "network_average_latency",
    "network_worst_case_latency",
    "optimize",
    "optimize_application_aware",
    "optimize_rectangular",
    "best_rectangular",
    "naive_anneal",
    "solve_row_problem",
    "ParetoFront",
    "ParetoPoint",
    "hypervolume",
    "pareto_front",
    "pareto_sweep",
    "HopCostModel",
    "RoutingTables",
    "compute_route",
    "is_deadlock_free",
    "SimConfig",
    "Simulator",
    "CampaignResult",
    "SimJob",
    "TrafficSpec",
    "campaign_grid",
    "run_campaign",
    "MeshTopology",
    "RowPlacement",
    "flattened_butterfly",
    "hybrid_flattened_butterfly",
    "MatrixTraffic",
    "SyntheticTraffic",
    "make_pattern",
    "parsec_traffic",
    "power_report",
    "router_static_power",
    "channel_loads",
    "__version__",
]
