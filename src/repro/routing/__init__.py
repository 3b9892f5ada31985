"""Routing substrate: directional shortest paths, tables, DOR, deadlock checks."""

from repro.routing.shortest_path import (
    HopCostModel,
    directional_distances,
    directional_paths,
)
from repro.routing.incremental import IncrementalApspEngine
from repro.routing.tables import RoutingTables
from repro.routing.dor import (
    compute_route,
    route_head_latency,
    route_hops,
    turning_point,
)
from repro.routing.deadlock import (
    channel_dependency_graph,
    check_no_u_turns,
    find_dependency_cycle,
    is_deadlock_free,
)

__all__ = [
    "HopCostModel",
    "directional_distances",
    "directional_paths",
    "IncrementalApspEngine",
    "RoutingTables",
    "compute_route",
    "route_head_latency",
    "route_hops",
    "turning_point",
    "channel_dependency_graph",
    "check_no_u_turns",
    "find_dependency_cycle",
    "is_deadlock_free",
]
