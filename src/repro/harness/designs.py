"""Reference design points: Mesh, HFB, OnlySA, D&C_SA.

Central place where the comparison schemes of Section 5 are
instantiated, so every experiment uses identical placements.  Solved
placements are cached per (n, method, seed, effort) within the process
-- the optimizer is deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

from repro.core.annealing import AnnealingParams
from repro.core.latency import BandwidthConfig, PacketMix
from repro.api import SearchConfig
from repro.core.optimizer import DesignPoint, SweepResult, design_point, optimize
from repro.routing.shortest_path import HopCostModel
from repro.topology.flattened_butterfly import (
    hybrid_flattened_butterfly_row,
    required_link_limit,
)
from repro.topology.mesh import MeshTopology
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError

#: Scheme labels in paper order.
SCHEMES = ("Mesh", "HFB", "OnlySA", "D&C_SA")

#: Annealing efforts: "paper" is Table 1; "quick" for fast CI runs.
EFFORTS: Dict[str, AnnealingParams] = {
    "paper": AnnealingParams(),
    "quick": AnnealingParams(total_moves=1_500, moves_per_cooldown=300),
    "smoke": AnnealingParams(total_moves=200, moves_per_cooldown=50),
}


@dataclass(frozen=True)
class SchemeDesign:
    """A named comparison scheme with its topology and flit width."""

    name: str
    point: DesignPoint

    @property
    def topology(self) -> MeshTopology:
        return MeshTopology.uniform(self.point.placement)


def mesh_design(n: int, bandwidth: BandwidthConfig | None = None) -> SchemeDesign:
    """The mesh baseline: C = 1, full-width flits."""
    bw = bandwidth or BandwidthConfig()
    return SchemeDesign("Mesh", design_point(RowPlacement.mesh(n), 1, bw))


def hfb_design(n: int, bandwidth: BandwidthConfig | None = None) -> SchemeDesign:
    """The hybrid flattened butterfly at the link limit it requires."""
    bw = bandwidth or BandwidthConfig()
    row = hybrid_flattened_butterfly_row(n)
    return SchemeDesign("HFB", design_point(row, required_link_limit(row), bw))


@lru_cache(maxsize=None)
def _sweep(n: int, method: str, seed: int, effort: str, base_flit: int) -> SweepResult:
    return optimize(
        n,
        method=method,
        bandwidth=BandwidthConfig(base_flit_bits=base_flit),
        mix=PacketMix.paper_default(),
        cost=HopCostModel(),
        params=EFFORTS[effort],
        config=SearchConfig(seed=seed),
    ).sweep


def optimized_sweep(
    n: int,
    method: str = "dc_sa",
    seed: int = 2019,
    effort: str = "paper",
    base_flit_bits: int = 256,
) -> SweepResult:
    """The full C-sweep for one method (cached)."""
    return _sweep(n, method, seed, effort, base_flit_bits)


def dc_sa_design(
    n: int,
    seed: int = 2019,
    effort: str = "paper",
    base_flit_bits: int = 256,
) -> SchemeDesign:
    """The paper's proposal: best design point over the C sweep."""
    return SchemeDesign("D&C_SA", optimized_sweep(n, "dc_sa", seed, effort, base_flit_bits).best)


def only_sa_design(
    n: int,
    seed: int = 2019,
    effort: str = "paper",
    base_flit_bits: int = 256,
) -> SchemeDesign:
    """The ablation: same annealing from a random initial matrix."""
    return SchemeDesign("OnlySA", optimized_sweep(n, "only_sa", seed, effort, base_flit_bits).best)


def reference_designs(
    n: int,
    seed: int = 2019,
    effort: str = "paper",
    include_only_sa: bool = False,
) -> Tuple[SchemeDesign, ...]:
    """Mesh, HFB and D&C_SA (plus optionally OnlySA) for one network size."""
    designs = [mesh_design(n), hfb_design(n), dc_sa_design(n, seed, effort)]
    if include_only_sa:
        designs.insert(2, only_sa_design(n, seed, effort))
    return tuple(designs)


#: The scheme names ``design_for`` builds: the CLI's ``--scheme`` /
#: ``--schemes`` choices and a ``/campaign`` request's ``schemes``.
SCHEME_NAMES = ("mesh", "hfb", "dc_sa")


def design_for(scheme: str, n: int, seed: int, effort: str) -> SchemeDesign:
    """The design a simulation of ``scheme`` at size ``n`` runs on."""
    if scheme not in SCHEME_NAMES:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; expected one of {', '.join(SCHEME_NAMES)}"
        )
    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    if scheme == "mesh":
        return mesh_design(n)
    if scheme == "hfb":
        return hfb_design(n)
    return dc_sa_design(n, seed=seed, effort=effort)
