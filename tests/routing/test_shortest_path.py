"""Directional Floyd-Warshall vs networkx ground truth."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from repro.routing.shortest_path import (
    HopCostModel,
    directional_paths,
    floyd_warshall_batch,
    weight_stack,
)
from repro.topology.row import RowPlacement

from tests.conftest import row_placements


def nx_directional_distance(placement, cost, src, dst):
    """Ground truth with networkx Dijkstra on the directed row graph."""
    g = nx.DiGraph()
    g.add_nodes_from(range(placement.n))
    for i, j in placement.all_links():
        w = cost.hop_cost(j - i)
        if dst > src:
            g.add_edge(i, j, weight=w)
        else:
            g.add_edge(j, i, weight=w)
    return nx.shortest_path_length(g, src, dst, weight="weight")


class TestHopCostModel:
    def test_default_values(self):
        cost = HopCostModel()
        assert cost.hop_cost(1) == 4.0
        assert cost.hop_cost(5) == 8.0

    def test_contention_included(self):
        cost = HopCostModel(contention_delay=0.5)
        assert cost.hop_cost(1) == 4.5


class TestWeightMatrix:
    def test_mesh_l2r(self):
        w = weight_stack(RowPlacement.mesh(4), HopCostModel())[0]
        assert w[0, 1] == 4.0
        assert np.isinf(w[1, 0])
        assert w[0, 0] == 0.0

    def test_express_weight(self):
        p = RowPlacement(6, frozenset({(0, 4)}))
        w = weight_stack(p, HopCostModel())[0]
        assert w[0, 4] == 3 + 4  # Tr + 4 units

    def test_r2l_mirrors(self):
        p = RowPlacement(6, frozenset({(0, 4)}))
        w = weight_stack(p, HopCostModel())[1]
        assert w[4, 0] == 7.0
        assert np.isinf(w[0, 4])


class TestFloydWarshall:
    """One directional graph through the batched kernel, as ``w[None]``."""

    def test_simple_chain(self):
        w = weight_stack(RowPlacement.mesh(5), HopCostModel())[0]
        (dist,), (nxt,) = floyd_warshall_batch(w[None])
        assert dist[0, 4] == 16.0  # 4 hops x 4 cycles
        assert nxt[0, 4] == 1

    def test_express_shortcut_used(self):
        p = RowPlacement(8, frozenset({(0, 6)}))
        w = weight_stack(p, HopCostModel())[0]
        (dist,), (nxt,) = floyd_warshall_batch(w[None])
        assert dist[0, 6] == 9.0  # one hop of length 6
        assert nxt[0, 6] == 6
        assert dist[0, 7] == 13.0  # express then local

    def test_unreachable_marked(self):
        w = weight_stack(RowPlacement.mesh(3), HopCostModel())[0]
        (dist,), (nxt,) = floyd_warshall_batch(w[None])
        assert np.isinf(dist[2, 0])
        assert nxt[2, 0] == -1


class TestDirectionalPaths:
    def test_all_pairs_finite(self):
        dist, _ = directional_paths(RowPlacement.mesh(6))
        assert np.isfinite(dist).all()

    def test_diagonal_zero(self):
        dist, nxt = directional_paths(RowPlacement.mesh(6))
        assert (np.diag(dist) == 0).all()
        assert (np.diag(nxt) == np.arange(6)).all()

    def test_no_u_turn_even_when_beneficial(self):
        # Express (0,4): reaching router 3 from 0 must NOT go 0->4->3;
        # monotone routing forces 0->1->2->3 (12 cycles), not 7+4.
        p = RowPlacement(6, frozenset({(0, 4)}))
        dist, _ = directional_paths(p)
        assert dist[0, 3] == 12.0

    def test_asymmetric_placement_directions_differ(self):
        p = RowPlacement(6, frozenset({(0, 5)}))
        dist, _ = directional_paths(p)
        # Both directions have the bidirectional link available.
        assert dist[0, 5] == dist[5, 0] == 8.0


@settings(max_examples=40, deadline=None)
@given(row_placements(max_n=8))
def test_fw_matches_networkx(p):
    cost = HopCostModel()
    dist, _ = directional_paths(p, cost)
    for src in range(p.n):
        for dst in range(p.n):
            if src == dst:
                continue
            expected = nx_directional_distance(p, cost, src, dst)
            assert dist[src, dst] == pytest.approx(expected)


@settings(max_examples=40, deadline=None)
@given(row_placements(max_n=8))
def test_next_hop_walk_reaches_destination_at_cost(p):
    cost = HopCostModel()
    dist, nxt = directional_paths(p, cost)
    for src in range(p.n):
        for dst in range(p.n):
            v, total, steps = src, 0.0, 0
            while v != dst:
                w = int(nxt[v, dst])
                total += cost.hop_cost(abs(w - v))
                v = w
                steps += 1
                assert steps <= p.n
            assert total == pytest.approx(dist[src, dst])


@settings(max_examples=40, deadline=None)
@given(row_placements(max_n=10))
def test_fast_distance_path_matches_full(p):
    """The SA hot path (distance-only FW) equals the table-building FW."""
    from repro.routing.shortest_path import directional_distances

    full, _ = directional_paths(p)
    fast = directional_distances(p)
    assert (full == fast).all()


@settings(max_examples=40, deadline=None)
@given(row_placements(max_n=8))
def test_adding_links_never_hurts(p):
    base, _ = directional_paths(RowPlacement.mesh(p.n))
    with_links, _ = directional_paths(p)
    assert (with_links <= base + 1e-9).all()
