"""Pure-Python reference Floyd-Warshall (the parity oracle).

This module re-implements the directional shortest-path computation of
:mod:`repro.routing.shortest_path` with nothing but Python lists and
floats.  It exists for one reason: the vectorized NumPy kernels on the
annealing hot path are *proven* against it by the parity suite in
``tests/routing/test_shortest_path_parity.py``, which demands
bit-identical distances **and** next-hop tables.

Bit-identity is achievable because both implementations

* relax intermediates ``k`` in the same ascending order,
* use the same strict ``<`` improvement test (ties keep the incumbent
  next hop), and
* perform the same IEEE-754 double additions -- row ``k`` and column
  ``k`` of the distance matrix cannot improve during iteration ``k``
  (``dist[k][k] == 0``), so in-place relaxation reads the same values
  the batched NumPy broadcast reads.

Keep this file boring and obviously correct; it is the specification.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.topology.row import RowPlacement

INF = float("inf")

Matrix = List[List[float]]
IntMatrix = List[List[int]]


def weight_matrix_py(placement: RowPlacement, cost, direction: str) -> Matrix:
    """Directional one-hop cost matrix as nested lists.

    The oracle of :func:`repro.routing.shortest_path.weight_stack`'s
    two slices: ``w[i][j]`` is the hop cost of a link usable from ``i``
    to ``j`` in ``direction`` (``"l2r"`` or ``"r2l"``), ``inf``
    otherwise, with a zero diagonal.
    """
    n = placement.n
    w = [[0.0 if i == j else INF for j in range(n)] for i in range(n)]
    for i, j in placement.all_links():  # i < j by construction
        c = cost.hop_cost(j - i)
        if direction == "l2r":
            w[i][j] = c
        elif direction == "r2l":
            w[j][i] = c
        else:
            raise ValueError(f"unknown direction {direction!r}")
    return w


def floyd_warshall_py(w: Matrix) -> Tuple[Matrix, IntMatrix]:
    """All-pairs shortest distances and next hops, triple loop.

    ``next_hop[i][j]`` is the first router after ``i`` on a shortest
    ``i -> j`` path (``-1`` when unreachable, ``j`` itself on the
    diagonal), exactly as the NumPy kernel defines it.
    """
    n = len(w)
    dist = [row[:] for row in w]
    next_hop = [[-1] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if dist[i][j] != INF:
                next_hop[i][j] = j
        next_hop[i][i] = i
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            di = dist[i]
            dik = di[k]
            if dik == INF:
                continue
            nik = next_hop[i][k]
            ni = next_hop[i]
            for j in range(n):
                via = dik + dk[j]
                if via < di[j]:
                    di[j] = via
                    ni[j] = nik
    return dist, next_hop


def floyd_warshall_distances_py(w: Matrix) -> Matrix:
    """Distance-only variant of :func:`floyd_warshall_py`."""
    n = len(w)
    dist = [row[:] for row in w]
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            di = dist[i]
            dik = di[k]
            if dik == INF:
                continue
            for j in range(n):
                via = dik + dk[j]
                if via < di[j]:
                    di[j] = via
    return dist


def directional_distances_py(placement: RowPlacement, cost) -> Matrix:
    """Reference for :func:`repro.routing.shortest_path.directional_distances`."""
    n = placement.n
    d_lr = floyd_warshall_distances_py(weight_matrix_py(placement, cost, "l2r"))
    d_rl = floyd_warshall_distances_py(weight_matrix_py(placement, cost, "r2l"))
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < j:
                out[i][j] = d_lr[i][j]
            elif i > j:
                out[i][j] = d_rl[i][j]
    return out


def directional_paths_py(
    placement: RowPlacement, cost
) -> Tuple[Matrix, IntMatrix]:
    """Reference for :func:`repro.routing.shortest_path.directional_paths`."""
    n = placement.n
    d_lr, nh_lr = floyd_warshall_py(weight_matrix_py(placement, cost, "l2r"))
    d_rl, nh_rl = floyd_warshall_py(weight_matrix_py(placement, cost, "r2l"))
    dist = [[0.0] * n for _ in range(n)]
    next_hop = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < j:
                dist[i][j] = d_lr[i][j]
                next_hop[i][j] = nh_lr[i][j]
            elif i > j:
                dist[i][j] = d_rl[i][j]
                next_hop[i][j] = nh_rl[i][j]
            else:
                next_hop[i][j] = i
    return dist, next_hop
