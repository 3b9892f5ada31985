"""ASCII visualization of placements and topologies.

Text renderings in the spirit of the paper's figures: the express-link
arc diagram of Figure 2(b), the connection-matrix dot diagram of
Figure 2(a) (via :class:`~repro.core.connection_matrix.
ConnectionMatrix.__str__`), a 2D radix map of the mesh, and per-pair
latency tables.  Everything renders to plain strings so it works in
logs, terminals, and doctests alike.
"""

from __future__ import annotations

from typing import List

from repro.routing.shortest_path import HopCostModel, directional_distances
from repro.topology.mesh import MeshTopology
from repro.topology.row import RowPlacement


def render_row(placement: RowPlacement) -> str:
    """Arc diagram of one row (Figure 2(b) style).

    Express links are drawn as horizontal spans above the router line,
    longest on top; local links are implicit in the router line.
    """
    n = placement.n
    cell = 4
    width = cell * (n - 1) + 3
    lines: List[str] = []
    for i, j in sorted(placement.express_links, key=lambda l: (l[1] - l[0], l)):
        row = [" "] * width
        a, b = cell * i + 1, cell * j + 1
        row[a] = row[b] = "+"
        for k in range(a + 1, b):
            row[k] = "-"
        lines.append("".join(row).rstrip())
    routers = "".join(f"[{i}]" + " " * (cell - 3) for i in range(n)).rstrip()
    return "\n".join(list(reversed(lines)) + [routers])


def render_cross_sections(placement: RowPlacement, limit: int | None = None) -> str:
    """Bar chart of cross-section link counts (the Eq. 3 constraint)."""
    counts = placement.cross_section_counts()
    peak = max(counts)
    lines = []
    for k, c in enumerate(counts):
        bar = "#" * c
        cap = f" / {limit}" if limit is not None else ""
        lines.append(f"  {k}-{k + 1}: {bar} ({c}{cap})")
    header = f"cross-section link counts (max {peak}):"
    return "\n".join([header, *lines])


def render_mesh_radix(topology: MeshTopology) -> str:
    """2D grid of router radixes (port counts without the NI)."""
    lines = []
    for y in range(topology.height):
        cells = []
        for x in range(topology.n):
            cells.append(f"{topology.radix(topology.node_id(x, y)):2d}")
        lines.append(" ".join(cells))
    return "\n".join(lines)


def render_latency_matrix(
    placement: RowPlacement,
    cost: HopCostModel | None = None,
) -> str:
    """All-pairs row head latencies as an aligned integer table."""
    dist = directional_distances(placement, cost)
    n = placement.n
    width = max(len(f"{dist.max():.0f}"), 2) + 1
    header = "      " + "".join(f"{j:>{width}}" for j in range(n))
    lines = [header]
    for i in range(n):
        cells = "".join(f"{dist[i, j]:>{width}.0f}" for j in range(n))
        lines.append(f"  {i:>2} |{cells}")
    return "\n".join(lines)


def render_degree_histogram(topology: MeshTopology) -> str:
    """Histogram of router radixes (the Section 4.6 port-count story)."""
    hist = topology.degree_histogram()
    lines = ["radix  routers"]
    for radix in sorted(hist):
        lines.append(f"{radix:>5}  {'#' * hist[radix]} ({hist[radix]})")
    lines.append(f"average radix: {topology.average_radix():.2f}")
    return "\n".join(lines)


def to_dot(topology: MeshTopology, include_locals: bool = True) -> str:
    """Graphviz DOT rendering of a topology.

    Routers become grid-positioned nodes; local links are thin edges,
    express links thick colored ones with their length as the label.
    Render with ``dot -Kneato -n -Tpng``.
    """
    lines = [
        "graph noc {",
        "  node [shape=box, fontsize=10, width=0.35, height=0.25];",
    ]
    for v in range(topology.num_nodes):
        x, y = topology.coords(v)
        lines.append(f'  n{v} [label="{v}", pos="{x},{-y}!"];')
    for a, b, _dim in topology.channels():
        length = topology.channel_length(a, b)
        if length <= 1:
            if include_locals:
                lines.append(f"  n{a} -- n{b} [color=gray];")
        else:
            lines.append(
                f'  n{a} -- n{b} [color=blue, penwidth=2, label="{length}"];'
            )
    lines.append("}")
    return "\n".join(lines)


def summarize_topology(topology: MeshTopology) -> str:
    """One-paragraph structural summary of a topology."""
    chans = topology.channels()
    express = [c for c in chans if topology.channel_length(c[0], c[1]) > 1]
    return (
        f"{topology.n}x{topology.height} mesh: {topology.num_nodes} routers, "
        f"{len(chans)} bidirectional channels ({len(express)} express), "
        f"max cross-section {topology.max_cross_section()}, "
        f"bisection {topology.bisection_links()} links, "
        f"average radix {topology.average_radix():.2f}"
    )
