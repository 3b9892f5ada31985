"""Simulator configuration (Section 5.1 methodology).

The paper assumes a canonical 3-stage credit-based wormhole router: one
cycle for buffer write + route computation, one for virtual-channel and
switch allocation, one for switch traversal; link traversal then takes
one cycle per unit of Manhattan length (express links are repeater
segmented, pipelined at full rate).  A flit therefore spends
``Tr + len * Tl = 3 + len`` cycles per hop at zero load, matching the
analytical model of Eq. 1 exactly.

Buffer capacity is normalized across schemes (Section 4.6): every
scheme gets the same *total* buffer bits per router, so high-radix
express routers get shallower per-VC buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one simulation run.

    Parameters
    ----------
    flit_bits:
        Link width ``b``; packets of ``S`` bits become
        ``ceil(S / b)`` flits.
    vcs_per_port:
        Virtual channels per input port (the paper cites multiple VCs
        per link as the reason contention stays low).
    vc_depth_flits:
        Buffer depth per VC in flits, before normalization.
    normalize_buffer_bits:
        If set (the default), per-VC depth is rescaled so every router
        holds the same total buffer bits as a 5-port mesh router with
        ``vc_depth_flits`` deep 256-bit VCs -- the paper's equal-buffer
        comparison rule.  Depth never drops below 2 flits (needed to
        cover the credit loop at reasonable rates).
    router_stages:
        Pipeline depth ``Tr`` in cycles.
    max_cycles:
        Hard stop for the cycle loop.
    warmup_cycles / measure_cycles:
        Packets created inside the measurement window are the only ones
        that contribute to statistics; the run continues (up to
        ``max_cycles``) until all of them drain.  ``max_cycles`` may cut
        the window short (budget-capped runs); statistics then normalize
        by the cycles actually overlapping the window, not the nominal
        ``measure_cycles``.
    watchdog_cycles:
        Abort with :class:`SimulationError` if no flit moves for this
        many consecutive cycles while the network is non-empty -- a
        deadlock or a simulator bug, never expected.
    """

    flit_bits: int = 256
    vcs_per_port: int = 4
    #: Dimension-order routing mode: "xy" (the paper's choice), "yx",
    #: or "o1turn" (each packet randomly picks XY or YX; the VCs are
    #: split into two classes, one per order, preserving deadlock
    #: freedom).  O1TURN quantifies the paper's Section 4.2 remark that
    #: routing-algorithm choice barely matters at realistic loads.
    routing_mode: str = "xy"
    vc_depth_flits: int = 4
    normalize_buffer_bits: bool = True
    reference_ports: int = 5
    reference_flit_bits: int = 256
    router_stages: int = 3
    max_cycles: int = 100_000
    warmup_cycles: int = 1_000
    measure_cycles: int = 5_000
    watchdog_cycles: int = 10_000
    seed: int = 1

    def __post_init__(self) -> None:
        if self.flit_bits <= 0:
            raise ConfigurationError("flit_bits must be positive")
        if self.vcs_per_port <= 0:
            raise ConfigurationError("vcs_per_port must be positive")
        if self.vc_depth_flits < 2:
            raise ConfigurationError("vc_depth_flits must be >= 2")
        if self.router_stages < 1:
            raise ConfigurationError("router_stages must be >= 1")
        if self.warmup_cycles < 0:
            raise ConfigurationError("warmup_cycles must be >= 0")
        if self.measure_cycles <= 0:
            raise ConfigurationError("measure_cycles must be positive")
        if self.max_cycles <= self.warmup_cycles:
            raise ConfigurationError("max_cycles must exceed warmup_cycles")
        if self.routing_mode not in ("xy", "yx", "o1turn"):
            raise ConfigurationError(
                f"routing_mode must be xy/yx/o1turn, got {self.routing_mode!r}"
            )
        if self.routing_mode == "o1turn" and self.vcs_per_port < 2:
            raise ConfigurationError("o1turn needs at least 2 VCs per port")

    def total_buffer_bits(self) -> int:
        """The equal-buffer budget every router receives."""
        return (
            self.reference_ports
            * self.vcs_per_port
            * self.vc_depth_flits
            * self.reference_flit_bits
        )

    def vc_depth_for_radix(self, radix: int) -> int:
        """Per-VC depth (flits) for a router with ``radix`` network ports.

        ``radix`` excludes the local NI port, which is added here.
        Without normalization this is just ``vc_depth_flits``.
        """
        if not self.normalize_buffer_bits:
            return self.vc_depth_flits
        ports = radix + 1  # + local injection port
        depth = self.total_buffer_bits() // (ports * self.vcs_per_port * self.flit_bits)
        return max(2, int(depth))
