"""Traffic generators implementing the simulator's injection protocol.

A generator's ``packets_for_cycle(cycle)`` yields ``(src, dst,
size_bits)`` triples.  Injection processes are per-node Bernoulli
(geometric inter-arrival) at a configurable packets/node/cycle rate,
the standard open-loop model for NoC evaluation.

Generators additionally implement ``next_packet_cycle(cycle)``: the
earliest cycle ``>= cycle`` at which the generator could possibly emit
a packet, or ``None`` if it never will again.  The simulator uses
it to fast-forward over quiescent stretches.  The contract is
conservative and RNG-preserving: for any cycle ``c`` with
``next_packet_cycle(c) > c`` (or ``None``), calling
``packets_for_cycle`` on the skipped cycles would have yielded nothing
*and* consumed no RNG draws -- so skipping them leaves every stream
byte-identical.  Bernoulli generators draw RNG every active cycle and
therefore report ``cycle`` itself until ``stop_cycle``, after which
their early-return path (which precedes any draw) makes skipping safe.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.latency import PacketMix
from repro.traffic.packets import PacketSizeSampler
from repro.traffic.patterns import Pattern
from repro.util.errors import ConfigurationError
from repro.util.rngtools import ensure_rng

Injection = Tuple[int, int, int]


class SyntheticTraffic:
    """Bernoulli injection with a synthetic destination pattern."""

    def __init__(
        self,
        pattern: Pattern,
        rate: float,
        mix: PacketMix | None = None,
        rng=None,
        stop_cycle: Optional[int] = None,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"rate must be in [0, 1], got {rate}")
        self.pattern = pattern
        self.rate = rate
        self.sampler = PacketSizeSampler(mix)
        self.rng = ensure_rng(rng)
        self.stop_cycle = stop_cycle
        self.num_nodes = pattern.num_nodes

    def packets_for_cycle(self, cycle: int) -> Iterator[Injection]:
        if self.stop_cycle is not None and cycle >= self.stop_cycle:
            return
        fires = np.flatnonzero(self.rng.random(self.num_nodes) < self.rate)
        for src in fires:
            dst = self.pattern(int(src), self.rng)
            if dst is None:
                continue
            yield int(src), int(dst), self.sampler.sample(self.rng)

    def next_packet_cycle(self, cycle: int) -> Optional[int]:
        """Bernoulli draws every active cycle, so no skipping before
        ``stop_cycle``; afterwards the generator is silent forever."""
        if self.stop_cycle is not None and cycle >= self.stop_cycle:
            return None
        return cycle


class MatrixTraffic:
    """Injection driven by an explicit traffic-rate matrix ``gamma``.

    ``gamma[i, j]`` is proportional to the packet rate from ``i`` to
    ``j``; ``aggregate_rate`` rescales the whole matrix so that the
    network-wide injection rate is ``aggregate_rate`` packets/cycle.
    This is the generator behind the PARSEC workload models and the
    application-aware experiments (Section 5.6.4).
    """

    def __init__(
        self,
        gamma: np.ndarray,
        aggregate_rate: float,
        mix: PacketMix | None = None,
        rng=None,
        stop_cycle: Optional[int] = None,
    ):
        g = np.asarray(gamma, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ConfigurationError("gamma must be square")
        if (g < 0).any():
            raise ConfigurationError("gamma must be nonnegative")
        g = g.copy()
        np.fill_diagonal(g, 0.0)
        if g.sum() <= 0:
            raise ConfigurationError("gamma must contain off-diagonal traffic")
        self.gamma = g / g.sum()
        self.num_nodes = g.shape[0]
        row = self.gamma.sum(axis=1)
        self.node_rates = aggregate_rate * row
        if (self.node_rates > 1.0).any():
            raise ConfigurationError("per-node injection rate exceeds 1 packet/cycle")
        # Conditional destination CDF per source (uniform rows for
        # sources with no traffic never fire, CDF content irrelevant).
        cond = np.where(row[:, None] > 0, self.gamma / np.maximum(row[:, None], 1e-300), 0)
        self._cdf = np.cumsum(cond, axis=1)
        self.sampler = PacketSizeSampler(mix)
        self.rng = ensure_rng(rng)
        self.stop_cycle = stop_cycle

    def packets_for_cycle(self, cycle: int) -> Iterator[Injection]:
        if self.stop_cycle is not None and cycle >= self.stop_cycle:
            return
        fires = np.flatnonzero(self.rng.random(self.num_nodes) < self.node_rates)
        for src in fires:
            dst = int(np.searchsorted(self._cdf[src], self.rng.random(), side="right"))
            dst = min(dst, self.num_nodes - 1)
            if dst == src:
                continue
            yield int(src), dst, self.sampler.sample(self.rng)

    def next_packet_cycle(self, cycle: int) -> Optional[int]:
        if self.stop_cycle is not None and cycle >= self.stop_cycle:
            return None
        return cycle


class TraceTraffic:
    """Replay an explicit list of ``(cycle, src, dst, size_bits)`` events.

    Deterministic; used by unit tests and for record/replay studies.
    """

    def __init__(self, events: Iterable[Tuple[int, int, int, int]]):
        self._by_cycle: dict = {}
        count = 0
        for cycle, src, dst, size in events:
            self._by_cycle.setdefault(int(cycle), []).append((int(src), int(dst), int(size)))
            count += 1
        self.num_events = count
        self._cycles = sorted(self._by_cycle)

    def packets_for_cycle(self, cycle: int) -> List[Injection]:
        return self._by_cycle.get(cycle, [])

    def next_packet_cycle(self, cycle: int) -> Optional[int]:
        """First trace cycle ``>= cycle`` -- traces skip maximally."""
        i = bisect.bisect_left(self._cycles, cycle)
        return self._cycles[i] if i < len(self._cycles) else None


class CombinedTraffic:
    """Superpose several generators (e.g. base load + hotspot bursts)."""

    def __init__(self, generators: Sequence):
        self.generators = list(generators)

    def packets_for_cycle(self, cycle: int) -> Iterator[Injection]:
        for gen in self.generators:
            yield from gen.packets_for_cycle(cycle)

    def next_packet_cycle(self, cycle: int) -> Optional[int]:
        """Earliest next cycle across members (None only if all done).

        Members without ``next_packet_cycle`` are assumed live every
        cycle -- the conservative answer.
        """
        best: Optional[int] = None
        for gen in self.generators:
            probe = getattr(gen, "next_packet_cycle", None)
            if probe is None:
                return cycle
            nxt = probe(cycle)
            if nxt is None:
                continue
            if best is None or nxt < best:
                best = nxt
        return best
