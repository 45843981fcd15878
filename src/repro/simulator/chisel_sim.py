"""The Chisel architectural simulator (paper §5).

Wraps a functional ``ChiselLPM`` in the memory-system and pipeline models:
every simulated lookup performs the real (bit-exact) lookup *and* accounts
the memory traffic the hardware would generate — all sub-cells searched in
parallel (k Index segment reads + Filter + Bit-vector reads each), and one
off-chip Result Table read on a hit.  A run reports what the paper's
simulator reported: storage by table, access counts, lookup latency, the
sustainable search rate, and power at a given rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.chisel import ChiselLPM
from ..hardware.edram import E_FIXED_J, LOGIC_FRACTION
from .memory import MemoryBank, MemorySystem
from .pipeline import LookupPipeline, PipelineStage


@dataclass
class SimReport:
    """Everything one simulation run measured."""

    lookups: int
    hits: int
    cycle_time_ns: float
    latency_ns: float
    on_chip_mbits: float
    off_chip_mbits: float
    access_counts: Dict[str, int]
    dynamic_energy_joules: float
    leakage_watts: float

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def msps(self) -> float:
        """Sustainable search rate of the modelled pipeline."""
        return 1e3 / self.cycle_time_ns

    def energy_per_lookup_joules(self) -> float:
        if not self.lookups:
            return 0.0
        return self.dynamic_energy_joules / self.lookups + E_FIXED_J

    def power_watts(self, searches_per_second: float) -> float:
        """Total power at a given rate: dynamic + leakage + ~6% logic."""
        dynamic = searches_per_second * self.energy_per_lookup_joules()
        edram = dynamic + self.leakage_watts
        return edram * (1.0 + LOGIC_FRACTION)


class ChiselSimulator:
    """Instrumented execution of a built Chisel engine."""

    def __init__(self, engine: ChiselLPM):
        self.engine = engine
        self.memory = MemorySystem()
        self._subcell_banks: List[Tuple[object, List[MemoryBank],
                                        MemoryBank, MemoryBank]] = []
        for subcell in engine.subcells:
            segments = max(1, engine.config.num_hashes)
            segment_depth = max(1, subcell.index.total_slots // segments)
            index_banks = [
                self.memory.add(MemoryBank(
                    f"index/{subcell.base}", segment_depth,
                    subcell.index.value_bits,
                ))
                for _segment in range(segments)
            ]
            filter_bank = self.memory.add(MemoryBank(
                f"filter/{subcell.base}", subcell.capacity,
                max(1, subcell.base) + 1,
            ))
            bv_bank = self.memory.add(MemoryBank(
                f"bitvector/{subcell.base}", subcell.capacity,
                (1 << subcell.span) + subcell.pointer_bits,
            ))
            self._subcell_banks.append(
                (subcell, index_banks, filter_bank, bv_bank)
            )
        result_depth = sum(
            len(subcell.result.arena) for subcell in engine.subcells
        )
        self._result_bank = self.memory.add(MemoryBank(
            "result", max(1, result_depth), engine.config.next_hop_bits,
            on_chip=False,
        ))
        self.pipeline = self._build_pipeline()
        self._lookups = 0
        self._hits = 0

    def _build_pipeline(self) -> LookupPipeline:
        all_index = [b for _s, banks, _f, _bv in self._subcell_banks
                     for b in banks]
        all_filter = [f for _s, _b, f, _bv in self._subcell_banks]
        all_bv = [bv for _s, _b, _f, bv in self._subcell_banks]
        return LookupPipeline([
            PipelineStage("hash", (), logic_ns=0.8),
            PipelineStage("index", all_index),
            PipelineStage("filter+bitvector", all_filter + all_bv),
            PipelineStage("priority-encode", (), logic_ns=0.5),
            # Off-chip next-hop DRAM: 16-way bank interleaving sustains one
            # access per on-chip clock; the full access time still lands in
            # the lookup latency.
            PipelineStage("result", (self._result_bank,), interleave=16),
        ])

    # -- simulated lookups ---------------------------------------------------

    def lookup(self, key: int) -> Optional[int]:
        """Bit-exact lookup with hardware-accurate access accounting.

        Hardware searches every sub-cell in parallel on every lookup, so
        each sub-cell's Index segments, Filter and Bit-vector banks are
        all read exactly once regardless of where the match lands (§4.3.2).
        """
        for _subcell, index_banks, filter_bank, bv_bank in self._subcell_banks:
            for bank in index_banks:
                bank.read()
            filter_bank.read()
            bv_bank.read()
        next_hop = self.engine.lookup(key)
        self._lookups += 1
        if next_hop is not None:
            self._result_bank.read()
            self._hits += 1
        return next_hop

    def run(self, keys: Iterable[int]) -> SimReport:
        for key in keys:
            self.lookup(key)
        return self.report()

    def report(self) -> SimReport:
        return SimReport(
            lookups=self._lookups,
            hits=self._hits,
            cycle_time_ns=self.pipeline.cycle_time_ns(),
            latency_ns=self.pipeline.latency_ns(),
            on_chip_mbits=self.memory.on_chip_bits() / 1e6,
            off_chip_mbits=self.memory.off_chip_bits() / 1e6,
            access_counts=self.memory.access_counts(),
            dynamic_energy_joules=self.memory.dynamic_energy_joules(),
            leakage_watts=self.memory.leakage_watts(),
        )

    def reset(self) -> None:
        self.memory.reset_counters()
        self._lookups = 0
        self._hits = 0
