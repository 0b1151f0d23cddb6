"""Refresh policies for the eDRAM cache.

Three policies are modeled:
  * refresh_all     -- every line, valid or not, at each retention boundary
  * rpv_refresh     -- retention period split into k phases; a valid line is
                       refreshed at the boundary of the phase in which it was
                       last touched (a touch recharges the cell, so the next
                       refresh is due one full period later at that boundary)
  * valid_only      -- only valid lines, at each retention boundary

Counts come from incrementally maintained per-bank (and per-bank-per-phase)
valid counters, so an event costs O(banks), not O(lines).
"""

import math
from dataclasses import dataclass

from .cache import CacheState, PhaseClock


class RefreshConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RefreshConfig:
    retention_period_us: float
    clock_ghz: float
    phases: int = 1

    def __post_init__(self):
        if self.retention_period_us <= 0 or self.clock_ghz <= 0:
            raise RefreshConfigError("retention period and clock must be > 0")
        if self.phases < 1:
            raise RefreshConfigError("phases must be >= 1")
        cycles = self.retention_period_us * self.clock_ghz * 1000.0
        if not math.isfinite(cycles):
            raise RefreshConfigError(
                f"retention_cycles must be finite, got {cycles}")
        if abs(cycles - round(cycles)) > 1e-6:
            raise RefreshConfigError(
                f"retention period must be a whole number of cycles, got {cycles}")
        if round(cycles) <= 0:
            raise RefreshConfigError("retention_cycles must be > 0")
        if round(cycles) % self.phases:
            raise RefreshConfigError(
                f"retention_cycles {round(cycles)} not divisible by {self.phases} phases")

    @property
    def retention_cycles(self) -> int:
        return round(self.retention_period_us * self.clock_ghz * 1000.0)

    @property
    def phase_cycles(self) -> int:
        return self.retention_cycles // self.phases

    def phase_clock(self) -> PhaseClock:
        return PhaseClock(cycles_per_phase=self.phase_cycles, phases=self.phases)


@dataclass
class RefreshEvent:
    at_cycle: int
    lines_refreshed: int
    per_bank_lines: list[int]


def refresh_all(state: CacheState, config: RefreshConfig,
                at_cycle: int) -> RefreshEvent:
    """Baseline policy: refresh every line of every color, valid or not."""
    g = state.geometry
    per_bank = [g.total_lines // g.num_banks] * g.num_banks
    return RefreshEvent(at_cycle, g.total_lines, per_bank)


def rpv_refresh(state: CacheState, config: RefreshConfig, phase_index: int,
                at_cycle: int) -> RefreshEvent:
    """Polyphase-valid: refresh valid lines last touched in this phase."""
    if state.phase_clock is None or state.phase_clock.phases != config.phases:
        raise RefreshConfigError("cache state has no matching phase clock")
    if not 0 <= phase_index < config.phases:
        raise RefreshConfigError(f"phase_index {phase_index} out of range")
    per_bank = [bank[phase_index] for bank in state.valid_by_bank_phase]
    return RefreshEvent(at_cycle, sum(per_bank), per_bank)


def valid_only_refresh(state: CacheState, config: RefreshConfig,
                       at_cycle: int) -> RefreshEvent:
    """Refresh exactly the valid lines (all live in active colors)."""
    return RefreshEvent(at_cycle, state.n_valid, list(state.valid_by_bank))
