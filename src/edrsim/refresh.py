"""Refresh timing of the eDRAM cache.

`RefreshConfig` holds the retention period and, for polyphase refresh, the
number of phases it is split into. `sim.run` counts the lines each refresh
event covers, per bank:
  * baseline (refresh-all) -- every line, valid or not, at each retention
                              boundary
  * RPV (polyphase valid)  -- the valid lines last touched in the phase whose
                              boundary is due (a touch recharges the cell,
                              so its next refresh is one full period later)
  * DCR (valid-only)       -- the valid lines, at each retention boundary
"""

import math
from dataclasses import dataclass


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
