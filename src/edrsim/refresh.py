"""Refresh timing of the eDRAM cache.

`RefreshConfig` holds the retention period in core cycles and, for polyphase
refresh, the number of phases it is split into. A config file gives the
period in microseconds; `config` converts it once with the run's clock.
`sim.run` counts the lines each refresh event covers, per bank:
  * baseline (refresh-all) -- every line, valid or not, at each retention
                              boundary
  * RPV (polyphase valid)  -- the valid lines last touched in the phase whose
                              boundary is due (a touch recharges the cell,
                              so its next refresh is one full period later)
  * DCR (valid-only)       -- the valid lines, at each retention boundary
"""

from dataclasses import dataclass


class RefreshConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RefreshConfig:
    retention_cycles: int
    phases: int = 1

    def __post_init__(self):
        # the compiled timing pass holds it in an int64
        if not 0 < self.retention_cycles < 1 << 63:
            raise RefreshConfigError(f"retention_cycles must be > 0 and below "
                                     f"2**63, got {self.retention_cycles}")
        if self.phases < 1:
            raise RefreshConfigError("phases must be >= 1")
        if self.retention_cycles % self.phases:
            raise RefreshConfigError(
                f"retention_cycles {self.retention_cycles} not divisible by "
                f"{self.phases} phases")

    @property
    def phase_cycles(self) -> int:
        return self.retention_cycles // self.phases
