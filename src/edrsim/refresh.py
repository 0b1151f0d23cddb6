"""Refresh timing of the eDRAM cache.

`RefreshConfig` holds the retention period in core cycles and, for polyphase
refresh, the number of phases it is split into: 1 to 256, so that a byte
numbers a line slot's phase (RPV's `passes.Timer.slot_phase`). A config
file gives the period in microseconds; `config` converts it once with the
run's clock. The compiled record loop (lru.c's `edr_run` and `fire`) fires
a boundary every `phase_cycles` and counts the lines each covers, per bank:
  * baseline (refresh-all) -- every line, valid or not (1 phase, so at each
                              retention boundary)
  * RPV (polyphase valid)  -- the valid lines last touched in the phase whose
                              boundary is due (a touch recharges the cell,
                              so its next refresh is one full period later)
  * DCR (valid-only)       -- the valid lines (1 phase)
"""

from .record import Record


class RefreshConfigError(ValueError):
    pass


class RefreshConfig(Record):
    def __init__(self, retention_cycles: int, phases: int = 1):
        self.retention_cycles = retention_cycles
        self.phases = phases
        # the compiled timing pass holds it in an int64
        if not 0 < retention_cycles < 1 << 63:
            raise RefreshConfigError(f"retention_cycles must be > 0 and below "
                                     f"2**63, got {retention_cycles}")
        if not 1 <= phases <= 256:  # a byte per line slot numbers them
            raise RefreshConfigError(f"phases must be in [1, 256], got "
                                     f"{phases}")
        if retention_cycles % phases:
            raise RefreshConfigError(
                f"retention_cycles {retention_cycles} not divisible by "
                f"{phases} phases")
        self.phase_cycles = retention_cycles // phases

    def __hash__(self):
        return hash(self._values())
