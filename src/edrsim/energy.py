"""Memory-subsystem energy model.

Per-interval energy is the sum of L2 leakage (scaled by the active fraction),
L2 dynamic (a miss costs twice a hit), L2 refresh (one access-energy per
refreshed line), DRAM leakage + dynamic, and the reconfiguration overhead
(block power transitions plus the profiling units). All accumulation is in
joules; nJ/pJ conversion happens once when parameters are constructed.
Intervals are measured in core cycles; each function takes the run's core
clock, `ghz`, to turn them into seconds.
"""

import math
from enum import Enum

from .record import Record

NANO = 1e-9
PICO = 1e-12


class SchemeKind(Enum):
    BASELINE_EDRAM = "baseline_edram"
    SRAM = "sram"
    RPV = "rpv"
    DCR = "dcr"


class EnergyParamsError(ValueError):
    pass


class EnergyParams(Record):
    """Technology constants. Energies are per access (nJ except e_transition,
    which is pJ per block power transition); leakages are watts."""

    def __init__(self, e_dyn_l2: float, p_leak_l2: float, e_dyn_dram: float,
                 p_leak_dram: float, e_transition: float, e_dyn_prof: float,
                 p_leak_prof: float):
        self.e_dyn_l2 = e_dyn_l2
        self.p_leak_l2 = p_leak_l2
        self.e_dyn_dram = e_dyn_dram
        self.p_leak_dram = p_leak_dram
        self.e_transition = e_transition
        self.e_dyn_prof = e_dyn_prof
        self.p_leak_prof = p_leak_prof
        for name, value in zip(self._fields, self._values()):
            if not (math.isfinite(value) and value >= 0):
                raise EnergyParamsError(
                    f"{name} must be a finite number >= 0, got {value}")
        # joule-denominated copies, converted exactly once
        self.e_dyn_l2_j = e_dyn_l2 * NANO
        self.e_dyn_dram_j = e_dyn_dram * NANO
        self.e_transition_j = e_transition * PICO
        self.e_dyn_prof_j = e_dyn_prof * NANO


# 45 nm, 2 MB, 1 MB banks; eDRAM access energy matches SRAM, leakage is 1/8th
_BUILTIN = {
    "SRAM_2MB": dict(e_dyn_l2=0.648, p_leak_l2=1.296),
    "EDRAM_2MB": dict(e_dyn_l2=0.648, p_leak_l2=1.296 / 8),
}
_COMMON = dict(e_dyn_dram=70.0, p_leak_dram=0.18, e_transition=2.0,
               e_dyn_prof=0.0031, p_leak_prof=0.0050)


def builtin_params(technology: str) -> EnergyParams:
    """Named parameter sets for the 2 MB SRAM and eDRAM configurations."""
    if technology not in _BUILTIN:
        raise EnergyParamsError(
            f"unknown technology {technology!r}; have {sorted(_BUILTIN)}")
    return EnergyParams(**_BUILTIN[technology], **_COMMON)


class EnergyBreakdown(Record):
    def __init__(self, le_l2: float, de_l2: float, re_l2: float,
                 e_dram: float, e_algo: float, e_prof: float, total: float):
        self.le_l2 = le_l2
        self.de_l2 = de_l2
        self.re_l2 = re_l2
        self.e_dram = e_dram
        self.e_algo = e_algo
        self.e_prof = e_prof
        self.total = total


def interval_energy(stats, params: EnergyParams, scheme: SchemeKind,
                    ghz: float) -> EnergyBreakdown:
    """Energy of one finished interval, in joules (see `energy_terms`)."""
    return EnergyBreakdown(*energy_terms(
        params, scheme, ghz, stats.elapsed_cycles, stats.active_fraction,
        stats.l2_hits, stats.l2_misses, stats.refreshed_lines,
        stats.dram_accesses, stats.switched_blocks, stats.prof_accesses))


def energy_terms(params: EnergyParams, scheme: SchemeKind, ghz: float, cycles,
                 f_a, hits, misses, refreshed, dram_accesses, switched,
                 prof_accesses) -> tuple:
    """`EnergyBreakdown`'s fields, in joules, for an interval of `cycles`
    with these counts: the formula of `interval_energy`, with which DCR's
    controller also prices each candidate on the counts it predicts.

    The baseline eDRAM, SRAM and polyphase schemes run the whole cache with
    no algorithm overhead (F_A = 1, E_algo = 0); SRAM never refreshes.
    """
    t = cycles / (ghz * 1e9)
    dcr = scheme is SchemeKind.DCR
    f_a = f_a if dcr else 1.0
    n_r = 0 if scheme is SchemeKind.SRAM else refreshed
    le_l2 = params.p_leak_l2 * f_a * t
    de_l2 = params.e_dyn_l2_j * (2 * misses + hits)
    re_l2 = n_r * params.e_dyn_l2_j
    e_dram = params.p_leak_dram * t + params.e_dyn_dram_j * dram_accesses
    if dcr:
        e_prof = params.p_leak_prof * t + params.e_dyn_prof_j * prof_accesses
        e_algo = params.e_transition_j * switched + e_prof
    else:
        e_prof = e_algo = 0.0
    total = le_l2 + de_l2 + re_l2 + e_dram + e_algo
    return le_l2, de_l2, re_l2, e_dram, e_algo, e_prof, total
