"""Sectioned key=value run configuration.

The file format is INI-style with `#` comments. Every key carries its unit in
its name (retention_period_us, l2_size_kb, ...). Unknown sections or keys are
rejected before any simulation or output file is produced.
"""

import configparser
from dataclasses import dataclass

from .cache import CacheGeometry
from .controller import default_config
from .energy import EnergyParams, SchemeKind, builtin_params
from .profiler import make_units
from .refresh import RefreshConfig
from .sim import SchemeSpec, TimingParams, check_refresh_fits
from .trace import PhaseSpec, SyntheticTraceSpec


class ConfigError(ValueError):
    pass


_GEOMETRY_KEYS = {"l2_size_kb", "associativity", "block_bytes", "page_kb", "bank_kb"}
_TIMING_KEYS = {"l2_hit_cycles", "dram_latency_cycles", "base_cpi", "clock_ghz"}
# the clock is [timing]'s, for the overrides as for a builtin
_ENERGY_FIELDS = {"e_dyn_l2", "p_leak_l2", "e_dyn_dram", "p_leak_dram",
                  "e_transition", "e_dyn_prof", "p_leak_prof"}
_ENERGY_KEYS = {"builtin"} | _ENERGY_FIELDS
_TRACE_KEYS = {"path", "synthetic"}
_SYNTH_KEYS = {"seed", "accesses_per_kilo_instr", "block_bytes", "phases",
               "description"}
_RUN_KEYS = {"warmup_instructions", "warmup_fraction", "interval_instructions"}
_SCHEME_KEYS = {"kind", "retention_period_us", "phases", "c_min", "granularity",
                "delta", "beta", "energy_builtin", "sampling_ratio_denom"}

_KIND_NAMES = {k.value: k for k in SchemeKind}


def _check_keys(section: str, keys, allowed) -> None:
    unknown = set(keys) - allowed
    if unknown:
        raise ConfigError(
            f"[{section}] unknown key(s): {', '.join(sorted(unknown))}")


def _get(sec, key, conv, default=None, required=False):
    if key not in sec:
        if required:
            raise ConfigError(f"missing required key '{key}' in [{sec.name}]")
        return default
    try:
        return conv(sec[key])
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] {key}: {exc}") from None


@dataclass
class RunConfig:
    geometry: CacheGeometry
    timing: TimingParams
    energy: EnergyParams
    schemes: list[SchemeSpec]
    trace_path: str | None
    synthetic: SyntheticTraceSpec | None
    warmup_instructions: int | None  # None: use warmup_fraction
    warmup_fraction: float
    interval_instructions: int | None
    # the DCR schemes whose c_min the config sets; an l2_size_kb sweep keeps
    # theirs and gives the others the default slice of each size
    fixed_c_min: frozenset[str] = frozenset()


def check_c_min(spec: SchemeSpec, geometry: CacheGeometry) -> None:
    """Reject a DCR minimum allocation above the cache's color count."""
    if spec.controller is not None and \
            spec.controller.c_min > geometry.color_count:
        raise ConfigError(
            f"{spec.name}: c_min {spec.controller.c_min} exceeds the "
            f"{geometry.color_count} colors of a "
            f"{geometry.size_bytes // 1024} KB cache")


def _parse_phases(value: str) -> list[PhaseSpec]:
    phases = []
    for part in value.replace(";", "\n").splitlines():
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) != 4:
            raise ConfigError(
                f"phase '{part}' must be instructions:working_set_bytes:"
                "write_fraction:reuse_locality")
        phases.append(PhaseSpec(instructions=int(bits[0]),
                                working_set_bytes=int(bits[1]),
                                write_fraction=float(bits[2]),
                                reuse_locality=float(bits[3])))
    if not phases:
        raise ConfigError("phases list is empty")
    return phases


def _parse_synthetic(sec) -> SyntheticTraceSpec:
    _check_keys(sec.name, sec.keys(), _SYNTH_KEYS)
    return SyntheticTraceSpec(
        phases=_parse_phases(_get(sec, "phases", str, required=True)),
        rng_seed=_get(sec, "seed", int, default=0),
        accesses_per_kilo_instr=_get(sec, "accesses_per_kilo_instr", float,
                                     default=20.0),
        block_bytes=_get(sec, "block_bytes", int, default=64),
    )


def _parse_energy(sec, clock_ghz: float) -> EnergyParams:
    _check_keys(sec.name, sec.keys(), _ENERGY_KEYS)
    if "builtin" in sec:
        extra = set(sec.keys()) - {"builtin"}
        if extra:
            raise ConfigError(
                f"[{sec.name}] builtin cannot be mixed with overrides: "
                f"{', '.join(sorted(extra))}")
        return builtin_params(sec["builtin"], clock_ghz=clock_ghz)
    missing = _ENERGY_FIELDS - set(sec.keys())
    if missing:
        raise ConfigError(
            f"[{sec.name}] overrides must set all seven fields; missing: "
            f"{', '.join(sorted(missing))}")
    return EnergyParams(**{k: float(sec[k]) for k in _ENERGY_FIELDS},
                        clock_ghz=clock_ghz)


def _parse_scheme(sec, name: str, geometry: CacheGeometry, clock_ghz: float,
                  interval_instructions: int | None) -> SchemeSpec:
    _check_keys(sec.name, sec.keys(), _SCHEME_KEYS)
    kind_name = _get(sec, "kind", str, required=True)
    if kind_name not in _KIND_NAMES:
        raise ConfigError(
            f"[{sec.name}] kind must be one of {sorted(_KIND_NAMES)}")
    kind = _KIND_NAMES[kind_name]

    refresh = None
    if kind is not SchemeKind.SRAM:
        period = _get(sec, "retention_period_us", float, required=True)
        phases = _get(sec, "phases", int,
                      default=4 if kind is SchemeKind.RPV else 1)
        refresh = RefreshConfig(retention_period_us=period,
                                clock_ghz=clock_ghz, phases=phases)
    elif "retention_period_us" in sec or "phases" in sec:
        raise ConfigError(f"[{sec.name}] SRAM scheme takes no refresh keys")

    controller = None
    if kind is SchemeKind.DCR:
        kwargs = {}
        if "c_min" in sec:
            kwargs["c_min"] = int(sec["c_min"])
        if "granularity" in sec:
            kwargs["granularity"] = int(sec["granularity"])
        if "delta" in sec:
            kwargs["delta"] = int(sec["delta"])
        if "beta" in sec:
            kwargs["beta"] = float(sec["beta"])
        if interval_instructions is not None:
            kwargs["interval_instructions"] = interval_instructions
        controller = default_config(geometry, **kwargs)
    else:
        for key in ("c_min", "granularity", "delta", "beta",
                    "sampling_ratio_denom"):
            if key in sec:
                raise ConfigError(
                    f"[{sec.name}] key '{key}' is only valid for kind=dcr")

    energy = None
    if "energy_builtin" in sec:
        energy = builtin_params(sec["energy_builtin"], clock_ghz=clock_ghz)

    profiler_ratio = _get(sec, "sampling_ratio_denom", int, default=64)
    if kind is SchemeKind.DCR:
        make_units(geometry, profiler_ratio)  # raises if the ratio does not fit
    spec = SchemeSpec(kind=kind, refresh=refresh, controller=controller,
                      energy=energy, name=name, profiler_ratio=profiler_ratio)
    check_refresh_fits(spec, geometry)
    check_c_min(spec, geometry)
    return spec


def load_config(path: str) -> RunConfig:
    """Parse and fully validate a run configuration file.

    Every validation failure, including ones raised by the domain
    constructors (geometry, refresh, scheme), surfaces as ConfigError.
    """
    try:
        return _load_config(path)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # keys are case sensitive
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    known_fixed = {"geometry", "timing", "energy", "trace", "synthetic", "run"}
    scheme_names = []
    for section in parser.sections():
        if section in known_fixed:
            continue
        if section.startswith("scheme."):
            scheme_names.append(section[len("scheme."):])
        else:
            raise ConfigError(f"unknown section [{section}]")

    if "geometry" not in parser:
        raise ConfigError("missing [geometry] section")
    gsec = parser["geometry"]
    _check_keys("geometry", gsec.keys(), _GEOMETRY_KEYS)
    geometry = CacheGeometry(
        size_bytes=_get(gsec, "l2_size_kb", int, required=True) * 1024,
        associativity=_get(gsec, "associativity", int, default=8),
        block_bytes=_get(gsec, "block_bytes", int, default=64),
        page_bytes=_get(gsec, "page_kb", int, default=4) * 1024,
        bank_bytes=_get(gsec, "bank_kb", int, default=1024) * 1024,
    )

    timing_kwargs = {}
    if "timing" in parser:
        tsec = parser["timing"]
        _check_keys("timing", tsec.keys(), _TIMING_KEYS)
        if "l2_hit_cycles" in tsec:
            timing_kwargs["l2_hit_cycles"] = int(tsec["l2_hit_cycles"])
        if "dram_latency_cycles" in tsec:
            timing_kwargs["dram_latency_cycles"] = int(tsec["dram_latency_cycles"])
        if "base_cpi" in tsec:
            timing_kwargs["base_cpi"] = float(tsec["base_cpi"])
        if "clock_ghz" in tsec:
            timing_kwargs["clock_ghz"] = float(tsec["clock_ghz"])
    timing = TimingParams(**timing_kwargs)

    if "energy" not in parser:
        raise ConfigError("missing [energy] section")
    energy = _parse_energy(parser["energy"], timing.clock_ghz)

    warmup_instructions = None
    warmup_fraction = 0.1
    interval_instructions = None
    if "run" in parser:
        rsec = parser["run"]
        _check_keys("run", rsec.keys(), _RUN_KEYS)
        if "warmup_instructions" in rsec and "warmup_fraction" in rsec:
            raise ConfigError("[run] set warmup_instructions or warmup_fraction, not both")
        warmup_instructions = _get(rsec, "warmup_instructions", int)
        warmup_fraction = _get(rsec, "warmup_fraction", float, default=0.1)
        interval_instructions = _get(rsec, "interval_instructions", int)
        if interval_instructions is not None and interval_instructions < 1:
            raise ConfigError("[run] interval_instructions must be >= 1")

    trace_path = None
    synthetic = None
    if "trace" in parser:
        tsec = parser["trace"]
        _check_keys("trace", tsec.keys(), _TRACE_KEYS)
        trace_path = _get(tsec, "path", str)
        wants_synth = _get(tsec, "synthetic", lambda s: s.lower() == "true",
                           default=False)
        if trace_path and wants_synth:
            raise ConfigError("[trace] set path or synthetic=true, not both")
        if wants_synth:
            if "synthetic" not in parser:
                raise ConfigError("[trace] synthetic=true needs a [synthetic] section")
            synthetic = _parse_synthetic(parser["synthetic"])
    elif "synthetic" in parser:
        synthetic = _parse_synthetic(parser["synthetic"])

    schemes = []
    for name in scheme_names:
        schemes.append(_parse_scheme(parser[f"scheme.{name}"], name, geometry,
                                     timing.clock_ghz, interval_instructions))

    return RunConfig(geometry=geometry, timing=timing, energy=energy,
                     schemes=schemes, trace_path=trace_path,
                     synthetic=synthetic,
                     warmup_instructions=warmup_instructions,
                     warmup_fraction=warmup_fraction,
                     interval_instructions=interval_instructions,
                     fixed_c_min=frozenset(
                         name for name in scheme_names
                         if "c_min" in parser[f"scheme.{name}"]))
