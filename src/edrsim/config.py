"""Sectioned key=value run configuration.

The file format is INI-style with `#` comments. Every key carries its unit in
its name (retention_period_us, l2_size_kb, ...). Unknown sections or keys are
rejected before any simulation or output file is produced.

A file is read once into plain section dicts, and one function builds and
checks a `RunConfig` from them. `load_config` builds the file as written;
`load_sweep` builds it once per value of a swept key, so every sweep value
passes the same checks as a value written in the file.
"""

import configparser
import math
from dataclasses import dataclass, fields

from .cache import CacheGeometry
from .controller import ControllerConfig, default_config
from .energy import EnergyParams, SchemeKind, builtin_params
from .refresh import RefreshConfig
from .sim import SchemeSpec, TimingParams, check_scheme
from .trace import PhaseSpec, SyntheticTraceSpec


class ConfigError(ValueError):
    pass


_GEOMETRY_KEYS = {"l2_size_kb", "associativity", "block_bytes", "page_kb", "bank_kb"}
# [timing] and [scheme.*]'s DCR keys: each field's name and type
_TIMING_KEYS = {f.name: f.type for f in fields(TimingParams)}
_DCR_KEYS = {f.name: f.type for f in fields(ControllerConfig)}
# the clock is [timing]'s, for the overrides as for a builtin
_ENERGY_FIELDS = {f.name for f in fields(EnergyParams)}
_ENERGY_KEYS = {"builtin"} | _ENERGY_FIELDS
_TRACE_KEYS = {"path", "synthetic"}
_SYNTH_KEYS = {"seed", "accesses_per_kilo_instr", "phases"}
_RUN_KEYS = {"warmup_instructions", "warmup_fraction", "interval_instructions"}
_SCHEME_KEYS = {"kind", "retention_period_us", "phases",
                "energy_builtin"} | set(_DCR_KEYS)
_FIXED_SECTIONS = {"geometry", "timing", "energy", "trace", "synthetic", "run"}

_KIND_NAMES = {k.value: k for k in SchemeKind}

# `edrsim sweep` parameters; refresh_period_us sets retention_period_us
SWEEPABLE = ("refresh_period_us", "l2_size_kb", "beta", "delta")


def _check_keys(section: str, keys, allowed) -> None:
    unknown = set(keys) - set(allowed)
    if unknown:
        raise ConfigError(
            f"[{section}] unknown key(s): {', '.join(sorted(unknown))}")


def _get(sec: dict, section: str, key, conv, default=None, required=False):
    if key not in sec:
        if required:
            raise ConfigError(f"missing required key '{key}' in [{section}]")
        return default
    try:
        return conv(sec[key])
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def _int64(sec: dict, section: str, key: str, low: int) -> int | None:
    """An integer key that the compiled passes hold in an int64, if set."""
    value = _get(sec, section, key, int)
    if value is not None and not low <= value < 1 << 63:
        raise ConfigError(f"[{section}] {key} must be >= {low} and below "
                          f"2**63, got {value}")
    return value


def _given(sec: dict, section: str, convs: dict) -> dict:
    """The keys of `convs` that the section sets, converted."""
    return {key: _get(sec, section, key, conv)
            for key, conv in convs.items() if key in sec}


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
    interval_instructions: int | None  # None: sim.run's default


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


def _parse_synthetic(sec: dict, block_bytes: int) -> SyntheticTraceSpec:
    _check_keys("synthetic", sec, _SYNTH_KEYS)
    return SyntheticTraceSpec(
        phases=_parse_phases(_get(sec, "synthetic", "phases", str,
                                  required=True)),
        rng_seed=_get(sec, "synthetic", "seed", int, default=0),
        accesses_per_kilo_instr=_get(sec, "synthetic",
                                     "accesses_per_kilo_instr", float,
                                     default=20.0),
        block_bytes=block_bytes,
    )


def _parse_energy(sec: dict) -> EnergyParams:
    _check_keys("energy", sec, _ENERGY_KEYS)
    if "builtin" in sec:
        extra = set(sec) - {"builtin"}
        if extra:
            raise ConfigError(
                "[energy] builtin cannot be mixed with overrides: "
                f"{', '.join(sorted(extra))}")
        return builtin_params(sec["builtin"])
    missing = _ENERGY_FIELDS - set(sec)
    if missing:
        raise ConfigError(
            "[energy] overrides must set all seven fields; missing: "
            f"{', '.join(sorted(missing))}")
    return EnergyParams(**{k: _get(sec, "energy", k, float)
                           for k in _ENERGY_FIELDS})


def _retention_cycles(period_us: float, clock_ghz: float) -> int:
    """A retention period in microseconds as a whole number of cycles."""
    if period_us <= 0:
        raise ConfigError("retention period must be > 0")
    cycles = period_us * clock_ghz * 1000.0
    if not math.isfinite(cycles):
        raise ConfigError(f"retention_cycles must be finite, got {cycles}")
    if abs(cycles - round(cycles)) > 1e-6:
        raise ConfigError(
            f"retention period must be a whole number of cycles, got {cycles}")
    return round(cycles)


def _parse_scheme(sec: dict, name: str, geometry: CacheGeometry,
                  clock_ghz: float) -> SchemeSpec:
    section = f"scheme.{name}"
    _check_keys(section, sec, _SCHEME_KEYS)
    kind_name = _get(sec, section, "kind", str, required=True)
    if kind_name not in _KIND_NAMES:
        raise ConfigError(
            f"[{section}] kind must be one of {sorted(_KIND_NAMES)}")
    kind = _KIND_NAMES[kind_name]

    refresh = None
    if kind is not SchemeKind.SRAM:
        period = _get(sec, section, "retention_period_us", float,
                      required=True)
        phases = _get(sec, section, "phases", int,
                      default=4 if kind is SchemeKind.RPV else 1)
        refresh = RefreshConfig(_retention_cycles(period, clock_ghz), phases)
    elif "retention_period_us" in sec or "phases" in sec:
        raise ConfigError(f"[{section}] SRAM scheme takes no refresh keys")

    controller = None
    if kind is SchemeKind.DCR:
        # an unset c_min is the default slice of this geometry's colors
        controller = default_config(geometry, **_given(sec, section, _DCR_KEYS))
    else:
        for key in _DCR_KEYS:
            if key in sec:
                raise ConfigError(
                    f"[{section}] key '{key}' is only valid for kind=dcr")

    spec = SchemeSpec(kind=kind, refresh=refresh, controller=controller,
                      energy=_get(sec, section, "energy_builtin",
                                  builtin_params), name=name)
    check_scheme(spec, geometry)
    return spec


def _read(path: str) -> dict[str, dict[str, str]]:
    """The file's sections, in file order, as plain dicts."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # keys are case sensitive
    try:
        read = parser.read(path)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return sections


def _build(sections: dict[str, dict[str, str]]) -> RunConfig:
    """Build and validate a run configuration from its sections."""
    scheme_names = []
    for section in sections:
        if section.startswith("scheme."):
            scheme_names.append(section[len("scheme."):])
        elif section not in _FIXED_SECTIONS:
            raise ConfigError(f"unknown section [{section}]")

    if "geometry" not in sections:
        raise ConfigError("missing [geometry] section")
    gsec = sections["geometry"]
    _check_keys("geometry", gsec, _GEOMETRY_KEYS)
    geometry = CacheGeometry(
        size_bytes=_get(gsec, "geometry", "l2_size_kb", int,
                        required=True) * 1024,
        associativity=_get(gsec, "geometry", "associativity", int, default=8),
        block_bytes=_get(gsec, "geometry", "block_bytes", int, default=64),
        page_bytes=_get(gsec, "geometry", "page_kb", int, default=4) * 1024,
        bank_bytes=_get(gsec, "geometry", "bank_kb", int,
                        default=1024) * 1024,
    )

    tsec = sections.get("timing", {})
    _check_keys("timing", tsec, _TIMING_KEYS)
    timing = TimingParams(**_given(tsec, "timing", _TIMING_KEYS))

    if "energy" not in sections:
        raise ConfigError("missing [energy] section")
    energy = _parse_energy(sections["energy"])

    rsec = sections.get("run", {})
    _check_keys("run", rsec, _RUN_KEYS)
    if "warmup_instructions" in rsec and "warmup_fraction" in rsec:
        raise ConfigError("[run] set warmup_instructions or warmup_fraction, not both")
    warmup_instructions = _int64(rsec, "run", "warmup_instructions", 0)
    warmup_fraction = _get(rsec, "run", "warmup_fraction", float, default=0.1)
    if not 0 <= warmup_fraction < 1:
        raise ConfigError("[run] warmup_fraction must be in [0, 1)")
    interval_instructions = _int64(rsec, "run", "interval_instructions", 1)

    # a [synthetic] section is checked even where [trace] does not use it
    synthetic = None
    if "synthetic" in sections:
        synthetic = _parse_synthetic(sections["synthetic"],
                                     geometry.block_bytes)
    trace_path = None
    if "trace" in sections:
        tsec = sections["trace"]
        _check_keys("trace", tsec, _TRACE_KEYS)
        trace_path = _get(tsec, "trace", "path", str)
        wants_synth = _get(tsec, "trace", "synthetic",
                           lambda s: s.lower() == "true", default=False)
        if trace_path and wants_synth:
            raise ConfigError("[trace] set path or synthetic=true, not both")
        if wants_synth and synthetic is None:
            raise ConfigError("[trace] synthetic=true needs a [synthetic] section")
        if not wants_synth:
            synthetic = None

    schemes = [_parse_scheme(sections[f"scheme.{name}"], name, geometry,
                             timing.clock_ghz)
               for name in scheme_names]
    return RunConfig(geometry=geometry, timing=timing, energy=energy,
                     schemes=schemes, trace_path=trace_path,
                     synthetic=synthetic,
                     warmup_instructions=warmup_instructions,
                     warmup_fraction=warmup_fraction,
                     interval_instructions=interval_instructions)


def load_config(path: str) -> RunConfig:
    """Parse and fully validate a run configuration file.

    Every validation failure, including ones raised by the domain
    constructors (geometry, refresh, scheme), surfaces as ConfigError.
    """
    sections = _read(path)
    try:
        return _build(sections)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _swept(name: str, sec: dict, parameter: str) -> bool:
    """Whether a sweep of `parameter` sets its key in this section."""
    if parameter == "l2_size_kb":
        return name == "geometry"
    if not name.startswith("scheme."):
        return False
    if parameter == "refresh_period_us":
        return sec.get("kind") != SchemeKind.SRAM.value
    return sec.get("kind") == SchemeKind.DCR.value  # beta, delta


def load_sweep(path: str, parameter: str, values: list[str]) -> list[RunConfig]:
    """One RunConfig per value of a swept parameter, each validated as by
    `load_config`.

    The file is read once. Each value is set in a copy of its sections:
    refresh_period_us as retention_period_us in every eDRAM scheme,
    l2_size_kb in [geometry], beta and delta in every DCR scheme. A sweep
    that no section takes would repeat one comparison, so it is an error.
    """
    if parameter not in SWEEPABLE:
        raise ConfigError(f"parameter must be one of {SWEEPABLE}")
    key = "retention_period_us" if parameter == "refresh_period_us" else parameter
    sections = _read(path)
    swept = {name for name, sec in sections.items()
             if _swept(name, sec, parameter)}
    if not swept:
        raise ConfigError(f"sweeping {parameter} does nothing: no section "
                          f"of {path} takes {key}")
    configs = []
    for value in values:
        try:
            configs.append(_build({
                name: {**sec, key: value} if name in swept else sec
                for name, sec in sections.items()}))
        except ValueError as exc:
            raise ConfigError(f"{parameter} = {value}: {exc}") from None
    return configs
