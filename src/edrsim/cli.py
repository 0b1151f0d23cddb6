"""Command-line front end: gen-trace, run, compare, sweep."""

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
from dataclasses import fields, is_dataclass, replace
from itertools import repeat

from . import trace as trace_mod
from .config import SWEEPABLE, ConfigError, RunConfig, load_config, load_sweep
from .energy import SchemeKind
from .sim import ComparisonRow, RunReport, compare, comparison_row, run
from .trace import TraceArrays, TraceHeader


def _atomic_write(path: str, data: bytes) -> None:
    """Write-temp-then-rename so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-edrsim-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_INF = float("inf")
_quote = json.encoder.encode_basestring_ascii
# how json.dumps spells a scalar of each of these exact types, and a
# report's scheme kind as its value; any other leaf (a subclass of one, or
# no JSON type) goes to json.dumps itself
_SCALARS = {str: _quote, int: int.__repr__, type(None): lambda _: "null",
            bool: lambda value: "true" if value else "false",
            float: lambda value: float.__repr__(value)
            if -_INF < value < _INF else json.dumps(value),
            SchemeKind: lambda kind: _quote(kind.value)}


@functools.cache
def _field_keys(cls) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """A dataclass's field names, sorted, and their `"name": ` prefixes;
    None for any other type."""
    if not is_dataclass(cls):
        return None
    names = tuple(sorted(f.name for f in fields(cls)))
    return names, tuple(f"{_quote(name)}: " for name in names)


def _write(obj, out: list, newline: str) -> None:
    """Append `obj` to `out` as json.dumps(indent=2, sort_keys=True) writes
    it at the depth whose lines start with `newline`; a dataclass is
    written as the dict of its fields."""
    if isinstance(obj, dict):
        keys = sorted(obj)
        prefixes = [f"{_quote(key)}: " for key in keys]
        values, brackets = [obj[key] for key in keys], "{}"
    elif isinstance(obj, (list, tuple)):
        prefixes, values, brackets = repeat(""), obj, "[]"
    elif (keys := _field_keys(type(obj))) is not None:
        names, prefixes = keys
        values, brackets = [getattr(obj, name) for name in names], "{}"
    else:
        out.append(_SCALARS.get(type(obj), json.dumps)(obj))
        return
    if not values:
        out.append(brackets)
        return
    inner = newline + "  "
    separator = brackets[0] + inner
    for prefix, value in zip(prefixes, values):
        spell = _SCALARS.get(type(value))
        if spell is None:
            out.append(separator + prefix)
            _write(value, out, inner)
        else:
            out.append(separator + prefix + spell(value))
        separator = "," + inner
    out.append(newline + brackets[1])


def _json_bytes(obj) -> bytes:
    """The UTF-8 bytes of `json.dumps(obj, indent=2, sort_keys=True)` and a
    newline, written in one pass, with each dataclass in `obj` as the dict
    of its fields; dict keys must be strings."""
    out = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out).encode("utf-8")


def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _with_seed(spec, seed: int | None):
    if seed is None:
        return spec
    try:
        return replace(spec, rng_seed=seed)
    except ValueError as exc:
        raise ConfigError(f"--seed {seed}: {exc}") from None


def _load_trace_for(cfg: RunConfig, seed: int | None) -> TraceArrays:
    if cfg.trace_path:
        if seed is not None:
            raise ConfigError(f"--seed does nothing: the config reads the "
                              f"trace file {cfg.trace_path}")
        with open(cfg.trace_path, "rb") as fh:
            _, arrays = trace_mod.read_trace_arrays(fh)
        return arrays
    if cfg.synthetic is None:
        raise ConfigError("config provides neither a trace path nor a synthetic spec")
    return trace_mod.generate_synthetic(_with_seed(cfg.synthetic, seed))


def _warmup_for(cfg: RunConfig, arrays: TraceArrays) -> int:
    if cfg.warmup_instructions is not None:
        return cfg.warmup_instructions
    return int(arrays.instructions * cfg.warmup_fraction)


def _interval_csv(report: RunReport) -> bytes:
    rows = []
    for iv in report.intervals:
        e = iv.energy
        rows.append([iv.index, iv.colors, repr(iv.active_fraction),
                     iv.l2_hits, iv.l2_misses, iv.refreshed_lines,
                     repr(e.le_l2), repr(e.de_l2), repr(e.re_l2),
                     repr(e.e_dram), repr(e.e_algo), repr(e.total)])
    return _csv_bytes(
        ["interval", "colors", "f_a", "h_l2", "m_l2", "n_r", "le_l2",
         "de_l2", "re_l2", "e_dram", "e_algo", "total"], rows)


# comparison.csv and sweep.csv columns: the scheme, then ComparisonRow's
# metrics in field order
_ROW_METRICS = [f.name for f in fields(ComparisonRow)
                if f.name not in ("scheme", "kind")]
_ROW_COLUMNS = ["scheme", *_ROW_METRICS]


def _row_cells(row: ComparisonRow) -> list[str]:
    return [row.scheme, *(repr(getattr(row, m)) for m in _ROW_METRICS)]


def cmd_gen_trace(args) -> int:
    cfg = load_config(args.config)
    if cfg.synthetic is None:
        raise ConfigError("gen-trace needs a [synthetic] section")
    arrays = trace_mod.generate_synthetic(_with_seed(cfg.synthetic, args.seed))
    header = TraceHeader(record_count=len(arrays),
                         page_size_bytes=cfg.geometry.page_bytes)
    buf = io.BytesIO()
    trace_mod.write_trace_arrays(arrays, header, buf)
    _atomic_write(args.out, buf.getvalue())
    print(f"wrote {len(arrays)} records ({arrays.instructions} instructions) "
          f"to {args.out}")
    return 0


def _require_schemes(cfg: RunConfig, least: int) -> None:
    if len(cfg.schemes) < least:
        raise ConfigError(f"config needs at least {least} [scheme.*] section(s)")


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    _require_schemes(cfg, 1)
    arrays = _load_trace_for(cfg, args.seed)
    warmup = _warmup_for(cfg, arrays)
    # every scheme runs before the first write, so a late failure leaves no
    # partial output
    reports = [run(arrays, spec, cfg.geometry, cfg.timing, cfg.energy, warmup,
                   cfg.interval_instructions) for spec in cfg.schemes]
    os.makedirs(args.out, exist_ok=True)
    for report in reports:
        base = os.path.join(args.out, f"report-{report.scheme}")
        _atomic_write(base + ".json", _json_bytes(report))
        _atomic_write(base + ".intervals.csv", _interval_csv(report))
        print(f"{report.scheme}: {report.total_energy_j:.6e} J, "
              f"{report.total_cycles} cycles, RPKI {report.rpki:.2f}, "
              f"MPKI {report.mpki:.3f}")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    _require_schemes(cfg, 2)
    arrays = _load_trace_for(cfg, args.seed)
    warmup = _warmup_for(cfg, arrays)
    report = compare(arrays, cfg.schemes, cfg.geometry, cfg.timing, cfg.energy,
                     warmup_instructions=warmup,
                     interval_instructions=cfg.interval_instructions)
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "comparison.json"),
                  _json_bytes(report.to_dict()))
    _atomic_write(os.path.join(args.out, "comparison.csv"), _csv_bytes(
        _ROW_COLUMNS, [_row_cells(r) for r in report.rows]))
    for name, rep in report.reports.items():
        _atomic_write(os.path.join(args.out, f"report-{name}.json"),
                      _json_bytes(rep))
    print(f"baseline {report.baseline_name}: "
          f"{report.baseline.total_energy_j:.6e} J")
    for row in report.rows:
        print(f"{row.scheme}: saved {row.pct_energy_saved:.2f}%, "
              f"perf {row.pct_perf_improvement:+.2f}%, "
              f"dRPKI {row.delta_rpki:.2f}, dMPKI {row.delta_mpki:.4f}, "
              f"active {row.active_ratio_pct:.1f}%")
    return 0


def cmd_sweep(args) -> int:
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    configs = load_sweep(args.config, args.parameter, values)
    cfg = configs[0]
    _require_schemes(cfg, 2)

    # no sweepable parameter changes the trace or the warm-up
    arrays = _load_trace_for(cfg, args.seed)
    warmup = _warmup_for(cfg, arrays)
    rows = []
    for value, vcfg in zip(values, configs):
        report = compare(arrays, vcfg.schemes, vcfg.geometry, vcfg.timing,
                         vcfg.energy, warmup_instructions=warmup,
                         interval_instructions=vcfg.interval_instructions)
        base = report.baseline
        # the value column spells every value as a float: 1.0 for "1"
        for row in [comparison_row(base, base), *report.rows]:
            rows.append([args.parameter, repr(float(value)), *_row_cells(row)])
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "sweep.csv"),
                  _csv_bytes(["parameter", "value", *_ROW_COLUMNS], rows))
    print(f"swept {args.parameter} over {len(values)} value(s) -> "
          f"{os.path.join(args.out, 'sweep.csv')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edrsim",
        description="Trace-driven energy simulator for eDRAM last-level caches")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the synthetic trace seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-trace", help="write a synthetic binary trace")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output trace file path")
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("run", help="run each configured scheme, write reports")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run all schemes and compare to baseline")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="repeat compare over a parameter range")
    common(p)
    p.add_argument("--parameter", required=True,
                   help=f"one of {', '.join(SWEEPABLE)}")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
