"""Command-line front end: gen-trace, run, compare, sweep."""

import argparse
import csv
import io
import json
import os
import sys
import tempfile

from . import trace as trace_mod
from .config import SWEEPABLE, ConfigError, RunConfig, load_config, load_sweep
from .energy import SchemeKind
from .record import Record
from .sim import (ComparisonRow, RunReport, SchemeConfigError, check_compare,
                  compare, comparison_row, run_schemes)
from .trace import SyntheticTraceSpec, TraceArrays, TraceHeader


def _replace(path: str, fill) -> None:
    """Write-temp-then-rename so readers never see partial output: fill(fh)
    writes the temporary file, open in binary mode."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-edrsim-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fill(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, data: bytes) -> None:
    _replace(path, lambda fh: fh.write(data))


def _plain(obj):
    """json's `default` hook: a record as the dict of its fields, a scheme
    kind as its value. A record's fields are its attributes, as a report's
    records keep no other (the encoder sorts the keys), so it goes as its
    own `__dict__`."""
    if isinstance(obj, Record):
        return obj.__dict__
    if isinstance(obj, SchemeKind):
        return obj.value
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           default=_plain).encode


def _json_pieces(obj):
    """`_encode(obj)` and a newline, in pieces: each element of a list under
    a top-level key (a report's intervals and decisions, comparison rows) is
    encoded on its own, so no piece holds more than one of them. Dict keys
    must be strings."""
    if isinstance(obj, Record):
        obj = _plain(obj)
    if not isinstance(obj, dict) or not obj:
        yield _encode(obj) + "\n"
        return
    head = "{"
    for key in sorted(obj):
        value = obj[key]
        head += _encode(key) + ":"
        if isinstance(value, list) and value:
            head += "["
            for item in value:
                yield head + _encode(item)
                head = ","
            head = "],"
        else:
            yield head + _encode(value)
            head = ","
    yield head[:-1] + "}\n"


def _write_json(path: str, obj) -> None:
    """`obj` as compact JSON with sorted keys into `path`, a piece at a
    time."""
    _replace(path, lambda fh: fh.writelines(
        piece.encode() for piece in _json_pieces(obj)))


def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _with_seed(spec: SyntheticTraceSpec, seed: int | None):
    if seed is None:
        return spec
    try:
        return SyntheticTraceSpec(spec.phases, seed,
                                  spec.accesses_per_kilo_instr,
                                  spec.block_bytes)
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
_ROW_METRICS = [name for name in ComparisonRow._fields
                if name not in ("scheme", "kind")]
_ROW_COLUMNS = ["scheme", *_ROW_METRICS]


def _row_cells(row: ComparisonRow) -> list[str]:
    return [row.scheme, *(repr(getattr(row, m)) for m in _ROW_METRICS)]


def cmd_gen_trace(args) -> int:
    cfg = load_config(args.config)
    if cfg.trace_path:  # which drops any [synthetic] section
        raise ConfigError(f"gen-trace writes the [synthetic] spec, but "
                          f"[trace] path = {cfg.trace_path} selects a file; "
                          f"set [trace] synthetic = true instead")
    arrays = trace_mod.generate_synthetic(_with_seed(cfg.synthetic, args.seed))
    header = TraceHeader(record_count=len(arrays),
                         page_size_bytes=cfg.geometry.page_bytes)
    _replace(args.out,
             lambda fh: trace_mod.write_trace_arrays(arrays, header, fh))
    print(f"wrote {len(arrays)} records ({arrays.instructions} instructions) "
          f"to {args.out}")
    return 0


def _check_compare(cfg: RunConfig) -> int:
    """`sim.check_compare` on the config's schemes, before any trace is
    built: the baseline's index."""
    try:
        return check_compare(cfg.schemes)
    except SchemeConfigError as exc:
        raise ConfigError(str(exc)) from None


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if not cfg.schemes:
        raise ConfigError("config needs at least 1 [scheme.*] section")
    arrays = _load_trace_for(cfg, args.seed)
    warmup = _warmup_for(cfg, arrays)
    # every scheme runs before the first write, so a late failure leaves no
    # partial output
    reports = run_schemes(arrays, cfg.schemes, cfg.geometry, cfg.timing,
                          cfg.energy, warmup, cfg.interval_instructions)
    os.makedirs(args.out, exist_ok=True)
    for report in reports:
        base = os.path.join(args.out, f"report-{report.scheme}")
        _write_json(base + ".json", report)
        _atomic_write(base + ".intervals.csv", _interval_csv(report))
        print(f"{report.scheme}: {report.total_energy_j:.6e} J, "
              f"{report.total_cycles} cycles, RPKI {report.rpki:.2f}, "
              f"MPKI {report.mpki:.3f}")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    _check_compare(cfg)
    arrays = _load_trace_for(cfg, args.seed)
    warmup = _warmup_for(cfg, arrays)
    report = compare(arrays, cfg.schemes, cfg.geometry, cfg.timing, cfg.energy,
                     warmup_instructions=warmup,
                     interval_instructions=cfg.interval_instructions)
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "comparison.json"), report.to_dict())
    _atomic_write(os.path.join(args.out, "comparison.csv"), _csv_bytes(
        _ROW_COLUMNS, [_row_cells(r) for r in report.rows]))
    for name, rep in report.reports.items():
        _write_json(os.path.join(args.out, f"report-{name}.json"), rep)
    print(f"baseline {report.baseline_name}: "
          f"{report.baseline.total_energy_j:.6e} J")
    for row in report.rows:
        print(f"{row.scheme}: saved {row.pct_energy_saved:.2f}%, "
              f"perf {row.pct_perf_improvement:+.2f}%, "
              f"dRPKI {row.delta_rpki:.2f}, dMPKI {row.delta_mpki:.4f}, "
              f"active {row.active_ratio_pct:.1f}%")
    return 0


def _sweep_reports(arrays: TraceArrays, configs: list[RunConfig],
                   warmup: int) -> list[list[RunReport]]:
    """The reports of each config's schemes on one trace, in order. Of what
    a trip's schemes share, a sweep changes only the geometry (by
    l2_size_kb): timing, energy, warm-up and interval are never swept. So
    the configs of one geometry share a `run_schemes` call, whose one trip
    times the fixed schemes of them all."""
    by_geometry, per = {}, len(configs[0].schemes)
    for k, cfg in enumerate(configs):
        by_geometry.setdefault(cfg.geometry, []).append(k)
    reports = [None] * len(configs)
    for geometry, ks in by_geometry.items():
        cfg = configs[ks[0]]
        got = run_schemes(arrays, [s for k in ks for s in configs[k].schemes],
                          geometry, cfg.timing, cfg.energy, warmup,
                          cfg.interval_instructions)
        for j, k in enumerate(ks):
            reports[k] = got[j * per:(j + 1) * per]
    return reports


def cmd_sweep(args) -> int:
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    configs = load_sweep(args.config, args.parameter, values)
    cfg = configs[0]
    baseline_idx = _check_compare(cfg)

    # no sweepable parameter changes the trace or the warm-up
    arrays = _load_trace_for(cfg, args.seed)
    warmup = _warmup_for(cfg, arrays)
    reports = _sweep_reports(arrays, configs, warmup)
    rows = []
    for value, got in zip(values, reports):
        base = got[baseline_idx]
        others = [rep for i, rep in enumerate(got) if i != baseline_idx]
        # the value column spells every value as a float: 1.0 for "1"
        for rep in [base, *others]:
            rows.append([args.parameter, repr(float(value)),
                         *_row_cells(comparison_row(base, rep))])
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
