"""Command-line front end: gen-trace, run, compare, sweep."""

import csv
import io
import json
import os
import sys

from . import trace as trace_mod
from .config import SWEEPABLE, ConfigError, RunConfig, load_config, load_sweep
from .energy import SchemeKind
from .record import Record
from .sim import (ComparisonRow, RunReport, SchemeConfigError, check_compare,
                  compare, comparison_row, run_schemes)
from .trace import SyntheticTraceSpec, TraceArrays, TraceHeader


def _write(files: dict) -> None:
    """Write a command's files, all or nothing: `files` maps each path to
    its bytes or to a fill(fh) that writes them. A path that is a directory
    fails before any file is made. Each file goes to a temporary file in
    its own directory, with a plain `open`'s mode (0o666 & ~umask), and
    they are renamed into place once all are written; a failure removes
    every temporary file."""
    for path in filter(os.path.isdir, files):
        raise IsADirectoryError(f"{path} is a directory")
    made = []  # (temporary file, path)
    try:
        for path, data in files.items():
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            tmp = os.path.join(directory, ".tmp-edrsim-" + os.urandom(8).hex())
            with open(tmp, "xb") as fh:
                made.append((tmp, path))
                if callable(data):
                    data(fh)
                else:
                    fh.write(data)
        for tmp, path in made:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in made:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


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


def _json_fill(obj):
    """A fill(fh) for `_write` that streams `obj` through `_json_pieces`."""
    return lambda fh: fh.writelines(p.encode() for p in _json_pieces(obj))


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


def _load_trace_for(cfg: RunConfig,
                    seed: int | None) -> tuple[TraceArrays, int]:
    """The config's trace and the instructions of its warm-up."""
    if cfg.trace_path:
        if seed is not None:
            raise ConfigError(f"--seed does nothing: the config reads the "
                              f"trace file {cfg.trace_path}")
        with open(cfg.trace_path, "rb") as fh:
            _, arrays = trace_mod.read_trace_arrays(fh)
    else:
        arrays = trace_mod.generate_synthetic(_with_seed(cfg.synthetic, seed))
    if cfg.warmup_instructions is not None:
        return arrays, cfg.warmup_instructions
    return arrays, int(arrays.instructions * cfg.warmup_fraction)


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


def cmd_gen_trace(config, out, seed=None) -> int:
    cfg = load_config(config)
    if cfg.trace_path:  # which drops any [synthetic] section
        raise ConfigError(f"gen-trace writes the [synthetic] spec, but "
                          f"[trace] path = {cfg.trace_path} selects a file; "
                          f"set [trace] synthetic = true instead")
    arrays = trace_mod.generate_synthetic(_with_seed(cfg.synthetic, seed))
    header = TraceHeader(record_count=len(arrays),
                         page_size_bytes=cfg.geometry.page_bytes)
    _write({out: lambda fh: trace_mod.write_trace_arrays(arrays, header, fh)})
    print(f"wrote {len(arrays)} records ({arrays.instructions} instructions) "
          f"to {out}")
    return 0


def _check_compare(cfg: RunConfig) -> int:
    """`sim.check_compare` on the config's schemes, before any trace is
    built: the baseline's index."""
    try:
        return check_compare(cfg.schemes)
    except SchemeConfigError as exc:
        raise ConfigError(str(exc)) from None


def cmd_run(config, out, seed=None) -> int:
    cfg = load_config(config)
    if not cfg.schemes:
        raise ConfigError("config needs at least 1 [scheme.*] section")
    arrays, warmup = _load_trace_for(cfg, seed)
    reports = run_schemes(arrays, cfg.schemes, cfg.geometry, cfg.timing,
                          cfg.energy, warmup, cfg.interval_instructions)
    files = {}
    for report in reports:
        base = os.path.join(out, f"report-{report.scheme}")
        files[base + ".json"] = _json_fill(report)
        files[base + ".intervals.csv"] = _interval_csv(report)
    _write(files)
    for report in reports:
        print(f"{report.scheme}: {report.total_energy_j:.6e} J, "
              f"{report.total_cycles} cycles, RPKI {report.rpki:.2f}, "
              f"MPKI {report.mpki:.3f}")
    return 0


def cmd_compare(config, out, seed=None) -> int:
    cfg = load_config(config)
    _check_compare(cfg)
    arrays, warmup = _load_trace_for(cfg, seed)
    report = compare(arrays, cfg.schemes, cfg.geometry, cfg.timing, cfg.energy,
                     warmup_instructions=warmup,
                     interval_instructions=cfg.interval_instructions)
    files = {"comparison.json": _json_fill(report.to_dict()),
             "comparison.csv": _csv_bytes(
                 _ROW_COLUMNS, [_row_cells(r) for r in report.rows])}
    for name, rep in report.reports.items():
        files[f"report-{name}.json"] = _json_fill(rep)
    _write({os.path.join(out, name): data for name, data in files.items()})
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
    times the fixed schemes of them all, each distinct scheme once."""
    by_geometry = {}
    for k, cfg in enumerate(configs):
        by_geometry.setdefault(cfg.geometry, []).append(k)
    reports = [None] * len(configs)
    for geometry, ks in by_geometry.items():
        cfg, specs = configs[ks[0]], []
        for k in ks:  # specs are unhashable records, compared by equality
            specs += [s for s in configs[k].schemes if s not in specs]
        got = run_schemes(arrays, specs, geometry, cfg.timing, cfg.energy,
                          warmup, cfg.interval_instructions)
        for k in ks:
            reports[k] = [got[specs.index(s)] for s in configs[k].schemes]
    return reports


def cmd_sweep(config, out, parameter, values, seed=None) -> int:
    values = [v.strip() for v in values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    configs = load_sweep(config, parameter, values)
    cfg = configs[0]
    baseline_idx = _check_compare(cfg)

    # no sweepable parameter changes the trace or the warm-up
    arrays, warmup = _load_trace_for(cfg, seed)
    reports = _sweep_reports(arrays, configs, warmup)
    rows = []
    for value, got in zip(values, reports):
        base = got[baseline_idx]
        others = [rep for i, rep in enumerate(got) if i != baseline_idx]
        # the value column spells every value as a float: 1.0 for "1"
        for rep in [base, *others]:
            rows.append([parameter, repr(float(value)),
                         *_row_cells(comparison_row(base, rep))])
    _write({os.path.join(out, "sweep.csv"):
            _csv_bytes(["parameter", "value", *_ROW_COLUMNS], rows)})
    print(f"swept {parameter} over {len(values)} value(s) -> "
          f"{os.path.join(out, 'sweep.csv')}")
    return 0


# each command's function, the options it needs besides --config and --out,
# and what it does; every command also takes --seed
_COMMANDS = {
    "gen-trace": (cmd_gen_trace, (), "write the [synthetic] trace to --out"),
    "run": (cmd_run, (), "run each scheme, write its reports"),
    "compare": (cmd_compare, (), "run all schemes, compare to the baseline"),
    "sweep": (cmd_sweep, ("parameter", "values"), "compare at each of VALUES"),
}
USAGE = "usage:\n" + "".join(
    f"  edrsim {name} --config PATH --out PATH"
    f"{''.join(f' --{o} {o.upper()}' for o in needs)} [--seed N]\n"
    f"      {what}\n" for name, (_, needs, what) in _COMMANDS.items())


def parse_args(argv: list[str]):
    """The command's function and its keyword arguments. An option is
    `--name value` or `--name=value`, and the last of a repeated one wins;
    a bad command line raises ValueError."""
    tokens = iter(argv)
    command = next(tokens, None)
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}" if command
                         else "no command given")
    func, needs, _ = _COMMANDS[command]
    needs = ("config", "out", *needs)
    opts = {}
    for token in tokens:
        name, eq, value = token.partition("=")
        if not name.startswith("--") or name[2:] not in (*needs, "seed"):
            raise ValueError(f"{command} takes no option {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"{name} needs a value")
        opts[name[2:]] = value
    missing = [f"--{name}" for name in needs if name not in opts]
    if missing:
        raise ValueError(f"{command} needs {' and '.join(missing)}")
    try:
        if "seed" in opts:
            opts["seed"] = int(opts["seed"])
    except ValueError:
        raise ValueError(f"--seed {opts['seed']!r}: not an integer") from None
    return func, opts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(USAGE, end="")
        return 0
    try:
        func, opts = parse_args(argv)
    except ValueError as exc:
        print(f"{USAGE}edrsim: error: {exc}", file=sys.stderr)
        return 2
    try:
        return func(**opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
