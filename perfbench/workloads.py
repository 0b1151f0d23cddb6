"""The three benchmark workloads: inputs made from a seed, results read back.

Every input is generated here from the seed, never taken from the
repository: the config text, and for `dcr-thrash` a binary trace file that
`edrsim gen-trace` writes from a [synthetic] spec made here. A later change
to `configs/demo.cfg` therefore leaves the inputs unchanged, and a change to
the program's trace generator or writer shows as a golden mismatch.

`scale` multiplies every phase's instruction count; 1.0 is the benchmark
size, the smoke test uses a small fraction.
"""

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# Both golden seeds are checked on every run: each run replays one of them
# (chosen by the run's seed parity) besides its own seed.
DEFAULT_SEED = 42
HELD_OUT_SEED = 7
GOLDEN_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

# the report fields the golden check compares, per scheme
REPORT_FIELDS = ("total_energy_j", "total_cycles", "instructions", "rpki",
                 "mpki", "active_ratio_pct", "total_l2_hits",
                 "total_l2_misses", "total_refreshed_lines")

_COMMON = """\
[geometry]
l2_size_kb = 2048
associativity = 8
block_bytes = 64
page_kb = 4
bank_kb = 1024

[timing]
l2_hit_cycles = 12
dram_latency_cycles = 154
base_cpi = 1.0
clock_ghz = 2.2

[energy]
builtin = EDRAM_2MB

[run]
warmup_fraction = 0.1
interval_instructions = {interval}

"""

_SCHEMES = {
    "baseline": "kind = baseline_edram\nretention_period_us = 40\n",
    "rpv": "kind = rpv\nretention_period_us = 40\nphases = 4\n",
    "sram": "kind = sram\nenergy_builtin = SRAM_2MB\n",
    "dcr": "kind = dcr\nretention_period_us = 40\nbeta = 3.0\ndelta = 16\n",
}

SWEEP_VALUES = ("40", "30", "20", "10")

# dcr-thrash: large phases thrash the 2 MB cache, small ones fit in a few
# colors. The seed permutes the sizes, so every seed does the same amount of
# work and only the order and the addresses change.
_THRASH_BIG_KB = (4096, 5120, 6144, 8192)
_THRASH_SMALL_KB = (64, 128, 192, 256)
_THRASH_PHASE_INSTR = 1_500_000
_THRASH_WRITE_FRACTION = 0.6
_THRASH_REUSE = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the edrsim subcommand
    schemes: tuple[str, ...]
    interval: int

    @property
    def result_count(self) -> int:
        """Scheme results the command reports (each one a full replay)."""
        if self.command == "sweep":
            return len(self.schemes) * len(SWEEP_VALUES)
        return len(self.schemes)


WORKLOADS = {
    w.name: w for w in (
        Workload("demo-compare", "compare",
                 ("baseline", "rpv", "sram", "dcr"), 500_000),
        Workload("refresh-sweep", "sweep", ("baseline", "rpv", "sram"),
                 500_000),
        Workload("dcr-thrash", "compare", ("baseline", "dcr"), 200_000),
    )
}


def _instr(base: int, scale: float) -> int:
    return max(1000, int(base * scale))


def _synthetic(seed: int, phases: list[tuple[int, int, float, float]],
               scale: float) -> str:
    spec = "; ".join(f"{_instr(i, scale)}:{ws}:{wf}:{reuse}"
                     for i, ws, wf, reuse in phases)
    return (f"[trace]\nsynthetic = true\n\n[synthetic]\nseed = {seed}\n"
            f"accesses_per_kilo_instr = 20\nphases = {spec}\n\n")


def _thrash_phases(seed: int) -> list[tuple[int, int, float, float]]:
    rng = np.random.default_rng(seed)
    big = rng.permutation(_THRASH_BIG_KB).tolist()
    small = rng.permutation(_THRASH_SMALL_KB).tolist()
    return [(_THRASH_PHASE_INSTR, kb * 1024, _THRASH_WRITE_FRACTION,
             _THRASH_REUSE) for pair in zip(big, small) for kb in pair]


def _gen_trace(config: str, path: str) -> None:
    """Write the binary trace of `config`'s [synthetic] spec through the
    public CLI, as `edrsim gen-trace` would."""
    from edrsim import cli
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["gen-trace", "--config", config, "--out", path])
    if rc != 0:
        raise RuntimeError(f"edrsim gen-trace exited {rc}")


def prepare(workload: Workload, seed: int, directory: str,
            scale: float = 1.0) -> str:
    """Write the workload's inputs for `seed` into `directory`; return the
    config path."""
    os.makedirs(directory, exist_ok=True)
    if workload.name == "demo-compare":
        # configs/demo.cfg as shipped, with its three phases cut from 10M
        # to 2.5M instructions so that a run holds several samples
        trace = _synthetic(seed, [(2_500_000, 65536, 0.3, 0.5),
                                  (2_500_000, 1048576, 0.3, 0.5),
                                  (2_500_000, 131072, 0.3, 0.5)], scale)
    elif workload.name == "refresh-sweep":
        # read-mostly, two phases of 0.5 MB and 1.5 MB
        trace = _synthetic(seed, [(1_500_000, 524288, 0.1, 0.7),
                                  (1_500_000, 1572864, 0.1, 0.7)], scale)
    else:
        gen_config = os.path.join(directory, "gen.cfg")
        with open(gen_config, "w") as fh:
            fh.write(_COMMON.format(interval=workload.interval)
                     + _synthetic(seed, _thrash_phases(seed), scale))
        trace_path = os.path.join(directory, "trace.bin")
        _gen_trace(gen_config, trace_path)
        trace = f"[trace]\npath = {trace_path}\n\n"
    text = _COMMON.format(interval=workload.interval) + trace + "".join(
        f"[scheme.{name}]\n{_SCHEMES[name]}\n" for name in workload.schemes)
    path = os.path.join(directory, "bench.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def argv(workload: Workload, config: str, out: str) -> list[str]:
    """The `edrsim` command line for one run of the workload."""
    args = [workload.command, "--config", config, "--out", out]
    if workload.command == "sweep":
        args += ["--parameter", "refresh_period_us",
                 "--values", ",".join(SWEEP_VALUES)]
    return args


def read_results(workload: Workload, out: str):
    """The simulated results the command wrote: per scheme the report
    fields for `compare`, every row for `sweep`."""
    if workload.command == "sweep":
        with open(os.path.join(out, "sweep.csv"), newline="") as fh:
            return list(csv.DictReader(fh))
    results = {}
    for name in workload.schemes:
        with open(os.path.join(out, f"report-{name}.json")) as fh:
            report = json.load(fh)
        results[name] = {f: report[f] for f in REPORT_FIELDS}
    return results


def check_invariants(workload: Workload, results) -> list[str]:
    """Checks that hold at any seed. A seed without golden values has only
    these and the repeatability check."""
    problems = []
    if workload.command == "sweep":
        expected = [(v, s) for v in SWEEP_VALUES for s in workload.schemes]
        got = [(row["value"], row["scheme"]) for row in results]
        if got != [(repr(float(v)), s) for v, s in expected]:
            problems.append(f"sweep rows {got} != {expected}")
        for row in results:
            if not all(math.isfinite(float(row[k])) for k in
                       ("rpki", "mpki", "total_energy_j")):
                problems.append(f"non-finite sweep row {row}")
        return problems
    if sorted(results) != sorted(workload.schemes):
        return [f"schemes {sorted(results)} != {sorted(workload.schemes)}"]
    if len({r["instructions"] for r in results.values()}) != 1:
        problems.append("schemes report different instruction counts")
    # the cache replay does not depend on time, so every scheme that keeps
    # the full cache sees the same hits and misses
    fixed = [r for n, r in results.items() if n != "dcr"]
    if len({(r["total_l2_hits"], r["total_l2_misses"]) for r in fixed}) > 1:
        problems.append("full-size schemes disagree on hits/misses")
    for name, r in results.items():
        if not all(math.isfinite(v) for v in r.values()):
            problems.append(f"{name}: non-finite result {r}")
    return problems


def golden_mismatches(results, golden) -> list[str]:
    """Field-by-field, repr-exact comparison against recorded values.

    Only the fields present in `golden` are compared, so a report that gains
    new fields still matches.
    """
    if isinstance(golden, list):  # sweep rows
        if len(results) != len(golden):
            return [f"{len(results)} sweep rows, golden has {len(golden)}"]
        return [f"row {i} {k}: {row.get(k)!r} != {v!r}"
                for i, (row, want) in enumerate(zip(results, golden))
                for k, v in want.items() if row.get(k) != v]
    out = []
    for scheme, fields in golden.items():
        got = results.get(scheme)
        if got is None:
            out.append(f"{scheme}: missing")
            continue
        out += [f"{scheme}.{k}: {got.get(k)!r} != {v!r}"
                for k, v in fields.items() if repr(got.get(k)) != repr(v)]
    return out
