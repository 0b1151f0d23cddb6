import errno
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import edrsim
import oracles
from edrsim import sim
from edrsim.cli import (USAGE, _json_fill, _json_pieces, _sweep_reports,
                        _write, main, parse_args)
from edrsim.config import ConfigError, load_config, load_sweep
from edrsim.controller import Candidate, Decision
from edrsim.energy import EnergyBreakdown, SchemeKind
from edrsim.passes import Passes
from edrsim.profiler import IntervalStats
from edrsim.record import Record
from edrsim.refresh import RefreshConfig
from edrsim.sim import (ComparisonRow, RunReport, SchemeConfigError, compare,
                        run, run_schemes)
from edrsim.trace import generate_synthetic, read_trace_arrays

BASE_CONFIG = """
[geometry]
l2_size_kb = 64
associativity = 8
block_bytes = 64
page_kb = 1
bank_kb = 32

[timing]
clock_ghz = 2.0

[energy]
builtin = EDRAM_2MB

[run]
warmup_fraction = 0.1
interval_instructions = 100000

[trace]
synthetic = true

[synthetic]
seed = 5
accesses_per_kilo_instr = 20
phases = 400000:24576:0.3:0.2; 400000:8192:0.3:0.2

[scheme.baseline]
kind = baseline_edram
retention_period_us = 1

[scheme.rpv]
kind = rpv
retention_period_us = 1
phases = 4

[scheme.sram]
kind = sram
energy_builtin = SRAM_2MB

[scheme.dcr]
kind = dcr
retention_period_us = 1
delta = 4
sampling_ratio_denom = 2
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return str(path)


def test_load_config_round_trip(config_file):
    cfg = load_config(config_file)
    assert cfg.geometry.color_count == 8
    assert cfg.timing.clock_ghz == 2.0
    assert [s.name for s in cfg.schemes] == ["baseline", "rpv", "sram", "dcr"]
    assert cfg.schemes[1].refresh.phases == 4
    assert cfg.schemes[3].controller is not None
    assert cfg.interval_instructions == 100_000
    assert cfg.synthetic is not None and len(cfg.synthetic.phases) == 2


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CONFIG.replace("[timing]\nclock_ghz = 2.0",
                                        "[timing]\nclock_gz = 2.0"))
    with pytest.raises(ConfigError, match="clock_gz"):
        load_config(str(path))


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CONFIG + "\n[typo]\nx = 1\n")
    with pytest.raises(ConfigError, match="typo"):
        load_config(str(path))


def test_energy_overrides_need_all_seven(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CONFIG.replace("builtin = EDRAM_2MB",
                                        "e_dyn_l2 = 0.648"))
    with pytest.raises(ConfigError, match="all seven fields; missing"):
        load_config(str(path))


_ENERGY_OVERRIDES = """e_dyn_l2 = 0.648
p_leak_l2 = 0.162
e_dyn_dram = 70
p_leak_dram = 0.18
e_transition = 2
e_dyn_prof = 0.0031
p_leak_prof = 0.005"""


def test_energy_override_block(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text(BASE_CONFIG.replace("builtin = EDRAM_2MB",
                                        _ENERGY_OVERRIDES))
    cfg = load_config(str(path))
    assert cfg.energy.p_leak_l2 == 0.162


def test_gen_trace_and_determinism(config_file, tmp_path):
    out_a = str(tmp_path / "a.trace")
    out_b = str(tmp_path / "b.trace")
    assert main(["gen-trace", "--config", config_file, "--out", out_a]) == 0
    assert main(["gen-trace", "--config", config_file, "--out", out_b]) == 0
    with open(out_a, "rb") as fh:
        bytes_a = fh.read()
    with open(out_b, "rb") as fh:
        bytes_b = fh.read()
    assert bytes_a == bytes_b
    with open(out_a, "rb") as fh:
        header, arrays = read_trace_arrays(fh)
    assert header.record_count == len(arrays) > 0
    assert arrays.instructions == 800_000
    assert hashlib.sha256(bytes_a).hexdigest() == \
        "59ca7a6299ea781f0006b03005a9e72679e979a74a3fc8bdc2f1c836212e923b"


def test_gen_trace_refusing_an_op_writes_no_file(config_file, tmp_path,
                                                  monkeypatch, capsys):
    generate = edrsim.trace.generate_synthetic

    def with_a_bad_op(spec):
        arrays = generate(spec)
        arrays.ops[len(arrays) // 2] = 7
        return arrays
    monkeypatch.setattr("edrsim.trace.generate_synthetic", with_a_bad_op)
    out = tmp_path / "out"
    assert main(["gen-trace", "--config", config_file,
                 "--out", str(out / "a.trace")]) == 1
    assert "op 7 is neither READ" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_gen_trace_names_a_trace_path_that_drops_the_synthetic_spec(
        tmp_path, capsys):
    # the config has a [synthetic] section, which its [trace] path leaves
    # unused
    path = tmp_path / "file.cfg"
    path.write_text(BASE_CONFIG.replace(
        "synthetic = true", f"path = {tmp_path / 'in.trace'}"))
    out = tmp_path / "out"
    assert main(["gen-trace", "--config", str(path),
                 "--out", str(out / "a.trace")]) == 2
    err = capsys.readouterr().err
    assert "[trace] path = " in err and "[trace] synthetic = true" in err
    assert "needs a [synthetic] section" not in err
    assert not out.exists()


def test_run_command_writes_reports(config_file, tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", "--config", config_file, "--out", out]) == 0
    for name in ("baseline", "rpv", "sram", "dcr"):
        path = os.path.join(out, f"report-{name}.json")
        assert os.path.exists(path)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["scheme"] == name
        assert doc["instructions"] > 0
        assert os.path.exists(os.path.join(out, f"report-{name}.intervals.csv"))


def test_run_on_pregenerated_trace(config_file, tmp_path):
    trace_path = str(tmp_path / "t.trace")
    assert main(["gen-trace", "--config", config_file, "--out", trace_path]) == 0
    cfg_text = BASE_CONFIG.replace(
        "[trace]\nsynthetic = true",
        f"[trace]\npath = {trace_path}")
    path = tmp_path / "file.cfg"
    path.write_text(cfg_text)
    out = str(tmp_path / "out2")
    assert main(["run", "--config", str(path), "--out", out]) == 0


def test_trace_description_that_is_not_utf8_is_named(config_file, tmp_path,
                                                     capsys):
    # the CLI used to print only the codec's own "'utf-8' codec can't decode"
    trace_path = tmp_path / "t.trace"
    assert main(["gen-trace", "--config", config_file,
                 "--out", str(trace_path)]) == 0
    data = bytearray(trace_path.read_bytes())
    data[24:28] = (1).to_bytes(4, "little")  # desc_len, then one byte
    trace_path.write_bytes(data[:28] + b"\xff" + data[28:])
    path = tmp_path / "file.cfg"
    path.write_text(BASE_CONFIG.replace("[trace]\nsynthetic = true",
                                        f"[trace]\npath = {trace_path}"))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: trace description is not "
                                       "UTF-8: byte 0xff at offset 0\n")
    assert not out.exists()


def test_run_on_a_truncated_trace_writes_nothing(config_file, tmp_path,
                                                 capsys):
    trace_path = tmp_path / "t.trace"
    assert main(["gen-trace", "--config", config_file,
                 "--out", str(trace_path)]) == 0
    data = trace_path.read_bytes()
    n = int.from_bytes(data[12:20], "little")  # the header's record count
    trace_path.write_bytes(data[:-20])  # the last record and a bit more
    path = tmp_path / "file.cfg"
    path.write_text(BASE_CONFIG.replace("[trace]\nsynthetic = true",
                                        f"[trace]\npath = {trace_path}"))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: truncated record at index {n - 2}\n"
    assert not out.exists()


def test_compare_command(config_file, tmp_path):
    out = str(tmp_path / "cmp")
    assert main(["compare", "--config", config_file, "--out", out]) == 0
    with open(os.path.join(out, "comparison.json")) as fh:
        doc = json.load(fh)
    assert doc["baseline"] == "baseline"
    assert [r["scheme"] for r in doc["rows"]] == ["rpv", "sram", "dcr"]
    csv_path = os.path.join(out, "comparison.csv")
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("scheme,")
    assert len(lines) == 4  # header + three non-baseline schemes


def test_compare_missing_baseline_is_config_error(tmp_path, monkeypatch,
                                                  capsys):
    # compare and sweep measure every scheme against the baseline; without
    # one, they used to draw the trace and then fail with exit 1
    text = BASE_CONFIG.replace("[scheme.baseline]\nkind = baseline_edram\nretention_period_us = 1\n", "")
    path = tmp_path / "nobase.cfg"
    path.write_text(text)
    monkeypatch.setattr(edrsim.trace, "generate_synthetic",
                        lambda spec: pytest.fail("the trace was drawn"))
    for command in (["compare"],
                    ["sweep", "--parameter", "beta", "--values", "1,3"]):
        out = tmp_path / command[0]
        rc = main([command[0], "--config", str(path), "--out", str(out),
                   *command[1:]])
        assert rc == 2
        assert not out.exists()
        assert "including the baseline" in capsys.readouterr().err


def test_invalid_config_creates_no_output(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CONFIG + "\n[typo]\nx = 1\n")
    out = str(tmp_path / "outdir")
    rc = main(["run", "--config", str(path), "--out", out])
    assert rc == 2
    assert not os.path.exists(out)


def test_domain_validation_failures_are_config_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CONFIG.replace("l2_size_kb = 64", "l2_size_kb = 48"))
    out = str(tmp_path / "outdir")
    rc = main(["run", "--config", str(path), "--out", out])  # not a power of two
    assert rc == 2
    assert not os.path.exists(out)
    with pytest.raises(ConfigError):
        load_config(str(path))


_SYNTH_RATE_AND_PHASES = """accesses_per_kilo_instr = 20
phases = 400000:24576:0.3:0.2; 400000:8192:0.3:0.2"""
# RPV's refresh keys; `phases = 4` alone also starts [synthetic]'s phases
_RPV_REFRESH = "retention_period_us = 1\nphases = 4"


@pytest.mark.parametrize("old, new, error", [
    # the clock is [timing]'s; a second one in [energy] could only disagree
    ("builtin = EDRAM_2MB", _ENERGY_OVERRIDES + "\nclock_ghz = 3.0",
     "unknown key.*clock_ghz"),
    # 2**26 blocks of 64 B, plus one: the phase would overlap the next one
    ("400000:24576:0.3:0.2", f"400000:{(2**26 + 1) * 64}:0.3:0.2",
     "wider than 67108864 blocks"),
    # an interval of 0 instructions would close after every record, and
    # the run would never end
    ("interval_instructions = 100000", "interval_instructions = 0",
     "interval_instructions must be >= 1"),
    # a NaN CPI compared false with the unit-CPI snap and ran as CPI 1.0
    ("clock_ghz = 2.0", "clock_ghz = 2.0\nbase_cpi = nan",
     "base_cpi must be a finite number"),
    ("clock_ghz = 2.0", "clock_ghz = 2.0\nbase_cpi = inf",
     "base_cpi must be a finite number"),
    ("clock_ghz = 2.0", "clock_ghz = nan", "clock_ghz must be a finite number"),
    # NaN or infinite energy constants made NaN reports, which are not JSON
    ("builtin = EDRAM_2MB", _ENERGY_OVERRIDES.replace("p_leak_l2 = 0.162",
                                                      "p_leak_l2 = nan"),
     "p_leak_l2 must be a finite number"),
    ("builtin = EDRAM_2MB", _ENERGY_OVERRIDES.replace("e_dyn_dram = 70",
                                                      "e_dyn_dram = inf"),
     "e_dyn_dram must be a finite number"),
    ("warmup_fraction = 0.1", "warmup_fraction = -0.5",
     r"warmup_fraction must be in \[0, 1\)"),
    ("warmup_fraction = 0.1", "warmup_fraction = nan",
     r"warmup_fraction must be in \[0, 1\)"),
    ("warmup_fraction = 0.1", "warmup_fraction = 1.5",
     r"warmup_fraction must be in \[0, 1\)"),
    ("warmup_fraction = 0.1", "warmup_instructions = -5",
     "warmup_instructions must be >= 0"),
    ("accesses_per_kilo_instr = 20", "accesses_per_kilo_instr = inf",
     "accesses_per_kilo_instr must be a finite number"),
    ("accesses_per_kilo_instr = 20", "accesses_per_kilo_instr = nan",
     "accesses_per_kilo_instr must be a finite number"),
    # configparser's own errors used to escape as a traceback
    ("delta = 4", "delta = 4\ndelta = 8", "option 'delta'.*already exists"),
    # a [synthetic] section is checked even where [trace] reads a file
    ("synthetic = true\n\n[synthetic]\nseed = 5",
     "path = never.trace\n\n[synthetic]\nseed = 5\nbogus_key = 1",
     r"\[synthetic\] unknown key\(s\): bogus_key"),
    # [trace] synthetic is true or false: `maybe` beside a path read as
    # false, and `yes` as "sets neither path nor synthetic = true"
    ("synthetic = true", "synthetic = maybe\npath = x.trace",
     r"\[trace\] synthetic: 'maybe' is neither true nor false"),
    ("synthetic = true", "synthetic = yes",
     r"\[trace\] synthetic: 'yes' is neither true nor false"),
    # a negative seed failed only when the trace was drawn, with exit 1
    ("seed = 5", "seed = -3", "seed must be >= 0, got -3"),
    # blocks are [geometry]'s, and a description was never read
    ("seed = 5", "seed = 5\nblock_bytes = 64",
     r"\[synthetic\] unknown key\(s\): block_bytes"),
    ("seed = 5", "seed = 5\ndescription = demo",
     r"\[synthetic\] unknown key\(s\): description"),
    # phases the generator cannot draw used to run silently wrong
    (_SYNTH_RATE_AND_PHASES, "accesses_per_kilo_instr = 1e-7\n"
     "phases = 10000000000:4096:0:0", "does not fit the generator"),
    (_SYNTH_RATE_AND_PHASES, "accesses_per_kilo_instr = 1e-3\n"
     "phases = 10000000000000:4096:0:0", "does not fit the generator"),
    (_SYNTH_RATE_AND_PHASES, "accesses_per_kilo_instr = 1e-10\n"
     f"phases = {2**64 + 5}:4096:0:0", "does not fit the generator"),
    # its record count used to escape as an OverflowError traceback
    (_SYNTH_RATE_AND_PHASES, "accesses_per_kilo_instr = 20\n"
     f"phases = {10**400}:4096:0:0", "does not fit the generator"),
    # values past the compiled timing pass's int64s: ctypes cut the latency
    # to 12 without a word, and the others escaped as OverflowError
    # tracebacks after the trace was drawn
    ("clock_ghz = 2.0", f"clock_ghz = 2.0\nl2_hit_cycles = {2**64 + 12}",
     r"latencies must be > 0 and below 2\*\*63"),
    ("interval_instructions = 100000",
     "interval_instructions = 10000000000000000000",
     r"interval_instructions must be >= 1 and below 2\*\*63"),
    ("warmup_fraction = 0.1", f"warmup_instructions = {2**63}",
     r"warmup_instructions must be >= 0 and below 2\*\*63"),
    ("retention_period_us = 1", "retention_period_us = 100000000000000000",
     r"retention_cycles must be > 0 and below 2\*\*63"),
    # an option, on the config as it is
    ("--seed", "-5", "--seed -5: seed must be >= 0, got -5"),
    # candidate_space divided by it, or drew no candidate, after the
    # simulation had started
    ("delta = 4", "delta = 4\ngranularity = 0",
     "granularity must be >= 1, got 0"),
    ("delta = 4", "delta = 4\ngranularity = -2",
     "granularity must be >= 1, got -2"),
    # no candidate at the first decision: the whole trace ran before it
    # failed with exit 1 and "min() arg is an empty sequence"
    ("delta = 4", "delta = 16\ngranularity = 16",
     r"no multiple of granularity 16 lies in \[1, 8\]"),
    ("delta = 4", "delta = 5\nc_min = 7\ngranularity = 5",
     r"no multiple of granularity 5 lies in \[7, 8\]"),
    # a byte numbers RPV's phases: 400 phases divide the 2000-cycle
    # retention and used to run on a four-byte phase column; 10**9 would
    # have allocated 8 GB of refresh counters per bank
    (_RPV_REFRESH, "retention_period_us = 1\nphases = 0",
     r"phases must be in \[1, 256\], got 0"),
    (_RPV_REFRESH, "retention_period_us = 1\nphases = 257",
     r"phases must be in \[1, 256\], got 257"),
    (_RPV_REFRESH, "retention_period_us = 1\nphases = 400",
     r"phases must be in \[1, 256\], got 400"),
    (_RPV_REFRESH, "retention_period_us = 1000000\nphases = 1000000000",
     r"phases must be in \[1, 256\], got 1000000000"),
    # the synthetic trace holds 800,000 instructions: this failed with
    # exit 1 once the trace was drawn
    ("warmup_fraction = 0.1", "warmup_instructions = 800000",
     "warmup_instructions 800000 must be shorter than the synthetic "
     "trace's 800000 instructions"),
    # the rest of load_config's checks, one case each
    ("l2_size_kb = 64\n", "",
     r"missing required key 'l2_size_kb' in \[geometry\]"),
    ("400000:24576:0.3:0.2", "400000:24576:0.3",
     r"\[synthetic\] phase 1 '400000:24576:0.3' must be instructions:"),
    ("phases = 400000:24576:0.3:0.2; 400000:8192:0.3:0.2", "phases = ;",
     r"\[synthetic\] phases list is empty"),
    ("builtin = EDRAM_2MB", "builtin = EDRAM_2MB\ne_dyn_dram = 70",
     r"\[energy\] builtin cannot be mixed with overrides: e_dyn_dram"),
    ("retention_period_us = 1", "retention_period_us = 0",
     "retention period must be > 0"),
    ("kind = sram", "kind = dram", r"\[scheme.sram\] kind must be one of"),
    ("kind = sram", "kind = sram\nretention_period_us = 1",
     r"\[scheme.sram\] SRAM scheme takes no refresh keys"),
    ("kind = baseline_edram", "kind = baseline_edram\ndelta = 4",
     r"\[scheme.baseline\] key 'delta' is only valid for kind=dcr"),
    ("[geometry]\nl2_size_kb = 64\nassociativity = 8\nblock_bytes = 64\n"
     "page_kb = 1\nbank_kb = 32\n", "", r"missing \[geometry\] section"),
    ("[energy]\nbuiltin = EDRAM_2MB\n", "", r"missing \[energy\] section"),
    ("warmup_fraction = 0.1", "warmup_fraction = 0.1\nwarmup_instructions = 5",
     r"\[run\] set warmup_instructions or warmup_fraction, not both"),
    ("synthetic = true", "synthetic = true\npath = x.trace",
     r"\[trace\] set path or synthetic=true, not both"),
    ("[synthetic]\nseed = 5\n" + _SYNTH_RATE_AND_PHASES, "",
     r"\[trace\] synthetic=true needs a \[synthetic\] section"),
    # the geometry's own checks
    ("block_bytes = 64", "block_bytes = 2048",
     "page_bytes must be >= block_bytes"),
    ("page_kb = 1", "page_kb = 16", "color count is not integral"),
], ids=["energy clock", "phase past the stride", "empty interval",
        "nan cpi", "inf cpi", "nan clock", "nan leakage", "inf dram energy",
        "negative warm-up fraction", "nan warm-up fraction",
        "warm-up fraction above 1", "negative warm-up",
        "inf access rate", "nan access rate", "duplicate key",
        "unused synthetic section", "synthetic maybe beside a path",
        "synthetic yes", "negative seed", "synthetic block size",
        "synthetic description", "gap past u32", "edge past u64",
        "instructions past u64", "instructions past a float",
        "hit latency past int64", "interval past int64", "warm-up past int64",
        "retention past int64", "negative --seed", "zero granularity",
        "negative granularity", "granularity above the colors",
        "no multiple from c_min", "no phase", "phases past a byte",
        "phases dividing the retention", "a billion phases",
        "warm-up of the whole trace", "missing key", "phase of 3 fields",
        "no phases", "builtin and overrides", "zero retention",
        "unknown kind", "sram with refresh", "dcr key on the baseline",
        "no geometry", "no energy", "both warm-ups",
        "path and synthetic", "synthetic without its section",
        "page below a block", "colors not integral"])
def test_config_error_writes_no_output(tmp_path, capsys, old, new, error):
    path = tmp_path / "bad.cfg"
    options = []
    if old.startswith("--"):
        path.write_text(BASE_CONFIG)
        options = [old, new]
    else:
        path.write_text(BASE_CONFIG.replace(old, new))
        with pytest.raises(ConfigError, match=error):
            load_config(str(path))
    out = str(tmp_path / "outdir")
    assert main(["compare", "--config", str(path), "--out", out,
                 *options]) == 2
    assert not os.path.exists(out)
    assert re.search(error, capsys.readouterr().err)


@pytest.mark.parametrize("argv, error", [
    (["compare", "--config", "MISSING", "--out", "OUT"],
     "cannot read config file .*missing.cfg"),
    (["run", "--config", "NO_SCHEMES", "--out", "OUT"],
     r"config needs at least 1 \[scheme\.\*\] section"),
    (["sweep", "--config", "CFG", "--out", "OUT", "--parameter", "beta",
      "--values", ","], "--values must list at least one value"),
], ids=["unreadable file", "run without a scheme", "sweep of no value"])
def test_command_config_error_writes_no_output(config_file, tmp_path, capsys,
                                               argv, error):
    # the config errors that a command raises beside load_config's
    no_schemes = tmp_path / "no-schemes.cfg"
    no_schemes.write_text(BASE_CONFIG[:BASE_CONFIG.index("[scheme.")])
    out = tmp_path / "out"
    argv = [{"CFG": config_file, "MISSING": str(tmp_path / "missing.cfg"),
             "NO_SCHEMES": str(no_schemes), "OUT": str(out)}.get(a, a)
            for a in argv]
    func, opts = parse_args(argv)
    with pytest.raises(ConfigError, match=error):
        func(**opts)
    assert main(argv) == 2
    assert not out.exists()
    assert re.search(error, capsys.readouterr().err)


def test_clock_past_int64_writes_no_output(tmp_path, capsys):
    # every value is in range, but at 1e300 cycles per instruction the
    # baseline used to report -9223372036854775808 cycles and exit 0
    path = tmp_path / "slow.cfg"
    baseline_only = BASE_CONFIG[:BASE_CONFIG.index("[scheme.rpv]")]
    path.write_text(baseline_only.replace(
        "clock_ghz = 2.0", "clock_ghz = 2.0\nbase_cpi = 1e300"))
    load_config(str(path))
    out = str(tmp_path / "outdir")
    assert main(["run", "--config", str(path), "--out", out]) == 1
    assert not os.path.exists(out)
    assert "could take 2**62 cycles or more" in capsys.readouterr().err


def test_bank_smaller_than_a_set_writes_no_output(tmp_path, capsys):
    # configs/demo.cfg with sets of 32 64-byte blocks, 2 KB, in 1 KB banks:
    # no bank held a whole set, and the kernel divided by 0 sets per bank,
    # which killed the process with SIGFPE (exit 136)
    demo = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "demo.cfg")
    with open(demo) as fh:
        text = fh.read()
    path = tmp_path / "banks.cfg"
    path.write_text(text.replace("associativity = 8", "associativity = 32")
                    .replace("bank_kb = 1024", "bank_kb = 1"))
    error = "a bank of 1024 bytes is smaller than one set of 32"
    with pytest.raises(ConfigError, match=error):
        load_config(str(path))
    out = str(tmp_path / "outdir")
    assert main(["compare", "--config", str(path), "--out", out]) == 2
    assert not os.path.exists(out)
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("phases, error", [
    ("x:65536:0.3:0.5",
     "[synthetic] phase 1: invalid literal for int() with base 10: 'x'"),
    ("1000:65536:0.3:0.5; 1000:65536:nan:0.5",
     "[synthetic] phase 2: write_fraction must be in [0, 1]"),
    ("1000:65536:0.3:0.5; 1000:64:0:0; 1000:0:0:0",
     "[synthetic] phase 3: working_set_bytes must be > 0"),
], ids=["instructions", "write fraction", "working set"])
def test_synthetic_phase_errors_name_their_phase(tmp_path, capsys, phases,
                                                 error):
    path = tmp_path / "phases.cfg"
    path.write_text(BASE_CONFIG.replace(
        "phases = 400000:24576:0.3:0.2; 400000:8192:0.3:0.2",
        f"phases = {phases}"))
    out = str(tmp_path / "outdir")
    assert main(["run", "--config", str(path), "--out", out]) == 2
    assert not os.path.exists(out)
    assert capsys.readouterr().err == f"config error: {error}\n"


_SEPARATOR = "be non-empty and hold no path separator"
_FILE_NAME = "hold no NUL byte and at most 234 bytes"


@pytest.mark.parametrize("command, name, rule", [
    # report-a/../../../escaped.json resolves outside --out: compare wrote
    # its comparison and some reports, then failed (exit 1) to rename into
    # place a temporary file made outside --out
    ("compare", "a/../../../escaped", _SEPARATOR),
    # the empty name fell back to the kind's, so run wrote this scheme and
    # [scheme.rpv] to one report-rpv.json and exited 0
    ("run", "", _SEPARATOR),
    # report-NAME.json is 262 bytes, more than a file name holds: compare
    # wrote its comparison and the reports before it, then exited 1
    ("compare", "s" * 250, _FILE_NAME),
    # report-NAME.intervals.csv is 256 bytes: run wrote the other schemes'
    # reports, then exited 1
    ("run", "s" * 235, _FILE_NAME),
    ("run", "é" * 117 + "s", _FILE_NAME),  # 235 bytes in 118 characters
    # run wrote the other schemes' reports, then exited 1 on the embedded
    # null byte
    ("run", "a\0b", _FILE_NAME),
], ids=["separator", "empty", "too long", "one byte too long",
        "too long in bytes", "nul"])
def test_a_scheme_name_that_cannot_name_a_file_is_config_error(
        tmp_path, capsys, command, name, rule):
    path = tmp_path / "names.cfg"
    path.write_text(BASE_CONFIG + f"\n[scheme.{name}]\nkind = rpv\n"
                    "retention_period_us = 1\n")
    out = tmp_path / "deep" / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert os.listdir(tmp_path) == ["names.cfg"]
    assert capsys.readouterr().err == (
        f"config error: [scheme.{name}] a scheme's name must {rule}\n")


def test_a_scheme_name_of_234_bytes_names_its_files(tmp_path):
    # the longest name whose report-NAME.intervals.csv fits 255 bytes
    path = tmp_path / "names.cfg"
    name = "s" * 234
    path.write_text(BASE_CONFIG + f"\n[scheme.{name}]\nkind = sram\n"
                    "energy_builtin = SRAM_2MB\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert os.path.exists(out / f"report-{name}.intervals.csv")


def test_more_than_16_ways_writes_no_output(tmp_path, capsys):
    # configs/demo.cfg with 32-way sets in its 1 MB banks: a hit's code
    # byte numbers the line's age in four bits, so at most 16 ways
    demo = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "demo.cfg")
    with open(demo) as fh:
        text = fh.read()
    assert "bank_kb = 1024" in text
    path = tmp_path / "ways.cfg"
    path.write_text(text.replace("associativity = 8", "associativity = 32"))
    error = "associativity must be at most 16, got 32"
    with pytest.raises(ConfigError, match=error):
        load_config(str(path))
    out = str(tmp_path / "outdir")
    assert main(["compare", "--config", str(path), "--out", out]) == 2
    assert not os.path.exists(out)
    assert error in capsys.readouterr().err


def test_one_byte_blocks_write_no_output(tmp_path, capsys):
    # a line slot keeps its dirty bit above a tag of 63 bits, so a block
    # holds 2 bytes or more
    path = tmp_path / "blocks.cfg"
    path.write_text(BASE_CONFIG.replace("block_bytes = 64", "block_bytes = 1"))
    error = "need size_bytes >= bank_bytes >= block_bytes >= 2"
    with pytest.raises(ConfigError, match=error):
        load_config(str(path))
    out = str(tmp_path / "outdir")
    assert main(["compare", "--config", str(path), "--out", out]) == 2
    assert not os.path.exists(out)
    assert capsys.readouterr().err == f"config error: {error}\n"


@pytest.mark.parametrize("dropped", [True, False],
                         ids=["drops [synthetic]", "no [synthetic]"])
def test_a_trace_section_that_selects_no_trace_writes_no_output(
        tmp_path, capsys, dropped):
    # [trace] synthetic = false and no path: load_config fails, and names
    # the [synthetic] section that goes unused if there is one
    text = BASE_CONFIG.replace("[trace]\nsynthetic = true",
                               "[trace]\nsynthetic = false")
    if not dropped:
        text = re.sub(r"\[synthetic\]\n(?:\w.*\n)+", "", text)
    path = tmp_path / "trace.cfg"
    path.write_text(text)
    error = ("[trace] sets neither path nor synthetic = true, so it selects "
             "no trace" + " and drops the [synthetic] section" * dropped)
    with pytest.raises(ConfigError, match=re.escape(error) + "$"):
        load_config(str(path))
    out = str(tmp_path / "outdir")
    assert main(["compare", "--config", str(path), "--out", out]) == 2
    assert not os.path.exists(out)
    assert capsys.readouterr().err == f"config error: {error}\n"


@pytest.mark.parametrize("value", ["TRUE", "False"])
def test_trace_synthetic_is_true_or_false_in_any_case(tmp_path, value):
    synthetic = value.lower() == "true"
    path = "" if synthetic else "\npath = x.trace"
    text = BASE_CONFIG.replace("[trace]\nsynthetic = true",
                               f"[trace]\nsynthetic = {value}{path}")
    (tmp_path / "trace.cfg").write_text(text)
    cfg = load_config(str(tmp_path / "trace.cfg"))
    assert (cfg.synthetic is not None, cfg.trace_path) == \
        (synthetic, None if synthetic else "x.trace")


def test_a_config_with_no_trace_source_writes_no_output(tmp_path, capsys):
    # neither a [trace] nor a [synthetic] section: load_config (and so a
    # sweep's load) fails and names both sections
    text = re.sub(r"\[synthetic\]\n(?:\w.*\n)+", "",
                  BASE_CONFIG.replace("[trace]\nsynthetic = true\n", ""))
    assert "[trace]" not in text and "[synthetic]" not in text
    path = tmp_path / "none.cfg"
    path.write_text(text)
    error = ("config has neither a [trace] nor a [synthetic] section, so it "
             "selects no trace")
    with pytest.raises(ConfigError, match=re.escape(error) + "$"):
        load_config(str(path))
    with pytest.raises(ConfigError, match=re.escape(error) + "$"):
        load_sweep(str(path), "beta", ["1"])
    out = str(tmp_path / "outdir")
    assert main(["compare", "--config", str(path), "--out", out]) == 2
    assert not os.path.exists(out)
    assert capsys.readouterr().err == f"config error: {error}\n"


@pytest.mark.parametrize("name, phases, error", [
    ("rpv", "400", r"^\[scheme\.rpv\] phases must be in \[1, 256\], got 400$"),
    ("rpv8", "400", r"^\[scheme\.rpv8\] phases must be in \[1, 256\], "
                    r"got 400$"),
    ("rpv8", "7", r"^\[scheme\.rpv8\] retention_cycles 88000 not divisible "
                  r"by 7 phases$"),
    ("baseline", "2", r"^\[scheme\.baseline\] baseline_edram scheme uses "
                      r"whole-period refresh \(phases=1\)$"),
], ids=["first rpv", "second rpv", "second rpv divisor", "baseline"])
def test_scheme_errors_name_their_section(tmp_path, capsys, name, phases,
                                          error):
    # configs/demo.cfg's schemes with a second RPV section: a bad value in
    # either must say which section holds it
    demo = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "demo.cfg")
    with open(demo) as fh:
        text = fh.read()
    sections = {
        "baseline": {"kind": "baseline_edram", "retention_period_us": "40"},
        "rpv": {"kind": "rpv", "retention_period_us": "40", "phases": "4"},
        "rpv8": {"kind": "rpv", "retention_period_us": "40", "phases": "8"}}
    sections[name]["phases"] = phases
    path = tmp_path / "schemes.cfg"
    path.write_text(text[:text.index("[scheme.")] + "".join(
        f"[scheme.{section}]\n"
        + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for section, keys in sections.items()))
    with pytest.raises(ConfigError, match=error):
        load_config(str(path))
    out = str(tmp_path / "outdir")
    assert main(["compare", "--config", str(path), "--out", out]) == 2
    assert not os.path.exists(out)
    assert re.search(error[1:], capsys.readouterr().err, re.M)


def test_sweep_command(config_file, tmp_path):
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", config_file, "--out", out,
                 "--parameter", "refresh_period_us", "--values", "1,2"]) == 0
    with open(os.path.join(out, "sweep.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("parameter,value,scheme")
    # 2 values x (baseline + 3 rows)
    assert len(lines) == 1 + 2 * 4


_GOLDEN_SHA256 = {
    "cmp/comparison.csv":
        "632d70b7e80bbf15744a71105419536b8aa1a3b6a360ae563ea4249d8c18abf5",
    "cmp/comparison.json":
        "0ab2462451f907f7d625c2930913a2dad38528cd16f16cd772ea54ce7c8a193b",
    "cmp/report-baseline.json":
        "218b87ec1f101641fac522653529814c912b99ad0e9a83b373b7deb26bf53d5c",
    "cmp/report-dcr.json":
        "25fb23bfac527de11b95db598c321e33eb0fd0b5054398b7468cb5c50c58ee75",
    "cmp/report-rpv.json":
        "9b1d417f1ae173188da43d923ab3e9803dfbfb8f59c6c7a8bae63e022135b9b2",
    "cmp/report-sram.json":
        "040c2ae5eab29e3bdb652386d8de5f820789daab3cd3722882d380f56457db8b",
    "sweep/sweep.csv":
        "40bed0615f6020b3cb29dcccaaa31ebdd19d5d075c87428ce3e2dd8e09c2b23c",
}


def _json_digest(path) -> str:
    """The sha256 a JSON report's golden digest records: of its document
    indented as `json.dumps(indent=2, sort_keys=True)` writes it, plus a
    newline. The file itself must be that document's compact, key-sorted,
    ASCII encoding plus a newline, so the two pin its bytes."""
    data = path.read_bytes()
    doc = json.loads(data)
    assert data == (json.dumps(doc, sort_keys=True, separators=(",", ":"))
                    + "\n").encode()
    return hashlib.sha256(
        (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()).hexdigest()


def test_reports_match_golden_digests(config_file, tmp_path):
    # criterion 10 compares two runs of one build; these digests pin the
    # report bytes across changes to the serialization code
    assert main(["compare", "--config", config_file,
                 "--out", str(tmp_path / "cmp")]) == 0
    assert main(["sweep", "--config", config_file, "--out", str(tmp_path / "sweep"),
                 "--parameter", "refresh_period_us", "--values", "1,2"]) == 0
    digests = {}
    for sub in ("cmp", "sweep"):
        for name in os.listdir(tmp_path / sub):
            path = tmp_path / sub / name
            digests[f"{sub}/{name}"] = _json_digest(path) \
                if name.endswith(".json") else \
                hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == _GOLDEN_SHA256


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-(1 << 200), 1 << 200),
    st.floats(),  # NaN and the infinities included
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300,
                     -1e-300, 1e16, 0.1]),
    st.text(),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f\n\t\r", "e\u0301 \u00e9",
                     "\u2603 \U0001d11e", "\ud800"]))
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text() | st.sampled_from(['"', "\\", "\u00e9", ""]),
                      inner, max_size=6),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(_JSON_DOCS)
@example({"a": [True, False, 1, 0, None, [], {}], "b": {"": -0.0},
          "\u00e9": [float("nan"), float("inf"), -float("inf"), 5e-324]})
@example({"intervals": [], "rows": [1], "z": {}})
@example({"decisions": [Candidate(2, 1.5, -0.0, float("inf"), False),
                        EnergyBreakdown(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 2.1)],
          "kind": SchemeKind.DCR, "rows": [SchemeKind.RPV, None]})
@example({"a": [[1, [2, []]], [], [[{"b": [[]]}]]], "c": [[]]})
@example([{"a": [1, 2]}, [], "\u00e9"])
@example("top")
@example({})
@example(Candidate(3, 2.0, 0.5, 1e-9, True))
def test_json_bytes_are_the_bytes_of_json_dumps(doc):
    # the joined pieces are json.dumps's one-shot compact encoding, each
    # record as the dict of its fields and a scheme kind as its value
    assert "".join(_json_pieces(doc)) == json.dumps(
        oracles.plain(doc), sort_keys=True, separators=(",", ":")) + "\n"


def test_json_bytes_of_reports_are_the_bytes_of_their_plain_trees(
        config_file, tmp_path):
    # every report kind, decisions and comparison rows included, written to
    # a file, reads back as the report as a tree of dicts and lists
    cfg = load_config(config_file)
    report = compare(generate_synthetic(cfg.synthetic), cfg.schemes,
                     cfg.geometry, cfg.timing, cfg.energy,
                     interval_instructions=cfg.interval_instructions)
    runs = list(report.reports.values())
    assert {run.kind for run in runs} == set(SchemeKind)
    assert report.reports["dcr"].decisions
    for doc in [*runs, report.to_dict()]:
        path = tmp_path / "doc.json"
        _write({str(path): _json_fill(doc)})
        data = path.read_bytes()
        assert json.loads(data) == oracles.plain(doc)
        assert data == (json.dumps(oracles.plain(doc), sort_keys=True,
                                   separators=(",", ":")) + "\n").encode()


def test_json_keys_are_the_record_fields(config_file):
    # a report, an interval, its energy, a decision, a candidate and a
    # comparison row each have the keys of their record class's fields
    cfg = load_config(config_file)
    report = compare(generate_synthetic(cfg.synthetic), cfg.schemes,
                     cfg.geometry, cfg.timing, cfg.energy,
                     interval_instructions=cfg.interval_instructions)
    doc = json.loads("".join(_json_pieces(report.reports["dcr"])))
    decision = doc["decisions"][0]
    row = json.loads("".join(_json_pieces(report.rows[0])))
    for keys, cls in [(doc, RunReport), (doc["intervals"][0], IntervalStats),
                      (doc["intervals"][0]["energy"], EnergyBreakdown),
                      (decision, Decision),
                      (decision["candidates"][0], Candidate),
                      (row, ComparisonRow)]:
        assert list(keys) == sorted(cls._fields), cls.__name__


def test_report_records_hold_only_their_fields(config_file):
    # the writer encodes a record as its __dict__: every record in the
    # reports of all four scheme kinds and in the comparison, at any
    # depth, has exactly its fields as attributes, so no derived attribute
    # can leak a key into a report
    cfg = load_config(config_file)
    report = compare(generate_synthetic(cfg.synthetic), cfg.schemes,
                     cfg.geometry, cfg.timing, cfg.energy,
                     interval_instructions=cfg.interval_instructions)
    runs = list(report.reports.values())
    assert {run.kind for run in runs} == set(SchemeKind)
    seen, todo = set(), [*runs, report.to_dict()]
    while todo:
        obj = todo.pop()
        if isinstance(obj, Record):
            assert sorted(vars(obj)) == sorted(obj._fields), obj
            seen.add(type(obj))
            obj = vars(obj)
        if isinstance(obj, dict):
            todo += obj.values()
        elif isinstance(obj, list):
            todo += obj
    assert seen == {RunReport, IntervalStats, EnergyBreakdown, Decision,
                    Candidate, ComparisonRow}


# sweep.csv of each other sweepable parameter on BASE_CONFIG
_SWEEP_SHA256 = {
    ("l2_size_kb", "64,128,256"):
        "99bbe7ea302364c1073cca85127a738ee414f9da9323f5c18e634ec00d21ed3b",
    ("beta", "1,3,10"):
        "1f07c97ee50c3d30fef50bd552ffdb5a64901550c698294936aaa9edba2ed7e9",
    ("delta", "2,4,8"):
        "b28a24c4a843acae97af8759a36a0291d4d96c97c6952f48a903c930a95c89b4",
}


@pytest.mark.parametrize("parameter, values", list(_SWEEP_SHA256),
                         ids=[p for p, _ in _SWEEP_SHA256])
def test_sweeps_match_golden_digests(config_file, tmp_path, parameter, values):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config_file, "--out", str(out),
                 "--parameter", parameter, "--values", values]) == 0
    data = (out / "sweep.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == \
        _SWEEP_SHA256[parameter, values]


# the interval CSVs `run` writes on BASE_CONFIG; its JSON reports are the
# bytes `compare` writes
_RUN_INTERVALS_SHA256 = {
    "baseline": "421288ed3d9ccfd3e3b95d25fbfd18beebc24fe76b77f28f89bb78accff31b17",
    "dcr": "b3a7632811cc3be0aaa7253bc20c171bfd3c89be215b7221aa69c8ea4da2dbe3",
    "rpv": "c881cfbbd4bcf3469ae4d43580aad5c0466d5896e5277e06bb0839e0f05d8662",
    "sram": "957d6fff4f487c694d3c827b3dbf658c2c5ca32f509053b2f651aecfdc0f7d4b",
}


def _caches(trips) -> tuple[int, int]:
    """The caches that trips bound, as (fixed trips', DCR trips'): a DCR
    trip binds a profiling unit with its cache."""
    dcr = sum(trip.unit for trip in trips)
    return len(trips) - dcr, dcr


def test_run_shares_one_fixed_replay(config_file, tmp_path, trips_bound):
    out = tmp_path / "run"
    assert main(["run", "--config", config_file, "--out", str(out)]) == 0
    # baseline, RPV and SRAM share one trip, on one cache; DCR binds its own
    assert _caches(trips_bound) == (1, 1)
    for name, digest in _RUN_INTERVALS_SHA256.items():
        assert _json_digest(out / f"report-{name}.json") == \
            _GOLDEN_SHA256[f"cmp/report-{name}.json"]
        data = (out / f"report-{name}.intervals.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_compare_runs_dcr_through_sim_run_and_the_rest_in_one_trip(
        tmp_path, monkeypatch, trips_bound):
    # DCR runs through the module attribute `edrsim.sim.run`, which
    # perfbench's tracer wraps; baseline, RPV and SRAM share one timed trip,
    # a timer each, and DCR's trip has its own
    demo = os.path.join(os.path.dirname(__file__), "..", "configs", "demo.cfg")
    real, ran = sim.run, []

    def counted(trace, scheme, *args):
        ran.append(scheme.name)
        return real(trace, scheme, *args)
    monkeypatch.setattr(sim, "run", counted)
    assert main(["compare", "--config", demo,
                 "--out", str(tmp_path / "out")]) == 0
    assert {s.kind for s in load_config(demo).schemes} == set(SchemeKind)
    assert ran == ["dcr"]
    assert sorted(len(trip.timers) for trip in trips_bound) == [1, 3]


@pytest.mark.parametrize("command, builds", [
    (["compare"], (1, 1)),
    (["sweep", "--parameter", "refresh_period_us", "--values", "1,2,3,4"],
     (1, 4)),
    (["sweep", "--parameter", "l2_size_kb", "--values", "64,128,256"],
     (3, 3)),
], ids=["compare", "sweep refresh_period_us", "sweep l2_size_kb"])
def test_one_fixed_replay_per_trace_and_geometry(config_file, tmp_path,
                                                  trips_bound, command,
                                                  builds):
    # only a cache size changes the fixed schemes' trip, whose one cache
    # replays the trace for every value of that size; DCR binds one per run
    assert main([command[0], "--config", config_file,
                 "--out", str(tmp_path / "out"), *command[1:]]) == 0
    assert _caches(trips_bound) == builds


@pytest.fixture
def helpers_started(monkeypatch):
    """The helper threads `run_schemes` starts, counted."""
    started = []

    class Counted(sim.threading.Thread):
        def start(self):
            started.append(self)
            super().start()
    monkeypatch.setattr(sim.threading, "Thread", Counted)
    return started


def _serial_runs(cfg, trace, warmup=None):
    """Each scheme's `run`, one after another."""
    return [run(trace, spec, cfg.geometry, cfg.timing, cfg.energy, warmup,
                cfg.interval_instructions) for spec in cfg.schemes]


def test_run_schemes_and_compare_equal_serial_runs(config_file,
                                                   helpers_started):
    cfg = load_config(config_file)
    assert {s.kind for s in cfg.schemes} == set(SchemeKind)
    trace = generate_synthetic(cfg.synthetic)
    want = _serial_runs(cfg, trace, 40_000)
    got = run_schemes(trace, cfg.schemes, cfg.geometry, cfg.timing,
                      cfg.energy, 40_000, cfg.interval_instructions)
    assert got == want
    trace = generate_synthetic(cfg.synthetic)
    report = compare(trace, cfg.schemes, cfg.geometry, cfg.timing,
                     cfg.energy, 40_000, cfg.interval_instructions)
    assert list(report.reports.values()) == want
    # one helper each; a second call on the same trace keeps nothing from
    # the first, so it starts its own
    assert len(helpers_started) == 2
    report = compare(trace, cfg.schemes, cfg.geometry, cfg.timing,
                     cfg.energy, 40_000, cfg.interval_instructions)
    assert list(report.reports.values()) == want
    assert len(helpers_started) == 3
    # without DCR beside, the fixed trip is taken on this thread
    got = run_schemes(generate_synthetic(cfg.synthetic), cfg.schemes[:3],
                      cfg.geometry, cfg.timing, cfg.energy, 40_000,
                      cfg.interval_instructions)
    assert got == want[:3] and len(helpers_started) == 3


@pytest.mark.parametrize("parameter, values, helpers", [
    ("l2_size_kb", ["64", "128"], 2), ("beta", ["1", "3"], 1)])
def test_sweep_values_equal_serial_runs(config_file, helpers_started,
                                        parameter, values, helpers):
    # as `edrsim sweep` runs them: one trace, one `run_schemes` call per
    # cache size
    configs = load_sweep(config_file, parameter, values)
    trace = generate_synthetic(configs[0].synthetic)
    reports = _sweep_reports(trace, configs, 40_000)
    # a trip per cache size; the beta values share one
    assert len(helpers_started) == helpers
    for cfg, got in zip(configs, reports, strict=True):
        assert got == _serial_runs(cfg, trace, 40_000)


@pytest.mark.parametrize("parameter, values, trips", [
    # baseline and RPV per value, and the one SRAM scheme all values share
    ("refresh_period_us", "1,2,3,4", [9, 1, 1, 1, 1]),
    ("l2_size_kb", "64,128,256", [3, 1, 3, 1, 3, 1]),
    # beta changes only DCR: the fixed schemes are timed once for both
    ("beta", "1,3", [3, 1, 1]),
])
def test_sweep_times_one_fixed_trip_per_geometry(config_file, trips_bound,
                                                 parameter, values, trips):
    # the fixed trip, a timer per distinct fixed scheme of the values of a
    # geometry, then DCR's trip of each value
    configs = load_sweep(config_file, parameter, values.split(","))
    reports = _sweep_reports(generate_synthetic(configs[0].synthetic),
                             configs, 40_000)
    assert [len(trip.timers) for trip in trips_bound] == trips
    for cfg, got in zip(configs, reports, strict=True):
        alone = compare(generate_synthetic(cfg.synthetic), cfg.schemes,
                        cfg.geometry, cfg.timing, cfg.energy, 40_000,
                        cfg.interval_instructions)
        assert got == list(alone.reports.values())


def _fail_off_the_main_thread(monkeypatch):
    """Make every trip that runs off the main thread (the fixed trip on
    the helper) fail at its first stop."""
    call = Passes.__call__

    def failing(self, lo, hi):
        if threading.current_thread() is not threading.main_thread():
            raise ValueError("fixed trip failed")
        return call(self, lo, hi)
    monkeypatch.setattr(Passes, "__call__", failing)


def test_failures_beside_the_helper_leave_no_thread(config_file,
                                                    monkeypatch):
    cfg = load_config(config_file)
    trace = generate_synthetic(cfg.synthetic)
    threads = threading.active_count()
    report = compare(trace, cfg.schemes, cfg.geometry, cfg.timing,
                     cfg.energy,
                     interval_instructions=cfg.interval_instructions)
    assert report.reports["dcr"].decisions
    assert threading.active_count() == threads

    # DCR fails on this thread: its exception, once the helper is joined
    error = RuntimeError("select failed")

    def fail(*args):
        raise error
    monkeypatch.setattr(sim, "select", fail)
    with pytest.raises(RuntimeError) as caught:
        compare(generate_synthetic(cfg.synthetic), cfg.schemes, cfg.geometry,
                cfg.timing, cfg.energy,
                interval_instructions=cfg.interval_instructions)
    assert caught.value is error
    assert threading.active_count() == threads
    monkeypatch.undo()

    # the fixed trip fails on the helper: its exception, once DCR on this
    # thread has run to its end, and nothing kept on the trace
    _fail_off_the_main_thread(monkeypatch)
    real, finished = sim.run, []

    def counted(trace, scheme, *args):
        report = real(trace, scheme, *args)
        finished.append(scheme.name)
        return report
    monkeypatch.setattr(sim, "run", counted)
    trace = generate_synthetic(cfg.synthetic)
    with pytest.raises(ValueError, match="fixed trip failed"):
        compare(trace, cfg.schemes, cfg.geometry, cfg.timing, cfg.energy,
                interval_instructions=cfg.interval_instructions)
    assert finished == ["dcr"]
    assert threading.active_count() == threads
    assert set(vars(trace)) == {"gaps", "ops", "addrs", "instructions"}


def test_a_fixed_trip_failing_on_the_helper_writes_no_output(
        config_file, tmp_path, monkeypatch):
    # `edrsim compare` exits 1 before it writes anything
    _fail_off_the_main_thread(monkeypatch)
    threads = threading.active_count()
    out = tmp_path / "out"
    assert main(["compare", "--config", config_file, "--out", str(out)]) == 1
    assert not out.exists()
    assert threading.active_count() == threads


def test_first_invalid_scheme_in_order_fails_before_any_replay(
        config_file, helpers_started, trips_bound):
    # a baseline whose refresh burst outlasts its retention period, listed
    # before a DCR scheme whose c_min exceeds the colors; with DCR beside or
    # not, nothing is replayed
    cfg = load_config(config_file)
    baseline, rpv, sram, dcr = cfg.schemes
    baseline.refresh = RefreshConfig(100)
    dcr.controller.c_min = 99
    trace = generate_synthetic(cfg.synthetic)
    rest = (cfg.geometry, cfg.timing, cfg.energy)
    for schemes, error in [([baseline, rpv, sram, dcr], "baseline: refreshing"),
                           ([sram, dcr, rpv, baseline], "dcr: c_min 99"),
                           ([sram, baseline], "baseline: refreshing")]:
        with pytest.raises(SchemeConfigError, match=error):
            compare(trace, schemes, *rest)
        with pytest.raises(SchemeConfigError, match=error):
            run_schemes(trace, schemes, *rest)
    assert trips_bound == [] and helpers_started == []


def test_no_trip_stores_codes_with_rpv_or_without(config_file, trips_bound):
    # every trip times each record as it replays it, so neither the fixed
    # trip nor DCR's binds a buffer for code bytes
    cfg = load_config(config_file)
    baseline, rpv, sram, dcr = cfg.schemes
    for schemes in [baseline, dcr], [baseline, rpv, dcr]:
        trips_bound.clear()
        compare(generate_synthetic(cfg.synthetic), schemes, cfg.geometry,
                cfg.timing, cfg.energy,
                interval_instructions=cfg.interval_instructions)
        assert [(trip.unit, trip.codes) for trip in trips_bound] == \
            [(False, None), (True, None)]


@pytest.mark.parametrize("elements", [16, 1024])
def test_json_is_written_in_bounded_batches(config_file, tmp_path, elements):
    cfg = load_config(config_file)
    report = compare(generate_synthetic(cfg.synthetic), cfg.schemes,
                     cfg.geometry, cfg.timing, cfg.energy,
                     interval_instructions=cfg.interval_instructions)
    dcr = report.reports["dcr"]
    # the DCR report with `elements` intervals and decisions: the longest
    # piece must not grow with the length of a list
    long = {name: getattr(dcr, name) for name in dcr._fields}
    for key in ("intervals", "decisions"):
        entries = long[key]
        long[key] = [entries[i % len(entries)] for i in range(elements)]
    out = tmp_path / "out"
    for name, doc in [("dcr.json", dcr), ("cmp.json", report.to_dict()),
                      ("long.json", long)]:
        tree = oracles.plain(doc)
        items = [item for key in ("intervals", "decisions", "rows")
                 for item in tree.get(key, [])]
        pieces = list(_json_pieces(doc))
        assert len(pieces) > len(items) > 0
        # a piece is at most one list element, after its key's prefix
        # `],"key":[`
        longest = max(len(json.dumps(item, sort_keys=True,
                                     separators=(",", ":")))
                      for item in items)
        prefix = max(len(json.dumps(key)) for key in tree) + 4
        assert max(map(len, pieces)) <= prefix + longest
        _write({str(out / name): _json_fill(doc)})
        assert (out / name).read_bytes() == "".join(pieces).encode()
        assert json.loads((out / name).read_bytes()) == tree
    assert len(list(_json_pieces(long))) > 2 * elements
    assert sorted(os.listdir(out)) == ["cmp.json", "dcr.json", "long.json"]


def _files(out) -> dict:
    """Each name in the directory `out` with its bytes (None for a
    directory)."""
    return {name: None if (out / name).is_dir() else (out / name).read_bytes()
            for name in os.listdir(out)}


class _FullDisk:
    """A file open for writing whose every write fails as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    writelines = write


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_failed_write_leaves_the_older_output_as_it_was(
        config_file, tmp_path, monkeypatch, command):
    # --out holds a run of another seed; a disk that fills up on the k-th
    # file, for every k, must leave each of its files and its listing as
    # they were, and no temporary file behind
    argv = [command, "--config", config_file, "--out"]
    assert main([*argv, str(tmp_path / "new")]) == 0
    count = len(os.listdir(tmp_path / "new"))
    assert count == {"run": 8, "compare": 6}[command]
    out = tmp_path / "out"
    assert main([*argv, str(out), "--seed", "9"]) == 0
    old = _files(out)
    new = _files(tmp_path / "new")
    assert old.keys() == new.keys()
    assert all(old[name] != new[name] for name in old)
    for k in range(count):
        opened = []

        def open_(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            if "r" in mode:
                return fh
            opened.append(path)
            return _FullDisk(fh) if len(opened) == k + 1 else fh
        monkeypatch.setattr(edrsim.cli, "open", open_, raising=False)
        assert main([*argv, str(out)]) == 1
        assert len(opened) == k + 1
        assert _files(out) == old
        assert not [name for name in os.listdir(out)
                    if name.startswith(".tmp-edrsim-")]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_directory_in_place_of_a_report_writes_nothing(
        config_file, tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--config", config_file, "--out", str(out),
                 "--seed", "9"]) == 0
    (out / "report-sram.json").unlink()
    (out / "report-sram.json").mkdir()
    old = _files(out)
    capsys.readouterr()
    assert main([command, "--config", config_file, "--out", str(out)]) == 1
    assert _files(out) == old
    assert capsys.readouterr() == (
        "", f"error: {out / 'report-sram.json'} is a directory\n")


def test_output_files_have_the_mode_open_gives(config_file, tmp_path):
    # 0o666 & ~umask, as for a file made by open(), not mkstemp's 0o600
    umask = os.umask(0o027)
    try:
        for argv in (["gen-trace", "--out", str(tmp_path / "t.trace")],
                     ["run", "--out", str(tmp_path / "run")],
                     ["compare", "--out", str(tmp_path / "compare")],
                     ["sweep", "--out", str(tmp_path / "sweep"),
                      "--parameter", "beta", "--values", "2,3"]):
            assert main([*argv, "--config", config_file]) == 0
    finally:
        os.umask(umask)
    made = [tmp_path / "t.trace", *(tmp_path / "sweep").iterdir(),
            *(tmp_path / "run").iterdir(), *(tmp_path / "compare").iterdir()]
    assert len(made) == 1 + 1 + 8 + 6
    assert {str(path): path.stat().st_mode & 0o777 for path in made} == \
        {str(path): 0o640 for path in made}


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_non_finite_beta_is_config_error(tmp_path, beta):
    # d_i > nan is always false, so a NaN beta would switch the bound off
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CONFIG.replace("delta = 4", f"delta = 4\nbeta = {beta}"))
    out = str(tmp_path / "outdir")
    assert main(["run", "--config", str(path), "--out", out]) == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize("parameter", ["delta", "l2_size_kb"])
def test_sweep_rejects_non_integral_values(config_file, tmp_path, parameter):
    out = str(tmp_path / "x")
    rc = main(["sweep", "--config", config_file, "--out", out,
               "--parameter", parameter, "--values", "4,2.5"])
    assert rc == 2
    assert not os.path.exists(out)


def test_infinite_retention_period_is_config_error(config_file, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CONFIG.replace("retention_period_us = 1",
                                        "retention_period_us = inf"))
    out = tmp_path / "outdir"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    rc = main(["sweep", "--config", config_file, "--out", str(tmp_path / "sw"),
               "--parameter", "refresh_period_us", "--values", "1,inf"])
    assert rc == 2
    assert not (tmp_path / "sw" / "sweep.csv").exists()


# 16 KB is below the 32 KB bank; at 32 KB the X/16 profiling unit has 4
# sets, which 1/8 sampling does not divide
@pytest.mark.parametrize("ratio,values", [(2, "64,16"), (8, "64,32")])
def test_sweep_validates_every_value_before_running(tmp_path, monkeypatch,
                                                    ratio, values):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG.replace("sampling_ratio_denom = 2",
                                        f"sampling_ratio_denom = {ratio}"))
    calls = []
    monkeypatch.setattr("edrsim.cli.compare", lambda *a, **k: calls.append(a))
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", str(path), "--out", str(out),
               "--parameter", "l2_size_kb", "--values", values])
    assert rc == 2
    assert calls == []
    assert not (out / "sweep.csv").exists()


# 1/64 sampling does not divide the 32, 16 and 8 sets of the X/4 to X/16
# profiling units; 1/0 is no ratio at all
@pytest.mark.parametrize("ratio", [64, 0])
def test_run_checks_every_scheme_before_writing(tmp_path, ratio):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CONFIG.replace("sampling_ratio_denom = 2",
                                        f"sampling_ratio_denom = {ratio}"))
    out = tmp_path / "outdir"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


# baseline and DCR on 1,600 records, with six DCR decisions; 8 KB pages
# make 8 colors of a 512 KB cache, whose X/16 profiling unit has 64 sets
_TINY_CONFIG = BASE_CONFIG[:BASE_CONFIG.index("[scheme.rpv]")].replace(
    "page_kb = 1", "page_kb = 8").replace(
    "phases = 400000:24576:0.3:0.2; 400000:8192:0.3:0.2",
    "phases = 40000:24576:0.3:0.2; 40000:8192:0.3:0.2").replace(
    "interval_instructions = 100000", "interval_instructions = 12000") + """
[scheme.dcr]
kind = dcr
retention_period_us = 1
"""


def _maybe(in_range, wild):
    """Unset (None), a value in range or, less often, a wild one."""
    return st.none() | in_range | in_range | wild


@settings(max_examples=50, deadline=None)
@given(l2_size_kb=_maybe(st.sampled_from([256, 1024]), st.integers(-64, 2048)),
       c_min=_maybe(st.integers(1, 4), st.integers(-2, 40)),
       granularity=_maybe(st.integers(1, 4), st.integers(-2, 40)),
       delta=_maybe(st.integers(4, 16), st.integers(-2, 40)),
       beta=_maybe(st.sampled_from([0.5, 3.0, 50.0]), st.floats()),
       sampling_ratio_denom=_maybe(st.sampled_from([8, 16, 64]),
                                   st.integers(-2, 300)))
# no candidate at the first decision: this ran the whole trace, then
# failed with exit 1
@example(l2_size_kb=512, c_min=None, granularity=16, delta=16, beta=None,
         sampling_ratio_denom=None)
def test_any_dcr_config_runs_or_fails_before_output(**keys):
    size = keys.pop("l2_size_kb")
    size = 512 if size is None else size
    text = _TINY_CONFIG.replace("l2_size_kb = 64", f"l2_size_kb = {size}")
    _assert_runs_or_fails_before_output(text + _lines(keys))


def _lines(keys: dict) -> str:
    return "".join(f"{key} = {value!r}\n" for key, value in keys.items()
                   if value is not None)


_LATENCY = _maybe(st.integers(1, 500), st.integers(-2, 0)
                  | st.integers(2**63, 2**64))
# all seven are set (a missing one is a plain config error), mostly in range
_ENERGY = st.floats(0.0, 1e3) | st.floats(0.0, 1e3) | st.floats(0.0, 1e3) \
    | st.floats()
# at least 1e-3 W, so that the baseline's energy is > 0: a baseline of no
# energy is an error after the runs (exit 1), which
# test_zero_energy_baseline_is_an_error_before_output pins
_BASELINE_LEAK = st.floats(1e-3, 1e3)


@settings(max_examples=100, deadline=None)
@given(timing=st.fixed_dictionaries({
           "l2_hit_cycles": _LATENCY, "dram_latency_cycles": _LATENCY,
           # at most 1e3: the record loop fires refresh boundaries one at
           # a time, so a run's host time grows with its simulated cycles
           # (a CPI of 1e5 takes 0.2 s, so 1e9 half an hour); and a CPI
           # that takes the clock past 2**62 cycles is an error once the
           # trace is read (exit 1), which
           # test_clock_past_int64_writes_no_output pins
           "base_cpi": _maybe(st.floats(0.1, 10.0),
                              st.floats(max_value=1e3)
                              | st.just(float("nan"))),
           "clock_ghz": _maybe(st.sampled_from([1.0, 2.0, 2.2]),
                               st.floats())}),
       energy=st.none() | st.fixed_dictionaries({
           "e_dyn_l2": _ENERGY, "p_leak_l2": _BASELINE_LEAK,
           "e_dyn_dram": _ENERGY, "p_leak_dram": _ENERGY,
           "e_transition": _ENERGY, "e_dyn_prof": _ENERGY,
           "p_leak_prof": _ENERGY}))
def test_any_timing_and_energy_config_runs_or_fails_before_output(timing,
                                                                  energy):
    # the [timing] keys, each unset, in range or wild, and the [energy]
    # builtin or its seven overrides
    text = _TINY_CONFIG.replace("l2_size_kb = 64", "l2_size_kb = 512")
    text = text.replace("[timing]\nclock_ghz = 2.0\n",
                        "[timing]\n" + _lines(timing))
    if energy is not None:
        text = text.replace("builtin = EDRAM_2MB\n", _lines(energy))
    _assert_runs_or_fails_before_output(text)


@settings(max_examples=60, deadline=None)
@given(phases=_maybe(st.sampled_from([1, 2, 4, 8, 64, 256]),
                     st.integers(-2, 10**4)),
       # the warm-up in instructions or as a fraction: setting both is a
       # plain config error
       warmup=st.fixed_dictionaries({"warmup_instructions": _maybe(
           st.integers(0, 79_999), st.integers(-2, 2**64))})
       | st.fixed_dictionaries({"warmup_fraction": _maybe(
           st.floats(0.0, 0.99), st.floats())}),
       interval=_maybe(st.integers(1_000, 100_000), st.integers(-2, 2**64)))
# the trace's 80,000 instructions: this drew the trace, then failed with
# exit 1
@example(phases=None, warmup={"warmup_instructions": 80_000}, interval=None)
def test_any_rpv_phases_and_run_config_runs_or_fails_before_output(
        phases, warmup, interval):
    # RPV beside baseline and DCR on 80,000 instructions, with a retention
    # period of 2048 cycles, which 256 phases divide
    text = _TINY_CONFIG.replace("l2_size_kb = 64", "l2_size_kb = 512")
    text = text.replace(
        "[run]\nwarmup_fraction = 0.1\ninterval_instructions = 12000\n",
        "[run]\n" + _lines({**warmup, "interval_instructions": interval}))
    text += "\n[scheme.rpv]\nkind = rpv\nretention_period_us = 1.024\n"
    _assert_runs_or_fails_before_output(text + _lines({"phases": phases}))


# a phase's four fields, as written: mostly in range, else wild. Wild
# instruction counts are refused (below 1, or too many records for the
# generator), so that no drawn trace is large.
_PHASE_FIELDS = st.tuples(
    _maybe(st.integers(1, 30_000), st.integers(-2, 0)
           | st.integers(2**40, 2**70) | st.sampled_from(["x", "1e3", ""])),
    _maybe(st.integers(1, 4 << 20), st.integers(-2, 0)
           | st.integers((1 << 32) + 1, 2**40) | st.just("1.5")),
    _maybe(st.floats(0.0, 1.0), st.floats() | st.just("x")),
    _maybe(st.floats(0.0, 1.0), st.floats() | st.just("")))


@settings(max_examples=60, deadline=None)
@given(phases=st.lists(_PHASE_FIELDS, min_size=1, max_size=3))
def test_any_synthetic_phases_run_or_fail_before_output(phases):
    # [synthetic]'s phases, one to three: each field as the base config
    # writes it (None), in range or wild
    base = (40_000, 24_576, 0.3, 0.2)
    written = "; ".join(":".join(
        str(default if value is None else value)
        for value, default in zip(phase, base)) for phase in phases)
    text = _TINY_CONFIG.replace("l2_size_kb = 64", "l2_size_kb = 512")
    text = text.replace("phases = 40000:24576:0.3:0.2; 40000:8192:0.3:0.2",
                        f"phases = {written}")
    assert f"phases = {written}" in text
    _assert_runs_or_fails_before_output(text)


def _assert_runs_or_fails_before_output(text: str) -> None:
    """`compare` on this config exits 0, or 2 having written nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out")
        rc = main(["compare", "--config", path, "--out", out])
        assert rc in (0, 2), text
        assert os.path.exists(out) == (rc == 0), text


def test_sweep_rejects_unknown_parameter(config_file, tmp_path):
    rc = main(["sweep", "--config", config_file, "--out", str(tmp_path / "x"),
               "--parameter", "voltage", "--values", "1"])
    assert rc == 2


def test_seed_flag_overrides_config(config_file, tmp_path):
    a = str(tmp_path / "a.trace")
    b = str(tmp_path / "b.trace")
    assert main(["gen-trace", "--config", config_file, "--out", a,
                 "--seed", "99"]) == 0
    assert main(["gen-trace", "--config", config_file, "--out", b]) == 0
    with open(a, "rb") as fh:
        ba = fh.read()
    with open(b, "rb") as fh:
        bb = fh.read()
    assert ba != bb


def test_seed_with_a_trace_file_is_config_error(config_file, tmp_path):
    # --seed only seeds the synthetic generator; a trace file has no seed
    trace_path = str(tmp_path / "t.trace")
    assert main(["gen-trace", "--config", config_file, "--out", trace_path]) == 0
    path = tmp_path / "file.cfg"
    path.write_text(BASE_CONFIG.replace("[trace]\nsynthetic = true",
                                        f"[trace]\npath = {trace_path}"))
    for command in (["run"], ["compare"],
                    ["sweep", "--parameter", "beta", "--values", "1,3"]):
        out = tmp_path / command[0]
        assert main([command[0], "--config", str(path), "--out", str(out),
                     "--seed", "7", *command[1:]]) == 2
        assert not out.exists()


def test_sweep_no_section_takes_is_config_error(tmp_path, capsys):
    # without a DCR scheme, beta and delta set nothing: every value would
    # repeat one comparison
    path = tmp_path / "no-dcr.cfg"
    path.write_text(BASE_CONFIG[:BASE_CONFIG.index("[scheme.dcr]")])
    for parameter in ("beta", "delta"):
        out = tmp_path / parameter
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--parameter", parameter, "--values", "1,5"]) == 2
        assert not out.exists()
        assert f"sweeping {parameter} does nothing" in capsys.readouterr().err


def test_zero_energy_baseline_is_an_error_before_output(tmp_path, capsys):
    # every energy constant 0: no percentage of the baseline's energy
    path = tmp_path / "free.cfg"
    path.write_text(BASE_CONFIG.replace(
        "builtin = EDRAM_2MB",
        re.sub(r"= \S+", "= 0", _ENERGY_OVERRIDES)).replace(
        "energy_builtin = SRAM_2MB\n", ""))
    for command in (["compare"],
                    ["sweep", "--parameter", "beta", "--values", "1,3"]):
        out = tmp_path / command[0]
        assert main([command[0], "--config", str(path), "--out", str(out),
                     *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: baseline baseline uses 0.0 J")
        assert "Traceback" not in err
        assert not out.exists()


def test_refresh_burst_longer_than_retention_is_config_error(tmp_path):
    # 512-line banks against a 500-cycle period: the banks never go free
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CONFIG.replace("retention_period_us = 1",
                                        "retention_period_us = 0.25"))
    out = tmp_path / "outdir"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_sweep_rejects_refresh_period_below_bank_burst(tmp_path, monkeypatch):
    # the demo's 1 MB banks hold 16384 lines; 7 us is 15400 cycles at 2.2 GHz
    demo = os.path.join(os.path.dirname(__file__), "..", "configs", "demo.cfg")
    calls = []
    monkeypatch.setattr("edrsim.cli.compare", lambda *a, **k: calls.append(a))
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", demo, "--out", str(out),
               "--parameter", "refresh_period_us", "--values", "40,7"])
    assert rc == 2
    assert calls == []
    assert not out.exists()


def test_sweep_rejects_non_numeric_values(config_file, tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", config_file, "--out", str(out),
               "--parameter", "beta", "--values", "1,abc"])
    assert rc == 2
    assert not out.exists()



def test_compare_with_a_zero_full_size_time_estimate(tmp_path):
    # the demo at one record per 50-instruction interval and almost no
    # compute: an interval whose full size sampled no load miss estimates
    # the full size at 0 cycles, and the controller keeps its allocation
    with open(os.path.join(os.path.dirname(__file__), "..", "configs",
                           "demo.cfg")) as fh:
        text = fh.read()
    for old, new in [("base_cpi = 1.0", "base_cpi = 0.001"),
                     ("interval_instructions = 500000",
                      "interval_instructions = 50"),
                     ("phases = 10000000:65536:0.3:0.5; "
                      "10000000:1048576:0.3:0.5; 10000000:131072:0.3:0.5",
                      "phases = 200000:67108864:0:0")]:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "zero.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report-dcr.json").read_text())
    assert any(d["candidates"] == [] and d["chosen"] == d["current"]
               for d in report["decisions"])


def _dcr_c_min(cfg):
    (spec,) = [s for s in cfg.schemes if s.controller is not None]
    return spec.controller.c_min


def _config_with(tmp_path, extra):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG.replace("delta = 4", "delta = 4" + extra))
    return str(path)


def test_size_sweep_keeps_a_configured_c_min(tmp_path):
    # 64 KB holds 8 colors, 128 KB 16 and 512 KB 64
    sizes = ["64", "128", "512"]
    swept = load_sweep(_config_with(tmp_path, "\nc_min = 4"), "l2_size_kb",
                       sizes)
    assert [_dcr_c_min(cfg) for cfg in swept] == [4, 4, 4]
    # an unset c_min is the default slice, 1/16th of each size's colors
    swept = load_sweep(_config_with(tmp_path, ""), "l2_size_kb", sizes)
    assert [_dcr_c_min(cfg) for cfg in swept] == [1, 1, 4]


# a sweep value and the BASE_CONFIG edit that writes it into the file: every
# eDRAM scheme's retention period, the cache size, the DCR scheme's beta
# (which BASE_CONFIG leaves at its default) and delta
@pytest.mark.parametrize("parameter, value, old, new", [
    ("refresh_period_us", "2", "retention_period_us = 1",
     "retention_period_us = 2"),
    ("l2_size_kb", "128", "l2_size_kb = 64", "l2_size_kb = 128"),
    ("beta", "5", "delta = 4", "delta = 4\nbeta = 5"),
    ("delta", "8", "delta = 4", "delta = 8"),
])
def test_sweep_value_builds_the_edited_config(config_file, tmp_path,
                                              parameter, value, old, new):
    path = tmp_path / "edited.cfg"
    path.write_text(BASE_CONFIG.replace(old, new))
    (swept,) = load_sweep(config_file, parameter, [value])
    assert swept == load_config(str(path))
    assert swept != load_config(config_file)


def test_c_min_above_the_color_count_is_config_error(tmp_path, monkeypatch):
    # 6 of the 8 colors at 64 KB; 32 KB has only 4
    path = _config_with(tmp_path, "\nc_min = 6")
    calls = []
    monkeypatch.setattr("edrsim.cli.compare", lambda *a, **k: calls.append(a))
    out = tmp_path / "sw"
    assert main(["sweep", "--config", path, "--out", str(out),
                 "--parameter", "l2_size_kb", "--values", "64,32"]) == 2
    assert calls == []
    assert not out.exists()
    # and at 64 KB itself, when the config asks for 9
    path = _config_with(tmp_path, "\nc_min = 9")
    with pytest.raises(ConfigError, match="c_min 9 exceeds the 8 colors"):
        load_config(path)
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_compare_runs_without_numpy(config_file, tmp_path):
    # numpy is a test dependency only: the simulator never imports it
    script = ("import sys\n"
              "import edrsim.cli\n"
              "assert 'numpy' not in sys.modules, 'after the import'\n"
              "rc = edrsim.cli.main(sys.argv[1:])\n"
              "assert 'numpy' not in sys.modules, 'after the command'\n"
              "sys.exit(rc)\n")
    src = os.path.dirname(os.path.dirname(edrsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", script, "compare", "--config",
                           config_file, "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "comparison.json").exists()


@pytest.mark.parametrize("argv, error", [
    ([], "no command given"),
    (["frob", "--config", "CFG", "--out", "OUT"], "unknown command 'frob'"),
    (["run", "--config", "CFG"], "run needs --out"),
    (["sweep", "--config", "CFG", "--out", "OUT", "--values", "1"],
     "sweep needs --parameter"),
    (["run", "--config", "CFG", "--out", "OUT", "--threads", "2"],
     "run takes no option '--threads'"),
    # prefixes of an option name are not the option
    (["run", "--conf", "CFG", "--out", "OUT"], "run takes no option '--conf'"),
    (["run", "--config", "CFG", "--out", "OUT", "extra"],
     "run takes no option 'extra'"),
    (["run", "--config", "CFG", "--out", "OUT", "--seed"],
     "--seed needs a value"),
    (["run", "--config", "--out", "OUT"], "--config needs a value"),
    (["run", "--config", "CFG", "--out", "OUT", "--seed", "x"],
     "--seed 'x': not an integer"),
    (["compare", "--config", "CFG", "--out", "OUT", "--parameter", "beta"],
     "compare takes no option '--parameter'"),
], ids=["no command", "unknown command", "missing option",
        "missing sweep option", "unknown option", "abbreviated option",
        "positional", "no value at the end", "no value before an option",
        "seed not an int", "sweep option to compare"])
def test_usage_errors_exit_2_before_output(config_file, tmp_path, capsys,
                                           argv, error):
    out = tmp_path / "out"
    argv = [{"CFG": config_file, "OUT": str(out)}.get(a, a) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{USAGE}edrsim: error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["sweep", "--help"],
                                  ["run", "--config", "CFG", "-h"]])
def test_help_prints_the_usage_and_exits_0(tmp_path, capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr() == (USAGE, "")
    for name in ("gen-trace", "run", "compare", "sweep", "--seed N"):
        assert name in USAGE


def test_option_forms_and_repeats(config_file, tmp_path):
    # `--name=value` is `--name value`, and the last of a repeated option
    # wins
    def trace(*argv):
        out = tmp_path / f"{len(list(tmp_path.iterdir()))}.trace"
        assert main(["gen-trace", *argv, f"--out={out}"]) == 0
        return out.read_bytes()
    spaced = trace("--config", config_file, "--seed", "99")
    assert trace(f"--config={config_file}", "--seed=99") == spaced
    assert trace("--seed", "1", "--config", config_file, "--seed=99") == spaced
    assert trace("--config", config_file) != spaced


def test_console_script_reads_sys_argv(config_file, tmp_path):
    # the `edrsim` script calls main() with no argument
    script = "import sys\nfrom edrsim.cli import main\nsys.exit(main())\n"
    src = os.path.dirname(os.path.dirname(edrsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = tmp_path / "t.trace"
    for argv, rc in [(["gen-trace", "--config", config_file, "--seed=3"], 2),
                     (["gen-trace", "--config", config_file, "--seed=3",
                       "--out", str(out)], 0)]:
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == rc, proc.stderr
        assert out.exists() == (rc == 0)
    assert proc.stdout.startswith("wrote ")


_ARGV_OPTIONS = ["--config", "--out", "--seed", "--parameter", "--values"]
_ARGV_VALUES = ["CFG", "OUT", "OUT/sub", "1", "-1", "x", "", "beta",
                "refresh_period_us", "l2_size_kb", "1,3", "1,,x"]
_ARGV_JUNK = ["", "-", "--", "=", "-h", "--conf", "--threads", "frob"]
_ARGV_PAIR = st.tuples(st.sampled_from(_ARGV_OPTIONS),
                       st.sampled_from(_ARGV_VALUES))
_ARGV = st.tuples(
    st.sampled_from(["gen-trace", "run", "compare", "sweep", *_ARGV_JUNK]),
    st.lists(_ARGV_PAIR.map(list) | _ARGV_PAIR.map(lambda p: ["=".join(p)])
             | st.sampled_from(_ARGV_OPTIONS + _ARGV_VALUES + _ARGV_JUNK)
             .map(lambda token: [token]), max_size=7),
).map(lambda drawn: [drawn[0], *(t for tokens in drawn[1] for t in tokens)])


@settings(max_examples=60, deadline=None)
@given(argv=_ARGV)
@example(argv=["sweep", "--config", "CFG", "--out", "OUT",
               "--parameter=beta", "--values", "1,3", "--seed", "1"])
@example(argv=["gen-trace", "--config", "CFG", "--out", "beta"])
def test_any_argv_exits_0_or_fails_cleanly(argv):
    # main never raises: it returns 0, 1, or 2 having written nothing. It
    # runs in the temporary directory, where a relative --out lands, and
    # leaves the caller's working directory as it found it
    text = _TINY_CONFIG.replace("l2_size_kb = 64", "l2_size_kb = 512")
    home = os.getcwd()
    listing = sorted(os.listdir(home))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        names = {"CFG": path, "OUT": os.path.join(tmp, "out")}
        argv = [t.replace("CFG", names["CFG"]).replace("OUT", names["OUT"])
                for t in argv]
        os.chdir(tmp)
        try:
            rc = main(argv)
        except SystemExit as exc:
            pytest.fail(f"SystemExit({exc.code}) from {argv}")
        finally:
            os.chdir(home)
        assert sorted(os.listdir(home)) == listing, argv
        assert rc in (0, 1, 2), argv
        if rc == 2:
            assert os.listdir(tmp) == ["run.cfg"], argv
            with open(path) as fh:
                assert fh.read() == text, argv
