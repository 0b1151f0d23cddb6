import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import edrsim
import oracles
from edrsim.cli import _json_bytes, main
from edrsim.config import ConfigError, load_config, load_sweep
from edrsim.cache import Replay
from edrsim.energy import SchemeKind
from edrsim.sim import compare
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


def test_compare_missing_baseline_is_config_error(tmp_path):
    text = BASE_CONFIG.replace("[scheme.baseline]\nkind = baseline_edram\nretention_period_us = 1\n", "")
    path = tmp_path / "nobase.cfg"
    path.write_text(text)
    out = str(tmp_path / "never")
    rc = main(["compare", "--config", str(path), "--out", out])
    assert rc != 0
    assert not os.path.exists(os.path.join(out, "comparison.json"))


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
], ids=["energy clock", "phase past the stride", "empty interval",
        "nan cpi", "inf cpi", "nan clock", "nan leakage", "inf dram energy",
        "negative warm-up fraction", "nan warm-up fraction",
        "warm-up fraction above 1", "negative warm-up",
        "inf access rate", "nan access rate", "duplicate key",
        "unused synthetic section", "negative seed", "synthetic block size",
        "synthetic description", "gap past u32", "edge past u64",
        "instructions past u64", "instructions past a float",
        "hit latency past int64", "interval past int64", "warm-up past int64",
        "retention past int64", "negative --seed", "zero granularity",
        "negative granularity", "granularity above the colors",
        "no multiple from c_min"])
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
            data = (tmp_path / sub / name).read_bytes()
            digests[f"{sub}/{name}"] = hashlib.sha256(data).hexdigest()
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
def test_json_bytes_are_the_bytes_of_json_dumps(doc):
    assert _json_bytes(doc) == \
        (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def test_json_bytes_of_reports_are_the_bytes_of_their_plain_trees(
        config_file):
    # every report kind, decisions and comparison rows included, against
    # json.dumps of the report as a tree of dicts and lists
    cfg = load_config(config_file)
    report = compare(generate_synthetic(cfg.synthetic), cfg.schemes,
                     cfg.geometry, cfg.timing, cfg.energy,
                     interval_instructions=cfg.interval_instructions)
    runs = list(report.reports.values())
    assert {run.kind for run in runs} == set(SchemeKind)
    assert report.reports["dcr"].decisions
    for doc in [*runs, report.to_dict()]:
        assert _json_bytes(doc) == (json.dumps(
            oracles.plain(doc), indent=2, sort_keys=True) + "\n").encode()


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


@pytest.fixture
def replays_built(monkeypatch):
    """Every Replay the simulator builds, as (fixed replays, DCR's own): a
    fixed replay has a last-touch column, DCR's replay has none."""
    built = []

    class Counted(Replay):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)
    monkeypatch.setattr("edrsim.sim.Replay", Counted)

    def counts():
        fixed = sum(r.last_touch is not None for r in built)
        return fixed, len(built) - fixed
    return counts


def test_run_shares_one_fixed_replay(config_file, tmp_path, replays_built):
    out = tmp_path / "run"
    assert main(["run", "--config", config_file, "--out", str(out)]) == 0
    # baseline, RPV and SRAM share one fixed replay; DCR builds its own
    assert replays_built() == (1, 1)
    for name, digest in _RUN_INTERVALS_SHA256.items():
        data = (out / f"report-{name}.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == \
            _GOLDEN_SHA256[f"cmp/report-{name}.json"]
        data = (out / f"report-{name}.intervals.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("command, builds", [
    (["compare"], (1, 1)),
    (["sweep", "--parameter", "refresh_period_us", "--values", "1,2,3,4"],
     (1, 4)),
    (["sweep", "--parameter", "l2_size_kb", "--values", "64,128,256"],
     (3, 3)),
], ids=["compare", "sweep refresh_period_us", "sweep l2_size_kb"])
def test_one_fixed_replay_per_trace_and_geometry(config_file, tmp_path,
                                                  replays_built, command,
                                                  builds):
    # only a cache size changes the fixed replay; DCR builds one per run
    assert main([command[0], "--config", config_file,
                 "--out", str(tmp_path / "out"), *command[1:]]) == 0
    assert replays_built() == builds


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
    text += "".join(f"{key} = {value!r}\n" for key, value in keys.items()
                    if value is not None)
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
