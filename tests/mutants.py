"""A standing mutation check of the simulator, outside the Tier-1 suite.

Each entry of MUTANTS names a file under src/edrsim, an exact text that
occurs in it once, the text that replaces it and the tests expected to
fail on the result. For each entry the harness copies src/ to a temporary
directory, applies the edit there and runs the named tests in a
subprocess, with PYTHONPATH on the copy, a private XDG_CACHE_HOME (so
that a mutated lru.c builds its own library: native.py names each build
by its source's sha256) and a timeout. A mutant is

- killed: a named test failed, or the run crashed;
- survived: every named test passed;
- hung: the run took longer than the timeout;
- stale: its old text no longer occurs in the file (the code moved on);
- error: its old text occurs more than once, its lru.c does not build,
  or pytest could not run the named tests.

Only a killed mutant passes. Before any mutant, the named tests must pass
on an unmutated copy. Nothing is written into the repository: each run
works in a temporary directory.

    python tests/mutants.py                       # every entry
    python tests/mutants.py take-keeps-tallies    # the entries named

It runs JOBS mutants at a time, and each run has TIMEOUT seconds.

It exits 0 if every mutant it ran was killed, else 1, and prints the
table of outcomes in Markdown.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
JOBS = 2
TIMEOUT = 120.0


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/edrsim
    old: str
    new: str
    tests: tuple[str, ...]  # node ids under tests/


_TINY_RUNS = ("test_replay.py::test_run_matches_reference_run_on_tiny_configs",)
_GROUPED = ("test_replay.py::test_grouped_timing_matches_reference_on_tiny_"
            "configs",)
_TALLIES = ("test_replay.py::test_functional_replay_clock_tallies_its_"
            "stored_codes", "test_sim.py::test_conservation_across_intervals")
_PLANNER = ("test_cache.py::test_every_reconfiguration_pair_matches_the_"
            "reference_planner",)
_WRITER = ("test_cli.py::test_a_failed_write_leaves_the_older_output_as_it_"
           "was", "test_cli.py::test_a_directory_in_place_of_a_report_writes_"
           "nothing")

MUTANTS = [
    # the timers a trip binds (passes.Passes)
    Mutant("baseline-counts-valid-lines", "passes.py",
           'counts = array("q", [g.lines_per_bank]) * banks',
           "counts = state.valid_by_bank", _GROUPED + _TINY_RUNS),
    Mutant("dcr-counts-copied", "passes.py",
           "counts = state.valid_by_bank",
           'counts = array("q", state.valid_by_bank)', _TINY_RUNS),
    Mutant("rpv-without-slot-phases", "passes.py",
           "timer.slot_phase = pin(bytearray(g.total_lines), 1,\n"
           "                                           g.total_lines)",
           "pass", _GROUPED + _TINY_RUNS),
    Mutant("warm-up-and-close-swapped", "passes.py",
           "warm_at=warm_at, close_at=close_at",
           "warm_at=close_at, close_at=warm_at", _TINY_RUNS),
    # the timers' tallies and the record loop (lru.c)
    Mutant("warm-up-start-without-gap", "lru.c",
           "a.timers[i].start = a.timers[i].now + gap_cycles;",
           "a.timers[i].start = a.timers[i].now;", _TINY_RUNS),
    Mutant("take-leaves-start", "passes.py",
           "t.start, t.refreshed = t.now, 0", "t.refreshed = 0", _TINY_RUNS),
    Mutant("settle-on-the-first-timer", "lru.c",
           "settle(&a.timers[i], set * c.ways",
           "settle(&a.timers[0], set * c.ways", _GROUPED),
    Mutant("clock-not-stored-back", "lru.c", "    *run = a;\n", "",
           _TALLIES),
    Mutant("take-keeps-tallies", "passes.py",
           "        a.instructions = a.hits = a.misses = a.dirty_victims = \\\n"
           "            a.load_misses = 0\n", "", _TALLIES),
    Mutant("take-restarts-timers-at-0", "passes.py",
           "t.start, t.refreshed = t.now, 0", "t.start, t.refreshed = 0, 0",
           _TINY_RUNS),
    Mutant("warm-up-keeps-instructions", "lru.c",
           "a.warm_at = a.instructions = 0;", "a.warm_at = 0;", _TINY_RUNS),
    # a record's set: the analytic hit ratios see half the sets
    Mutant("set-index-drops-a-bit", "lru.c",
           "+ (int64_t)(tag & within_mask);",
           "+ (int64_t)(tag & within_mask & ~(uint64_t)1);",
           ("test_analytic.py",)),
    # the plan of a reconfiguration and the colors its flush scans
    Mutant("plan-pulls-lowest-level-first", "cache.py",
           "sorted((-next(level[c]), c, region)",
           "sorted((next(level[c]), c, region)", _PLANNER),
    Mutant("plan-ties-to-highest-color", "cache.py",
           "sorted((-next(level[c]), c, region)",
           "sorted((-next(level[c]), -c, region)", _PLANNER),
    Mutant("scan-marks-new-colors", "cache.py",
           "set(itertools.compress(state.mapping, moved))",
           "set(itertools.compress(planned, moved))",
           ("test_cache.py::test_batched_pulls_match_flushing_one_region_at_"
            "a_time",)),
    # the command line's one writer (cli._write)
    Mutant("writer-renames-in-the-write-loop", "cli.py",
           "                    fh.write(data)\n"
           "        for tmp, path in made:\n"
           "            os.replace(tmp, path)\n",
           "                    fh.write(data)\n"
           "            os.replace(tmp, path)\n", _WRITER),
    Mutant("writer-without-directory-check", "cli.py",
           "    for path in filter(os.path.isdir, files):\n"
           '        raise IsADirectoryError(f"{path} is a directory")\n', "",
           _WRITER),
    Mutant("writer-keeps-temporary-files", "cli.py",
           "                os.unlink(tmp)\n", "                pass\n",
           _WRITER),
    # trace files and configs
    Mutant("reader-skips-op-check", "trace.py",
           "    _check_ops(arrays)\n    return header, arrays",
           "    return header, arrays",
           ("test_trace.py::test_op_other_than_read_or_write_rejected",)),
    Mutant("scheme-name-length-unchecked", "config.py",
           'if "\\0" in name or len(os.fsencode(\n'
           '                    f"report-{name}.intervals.csv")) > 255:',
           'if "\\0" in name:',
           ("test_cli.py::test_a_scheme_name_that_cannot_name_a_file_is_"
            "config_error",)),
]


def _python(src: str, cache: str, *args: str):
    """Run Python with the package under `src`, in a directory of its own;
    the completed process, or None after TIMEOUT."""
    env = dict(os.environ, PYTHONPATH=src, XDG_CACHE_HOME=cache,
               PYTHONDONTWRITEBYTECODE="1")
    work = tempfile.mkdtemp(prefix="edrsim-mutant-run-")
    try:
        return subprocess.run([sys.executable, *args], cwd=work, env=env,
                              capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _pytest(src: str, cache: str, tests):
    return _python(src, cache, "-m", "pytest", "-q", "-x", "-p",
                   "no:cacheprovider",
                   *(os.path.join(TESTS, t) for t in tests))


def _copy_src(into: str) -> str:
    src = os.path.join(into, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    return src


def run_mutant(mutant: Mutant, cache: str) -> str:
    with tempfile.TemporaryDirectory(prefix="edrsim-mutant-") as tmp:
        src = _copy_src(tmp)
        path = os.path.join(src, "edrsim", mutant.path)
        with open(path) as fh:
            text = fh.read()
        found = text.count(mutant.old)
        if found != 1:
            return "stale" if found == 0 else "error: old text not unique"
        with open(path, "w") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        # a test builds lru.c lazily, so a build error there would fail
        # that test and pass for a kill: build it first
        if path.endswith(".c"):
            built = _python(src, cache, "-c", "import sys; from edrsim "
                            "import native; native.load(sys.argv[1])", path)
            if built is None:
                return "hung"
            if built.returncode != 0:
                return "error: does not build"
        proc = _pytest(src, cache, mutant.tests)
    if proc is None:
        return "hung"
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 1 or proc.returncode < 0:
        return "killed"
    return f"error: pytest exited {proc.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (all)")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"no mutant named {sorted(unknown)}")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="edrsim-mutants-") as tmp:
        cache = os.path.join(tmp, "cache")
        # the named tests must pass on the code as it is
        tests = sorted({t for m in chosen for t in m.tests})
        proc = _pytest(_copy_src(tmp), cache, tests)
        if proc is None or proc.returncode != 0:
            print(proc.stdout if proc else "the unmutated tests hung")
            print("error: the named tests fail without a mutant")
            return 1
        with ThreadPoolExecutor(JOBS) as pool:
            outcomes = list(pool.map(lambda m: run_mutant(m, cache), chosen))
    print("| mutant | file | outcome | tests |")
    print("| --- | --- | --- | --- |")
    for mutant, outcome in zip(chosen, outcomes):
        print(f"| {mutant.name} | {mutant.path} | {outcome} | "
              f"{', '.join(mutant.tests)} |")
    killed = outcomes.count("killed")
    print(f"\n{killed} of {len(chosen)} killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
