"""edrsim benchmark: host time of `edrsim compare` and `edrsim sweep`.

Usage (from the repository root):

    python3 perfbench/run.py --workload demo-compare --seed 42 --seconds 30 --trace 0

Every sample runs one `edrsim` command through `edrsim.cli.main`, in a
fresh single-threaded child interpreter (child.py), on inputs this
benchmark generates from the seed (workloads.py). Each run replays one
golden seed (chosen by the seed's parity) and then its own seed, and checks
the simulated results exactly: against golden.json for a golden seed, and
against each other and the workload's invariants otherwise.

With `--trace 0` the last stdout line reports the end-to-end metrics: host
time and memory, never simulated time. Times are scaled to a reference host
speed, measured after every command with a fixed piece of work
(child.reference_seconds); the unscaled figures are printed above the line.
With `--trace 1` the golden seed is run untraced, under tracer.py, and
untraced again; the traced results must equal the untraced ones, and the
last line reports the per-layer metrics and the tracing overhead.
Details of the run, with the machine facts, go to .perfbench_out/.

The simulator is unvalidated: the repository holds no hardware reference
results, so no error figure is reported.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, SRC)  # for `edrsim gen-trace` in workloads.prepare
RUN_LIMIT_S = 165  # every child is stopped by then, so a run ends in time
MIN_SETUP_SAMPLES = 5
# Host seconds of child.reference_seconds() on the host where the benchmark
# was defined (2-vCPU Xeon VM at 2.1 GHz, median over runs).
REFERENCE_S = 0.26


def _load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)


def facts() -> dict:
    """Machine and build facts recorded next to every result."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit,
            "src_lines": src_lines}


class Runner:
    """Runs samples of one workload in child interpreters and checks them."""

    def __init__(self, workload, scale: float, work: str, golden: dict):
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.workload = workload
        self.scale = scale
        self.work = work
        self.golden = golden
        self.configs = {}
        self.samples = []  # every command sample, in order
        self.setups = []  # set-up seconds, one per child
        self.problems = []
        self.call_overhead_s = None  # the tracer's, in a traced run
        self._seq = 0

    def _config(self, seed: int) -> str:
        if seed not in self.configs:
            self.configs[seed] = workloads.prepare(
                self.workload, seed, os.path.join(self.work, f"in-{seed}"),
                self.scale)
        return self.configs[seed]

    def _child(self, job: dict):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        timeout = max(1.0, self.deadline - time.perf_counter())
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"),
                 json.dumps(job)], cwd=self.work, env=env,
                capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, (f"child exited {proc.returncode}: "
                          f"{proc.stderr[-2000:]}")
        return json.loads(lines[-1]), None

    def setup_sample(self, seed: int) -> None:
        res, err = self._child({"config": self._config(seed), "argv": [],
                                "setup_only": True, "trace": False})
        if err:
            self.problems.append(f"set-up at seed {seed}: {err}")
        else:
            self.setups.append(res["setup_s"])

    def sample(self, seed: int, trace: bool = False) -> dict | None:
        """Run the command once at `seed`; return the sample, or None if
        it failed (the failure is recorded)."""
        self._seq += 1
        out = os.path.join(self.work, f"out-{self._seq}")
        job = {"config": self._config(seed), "setup_only": False,
               "trace": trace,
               "argv": workloads.argv(self.workload, self._config(seed), out),
               "spans": os.path.join(self.work, "spans.json")}
        res, err = self._child(job)
        if res is not None and res["rc"] != 0:
            err = f"edrsim exited {res['rc']}"
        if res is not None and not err:
            try:
                res["results"] = workloads.read_results(self.workload, out)
            except (OSError, KeyError, ValueError) as exc:
                err = f"unreadable results: {exc!r}"
        shutil.rmtree(out, ignore_errors=True)
        res = res or {}
        res.update(seed=seed, trace=trace, error=err)
        self.samples.append(res)
        if err:
            self.problems.append(f"seed {seed}: {err}")
            return None
        self.setups.append(res["setup_s"])
        bad = workloads.check_invariants(self.workload, res["results"])
        golden = self.golden.get(str(seed))
        if golden is not None:
            bad += workloads.golden_mismatches(res["results"], golden)
        if bad:
            res["error"] = "; ".join(bad)
            self.problems.append(f"seed {seed}: {res['error']}")
            return None
        return res

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s["error"])


def _canonical(results) -> str:
    return json.dumps(results, sort_keys=True)


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, golden: dict | None = None) -> dict:
    """Run one benchmark run; return its summary (metrics, counts, facts)."""
    workload = workloads.WORKLOADS[name]
    if golden is None:
        golden = _load_golden().get(name, {}) if scale == 1.0 else {}
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{name}-{seed}-{os.getpid()}")
    runner = Runner(workload, scale, work, golden)
    gold_seed = workloads.GOLDEN_SEEDS[seed % 2]
    start = time.perf_counter()
    try:
        if trace:
            # untraced samples on both sides of the traced one
            plain = [runner.sample(gold_seed)]
            traced = runner.sample(gold_seed, trace=True)
            plain.append(runner.sample(gold_seed))
            metrics, host = {}, {}
            if traced and all(plain):
                if _canonical(plain[0]["results"]) != _canonical(
                        traced["results"]):
                    traced["error"] = "traced results differ from untraced"
                    runner.problems.append(traced["error"])
                metrics = dict(traced["layers"])
                runner.call_overhead_s = traced["call_overhead_s"]
                metrics["trace_overhead_s"] = traced["wall_s"] - (
                    statistics.median(s["wall_s"] for s in plain))
                shutil.copy(os.path.join(work, "spans.json"), os.path.join(
                    OUT, f"spans-{name}-seed{gold_seed}.json"))
        else:
            # the golden seed, then the run's own seed until the time is up
            runner.sample(gold_seed)
            own = [runner.sample(seed)]
            longest = max(s.get("wall_s", 0.0) for s in runner.samples)
            while time.perf_counter() - start + longest < seconds:
                own.append(runner.sample(seed))
            ok = [s for s in own if s is not None]
            if len({_canonical(s["results"]) for s in ok}) > 1:
                runner.problems.append(f"seed {seed}: results not repeatable")
                for s in ok:
                    s["error"] = s["error"] or "results not repeatable"
            for _ in range(MIN_SETUP_SAMPLES - len(runner.setups)):
                runner.setup_sample(seed)
            metrics, host = _end_to_end(workload, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": name, "seed": seed, "trace": trace,
            "golden_seed": gold_seed, "scale": scale,
            "attempted": len(runner.samples), "failed": runner.failed,
            "problems": runner.problems, "metrics": metrics,
            "samples": [{k: v for k, v in s.items() if k != "layers"}
                        for s in runner.samples],
            "setup_samples": runner.setups,
            "call_overhead_s": runner.call_overhead_s, "host": host,
            "elapsed_s": time.perf_counter() - start, "facts": facts()}


def _end_to_end(workload, runner) -> tuple[dict, dict]:
    """The end-to-end metrics at the reference host speed, and the raw
    host figures they come from."""
    good = [s for s in runner.samples if not s["error"]]
    if not good:
        return {}, {}
    # The shared host's speed drifts by up to 1.5x over minutes, more than
    # any bound could allow. Every time is therefore scaled by how long the
    # fixed reference work after each command took in this run, against
    # REFERENCE_S. Means are used, because within a run the speed also
    # switches from one second to the next, and means average that out.
    host = {"wall_s": statistics.fmean(s["wall_s"] for s in good),
            "setup_s": statistics.median(runner.setups),
            "reference_s": statistics.fmean(s["reference_s"] for s in good)}
    speed = REFERENCE_S / host["reference_s"]
    wall = host["wall_s"] * speed
    instructions = good[0]["instructions"]
    return {
        "wall_s": wall,
        "sim_minstr_per_s":
            instructions * workload.result_count / wall / 1e6,
        "setup_s": host["setup_s"] * speed,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in good),
    }, host


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def report(summary: dict) -> dict:
    """The result line of a run: correctness, counts and metrics with units."""
    units = _units()
    metrics = summary["metrics"]
    return {"correct": (summary["failed"] == 0 and not summary["problems"]
                        and bool(metrics)),
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": {k: {"value": v, "unit": units.get(k, "")}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "edrsim", "__init__.py")):
        print(f"edrsim sources not found under {SRC}", file=sys.stderr)
        return 2

    summary = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)

    for problem in summary["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = report(summary)
    print(f"facts {json.dumps(summary['facts'], sort_keys=True)}")
    print(f"samples {result['attempted']}, "
          f"golden seed {summary['golden_seed']}")
    print(f"ops_failed_pct "
          f"{100.0 * result['failed'] / max(1, result['attempted']):.1f} %")
    for key, value in summary["host"].items():
        print(f"host {key} {value} s (unscaled)")
    if summary["call_overhead_s"] is not None:
        print(f"tracer cost per wrapped call {summary['call_overhead_s']} s"
              " (taken out of the per-layer times)")
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']} {metric['unit']}")
    if not result["metrics"]:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
