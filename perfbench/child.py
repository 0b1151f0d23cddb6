"""One benchmark sample, run in a fresh interpreter by run.py.

Usage: python3 child.py '<job json>'

The job gives the config, the `edrsim` argv and two flags. The child times
set-up (importing edrsim, `config.load_config` and acquiring the trace),
then, unless `setup_only`, runs the command through `edrsim.cli.main` and
times it. With `trace`, the command runs under the tracer of tracer.py and
the spans are written to `spans`; without it, reference_seconds() is timed
after the command. The last stdout line is a JSON object with the
measurements.
"""

import json
import resource
import sys
import time


def peak_rss_mb() -> float:
    """Peak resident memory of this interpreter, in MiB.

    VmHWM, not ru_maxrss: on Linux ru_maxrss keeps the high-water mark of
    the image the process was forked from, so it would report the parent's
    memory whenever that is the larger.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference_seconds() -> float:
    """Host seconds of a fixed piece of work that runs no edrsim code.

    run.py scales its times by this, so that a run measured while the
    shared host is slow reads like one measured while it is fast. It mixes
    the two kinds of work edrsim does: an interpreted set-associative LRU
    loop (60% of the time), whose slowdown follows that of edrsim's replay
    loop, and a numpy sort (40%), which slows down more. On a shared host
    the mix slowed down about as much as `edrsim compare` did.
    """
    import numpy as np  # imported by edrsim already, outside set-up time

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    sets = [[] for _ in range(1024)]
    for block in rng.integers(0, 1 << 14, size=500_000).tolist():
        ways = sets[block & 1023]
        tag = block >> 10
        if tag in ways:
            ways.remove(tag)
        elif len(ways) == 8:
            del ways[0]
        ways.append(tag)
    np.sort(rng.integers(0, 1 << 20, size=5_000_000))
    return time.perf_counter() - t0


def main() -> int:
    job = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    from edrsim import cli, config, trace
    cfg = config.load_config(job["config"])
    if cfg.trace_path:
        with open(cfg.trace_path, "rb") as fh:
            _, arrays = trace.read_trace_arrays(fh)
    else:
        arrays = trace.generate_synthetic(cfg.synthetic)
    out = {"setup_s": time.perf_counter() - t0,
           "instructions": arrays.instructions}
    del arrays, cfg
    if not job["setup_only"]:
        tracer = None
        if job["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        t1 = time.perf_counter()
        out["rc"] = cli.main(job["argv"])
        out["wall_s"] = time.perf_counter() - t1
        out["peak_rss_mb"] = peak_rss_mb()
        if tracer is None:
            out["reference_s"] = reference_seconds()
        else:
            tracer.uninstall()
            out["layers"] = tracer.metrics()
            out["call_overhead_s"] = tracer.call_overhead_s
            tracer.write_spans(job["spans"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
