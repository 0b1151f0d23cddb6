"""Outside-in tracer for edrsim's layers.

Each layer's public function is replaced, for the length of one command,
by a wrapper installed where its caller looks it up (for example
`edrsim.sim.select`, because `sim.run` calls `select` from its module
globals). Coarse calls (a scheme replay, a controller decision, a refresh
burst) get spans with a parent link, kept in memory and written out at the
end. Every wrapped call also adds to its layer's count, total time and self
time; per-record calls (`locate`, `access_block`, `ProfilingUnit.probe`)
get only those aggregates.

A wrapper's own bookkeeping (the clock reads, the stacks, the notes) would
land in its caller's time. install() measures that cost per call on a
wrapped no-op, and it is taken out of every total and self time: a caller
with n wrapped descendants, d of them direct, loses n and d times that cost
from its total and self time. Span start and end times are left raw.

A function that a later version of edrsim no longer has is skipped, and
the metrics fed by it read 0.
"""

import json
import time
from collections import defaultdict

import edrsim.cache
import edrsim.cli
import edrsim.controller
import edrsim.profiler
import edrsim.refresh
import edrsim.sim
import edrsim.trace


def _hit(acc, args, result, dt):
    acc["cache.hits"] += result.hit


def _sampled(acc, args, result, dt):
    unit, block = args[0], args[1]
    acc["profiler.sampled"] += (block % unit.num_sets) in unit.tags


def _run_kind(acc, args, result, dt):
    acc["sim.run_s." + result.kind.value] += dt


def _fail_safe(acc, args, result, dt):
    acc["controller.fail_safe"] += result.fail_safe


def _flushed(acc, args, result, dt):
    acc["cache.flushed_lines"] += result.flushed_lines


def _refreshed(acc, args, result, dt):
    acc["refresh.lines"] += result.lines_refreshed


def _generated(acc, args, result, dt):
    acc["trace.records"] += len(result)


def _read(acc, args, result, dt):
    acc["trace.records"] += len(result[1])


def _written(acc, args, result, dt):
    acc["cli.bytes_written"] += len(args[1])


# (owner, attribute, layer name, span?, note)
_POINTS = (
    (edrsim.cli, "main", "cli.main", True, None),
    (edrsim.cli, "load_config", "config.load", True, None),
    (edrsim.cli, "compare", "sim.compare", True, None),
    (edrsim.cli, "_atomic_write", "cli.write", True, _written),
    (edrsim.cli, "_json_bytes", "cli.serialize", True, None),
    (edrsim.cli, "_csv_bytes", "cli.serialize", True, None),
    (edrsim.sim.RunReport, "to_dict", "cli.serialize", True, None),
    (edrsim.sim.ComparisonReport, "to_dict", "cli.serialize", True, None),
    (edrsim.trace, "generate_synthetic", "trace.generate", True, _generated),
    (edrsim.trace, "read_trace_arrays", "trace.read", True, _read),
    (edrsim.sim, "run", "sim.run", True, _run_kind),
    (edrsim.sim, "select", "controller.select", True, _fail_safe),
    (edrsim.sim, "apply_decision", "controller.apply", True, None),
    (edrsim.controller, "reconfigure", "cache.reconfigure", True, _flushed),
    (edrsim.sim, "interval_energy", "energy.interval", True, None),
    (edrsim.refresh, "refresh_all", "refresh", True, _refreshed),
    (edrsim.refresh, "rpv_refresh", "refresh", True, _refreshed),
    (edrsim.refresh, "valid_only_refresh", "refresh", True, _refreshed),
    (edrsim.cache, "locate", "cache.locate", False, None),
    (edrsim.cache, "access_block", "cache.access", False, _hit),
    (edrsim.profiler.ProfilingUnit, "probe", "profiler.probe", False,
     _sampled),
)

SCHEME_KINDS = ("baseline_edram", "rpv", "sram", "dcr")


def _noop(_):
    return None


def _noop_note(acc, args, result, dt):
    acc["calibration"] += 1


class Tracer:
    def __init__(self):
        self.calls = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.acc = defaultdict(float)
        self.spans = []  # [id, parent id, layer, start, end]
        self._open_spans = []  # ids of the spans in progress
        # per call in progress: [time in its children, its direct wrapped
        # children, all its wrapped descendants]
        self._frames = []
        self._undo = []
        # host seconds a wrapped call costs its caller beyond the time it
        # records itself; set by install()
        self.call_overhead_s = 0.0

    def install(self) -> None:
        self.call_overhead_s = self._calibrate()
        for owner, attr, layer, span, note in _POINTS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, layer, span, note))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    @staticmethod
    def _calibrate(n: int = 20_000) -> float:
        """Time a wrapped no-op against a bare one. The difference, less
        the time the wrapper records for the call, is the bookkeeping that
        would land in the caller's time; the best of five tries is kept."""
        best = float("inf")
        for _ in range(5):
            probe = Tracer()
            wrapped = probe._wrap(_noop, "calibration", False, _noop_note)
            t0 = time.perf_counter()
            for _ in range(n):
                _noop(None)
            t1 = time.perf_counter()
            for _ in range(n):
                wrapped(None)
            t2 = time.perf_counter()
            recorded = probe.calls["calibration"][1]
            best = min(best, ((t2 - t1) - (t1 - t0) - recorded) / n)
        return max(0.0, best)

    def _wrap(self, fn, layer, span, note):
        stats = self.calls[layer]
        acc = self.acc
        spans = self.spans
        open_spans = self._open_spans
        frames = self._frames
        overhead = self.call_overhead_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = None
            if span:
                sid = len(spans)
                spans.append([sid, open_spans[-1] if open_spans else None,
                              layer, 0.0, 0.0])
                open_spans.append(sid)
            frames.append([0.0, 0, 0])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                inner, direct, nested = frames.pop()
                if frames:
                    parent = frames[-1]
                    parent[0] += dt
                    parent[1] += 1
                    parent[2] += nested + 1
                # the bookkeeping of the wrapped calls below this one is
                # the tracer's cost, not this layer's
                stats[0] += 1
                stats[2] += dt - inner - direct * overhead
                dt -= nested * overhead
                stats[1] += dt
                if sid is not None:
                    open_spans.pop()
                    spans[sid][3] = t0
                    spans[sid][4] = t1
            if note is not None:
                note(acc, args, result, dt)
            return result

        return wrapper

    def metrics(self) -> dict:
        """The per-layer metrics, keyed as in BENCHMARK.json."""
        c, acc = self.calls, self.acc

        def ratio(num, den):
            return num / den if den else 0.0

        access = c["cache.access"][0]
        probes = c["profiler.probe"][0]
        m = {
            "sim.run_calls": c["sim.run"][0],
            "sim.self_s": c["sim.run"][2],
            "cache.access_calls": access,
            "cache.access_self_s": c["cache.access"][2],
            "cache.hit_ratio": ratio(acc["cache.hits"], access),
            "cache.locate_calls": c["cache.locate"][0],
            "cache.locate_per_access": ratio(c["cache.locate"][0], access),
            "profiler.probe_calls": probes,
            "profiler.probe_s": c["profiler.probe"][1],
            "profiler.sampled_ratio": ratio(acc["profiler.sampled"], probes),
            "controller.select_calls": c["controller.select"][0],
            "controller.select_s": c["controller.select"][1],
            "controller.apply_s": c["controller.apply"][1],
            "controller.fail_safe": int(acc["controller.fail_safe"]),
            "cache.reconfigure_s": c["cache.reconfigure"][1],
            "cache.flushed_lines": int(acc["cache.flushed_lines"]),
            "trace.generate_calls": c["trace.generate"][0],
            "trace.generate_s": c["trace.generate"][1],
            "trace.read_s": c["trace.read"][1],
            "trace.records": int(acc["trace.records"]),
            "refresh.events": c["refresh"][0],
            "refresh.lines": int(acc["refresh.lines"]),
            "refresh.s": c["refresh"][1],
            "energy.interval_calls": c["energy.interval"][0],
            "energy.interval_s": c["energy.interval"][1],
            "cli.serialize_s": c["cli.serialize"][1],
            "cli.bytes_written": int(acc["cli.bytes_written"]),
            "config.load_s": c["config.load"][1],
        }
        for kind in SCHEME_KINDS:
            m["sim.run_s." + kind] = acc["sim.run_s." + kind]
        return m

    def write_spans(self, path: str) -> None:
        keys = ("id", "parent", "layer", "start", "end")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "layers": {k: dict(zip(("calls", "total_s", "self_s"),
                                              v))
                                  for k, v in self.calls.items()}}, fh)
