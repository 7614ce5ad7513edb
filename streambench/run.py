#!/usr/bin/env python3
"""The streamctc benchmark: one workload, one seed, one JSON result line.

    python3 streambench/run.py --workload stream-default --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced run.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  See README.md beside
this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-ups per run, spread over it; setup_s is their median.
PROBES = 15
# Share of a traced run spent untraced, to measure the tracing overhead.
UNTRACED_SHARE = 0.2

# name -> (unit, better, bound): the bound is the share of the parent's
# median by which a metric may worsen before a change counts as a regression.
# Times are on the speed gauge's scale (gauge.py), which takes out the
# shared machine's slow and fast phases; the raw times are printed on the
# line before the result.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "frame_ms_p50": ("ms", "lower", 0.2),
    "frame_ms_p90": ("ms", "lower", 0.25),
    "frames_per_s": ("1/s", "higher", 0.2),
    "char_acc": ("ratio", "higher", 0.15),
    "churn": ("edits/frame", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# Printed on the line before the result, without a bound.
UNBOUNDED = {
    "utts_per_s": "1/s",
    "final_ms": "ms",
    "frame_ms_growth": "ratio",
    "cer": "ratio",
    "frame_samples": "count",
    "raw_setup_s": "s",
    "raw_frame_ms_p50": "ms",
    "raw_frame_ms_p90": "ms",
    "raw_frames_per_s": "1/s",
    "gauge_tick_ms": "ms",
    "gauge_readings": "count",
}


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _frame_samples(utts, gauge=None) -> list[float]:
    """Seconds per frame in input order: each row's latency for ``stream``;
    each call's busy time over its frames for ``decode`` and ``s2s-decode``.
    With ``gauge``, each sample is scaled by the readings around it."""
    scale = gauge.factor if gauge is not None else (lambda start, end: 1.0)
    if utts and utts[0].latencies:
        return [lat * scale(at, at + lat)
                for u in utts for lat, at in zip(u.latencies, u.handed_at)]
    return [u.busy_s / u.frames * scale(u.started_at, u.started_at + u.busy_s) for u in utts]


def end_to_end(workload, run, peak_rss_mb: float) -> dict[str, float]:
    """Every metric of END_TO_END and UNBOUNDED."""
    from client import char_edits
    from tracing import growth, median, percentile
    utts, gauge = run.utts, run.gauge
    timed = utts
    if workload.kind == "stream":
        # A stream's frames differ in cost (the lag buffer fills, the
        # transcript grows), so a stream cut short by the deadline would make
        # the mix depend on speed.  Time the streams that got all their rows,
        # or the first one if none did.
        timed = [u for u in utts if u.frames == u.total_frames] or utts[:1]
    busy = sum(u.busy_s for u in timed)
    # busy time scaled call by call; a stream's readings are spread over it
    scaled_busy = sum(u.busy_s * gauge.factor(u.started_at, u.started_at + u.busy_s)
                      for u in timed)
    raw = _frame_samples(timed)
    samples = _frame_samples(timed, gauge)
    # growth along one stream, from the frame its lag buffer is full
    ramp = workload.lag if workload.kind == "stream" else 0
    along = _frame_samples(timed[:1], gauge)[ramp:] if workload.kind == "stream" else samples
    # output quality is a property of the inputs, each counted once
    firsts = [u for u in utts if not u.repeat]
    frames = sum(u.frames for u in firsts)
    timed_frames = sum(u.frames for u in timed)
    ref_chars = sum(len(u.reference) for u in firsts)
    cer = sum(char_edits(u.reference, u.transcript) for u in firsts) / ref_chars if ref_chars else 1.0
    raw_setups = [end - start for start, end in run.setups]
    setups = [(end - start) * gauge.factor(start, end) for start, end in run.setups]
    finals = [u.final_s * gauge.factor(u.final_at, u.final_at + u.final_s) for u in timed]
    return {
        "setup_s": median(setups),
        "frame_ms_p50": percentile(samples, 50) * 1e3,
        "frame_ms_p90": percentile(samples, 90) * 1e3,
        "frames_per_s": timed_frames / scaled_busy if scaled_busy else 0.0,
        "char_acc": 1.0 - cer,
        "churn": sum(u.churn_edits for u in firsts) / frames if frames else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "utts_per_s": sum(u.frames / u.total_frames for u in timed) / scaled_busy
        if scaled_busy else 0.0,
        "final_ms": median(finals) * 1e3,
        "frame_ms_growth": growth(along),
        "cer": cer,
        "frame_samples": len(samples),
        "raw_setup_s": median(raw_setups),
        "raw_frame_ms_p50": percentile(raw, 50) * 1e3,
        "raw_frame_ms_p90": percentile(raw, 90) * 1e3,
        "raw_frames_per_s": timed_frames / busy if busy else 0.0,
        "gauge_tick_ms": median(gauge.tick_s) * 1e3,
        "gauge_readings": len(gauge.tick_s),
    }


def measure(workload, inputs, seconds: float, trace: bool, workdir: str):
    """Run the workload; returns (run, per-layer metrics or None)."""
    from tracing import Tracer, layer_metrics
    from workloads import RUNNERS
    runner = RUNNERS[workload.kind]
    if not trace:
        return runner(workload, inputs, seconds, PROBES, workdir=workdir), None
    plain = runner(workload, inputs, seconds * UNTRACED_SHARE, 0, workdir=workdir)
    tracer = Tracer()
    traced = runner(workload, inputs, seconds * (1 - UNTRACED_SHARE), 0,
                    workdir=workdir, tracer=tracer)
    a, b = _frame_samples(plain.utts, plain.gauge), _frame_samples(traced.utts, traced.gauge)
    k = min(len(a), len(b))
    overhead = sum(b[:k]) / sum(a[:k]) if k else 0.0
    trace_path = ROOT / ".bench_work" / f"trace-{workload.name}.jsonl"
    tracer.write(str(trace_path))
    print(f"spans: {trace_path.relative_to(ROOT)} ({len(tracer.spans)})")
    layers = layer_metrics(tracer, sum(u.busy_s for u in traced.utts), overhead)
    traced.utts.extend(plain.utts)  # the untraced share counts toward attempted/failed too
    return traced, layers


def benchmark(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, dict]:
    """One run; returns (environment, result line)."""
    import numpy
    from inputs import Sizes, make_inputs
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = make_inputs(seed, workload.inputs, str(workdir), sizes or Sizes())
        run, layers = measure(workload, inputs, seconds, trace, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    env = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": os.cpu_count()}
    if layers is None:
        values = end_to_end(workload, run, peak_rss_mb)
        units = {k: v[0] for k, v in END_TO_END.items()}
        env["unbounded"] = {k: {"value": values[k], "unit": u} for k, u in UNBOUNDED.items()}
    else:
        values = layers
        units = {k: v[0] for k, v in PER_LAYER.items()}
    attempted = sum(u.attempted for u in run.utts) + run.probe_attempts
    failed = sum(u.failures for u in run.utts) + run.probe_failures
    return env, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    if not (SRC / "streamctc" / "__init__.py").is_file():
        print(f"streambench: no streamctc package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    args = parse_args(argv)
    env, result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
