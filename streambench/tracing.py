"""Spans around the calls one ``streamctc`` module makes into another.

The tracer patches module attributes for the traced run only and restores
them afterwards, so the untraced run executes the package untouched.  Each
span records name, start, end and parent; spans are kept in memory and
written out as JSON lines at the end.

The LM and S2S scorer methods run thousands of times per beam step, so a
span each would cost more memory than the run has.  Those calls are timed
and counted against the enclosing span instead (which also takes them out of
its self time), and an evenly thinned sample of their durations is kept for
the percentiles.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import statistics
import types
from time import perf_counter

# by module path: the package re-exports functions named like some modules
beam_mod, cli_mod, simulate_mod, streaming_mod = (
    importlib.import_module(f"streamctc.{name}")
    for name in ("beam", "cli", "simulate", "streaming"))

SAMPLE_CAP = 1 << 16

# Timed operations, each reported as calls, p50/p90 per call, total, share of
# the CLI's busy time and self time.
TIMED = (
    "streaming.push", "streaming.flush", "streaming.complete",
    "beam.step",
    "lm.load", "lm.next_log_probs", "lm.advance",
    "simulate.parse_row", "simulate.load",
    "cli.json",
    "s2s.decode", "s2s.load", "s2s.scorer",
)

# name -> (unit, better) for everything layer_metrics() reports
PER_LAYER: dict[str, tuple[str, str]] = {}
for _op in TIMED:
    PER_LAYER.update({
        f"{_op}_calls": ("count", "lower"),
        f"{_op}_ms_p50": ("ms", "lower"),
        f"{_op}_ms_p90": ("ms", "lower"),
        f"{_op}_total_s": ("s", "lower"),
        f"{_op}_busy_pct": ("%", "lower"),
        f"{_op}_self_s": ("s", "lower"),
    })
PER_LAYER.update({
    "streaming.steps_per_push": ("steps/push", "lower"),
    "streaming.flush_steps": ("steps/flush", "lower"),
    "streaming.complete_lm_advances": ("advances/call", "lower"),
    "beam.step_self_ms_p50": ("ms", "lower"),
    "beam.candidates_per_step": ("advances/step", "lower"),
    "beam.survivor_ratio": ("ratio", "higher"),
    "cli.record_bytes": ("bytes", "lower"),
    "streaming.push_ms_growth": ("ratio", "lower"),
    "beam.step_self_ms_growth": ("ratio", "lower"),
    "streaming.complete_ms_growth": ("ratio", "lower"),
    "cli.json_ms_growth": ("ratio", "lower"),
    "trace.overhead": ("x", "lower"),
})


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_s", "counts", "note")

    def __init__(self, span_id: int, name: str, parent: "Span | None"):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.counts: dict[str, int] = {}  # child spans and counted calls, by name
        self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class CallStats:
    """Count and total of a counted call, plus a sample of its durations that
    keeps every ``stride``-th call and halves itself when full."""

    __slots__ = ("calls", "total_s", "sample", "stride")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.sample: list[float] = []
        self.stride = 1

    def add(self, seconds: float) -> None:
        self.calls += 1
        self.total_s += seconds
        if self.calls % self.stride == 0:
            self.sample.append(seconds)
            if len(self.sample) >= SAMPLE_CAP:
                del self.sample[1::2]
                self.stride *= 2


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, CallStats] = {}
        self._stack: list[Span] = []

    def span(self, name: str, fn, note=None):
        """``fn`` wrapped in a span; ``note(result)`` is stored on the span."""
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), name, parent)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                    parent.counts[name] = parent.counts.get(name, 0) + 1
            if note is not None:
                span.note = note(result)
            return result

        return traced

    def counted(self, name: str, fn):
        """``fn`` timed and counted against the enclosing span."""
        stats = self.calls.setdefault(name, CallStats())
        stack = self._stack

        def traced(*args):
            t0 = perf_counter()
            result = fn(*args)
            seconds = perf_counter() - t0
            stats.add(seconds)
            if stack:
                top = stack[-1]
                top.child_s += seconds
                top.counts[name] = top.counts.get(name, 0) + 1
            return result

        return traced

    def _count_lm(self, lm) -> None:
        lm.next_log_probs = self.counted("lm.next_log_probs", lm.next_log_probs)
        lm.advance = self.counted("lm.advance", lm.advance)

    def _count_scorer(self, scorer) -> None:
        scorer.next_log_probs = self.counted("s2s.scorer", scorer.next_log_probs)
        scorer.advance = self.counted("s2s.scorer", scorer.advance)

    @contextlib.contextmanager
    def installed(self):
        """Patch the module boundaries; the CLI must be entered through
        :meth:`main` for its calls to have a root span."""
        decoder = streaming_mod.StreamingDecoder

        def load_ngram(source):
            lm = traced_load_ngram(source)
            self._count_lm(lm)
            return lm

        def load_table_scorer(source):
            scorer = traced_load_scorer(source)
            self._count_scorer(scorer)
            return scorer

        traced_load_ngram = self.span("lm.load", cli_mod.load_ngram)
        traced_load_scorer = self.span("s2s.load", cli_mod.load_table_scorer)
        kept = lambda beam: len(beam.hypotheses)  # noqa: E731
        patches = [
            (cli_mod, "load_ngram", load_ngram),
            (cli_mod, "load_table_scorer", load_table_scorer),
            (cli_mod, "load_emissions", self.span("simulate.load", cli_mod.load_emissions)),
            (cli_mod, "parse_emission_row",
             self.span("simulate.parse_row", cli_mod.parse_emission_row)),
            (simulate_mod, "parse_emission_row",
             self.span("simulate.parse_row", simulate_mod.parse_emission_row)),
            (cli_mod, "json", types.SimpleNamespace(
                dumps=self.span("cli.json", json.dumps, note=lambda s: len(s) + 1))),
            (cli_mod, "s2s_decode", self.span("s2s.decode", cli_mod.s2s_decode)),
            (beam_mod, "beam_step", self.span("beam.step", beam_mod.beam_step, note=kept)),
            (streaming_mod, "beam_step",
             self.span("beam.step", streaming_mod.beam_step, note=kept)),
            (streaming_mod, "lm_complete_word",
             self.span("streaming.complete", streaming_mod.lm_complete_word)),
            (decoder, "push", self.span("streaming.push", decoder.push)),
            (decoder, "flush", self.span("streaming.flush", decoder.flush)),
        ]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, value in patches:
                setattr(obj, attr, value)
            yield self
        finally:
            for obj, attr, value in saved:
                setattr(obj, attr, value)

    def main(self):
        """``streamctc.cli.main`` in a root span."""
        return self.span("cli.main", cli_mod.main)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name,
                    "parent": s.parent.id if s.parent is not None else None,
                    "start": s.start, "end": s.end, "counts": s.counts,
                }) + "\n")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def growth(values: list[float]) -> float:
    """p50 over the last tenth of ``values`` divided by p50 over the first
    tenth; 0.0 below ten values."""
    tenth = len(values) // 10
    first = median(values[:tenth])
    return median(values[-tenth:]) / first if first else 0.0


def _root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def layer_metrics(tracer: Tracer, busy_s: float, overhead: float) -> dict[str, float]:
    """Every per-layer metric; operations a workload never reaches read 0.

    ``busy_s`` is the CLI's busy time in the traced run, the base of the
    ``_busy_pct`` shares.
    """
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    out: dict[str, float] = {}
    for op in TIMED:
        if op in tracer.calls:
            stats = tracer.calls[op]
            calls, total, self_s, sample = stats.calls, stats.total_s, stats.total_s, stats.sample
        else:
            spans = by_name.get(op, [])
            sample = [s.duration for s in spans]
            calls, total, self_s = len(spans), sum(sample), sum(s.self_s for s in spans)
        out[f"{op}_calls"] = calls
        out[f"{op}_ms_p50"] = percentile(sample, 50) * 1e3
        out[f"{op}_ms_p90"] = percentile(sample, 90) * 1e3
        out[f"{op}_total_s"] = total
        out[f"{op}_busy_pct"] = 100 * total / busy_s if busy_s else 0.0
        out[f"{op}_self_s"] = self_s

    def per_span(name: str, child: str) -> list[int]:
        return [s.counts.get(child, 0) for s in by_name.get(name, [])]

    steps = by_name.get("beam.step", [])
    advances = sum(per_span("beam.step", "lm.advance"))
    # the lag buffer only fills, so the largest count is the steady state
    out["streaming.steps_per_push"] = max(per_span("streaming.push", "beam.step"), default=0)
    out["streaming.flush_steps"] = max(per_span("streaming.flush", "beam.step"), default=0)
    out["streaming.complete_lm_advances"] = median(per_span("streaming.complete", "lm.advance"))
    out["beam.step_self_ms_p50"] = median([s.self_s for s in steps]) * 1e3
    out["beam.candidates_per_step"] = median(per_span("beam.step", "lm.advance"))
    out["beam.survivor_ratio"] = sum(s.note or 0 for s in steps) / advances if advances else 0.0
    out["cli.record_bytes"] = median([s.note for s in by_name.get("cli.json", [])])

    # Growth along the first CLI call: for a stream, over the pushes made
    # once the lag buffer is full and the beam steps inside them.
    roots = by_name.get("cli.main", [])

    def first_call(name: str) -> list[Span]:
        return [s for s in by_name.get(name, []) if roots and _root(s) is roots[0]]

    pushes = first_call("streaming.push")
    steady = [p for p in pushes if p.counts.get("beam.step", 0) == out["streaming.steps_per_push"]]
    outer = {id(p) for p in steady} | {id(roots[0]) if roots else None}
    out["streaming.push_ms_growth"] = growth([p.duration for p in steady])
    out["beam.step_self_ms_growth"] = growth(
        [s.self_s for s in first_call("beam.step") if id(s.parent) in outer])
    out["streaming.complete_ms_growth"] = growth(
        [s.duration for s in first_call("streaming.complete")])
    out["cli.json_ms_growth"] = growth([s.duration for s in first_call("cli.json")])
    out["trace.overhead"] = overhead
    assert set(out) == set(PER_LAYER)
    return out
