"""The four workloads: what each runs, and the closed loop that runs it."""

from __future__ import annotations

import itertools
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from streamctc import EmissionMatrix, load_ngram, load_table_scorer, save_emissions
from streamctc.cli import main as cli_main

from client import Call, StreamChecker, StreamSession, UttResult, call_cli
from gauge import CALL_TICKS, Gauge
from inputs import ALPHABET, Inputs, reference_prefix


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each exists."""

    name: str
    kind: str                         # "stream", "decode" or "s2s"
    inputs: str                       # input kind for inputs.make_inputs
    beam_args: tuple[str, ...] = ()   # decoder flags, shared with the decode check
    lag: int = 0                      # frames a stream buffers before its first commit

    @property
    def argv(self) -> list[str]:
        if self.kind == "stream":
            return ["stream", "--lag", str(self.lag), *self.beam_args]
        return [{"decode": "decode", "s2s": "s2s-decode"}[self.kind], *self.beam_args]


WORKLOADS = {w.name: w for w in (
    Workload("stream-default", "stream", "utterances", lag=22),
    Workload("decode-offline", "decode", "utterances"),
    Workload("stream-long", "stream", "long", beam_args=("--beam-width", "8"), lag=0),
    Workload("s2s-batch", "s2s", "tables"),
)}


@dataclass
class Run:
    utts: list[UttResult] = field(default_factory=list)
    setups: list[tuple[float, float]] = field(default_factory=list)  # (start, end)
    gauge: Gauge = field(default_factory=Gauge)
    probe_failures: int = 0
    probe_attempts: int = 0


def _decode_line(call: Call) -> str | None:
    """The single ``text<TAB>score`` line of a decode, or None if malformed."""
    lines = call.stdout.split("\n")
    if call.exit_code != 0 or len(lines) != 2 or lines[1] or "\t" not in lines[0]:
        return None
    try:
        float(lines[0].rpartition("\t")[2])
    except ValueError:
        return None
    return lines[0]


def _window(tracer):
    """The context the timed part runs in, and the CLI entry point to call."""
    if tracer is None:
        return nullcontext(), cli_main
    return tracer.installed(), tracer.main()


def run_stream(w: Workload, inputs: Inputs, seconds: float, probes: int,
               workdir: str | None = None, tracer=None) -> Run:
    """Stream utterances one after the other until ``seconds`` are up; the
    utterance in flight then ends its input.  Before that, ``probes`` calls
    with no rows measure set-up alone.  Checks run after the window, against
    ``decode`` of exactly the rows each call was sent."""
    argv = [*w.argv, "--lm", inputs.lm_path]
    run = Run()
    sessions = []

    def probe(n: int) -> None:
        for _ in range(n):
            run.gauge.read()
            checker = StreamChecker()
            session = StreamSession(inputs.utterances[0].lines[:1], float("inf"), checker)
            call = call_cli(argv, session, session, main)
            if session.setup_at is not None:
                run.setups.append((call.started_at, session.setup_at))
            run.probe_failures += min(1, checker.finish(0, None) + (call.exit_code != 0))
            run.probe_attempts += 1

    window, main = _window(tracer)
    with window:
        probe(probes // 2)  # half before the window, half after
        deadline = perf_counter() + seconds
        for utt in itertools.cycle(inputs.utterances):
            if perf_counter() >= deadline:
                break
            run.gauge.read()
            session = StreamSession(utt.lines, deadline, StreamChecker(), run.gauge)
            call = call_cli(argv, session, session, main)
            if session.setup_at is not None:
                run.setups.append((call.started_at, session.setup_at))
            sessions.append((utt, session, call))
        probe(probes - probes // 2)
        run.gauge.read()

    seen: set[int] = set()
    for i, (utt, session, call) in enumerate(sessions):
        rows = session.rows_sent
        path = utt.path
        if rows < utt.em.num_frames or not path:
            path = os.path.join(workdir, f"check{i:03d}.em")
            save_emissions(EmissionMatrix(ALPHABET, utt.em.probs[:rows]), path)
        decoded = _decode_line(call_cli(["decode", path, *w.beam_args, "--lm", inputs.lm_path]))
        checker = session.checker
        failures = (checker.finish(rows, decoded) + (decoded is None)
                    + (call.exit_code != 0))
        run.utts.append(UttResult(
            frames=rows, total_frames=utt.em.num_frames, busy_s=call.busy_s,
            final_s=session.final_s or 0.0, transcript=checker.transcript,
            reference=reference_prefix(utt, rows), churn_edits=checker.churn_edits,
            failures=min(failures, rows + 1), attempted=rows + 1,
            repeat=id(utt) in seen, started_at=call.started_at,
            final_at=session.eof_at or call.started_at,
            latencies=session.latencies, handed_at=session.handed_at))
        seen.add(id(utt))
    return run


def _run_batch(argv_of, items, seconds: float, tracer, probe, probes: int,
               run: Run) -> list[tuple[object, Call]]:
    """Call the CLI on ``items`` round-robin until ``seconds`` are up, with
    ``probes`` set-up probes spread evenly over the window and a gauge
    reading before and after each call."""
    calls = []
    window, main = _window(tracer)
    with window:
        start = perf_counter()
        deadline = start + seconds
        run.gauge.read(CALL_TICKS)
        for item in itertools.cycle(items):
            now = perf_counter()
            if now >= deadline:
                break
            if len(run.setups) < probes and now >= start + len(run.setups) * seconds / probes:
                t0 = perf_counter()
                probe()
                run.setups.append((t0, perf_counter()))
                run.gauge.read(CALL_TICKS)
            calls.append((item, call_cli(argv_of(item), main=main)))
            run.gauge.read(CALL_TICKS)
    return calls


def run_decode(w: Workload, inputs: Inputs, seconds: float, probes: int,
               workdir: str | None = None, tracer=None) -> Run:
    """``decode`` one utterance file after another until ``seconds`` are up.
    Set-up is timed on the public loader the command calls before decoding."""
    run = Run()
    lm = ["--lm", inputs.lm_path]
    seen: set[str] = set()
    for utt, call in _run_batch(lambda u: [*w.argv, u.path, *lm], inputs.utterances, seconds,
                                tracer, lambda: load_ngram(inputs.lm_path), probes, run):
        line = _decode_line(call)
        text = line.rpartition("\t")[0] if line else ""
        frames = utt.em.num_frames
        run.utts.append(UttResult(
            frames=frames, total_frames=frames, busy_s=call.busy_s, final_s=call.busy_s,
            transcript=text, reference=utt.text, churn_edits=len(text),
            failures=int(line is None), attempted=1, repeat=utt.path in seen,
            started_at=call.started_at, final_at=call.started_at))
        seen.add(utt.path)
    return run


def run_s2s(w: Workload, inputs: Inputs, seconds: float, probes: int,
            workdir: str | None = None, tracer=None) -> Run:
    """``s2s-decode`` the tables round-robin until ``seconds`` are up; every
    repeat of a table must print byte-identical output.  Set-up is timed on
    the public loaders the command calls before decoding."""
    run = Run()
    lm = ["--lm", inputs.lm_path]

    def probe():
        load_table_scorer(inputs.tables[0].path)
        load_ngram(inputs.lm_path)

    first: dict[str, str] = {}
    for table, call in _run_batch(lambda t: [*w.argv, t.path, *lm], inputs.tables, seconds,
                                  tracer, probe, probes, run):
        line = _decode_line(call)
        text = line.rpartition("\t")[0] if line else ""
        repeat = table.path in first
        repeat_differs = first.setdefault(table.path, call.stdout) != call.stdout
        run.utts.append(UttResult(
            frames=table.steps, total_frames=table.steps, busy_s=call.busy_s,
            final_s=call.busy_s, transcript=text, reference=table.target,
            churn_edits=len(text), failures=int(line is None or repeat_differs), attempted=1,
            repeat=repeat, started_at=call.started_at, final_at=call.started_at))
    return run


RUNNERS = {"stream": run_stream, "decode": run_decode, "s2s": run_s2s}
