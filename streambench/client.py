"""One closed-loop client driving the ``streamctc`` CLI inside this process.

``streamctc.cli.main`` runs with this module's objects standing in for
standard input and output.  For ``stream`` the CLI asks for the next line
only after it has written the record of the previous row, so the next row is
handed over only after the previous frame's record came back: one client,
closed loop, no queue.  ``decode`` and ``s2s-decode`` are called once per
utterance, one after the other.

Time spent in this module's callbacks (handing rows over, checking records,
taking the speed gauge's readings) is measured and left out of the CLI's
busy time.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from streamctc.cli import main as cli_main

RECORD_KEYS = {"frame", "committed", "hypothesis", "completion", "score"}


def char_edits(a: str, b: str) -> int:
    """Character edit distance, equal to ``edit_distance(a, b).distance``.

    The common prefix and suffix are cut off first, and what is left runs
    through a numpy row-at-a-time dynamic program, so transcripts thousands
    of characters long cost little.
    """
    if b.startswith(a):
        return len(b) - len(a)
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:  # longest common prefix, by slice comparison
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    a, b = a[lo:], b[lo:]
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:  # longest common suffix of what is left
        mid = (lo + hi + 1) // 2
        if a[len(a) - mid:] == b[len(b) - mid:]:
            lo = mid
        else:
            hi = mid - 1
    a, b = a[: len(a) - lo], b[: len(b) - lo]
    if not a or not b:
        return max(len(a), len(b))
    bs = np.array([ord(c) for c in b])
    cols = np.arange(len(b) + 1)
    row = cols
    for i, ch in enumerate(a, start=1):
        new = np.empty_like(row)
        new[0] = i
        np.minimum(row[1:] + 1, row[:-1] + (bs != ord(ch)), out=new[1:])
        # an insertion extends the row from the left: running min of new - j
        row = np.minimum.accumulate(new - cols) + cols
    return int(row[-1])


class StreamChecker:
    """Checks the records of one ``stream`` call as they arrive.

    Each frame record must be a JSON object with exactly the documented keys
    and the next frame number; the final record must close the stream at the
    number of rows sent and, once :meth:`finish` is given the ``decode``
    output for the same rows and config, carry the same transcript and score.
    Every record that breaks a rule, and every record that never came, counts
    as one failure.
    """

    def __init__(self):
        self.received = 0
        self.frames = 0
        self.failures = 0
        self.churn_edits = 0
        self.final: dict | None = None
        self._hypothesis = ""

    def feed(self, line: str) -> None:
        self.received += 1
        try:
            rec = json.loads(line)
        except ValueError:
            rec = None
        if not isinstance(rec, dict):
            self.failures += 1
        elif rec.get("final") is True and self.final is None:
            self.final = rec
        else:
            self.frames += 1
            if (set(rec) != RECORD_KEYS or rec["frame"] != self.frames
                    or not all(isinstance(rec[k], str)
                               for k in ("committed", "hypothesis", "completion"))
                    or not isinstance(rec["score"], (int, float))):
                self.failures += 1
            else:
                self.churn_edits += char_edits(self._hypothesis, rec["hypothesis"])
                self._hypothesis = rec["hypothesis"]

    def finish(self, rows_sent: int, decode_line: str | None) -> int:
        """Count missing records and check the final one; ``decode_line`` is
        the ``decode`` output for the rows sent, or None to skip that check."""
        self.failures += max(0, rows_sent + 1 - self.received)
        final = self.final
        if final is None:
            pass  # counted as missing, or as malformed
        elif (set(final) != RECORD_KEYS | {"final"} or final["frame"] != rows_sent
                or final["committed"] != final["hypothesis"] or final["completion"] != ""):
            self.failures += 1
        elif decode_line is not None:
            text, _, score = decode_line.rpartition("\t")
            if text != final["committed"] or float(score) != final["score"]:
                self.failures += 1
        return self.failures

    @property
    def transcript(self) -> str:
        return self.final["committed"] if self.final and "committed" in self.final else ""


class StreamSession:
    """Standard input and output of one ``streamctc stream`` call.

    ``lines`` is a CTCEM header followed by rows.  Rows are handed over until
    they run out or ``deadline`` passes; then the input ends, as when a user
    stops talking, and the CLI flushes its final record.  Before handing over
    a row, ``gauge`` takes a reading if one is due (see gauge.py).
    """

    def __init__(self, lines: list[str], deadline: float, checker: StreamChecker,
                 gauge=None):
        self._lines = lines
        self._next = 0
        self._deadline = deadline
        self._parts: list[str] = []
        self._handed_at = 0.0
        self._gauge = gauge
        self.checker = checker
        self.setup_at: float | None = None   # when the first row was asked for
        self.eof_at: float | None = None
        self.latencies: list[float] = []     # row handed -> its record written
        self.handed_at: list[float] = []     # when each of those rows was handed
        self.final_s: float | None = None    # end of input -> final record written
        self.client_s = 0.0

    @property
    def rows_sent(self) -> int:
        return max(0, self._next - 1)

    def readline(self) -> str:
        t0 = perf_counter()
        if self._next == 1 and self.setup_at is None:
            self.setup_at = t0
        if self._next >= 1 and self._gauge is not None:
            self._gauge.read_if_due()
        if self._next == 0 or (self._next < len(self._lines) and t0 < self._deadline):
            line = self._lines[self._next]
            self._next += 1
        else:
            line = ""
        t1 = perf_counter()
        self.client_s += t1 - t0
        if not line:
            self.eof_at = t1
        elif self._next > 1:
            self._handed_at = t1
        return line

    def write(self, text: str) -> int:
        t0 = perf_counter()
        self._parts.append(text)
        if text.endswith("\n"):  # print() writes the record, then its newline
            if self.eof_at is None:
                self.latencies.append(t0 - self._handed_at)
                self.handed_at.append(self._handed_at)
            elif self.final_s is None:
                self.final_s = t0 - self.eof_at
            self.checker.feed("".join(self._parts))
            self._parts.clear()
        self.client_s += perf_counter() - t0
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class Call:
    """One CLI invocation."""

    exit_code: int
    started_at: float
    wall_s: float
    client_s: float = 0.0
    stdout: str = ""

    @property
    def busy_s(self) -> float:
        return self.wall_s - self.client_s


def call_cli(argv: list[str], stdin=None, stdout=None, main=cli_main) -> Call:
    """Run ``streamctc <argv>`` in this process; ``main`` lets the tracer
    put a span around the call."""
    out = stdout if stdout is not None else io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = stdin if stdin is not None else io.StringIO("")
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        wall = perf_counter() - t0
        sys.stdin = saved_stdin
    return Call(code, t0, wall, getattr(out, "client_s", 0.0),
                out.getvalue() if isinstance(out, io.StringIO) else "")


@dataclass
class UttResult:
    """What one utterance cost and produced."""

    frames: int                 # rows (or S2SM steps) handed to the CLI
    total_frames: int           # frames in the whole utterance
    busy_s: float
    final_s: float              # input complete -> final transcript written
    transcript: str
    reference: str
    churn_edits: int
    failures: int
    attempted: int
    repeat: bool = False        # the run already had this input
    started_at: float = 0.0     # when the call began
    final_at: float = 0.0       # when the input was complete
    latencies: list[float] = field(default_factory=list)
    handed_at: list[float] = field(default_factory=list)  # when each latency began
