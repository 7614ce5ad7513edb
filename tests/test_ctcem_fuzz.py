"""Fuzzed CTCEM rows: a valid emission file with one row broken the way a
hand-edited or cut file is, through every way a row enters the program."""

import contextlib
import io
import json
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctc import (
    Alphabet,
    BeamConfig,
    EmissionMatrix,
    ParseError,
    StreamingDecoder,
    ValidationError,
    cli,
    load_emissions,
    save_emissions,
)

# faults in the shape of a line or in a float field are parse errors (exit 3),
# faults in what a float holds are validation errors (exit 4)
SHAPE_FAULTS = ["too_few", "too_many", "not_float", "truncated"]
VALUE_FAULTS = ["nan", "inf", "-inf", "negative", "above_one", "sum"]
NOT_FLOATS = ["x", "0..5", "1e", "--0.1", "0,5", "", "1/2"]
CLI_FLAGS = ["--alpha", "0", "--beam-width", "4"]


@dataclass
class Case:
    """A CTCEM file with one broken row: ``good`` are the valid file's rows
    less the broken one, which is on line ``lineno`` and is ``bad`` as
    floats (None when it does not parse)."""

    text: str
    alphabet: Alphabet
    good: np.ndarray
    lineno: int
    kind: str
    bad: list[float] | None

    @property
    def error(self) -> type:
        return ParseError if self.kind in SHAPE_FAULTS else ValidationError

    @property
    def exit_code(self) -> int:
        return 3 if self.error is ParseError else 4


@st.composite
def faulty_files(draw) -> Case:
    alphabet = Alphabet(draw(st.sampled_from(["ab", "abc", "hi "])))
    frames = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    probs = np.random.default_rng(seed).dirichlet(np.ones(alphabet.size), size=frames)
    buf = io.StringIO()
    save_emissions(EmissionMatrix(alphabet, probs), buf)
    header, *lines = buf.getvalue().splitlines()
    kind = draw(st.sampled_from(SHAPE_FAULTS + VALUE_FAULTS))
    i = frames - 1 if kind == "truncated" else draw(st.integers(0, frames - 1))
    values = [float(f) for f in lines[i].split(" ")]
    j = draw(st.integers(0, alphabet.size - 1))
    bad: list[float] | None = values
    if kind in ("nan", "inf", "-inf"):
        values[j] = float(kind)
    elif kind == "negative":
        values[j] = -draw(st.floats(1e-12, 10.0))
    elif kind == "above_one":
        values[j] = 1.0 + draw(st.floats(1e-9, 10.0))
    elif kind == "sum":
        # the largest entry is at least 1/size, so it stays in [0, 1]
        values[int(np.argmax(values))] -= draw(st.floats(2e-6, 0.05))
    elif kind == "too_few":
        del values[j]
    elif kind == "too_many":
        values.insert(j, values[j])
    if kind == "not_float":
        fields = lines[i].split(" ")
        fields[j] = draw(st.sampled_from(NOT_FLOATS))
        lines[i], bad = " ".join(fields), None
    elif kind == "truncated":
        # the cut drops at least the last field and leaves the line non-blank
        lines[i], bad = lines[i][:draw(st.integers(1, lines[i].rindex(" ")))], None
    else:
        lines[i] = " ".join(map(repr, values))
    text = "\n".join([header, *lines]) + ("" if kind == "truncated" else "\n")
    return Case(text, alphabet, np.delete(probs, i, axis=0), i + 2, kind, bad)


def run_cli(argv: list[str], stdin_text: str = "") -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin_text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def load_error(text: str) -> Exception:
    with pytest.raises((ParseError, ValidationError)) as exc:
        load_emissions(io.StringIO(text))
    return exc.value


class TestFaultyRows:
    @settings(max_examples=200, deadline=None)
    @given(faulty_files())
    def test_load_names_the_first_bad_line(self, case):
        exc = load_error(case.text)
        assert type(exc) is case.error
        assert str(exc).startswith(f"line {case.lineno}: ")

    @settings(max_examples=100, deadline=None)
    @given(faulty_files())
    def test_decode_exits_with_the_load_message(self, case):
        exc = load_error(case.text)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bad.em"
            path.write_text(case.text, encoding="utf-8")
            code, out, err = run_cli(["decode", str(path), *CLI_FLAGS])
        assert (code, out) == (case.exit_code, "")
        prefix = "parse error: " if case.error is ParseError else ""
        assert err == f"streamctc: {prefix}{exc}\n"

    @settings(max_examples=100, deadline=None)
    @given(faulty_files())
    def test_stream_prints_the_good_records_then_the_error(self, case):
        exc = load_error(case.text)
        code, out, _ = run_cli(["stream", *CLI_FLAGS], stdin_text=case.text)
        assert code == case.exit_code
        *records, last = out.splitlines()
        assert json.loads(last) == {"error": str(exc)}
        # the lines before the bad one, streamed on their own, give the same
        # records and then a final one
        before = "\n".join(case.text.split("\n")[:case.lineno - 1]) + "\n"
        code, good_out, _ = run_cli(["stream", *CLI_FLAGS], stdin_text=before)
        assert code == 0
        assert records == good_out.splitlines()[:-1]
        assert len(records) == case.lineno - 2

    @settings(max_examples=100, deadline=None)
    @given(faulty_files().filter(lambda case: case.bad is not None))
    def test_push_rejects_the_row_and_forgets_it(self, case):
        config = BeamConfig(width=4, alpha=0.0)
        skipped, clean = (StreamingDecoder(case.alphabet, config, lag=1) for _ in range(2))
        at = case.lineno - 2
        before = [skipped.push(row) for row in case.good[:at]]
        with pytest.raises(ValidationError):
            skipped.push(np.array(case.bad))
        assert skipped.frames_seen == at
        after = [skipped.push(row) for row in case.good[at:]]
        assert before + after == [clean.push(row) for row in case.good]
        assert skipped.frames_seen == clean.frames_seen
        assert skipped.flush() == clean.flush()
