"""The CTCEM block reader against the row-by-row route it replaced.

``decode`` and ``load_emissions`` read rows a checked block at a time and
fall back to one row at a time only in a block that fails.  The reference
here is the old route: ``parse_emission_row`` and then ``beam_step`` on each
line in turn.  On random bodies with one fault, and sometimes a fault of the
beam step earlier in the same block, both must give the same output, error
and exit code.  ``decode`` logs each block with one ``np.log``, and
``stream`` logs each row on its own, so stream == offline rests on the two
giving the same bits.
"""

import contextlib
import importlib
import io
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import streamctc.beam as beam_module
from streamctc import (
    Alphabet,
    BeamConfig,
    CharLm,
    EmissionMatrix,
    ParseError,
    ValidationError,
    beam_init,
    beam_step,
    cli,
    load_emissions,
)
from streamctc.formats import first_line, opened
from streamctc.simulate import parse_emission_row, parse_emissions_header

# by module path: the package's ``simulate`` is the function
simulate_module = importlib.import_module("streamctc.simulate")
BLOCK = simulate_module._BLOCK
BODY_FAULTS = ["none", "bad-float", "field-count", "nan", "negative", "above-one", "sum",
               "blank-lines", "too-few-rows", "too-many-rows", "not-utf8"]
STEP_FAULTS = [None, "collapse", "bad-lm"]
WIDTH, ALPHA = 4, 0.5


class StepFaultLm(CharLm):
    """Rules out the first symbol and spreads its mass evenly over the other
    tokens, so a row with all its mass on that symbol collapses the beam.
    With ``bad_at``, the rows it gives for step ``bad_at`` hold ``value``
    for the first symbol, which the step rejects."""

    order, k = 1, 1.0  # read by the CLI's debug log line

    def __init__(self, symbols, bad_at=None, value=np.nan):
        super().__init__(symbols)
        self.bad_at, self.value, self.steps = bad_at, value, 0

    def initial_state(self):
        return ""

    def next_log_probs(self, state):
        row = np.full(self.vocab_size, -np.log(self.vocab_size - 1))
        row[0] = -np.inf
        return row

    def advance(self, state, ch):
        return state

    def next_log_probs_many(self, states):
        rows = np.tile(self.next_log_probs(""), (len(states), 1))
        if self.steps == self.bad_at:
            rows[:, 0] = self.value
        self.steps += 1
        return rows


@st.composite
def bodies(draw):
    """(file bytes, alphabet, LM factory): a valid CTCEM body of up to four
    blocks with one fault at a random row, and maybe a step fault earlier in
    the same block."""
    alphabet = Alphabet(draw(st.sampled_from(["ab", "hi "])))
    size = alphabet.size
    frames = draw(st.integers(1, 3 * BLOCK + 10))
    seed = draw(st.integers(0, 2**32 - 1))
    probs = np.random.default_rng(seed).dirichlet(np.ones(size), size=frames)
    lines = [[repr(x) for x in row.tolist()] for row in probs]
    at = draw(st.integers(0, frames - 1))
    step_fault = draw(st.sampled_from(STEP_FAULTS))
    step_at = draw(st.integers(at - at % BLOCK, at))
    if step_fault == "collapse":  # all the mass on the symbol the LM rules out
        lines[step_at] = ["1.0"] + ["0.0"] * (size - 1)
    bad_at = step_at if step_fault == "bad-lm" else None
    value = draw(st.sampled_from([np.nan, 0.5]))

    fault = draw(st.sampled_from(BODY_FAULTS))
    j = draw(st.integers(0, size - 1))
    row = lines[at]
    if fault == "bad-float":
        row[j] = draw(st.sampled_from(["x", "", "0..5", "1e"]))
    elif fault == "field-count" and draw(st.booleans()):
        row.insert(j, row[j])
    elif fault == "field-count":
        del row[j]
    elif fault == "nan":
        row[j] = "nan"
    elif fault == "negative":
        row[j] = repr(-float(row[j]) or -0.25)
    elif fault == "above-one":
        row[j] = "1.5"
    elif fault == "sum":  # the largest entry is at least 1/size, so it stays >= 0
        big = max(range(size), key=lambda i: float(row[i]))
        row[big] = repr(float(row[big]) - 1e-3)
    declared = frames
    if fault == "too-few-rows":
        declared += draw(st.integers(1, 3))
    elif fault == "too-many-rows":
        declared -= draw(st.integers(1, frames))
    text = [f"CTCEM v1 {declared} {size} {alphabet.symbols}-".encode()]
    for i, fields in enumerate(lines):
        if fault == "blank-lines" and i == at:
            text += [b""] * draw(st.integers(1, 3))
        line = " ".join(fields).encode()
        text.append(b"\xff" + line if fault == "not-utf8" and i == at else line)
    data = b"\n".join(text) + b"\n"
    return data, alphabet, lambda: StepFaultLm(alphabet.symbols, bad_at, value)


def reference_decode(path, lm) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of ``decode`` as it was: each line parsed
    by ``parse_emission_row`` and stepped by ``beam_step``, one at a time."""
    config = BeamConfig(width=WIDTH, alpha=ALPHA)
    try:
        with opened(path, "r") as fh:
            alphabet, frames = parse_emissions_header(first_line(fh, "emission"))
            beam = beam_init(alphabet, config, lm)
            count = 0
            for lineno, raw in enumerate(fh, start=2):
                raw = raw.rstrip("\n")
                if raw:
                    row = parse_emission_row(raw, alphabet.size, lineno)
                    beam = beam_step(beam, row, config, lm)
                    count += 1
            if count != frames:
                raise ParseError(
                    f"header declares {frames} frames but the file holds {count} rows")
    except ParseError as exc:
        return "", f"streamctc: parse error: {exc}\n", 3
    except ValidationError as exc:
        return "", f"streamctc: {exc}\n", 4
    return f"{beam._prefix(0)}\t{beam._score(0, config.beta):.6f}\n", "", 0


def cli_decode(path, lm) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "load_ngram", lambda source: lm), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["decode", str(path), "--lm", "stub.nglm",
                         "--beam-width", str(WIDTH), "--alpha", str(ALPHA)])
    return out.getvalue(), err.getvalue(), code


def reference_load(path):
    """The matrix ``load_emissions`` gave, parsing one row at a time, or the
    error it raised, as (type, message)."""
    try:
        with opened(path, "r") as fh:
            alphabet, frames = parse_emissions_header(first_line(fh, "emission"))
            rows = [parse_emission_row(raw.rstrip("\n"), alphabet.size, lineno)
                    for lineno, raw in enumerate(fh, start=2) if raw.rstrip("\n")]
        if len(rows) != frames:
            raise ParseError(
                f"header declares {frames} frames but the file holds {len(rows)} rows")
        return EmissionMatrix(alphabet, np.array(rows) if rows else np.zeros((0, alphabet.size)))
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


class TestBlocksMatchRows:
    @settings(max_examples=150, deadline=None)
    @given(bodies())
    def test_decode_matches_the_row_route(self, tmp_path_factory, body):
        data, _, make_lm = body
        path = tmp_path_factory.mktemp("body") / "utt.em"
        path.write_bytes(data)
        assert cli_decode(path, make_lm()) == reference_decode(path, make_lm())

    @settings(max_examples=150, deadline=None)
    @given(bodies())
    def test_load_matches_the_row_route(self, tmp_path_factory, body):
        data, _, _ = body
        path = tmp_path_factory.mktemp("body") / "utt.em"
        path.write_bytes(data)
        want = reference_load(path)
        try:
            got = load_emissions(path)
        except (ParseError, ValidationError) as exc:
            got = type(exc), str(exc)
        if isinstance(want, EmissionMatrix):
            assert isinstance(got, EmissionMatrix)
            assert got.alphabet == want.alphabet
            assert got.probs.shape == want.probs.shape
            assert got.probs.tobytes() == want.probs.tobytes()
        else:
            assert got == want

    def test_faults_on_both_sides_of_a_block_boundary(self, tmp_path):
        """A step fault in the first block comes before a bad row in the
        second; a bad row in the first block comes before a step fault in
        the second."""
        ab = Alphabet("ab")
        rows = ["0.5 0.25 0.25"] * (2 * BLOCK)
        rows[BLOCK - 1] = "1.0 0.0 0.0"  # collapses the beam under the LM
        rows[BLOCK + 1] = "0.5 x 0.25"
        path = tmp_path / "utt.em"
        path.write_text(f"CTCEM v1 {2 * BLOCK} 3 ab-\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        want = reference_decode(path, StepFaultLm(ab.symbols))
        assert want[1].startswith("streamctc: beam collapsed")
        assert cli_decode(path, StepFaultLm(ab.symbols)) == want
        rows[BLOCK - 1], rows[BLOCK + 1] = rows[BLOCK + 1], rows[BLOCK - 1]
        path.write_text(f"CTCEM v1 {2 * BLOCK} 3 ab-\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        want = reference_decode(path, StepFaultLm(ab.symbols))
        assert want[1] == f"streamctc: parse error: line {BLOCK + 1}: bad float: " \
                          "could not convert string to float: 'x'\n"
        assert cli_decode(path, StepFaultLm(ab.symbols)) == want

    def test_rows_read_before_an_undecodable_line_come_first(self, tmp_path):
        """A bad byte is a fault of its own line, found when that line is
        parsed, so the rows before it are stepped before the error: here a
        collapse some 20 KB before that byte but in the same block of
        rows."""
        ab = Alphabet(cli.DEFAULT_ALPHABET)
        probs = np.random.default_rng(5).dirichlet(np.ones(ab.size), size=BLOCK)
        lines = [" ".join(map(repr, row.tolist())).encode() for row in probs]
        lines[5] = b" ".join([b"1.0"] + [b"0.0"] * (ab.size - 1))
        lines[40] = b"\xff" + lines[40]
        path = tmp_path / "utt.em"
        path.write_bytes(f"CTCEM v1 {BLOCK} {ab.size} {ab.symbols}-\n".encode()
                         + b"\n".join(lines) + b"\n")
        want = reference_decode(path, StepFaultLm(ab.symbols))
        assert want[1].startswith("streamctc: beam collapsed")
        assert cli_decode(path, StepFaultLm(ab.symbols)) == want
        lines[5] = lines[6]  # without the collapse, the bad byte ends the decode
        path.write_bytes(f"CTCEM v1 {BLOCK} {ab.size} {ab.symbols}-\n".encode()
                         + b"\n".join(lines) + b"\n")
        want = reference_decode(path, StepFaultLm(ab.symbols))
        assert want[1].startswith("streamctc: parse error: line 42: not UTF-8 text")
        assert cli_decode(path, StepFaultLm(ab.symbols)) == want


class TestBlockCheck:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 40), st.lists(st.tuples(st.integers(0, 2**32 - 1),
                                                   st.sampled_from([-1, 1]),
                                                   st.floats(0.5, 1.5)),
                                         min_size=1, max_size=BLOCK))
    def test_block_passes_exactly_the_rows_each_row_passes(self, size, drafts):
        """Rows whose sums sit near the tolerance: one check over the block
        accepts them all exactly when each row's own check accepts it."""
        lines = []
        for seed, sign, scale in drafts:
            row = np.random.default_rng(seed).dirichlet(np.ones(size))
            row[0] += sign * scale * 1e-6  # the sum lands about 1e-6 from 1
            lines.append(" ".join(map(repr, np.clip(row, 0.0, 1.0).tolist())))
        try:
            for lineno, line in enumerate(lines, start=2):
                parse_emission_row(line, size, lineno)
            each = True
        except ValidationError:
            each = False
        assert (simulate_module._checked_block(lines, size) is not None) == each


# 0, 1, subnormals and the smallest normal, among random entries
SPECIAL = [0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308]
entries = st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1.0))


class TestBlockLog:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 40).flatmap(
        lambda size: st.lists(st.lists(entries, min_size=size, max_size=size),
                              min_size=1, max_size=BLOCK)))
    def test_block_log_is_each_rows_log(self, rows):
        block = np.array(rows, dtype=np.float64)
        frames = beam_module._log_frames(block)
        assert len(frames) == len(rows)
        for row, frame in zip(block, frames):
            with np.errstate(divide="ignore"):
                want = np.log(row)
            alone = beam_module._log_frame(row.copy())  # as ``stream`` makes it
            assert frame.blank.hex() == alone.blank.hex() == float(want[-1]).hex()
            want[-1] = -np.inf
            assert frame.log_row.tobytes() == alone.log_row.tobytes() == want.tobytes()
