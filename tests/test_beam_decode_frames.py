"""``beam_decode`` steps the checked, logged frames of its matrix.

An ``EmissionMatrix`` checks its rows when it is built, so ``beam_decode``
logs them a block at a time with ``_log_frames`` and hands ``beam_step``
frames it does not check again.  The result must be ``beam_decode_rows``
over the raw rows bit for bit, which checks and logs each row on its own.
"""

import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import streamctc.beam as beam_module
from streamctc import (
    Alphabet,
    BeamConfig,
    EmissionMatrix,
    ValidationError,
    beam_decode,
    load_ngram,
    train_ngram,
)
from streamctc.beam import beam_decode_rows
from streamctc.ctc import _BLOCK, ROW_SUM_TOL, check_rows

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "streambench"))
from inputs import make_inputs  # noqa: E402

SMALL = Alphabet("abc")
SMALL_LM = train_ngram(["ab ba", "abc cab", "cc", "aabbcc"], SMALL.symbols, order=2)
TINY = [0.0, 5e-324, 1e-310, 2.2e-308]  # zero and subnormal entries


@st.composite
def rows(draw, size: int = SMALL.size):
    """One row that ``check_rows`` accepts: zeros, subnormals and ordinary
    weights, normalized, with its largest entry moved so that the sum may
    lie up to ROW_SUM_TOL from 1."""
    weights = np.array(draw(st.lists(
        st.sampled_from(TINY) | st.floats(0.01, 1.0), min_size=size, max_size=size)))
    assume(weights.sum() > 0.01)
    row = weights / weights.sum()
    top = int(row.argmax())
    row[top] = min(1.0, row[top] + draw(st.sampled_from([-1, -0.5, 0, 0.5, 1])) * ROW_SUM_TOL)
    for i in draw(st.lists(st.integers(0, size - 1), max_size=2)):
        if i != top:
            row[i] = draw(st.sampled_from(TINY))
    try:
        check_rows(row)
    except ValidationError:
        assume(False)
    return row


def outcome(decode, *args):
    try:
        text, score = decode(*args)
    except ValidationError as exc:
        return str(exc)
    return text, score.hex()


@settings(max_examples=60, deadline=None)
@given(st.lists(rows(), max_size=2 * _BLOCK + 5), st.integers(1, 6),
       st.sampled_from([0.0, 0.5]), st.sampled_from([0.0, 0.1, 2.0]))
def test_beam_decode_is_decode_of_the_raw_rows(matrix, width, alpha, beta):
    em = EmissionMatrix(SMALL, np.array(matrix).reshape(-1, SMALL.size))
    config = BeamConfig(width=width, alpha=alpha, beta=beta)
    lm = SMALL_LM if alpha else None
    assert (outcome(beam_decode, em, config, lm)
            == outcome(beam_decode_rows, em.alphabet, em.probs, config, lm))


def test_benchmark_utterances_decode_as_their_raw_rows(tmp_path):
    inputs = make_inputs(1, "utterances", str(tmp_path))
    lm = load_ngram(inputs.lm_path)
    for utt in inputs.utterances[:16]:
        assert (outcome(beam_decode, utt.em, BeamConfig(), lm)
                == outcome(beam_decode_rows, utt.em.alphabet, utt.em.probs, BeamConfig(), lm))


@pytest.mark.parametrize("frames", [0, 1, _BLOCK, 2 * _BLOCK + 3])
def test_rows_are_not_checked_again_and_logged_a_block_at_a_time(frames):
    rng = np.random.default_rng(frames)
    em = EmissionMatrix(SMALL, rng.dirichlet(np.ones(SMALL.size), size=frames))
    counted = mock.patch.object(beam_module, "check_rows", wraps=check_rows)
    logged = mock.patch.object(beam_module, "_log_frames", wraps=beam_module._log_frames)
    with counted as check, logged as log_frames:
        beam_decode(em, BeamConfig(width=4, alpha=0))
        assert check.call_count == 0
        assert [len(call.args[0]) for call in log_frames.call_args_list] == (
            [_BLOCK] * (frames // _BLOCK) + [frames % _BLOCK] * bool(frames % _BLOCK))
        beam_decode_rows(em.alphabet, em.probs, BeamConfig(width=4, alpha=0))
        assert check.call_count == frames  # raw rows are checked one by one
