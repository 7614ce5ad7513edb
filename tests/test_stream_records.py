"""Stream records: ``cli._write_record`` writes each one byte for byte as
``json.dumps(record)`` and a newline, and encodes each distinct string of a
record once, so the transcript is encoded once a record where ``committed``
equals ``hypothesis``."""

import contextlib
import io
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctc import Alphabet, SimConfig, cli, save_emissions, simulate

#: characters that ``json.dumps`` escapes, or might: quote, backslash,
#: slash, control characters other than tab, CR and LF, DEL, and non-ASCII
#: ones in and beyond the BMP (written as surrogate pairs)
SPECIAL = '"\\/\x00\x01\x08\x0b\x0c\x1b\x1f\x7f\x80\xe9 中\uffff\U0001f600\U0010ffff'

texts = st.text(st.sampled_from(SPECIAL + "ab '\t\r\n") | st.characters(), max_size=40)
scores = (st.sampled_from([-0.0, 0.0, 1e-07, -1234567.0])
          | st.floats().map(lambda x: round(x, 6)))


@st.composite
def frame_records(draw):
    hypothesis = draw(texts)
    committed = draw(st.sampled_from([
        hypothesis,  # lag 0: the same string
        (hypothesis + "x")[:-1],  # an equal string built apart
        hypothesis[:draw(st.integers(0, len(hypothesis)))],  # a prefix
    ]))
    return {"frame": draw(st.integers(1, 10**9)), "committed": committed,
            "hypothesis": hypothesis, "completion": draw(texts), "score": draw(scores)}


@st.composite
def final_records(draw):
    text = draw(texts)
    return {"frame": draw(st.integers(0, 10**9)), "committed": text, "hypothesis": text,
            "completion": "", "score": draw(scores), "final": True}


#: error text may hold a byte of stdin escaped to a lone surrogate
error_records = st.builds(
    lambda text: {"error": text},
    st.text(st.sampled_from(SPECIAL + "\udcff\udc80 line:1") | st.characters(), max_size=60))


def written(record: dict) -> str:
    """What ``cli._write_record`` writes for ``record``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):  # the writer looks standard output up per call
        cli._write_record(record)
    return out.getvalue()


@settings(max_examples=500, deadline=None)
@given(st.one_of(frame_records(), final_records(), error_records))
def test_record_line_is_json_dumps(record):
    assert written(record) == json.dumps(record) + "\n"


@pytest.mark.parametrize("record", [
    {"frame": 3, "committed": "", "hypothesis": "", "completion": "", "score": -0.0},
    {"frame": 1, "committed": 'a"\\/', "hypothesis": 'a"\\/\x01\x7f\xe9\U0001f600',
     "completion": " ", "score": 1e-07},
    {"frame": 2, "committed": "", "hypothesis": "", "completion": "", "score": -1234567.0,
     "final": True},
    {"frame": 2, "committed": "", "hypothesis": "", "completion": "",
     "score": float("-inf"), "final": True},
    {"error": "line 3: bad float: could not convert string to float: '0.9\udcff'"},
], ids=["empty", "escapes", "final", "final-minus-inf", "error-surrogate"])
def test_edge_records(record):
    line = written(record)
    assert line == json.dumps(record) + "\n"
    assert line.isascii()


#: an alphabet of characters that records escape, and a space
ESCAPED = 'a"\\/\x01\x7f\xe9中\U0001f600 '


def stream(monkeypatch, text: str, *options: str) -> list[str]:
    """The stdout lines of ``stream --alpha 0`` over the simulated utterance
    of ``text`` on the alphabet :data:`ESCAPED`."""
    body = io.StringIO()
    save_emissions(simulate(text, Alphabet(ESCAPED), SimConfig(peak_prob=0.9, noise_seed=5)),
                   body)
    monkeypatch.setattr("sys.stdin", io.StringIO(body.getvalue()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["stream", "--alpha", "0", *options]) == 0
    return out.getvalue().splitlines()


def test_stream_over_an_escaped_alphabet(monkeypatch):
    text = 'a"\\ /\x01\xe9中\U0001f600 a\x7f'
    lines = stream(monkeypatch, text, "--lag", "3")
    for line in lines:
        assert line == json.dumps(json.loads(line))
    assert json.loads(lines[-1])["hypothesis"] == text


@pytest.mark.parametrize("lag", [0, 7])
def test_each_string_is_encoded_once_a_record(monkeypatch, lag):
    """Over a stream of more than 200 rows, the calls to the encoder that
    ``cli`` binds, record by record: the transcript is encoded once in
    every record at lag 0 and in the final record at any lag, and no
    string twice in any record."""
    calls = [[]]  # per record, after each line is written
    encode = cli._encode

    def counted(text):
        calls[-1].append(text)
        return encode(text)

    write = cli._write_record

    def written_apart(record):
        write(record)
        calls.append([])

    monkeypatch.setattr(cli, "_encode", counted)
    monkeypatch.setattr(cli, "_write_record", written_apart)
    text = " ".join([ESCAPED[:-1]] * 10)  # equal to no key of a record
    records = [json.loads(line) for line in stream(monkeypatch, text, "--lag", str(lag))]
    assert len(records) > 200 and len(calls) == len(records) + 1
    assert records[-1]["hypothesis"] == text
    for record, made in zip(records, calls):
        assert set(Counter(made).values()) == {1}, record
        if lag == 0 or "final" in record:
            assert record["committed"] == record["hypothesis"]
            assert record["hypothesis"] in made
