"""A byte that is not UTF-8 is a fault of its line, like any other.

Every reader decodes with ``surrogateescape`` and checks a line for escaped
bytes where that line is looked at, so the first faulty line is the one
reported, wherever the bytes fall against the 8 KB chunks that a text file
is decoded in.  The reason is the one a strict decode of the line's bytes,
line end included, gives.  An ``--alphabet`` option, which argv decodes
with ``surrogateescape`` too, is worded the same way, before any file is
read or written.
"""

import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from streamctc import ParseError, cli, load_emissions, load_ngram, load_table_scorer

CHUNK = 8192  # bytes a text file is decoded in at a time
SRC = str(Path(cli.__file__).resolve().parents[1])  # for the CLI in a new process


def key(i: int) -> str:
    """The ``i``-th of distinct keys over the alphabet "ab"."""
    return format(i, "b").replace("0", "a").replace("1", "b")


#: per format: the header (None when there is none), the i-th good body
#: line, a faulty one and the fault's wording
FORMATS = {
    "ctcem": ("CTCEM v1 {rows} 3 ab-\n", lambda i: "0.25 0.25 0.5\n", "0.25 x 0.5\n",
              "bad float: could not convert string to float: 'x'"),
    "nglm": ("NGLM v1 2 1.0 ab\n", lambda i: f"{key(i)}\ta\t1\n", "\tb\tx\n",
             "bad count 'x'"),
    "s2sm": ("S2SM v1 ab\n", lambda i: f"{key(i)}\ta\t1.0\n", "\tb\tx\n",
             "bad probability 'x'"),
    "pairs": (None, lambda i: "ab\tab\n", "no tab here\n",
              "expected 'ref<TAB>hyp', got 1 fields"),
}


def cli_message(argv, monkeypatch, capsys, stdin=b""):
    """The parse error of ``streamctc argv``, as ``line N: ...``; for
    ``stream``, also the last record it wrote."""
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8"))
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 3
    prefix = "streamctc: parse error: "
    assert captured.err.startswith(prefix) and captured.err.endswith("\n")
    message = captured.err[len(prefix):-1]
    if argv[0] == "stream":
        assert captured.out.splitlines()[-1] == json.dumps({"error": message})
    return message


def library_message(load, path):
    with pytest.raises(ParseError) as exc:
        load(path)
    return str(exc.value)


#: route: (format, message of the file at ``path``)
ROUTES = {
    "decode": ("ctcem", lambda path, mp, cs: cli_message(["decode", str(path), "--alpha", "0"],
                                                          mp, cs)),
    "stream": ("ctcem", lambda path, mp, cs: cli_message(["stream", "--alpha", "0"], mp, cs,
                                                          path.read_bytes())),
    "load_emissions": ("ctcem", lambda path, mp, cs: library_message(load_emissions, path)),
    "load_ngram": ("nglm", lambda path, mp, cs: library_message(load_ngram, path)),
    "load_table_scorer": ("s2sm", lambda path, mp, cs: library_message(load_table_scorer,
                                                                        path)),
    "metrics": ("pairs", lambda path, mp, cs: cli_message(["metrics", str(path)], mp, cs)),
}


def file_lines(fmt: str, body: list[bytes]) -> list[bytes]:
    """The lines of the file of format ``fmt`` whose body lines are
    ``body``; line n is item n - 1."""
    header = FORMATS[fmt][0]
    return ([header.format(rows=len(body)).encode()] if header else []) + body


def good_body(fmt: str, lines: int) -> list[bytes]:
    """``lines`` good body lines of format ``fmt``."""
    return [FORMATS[fmt][1](i).encode() for i in range(lines)]


@pytest.mark.parametrize("route", list(ROUTES))
@pytest.mark.parametrize("where", ["inside", "beyond"])
def test_an_earlier_fault_comes_before_the_byte(tmp_path, monkeypatch, capsys, route, where):
    """A byte that is not UTF-8 on line 10, in the first chunk, or on the
    first line that starts past that chunk: alone it is reported at its
    line, and after a fault on line 3 that fault is reported."""
    fmt, message = ROUTES[route]
    _, _, bad, wording = FORMATS[fmt]
    lines = file_lines(fmt, good_body(fmt, 3 * CHUNK // 6))
    starts = list(itertools.accumulate(map(len, lines), initial=0))
    byte_line = 10 if where == "inside" else next(
        n for n, start in enumerate(starts, start=1) if start > CHUNK + 100)
    assert (starts[byte_line - 1] < CHUNK) == (where == "inside")
    lines[byte_line - 1] = b"\xff" + lines[byte_line - 1]
    path = tmp_path / f"file.{fmt}"
    path.write_bytes(b"".join(lines))
    assert message(path, monkeypatch, capsys) == \
        f"line {byte_line}: not UTF-8 text: invalid start byte"
    lines[2] = bad.encode()
    path.write_bytes(b"".join(lines))
    assert message(path, monkeypatch, capsys) == f"line 3: {wording}"


@pytest.mark.parametrize("route", list(ROUTES))
@pytest.mark.parametrize("tail, last", [
    (b"\xc3", False),  # a truncated sequence before the line end
    (b"\xc3", True),   # a truncated sequence at the end of the file
    (b"\xe2\x82", False),
    (b"\xff", False),
    (b"\xed\xa0\x80", False),  # an encoded surrogate
], ids=["truncated-before-newline", "truncated-at-eof", "truncated-3-byte", "start-byte",
        "surrogate"])
def test_reason_is_the_strict_decode_of_the_line(tmp_path, monkeypatch, capsys, route, tail,
                                                  last):
    """Line 3 ends in ``tail``, then its line end unless it is the last
    line of the file; the reason is that of ``bytes.decode`` on the line."""
    fmt, message = ROUTES[route]
    lines = file_lines(fmt, good_body(fmt, 4))
    line = lines[2][:-1] + tail + (b"" if last else b"\n")
    with pytest.raises(UnicodeDecodeError) as exc:
        line.decode("utf-8")
    lines[2:] = [line] if last else [line, lines[3]]
    if fmt == "ctcem":  # the header declares the rows that are left
        lines[0] = FORMATS[fmt][0].format(rows=len(lines) - 1).encode()
    path = tmp_path / f"file.{fmt}"
    path.write_bytes(b"".join(lines))
    assert message(path, monkeypatch, capsys) == f"line 3: not UTF-8 text: {exc.value.reason}"


def test_lone_surrogate_in_a_callers_stream_is_a_parse_error():
    """A stream the caller decoded can hold a surrogate that no byte was
    escaped to; it is worded as a line that is not UTF-8 too."""
    with pytest.raises(ParseError) as exc:
        load_emissions(io.StringIO("CTCEM v1 1 3 ab-\n0.5 0.25 0.25\ud800\n"))
    assert str(exc.value) == "line 2: not UTF-8 text: surrogates not allowed"


@pytest.mark.parametrize("argv", [
    ["lm-train", "corpus.txt", "-o", "out.nglm", "--alphabet"],
    ["simulate", "a", "-o", "out.em", "--alphabet"],
    ["simulate", "a", "--alphabet"],
], ids=["lm-train", "simulate", "simulate-to-stdout"])
@pytest.mark.parametrize("symbols, reason", [
    (b"ab\xff", "invalid start byte"),
    (b"a\xc3", "unexpected end of data"),
    (b"a\xed\xa0\x80", "invalid continuation byte"),  # an encoded surrogate
], ids=["start-byte", "truncated", "surrogate"])
def test_alphabet_option_that_is_not_utf8_is_validation_exit(tmp_path, argv, symbols, reason):
    """argv decodes ``--alphabet`` with ``surrogateescape``; a byte in it
    that is not UTF-8 exits 4 with the reason of a strict decode, before the
    corpus is read (here it does not exist) and with no file written."""
    proc = subprocess.run([sys.executable, "-m", "streamctc", *argv, symbols], cwd=tmp_path,
                          capture_output=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert (proc.returncode, proc.stdout) == (4, b"")
    assert proc.stderr == f"streamctc: not UTF-8 text: {reason}\n".encode()
    assert list(tmp_path.iterdir()) == []
