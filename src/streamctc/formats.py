"""Plumbing shared by the three versioned text formats (CTCEM, NGLM, S2SM).

Each format is one header line of space-separated fields starting with its
magic, then a body.  The NGLM and S2SM bodies share one format: lines of
``key<TAB>token<TAB>value``, with the characters of keys and the tokens
drawn from the header alphabet plus :data:`EOS`, one entry per (key,
token), written sorted.  This module opens a path or takes an open stream,
checks the magic, and reads those bodies into entry columns and writes them
back; the module that owns a format checks what the values hold.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import IO, Iterator

import numpy as np

from .ctc import check_symbols
from .errors import ParseError, ValidationError

#: End-of-sentence token.  Scored like a character but never emitted by CTC
#: decoding; used by seq2seq termination and word-completion rollouts.
EOS = "</s>"


@contextlib.contextmanager
def opened(target, mode: str) -> Iterator[IO[str]]:
    """``target`` itself when it is an open stream, else the UTF-8 file at
    that path, opened in ``mode`` ("r" or "w") and closed on exit.  Files
    are written with "\\n" and read with line ends untranslated and each
    byte that is not UTF-8 escaped, for :func:`utf8_checked` to word."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
        return
    with open(target, mode, encoding="utf-8", newline="" if mode == "r" else "\n",
              errors="surrogateescape" if mode == "r" else "strict") as fh:
        yield fh


def utf8_checked(line: str, lineno: int | None) -> str:
    """``line``, read with ``surrogateescape`` and still holding its line
    end, unless a byte of it is not UTF-8: then a ParseError at ``lineno``
    with the reason a strict decode of the line's bytes gives."""
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except (UnicodeDecodeError, UnicodeEncodeError) as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}", line=lineno) from exc
    return line


def first_line(fh, what: str) -> str:
    """The header line of ``fh``; ParseError if the stream is empty."""
    line = fh.readline()
    if not line:
        raise ParseError(f"empty {what} file", line=1)
    return line


def header_fields(line: str, magic: str, count: int) -> list[str]:
    """The ``count`` space-separated fields after ``magic`` in a header
    line; the last one keeps any spaces it holds.  The line is checked for
    bytes that are not UTF-8 first: in an alphabet they fail nothing else."""
    line = utf8_checked(line, 1).rstrip("\n")
    parts = line.split(" ", count + 1)
    if len(parts) != count + 2 or f"{parts[0]} {parts[1]}" != magic:
        raise ParseError(f"bad header {line!r}, expected '{magic} ...'", line=1)
    return parts[2:]


def check_header_alphabet(symbols: str) -> None:
    """Raise ParseError on line 1 unless ``symbols``, the alphabet field of
    an NGLM or S2SM header, passes the checks of every model's alphabet."""
    if not symbols:
        raise ParseError("header is missing the alphabet", line=1)
    try:
        check_symbols(symbols)
    except ValidationError as exc:
        raise ParseError(str(exc), line=1) from exc


def entry_columns(lines: list[str], symbols: str):
    """``(keys, rows, cols, values)`` of a body: the distinct keys in file
    order, and each line's key row, token column (the symbols, then EOS) and
    value field, which may keep its line end (``int`` and ``float`` ignore
    it).  None if a line has another number of fields, a key or token is
    outside the alphabet, or a (key, token) repeats.

    The columns are read from one split of the tab-joined lines, and the
    shape of the lines needs no pass of its own.  Every line but the last
    ends in ``"\\n"`` or ``"\\r"``, which is in no alphabet and no token, so
    a line end in a key or token field fails the checks that every entry
    passes anyway.  Each line end then closes a value field, so each line
    but the last holds three fields or a multiple of three; with 3 x lines
    fields in all, every line holds exactly three.  Blank lines are dropped
    only when the count is off: a blank line is one field, a line end.

    Only strings are made per line, so a long file does not set off the
    cyclic garbage collector."""
    fields = "\t".join(lines).split("\t") if lines else []
    if len(fields) != 3 * len(lines):
        if "\n" in lines:  # blank lines, which hold no entry
            return entry_columns(list(filter("\n".__ne__, lines)), symbols)
        return None
    key_col, token_col = fields[0::3], fields[1::3]
    token_index = dict(zip([*symbols, EOS], range(len(symbols) + 1)))
    try:
        cols = np.fromiter(map(token_index.__getitem__, token_col), dtype=np.intp,
                           count=len(token_col))
    except KeyError:
        return None
    # the line each key first appears on; the keys are numbered in that order
    first_lines: dict[str, int] = {}
    first = np.fromiter(map(first_lines.setdefault, key_col, itertools.count()), dtype=np.intp,
                        count=len(key_col))
    if not set("".join(first_lines)).issubset(symbols):
        return None
    rows = np.cumsum(first == np.arange(len(first)))[first] - 1
    if np.bincount(rows * (len(symbols) + 1) + cols, minlength=1).max() > 1:
        return None  # a duplicate entry
    return list(first_lines), rows, cols, fields[2::3]


def write_entries(sink, header: str, keys: list[str], rows, cols, values: list,
                  tokens: list[str]) -> None:
    """Write ``header`` and then the body line of every entry j: key
    ``keys[rows[j]]``, token ``tokens[cols[j]]`` and value ``values[j]``,
    the columns of :func:`entry_columns`, sorted by key and then token."""
    entries = sorted(zip(map(keys.__getitem__, rows.tolist()),
                         map(tokens.__getitem__, cols.tolist()), values))
    with opened(sink, "w") as fh:
        fh.write(f"{header}\n")
        fh.writelines(f"{key}\t{tok}\t{value}\n" for key, tok, value in entries)


def scan_entries(lines: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of every non-blank body line, in order; raises
    ParseError at the first line that holds a byte that is not UTF-8 or
    does not have three tab-separated fields.  The body starts on line 2."""
    for lineno, raw in enumerate(lines, start=2):
        raw = utf8_checked(raw, lineno).rstrip("\n")
        if not raw:
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 3 tab-separated fields, got {len(fields)}",
                             line=lineno)
        yield lineno, fields
