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
from itertools import repeat
from typing import IO, Iterator

import numpy as np

from .errors import ParseError

#: End-of-sentence token.  Scored like a character but never emitted by CTC
#: decoding; used by seq2seq termination and word-completion rollouts.
EOS = "</s>"


@contextlib.contextmanager
def opened(target, mode: str) -> Iterator[IO[str]]:
    """``target`` itself when it is an open stream, else the UTF-8 file at
    that path, opened in ``mode`` ("r" or "w") and closed on exit.  Files
    are read with line ends untranslated and written with "\\n".  A file that
    is not UTF-8 is a ParseError at its first undecodable line."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
        return
    with open(target, mode, encoding="utf-8", newline="" if mode == "r" else "\n") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            with open(target, "rb") as raw:  # the first line that does not round-trip
                lines = raw.read().splitlines()
            bad = next((n for n, line in enumerate(lines, start=1)
                        if line.decode("utf-8", "replace").encode() != line), None)
            raise ParseError(f"not UTF-8 text: {exc.reason}", line=bad) from exc


def first_line(fh, what: str) -> str:
    """The header line of ``fh``; ParseError if the stream is empty."""
    line = fh.readline()
    if not line:
        raise ParseError(f"empty {what} file", line=1)
    return line


def header_fields(line: str, magic: str, count: int) -> list[str]:
    """The ``count`` space-separated fields after ``magic`` in a header
    line; the last one keeps any spaces it holds."""
    line = line.rstrip("\n")
    parts = line.split(" ", count + 1)
    if len(parts) != count + 2 or f"{parts[0]} {parts[1]}" != magic:
        raise ParseError(f"bad header {line!r}, expected '{magic} ...'", line=1)
    return parts[2:]


def entry_columns(lines: list[str], symbols: str):
    """``(keys, rows, cols, values)`` of a body: the distinct keys in file
    order, and each line's key row, token column (the symbols, then EOS) and
    value field, which may keep its line end (``int`` and ``float`` ignore
    it).  None if a line has another number of fields, a key or token is
    outside the alphabet, or a (key, token) repeats.  Only strings are made
    per line, so a long file does not set off the cyclic garbage collector."""
    if "\n" in lines:
        lines = list(filter("\n".__ne__, lines))
    if not all(map((2).__eq__, map(str.count, lines, repeat("\t")))):
        return None
    fields = "\t".join(lines).split("\t") if lines else []
    key_col, token_col = fields[0::3], fields[1::3]
    token_index = dict(zip([*symbols, EOS], range(len(symbols) + 1)))
    key_index = {key: i for i, key in enumerate(dict.fromkeys(key_col))}
    if not set(token_col) <= token_index.keys() or not set("".join(key_index)) <= set(symbols):
        return None
    rows = np.fromiter(map(key_index.__getitem__, key_col), dtype=np.intp, count=len(key_col))
    cols = np.fromiter(map(token_index.__getitem__, token_col), dtype=np.intp,
                       count=len(token_col))
    if np.bincount(rows * (len(symbols) + 1) + cols, minlength=1).max() > 1:
        return None  # a duplicate entry
    return list(key_index), rows, cols, fields[2::3]


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
    ParseError at the first line that does not have three tab-separated
    fields.  The body starts on line 2."""
    for lineno, raw in enumerate(lines, start=2):
        raw = raw.rstrip("\n")
        if not raw:
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 3 tab-separated fields, got {len(fields)}",
                             line=lineno)
        yield lineno, fields
