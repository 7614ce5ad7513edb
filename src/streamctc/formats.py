"""Plumbing shared by the three versioned text formats (CTCEM, NGLM, S2SM).

Each format is one header line of space-separated fields starting with its
magic, then a body; the NGLM and S2SM bodies are lines of three
tab-separated fields.  These helpers open a path or take an open stream,
check the magic and cut an NGLM or S2SM body into fields; the module that
owns a format checks what the fields hold.
"""

from __future__ import annotations

import contextlib
from itertools import repeat
from typing import IO, Iterator

from .errors import ParseError


@contextlib.contextmanager
def opened(target, mode: str) -> Iterator[IO[str]]:
    """``target`` itself when it is an open stream, else the UTF-8 file at
    that path, opened in ``mode`` ("r" or "w") and closed on exit.  Files
    are read with line ends untranslated and written with "\\n"."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
        return
    with open(target, mode, encoding="utf-8", newline="" if mode == "r" else "\n") as fh:
        yield fh


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


def entry_columns(lines: list[str]) -> tuple[list[str], list[str], list[str]] | None:
    """The three tab-separated fields of every non-blank body line, as three
    columns in file order, or None if some line has another number of
    fields.  ``lines`` are as ``readlines`` gives them, so the last field
    may keep its line end; ``int`` and ``float`` ignore it.  Only strings
    are made per line, no containers, so a long file does not set off the
    cyclic garbage collector."""
    if "\n" in lines:
        lines = list(filter("\n".__ne__, lines))
    if not lines:
        return [], [], []
    if not all(map((2).__eq__, map(str.count, lines, repeat("\t")))):
        return None
    fields = "\t".join(lines).split("\t")
    return fields[0::3], fields[1::3], fields[2::3]


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
