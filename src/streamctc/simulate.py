"""Synthetic peaky emission matrices and the bit-exact emission file format.

The simulator produces the characteristic shape of CTC posteriors: each
ground-truth character gets a short run of frames with most of the mass on
that character, separated by blank-dominated frames, with a blank separator
always present between repeated characters (otherwise the repeat would
collapse).  Remaining mass is spread uniformly over the other entries.

Randomness comes from the stdlib Mersenne Twister (``random.Random``) using
only ``random()`` draws, which CPython keeps stable across versions and
platforms, so seeded outputs and golden files are reproducible everywhere.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .ctc import Alphabet, EmissionMatrix, check_rows, check_symbols
from .errors import ParseError, ValidationError
from .formats import first_line, header_fields, opened, utf8_checked

CTCEM_MAGIC = "CTCEM v1"

#: Written after the visible characters in the file header to stand for the
#: blank column; purely presentational (the parser only strips it).
BLANK_MARKER = "-"

_BLOCK = 64  # rows parsed and checked together


@dataclass(frozen=True)
class SimConfig:
    peak_prob: float = 0.9
    frames_per_char: float = 3.0
    noise_seed: int = 0
    blank_fill: bool = True

    def __post_init__(self):
        if not 0.0 < self.peak_prob <= 1.0:
            raise ValidationError("peak_prob must be in (0, 1]")
        if self.frames_per_char < 1:
            raise ValidationError("frames_per_char must be >= 1")


def _draw_run_length(rng: random.Random, mean: float) -> int:
    """Geometric on {1, 2, ...} with the given mean, from a single uniform draw."""
    if mean <= 1.0:
        return 1
    p = 1.0 / mean
    u = rng.random()
    return max(1, math.ceil(math.log1p(-u) / math.log1p(-p)))


def simulate(gt: str, alphabet: Alphabet, config: SimConfig | None = None) -> EmissionMatrix:
    """Emission matrix whose beam/greedy decode recovers ``gt`` when peaked
    strongly enough.  Deterministic given the seed."""
    config = config if config is not None else SimConfig()
    alphabet.validate_text(gt)
    size = alphabet.size
    if config.peak_prob <= 1.0 / size:
        raise ValidationError(
            f"peak_prob {config.peak_prob} does not dominate a uniform row over {size} entries"
        )
    rng = random.Random(config.noise_seed)
    rest = (1.0 - config.peak_prob) / (size - 1)

    def peaked(idx: int) -> np.ndarray:
        row = np.full(size, rest)
        row[idx] = config.peak_prob
        return row

    blank_row = peaked(alphabet.blank_index)
    rows: list[np.ndarray] = []
    if config.blank_fill:
        rows += [blank_row] * _draw_run_length(rng, config.frames_per_char)
    for i, ch in enumerate(gt):
        if i > 0:
            if config.blank_fill:
                gap = _draw_run_length(rng, config.frames_per_char)
            elif gt[i - 1] == ch:
                gap = 1  # forced separator: repeats need a blank in between
            else:
                gap = 0
            rows += [blank_row] * gap
        rows += [peaked(alphabet.index_of(ch))] * _draw_run_length(rng, config.frames_per_char)
    if config.blank_fill and gt:
        rows += [blank_row] * _draw_run_length(rng, config.frames_per_char)
    data = np.array(rows) if rows else np.zeros((0, size))
    return EmissionMatrix(alphabet, data)


def save_emissions(em: EmissionMatrix, sink) -> None:
    """Write the versioned text format; floats use shortest round-trip repr."""
    with opened(sink, "w") as fh:
        fh.write(
            f"{CTCEM_MAGIC} {em.num_frames} {em.alphabet.size} "
            f"{em.alphabet.symbols}{BLANK_MARKER}\n"
        )
        for row in em.probs:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def parse_emissions_header(line: str) -> tuple[Alphabet, int]:
    """Parse a header line into (alphabet, declared frame count)."""
    frames_field, width_field, field = header_fields(line, CTCEM_MAGIC, 3)
    try:
        frames = int(frames_field)
        width = int(width_field)
    except ValueError as exc:
        raise ParseError(f"bad frame/width counts in header: {exc}", line=1) from exc
    if frames < 0:
        raise ParseError(f"negative frame count {frames}", line=1)
    if len(field) < 2:
        raise ParseError("header alphabet field needs at least one visible "
                         "character and the blank marker", line=1)
    try:
        check_symbols(field[-1])  # the blank marker is no separator either
        alphabet = Alphabet(field[:-1])
    except ValidationError as exc:
        raise ParseError(str(exc), line=1) from exc
    if alphabet.size != width:
        raise ParseError(
            f"header declares width {width} but the alphabet implies {alphabet.size}",
            line=1,
        )
    return alphabet, frames


def parse_emission_row(line: str, size: int, lineno: int | None = None) -> np.ndarray:
    """The row of one CTCEM row line, which may keep its line end.  A line
    that fails is first checked for a byte that is not UTF-8."""
    fields = line.rstrip("\n").split(" ")
    if len(fields) != size:
        utf8_checked(line, lineno)
        raise ParseError(f"expected {size} values, got {len(fields)}", line=lineno)
    try:  # numpy reads each field as float() does
        row = np.array(fields, dtype=np.float64)
    except ValueError:
        try:  # and float() words the fault
            row = np.array([float(f) for f in fields])
        except ValueError as exc:
            utf8_checked(line, lineno)
            raise ParseError(f"bad float: {exc}", line=lineno) from exc
    check_rows(row, f"line {lineno}: row")
    return row


def _checked_block(lines: list[str], size: int) -> np.ndarray | None:
    """The rows of ``lines`` as one checked block, or None if any of them
    has the wrong field count, a field that is no float or a bad value."""
    if any(line.count(" ") != size - 1 for line in lines):
        return None
    try:
        block = np.array(" ".join(lines).split(" "), dtype=np.float64)
        block = block.reshape(len(lines), size)
        check_rows(block)
    except (ValueError, ValidationError):
        return None
    return block


def _row_lines(fh) -> Iterator[tuple[int, str]]:
    """(line number from 2, line with its end) of each row line after the
    header, read with ``readline`` alone; blank ones are skipped but counted."""
    for lineno, line in enumerate(iter(fh.readline, ""), start=2):
        if line != "\n":
            yield lineno, line


def _emission_blocks(fh) -> tuple[Alphabet, int, Iterator[np.ndarray]]:
    """Parse the header of an open CTCEM stream and return its alphabet, its
    declared frame count and an iterator over its rows in checked 2-D blocks.

    Rows are parsed and checked :data:`_BLOCK` at a time.  A block that
    fails is parsed again row by row with :func:`parse_emission_row`, each
    row before the bad one a block of its own, so the consumer takes every
    row before a fault before the error, as it would take them one at a time.
    Once the rows run out, the iterator raises ParseError unless it gave as
    many as the header declares."""
    alphabet, frames = parse_emissions_header(first_line(fh, "emission"))
    size = alphabet.size

    def checked(numbered: list[tuple[int, str]]) -> Iterator[np.ndarray]:
        block = _checked_block([line for _, line in numbered], size)
        if block is not None:
            yield block
            return
        for lineno, line in numbered:
            yield parse_emission_row(line, size, lineno)[None]

    def blocks() -> Iterator[np.ndarray]:
        count, numbered = 0, []
        for row in _row_lines(fh):
            numbered.append(row)
            if len(numbered) == _BLOCK:
                yield from checked(numbered)
                count, numbered = count + _BLOCK, []
        if numbered:
            yield from checked(numbered)
        count += len(numbered)
        if count != frames:
            raise ParseError(
                f"header declares {frames} frames but the file holds {count} rows"
            )

    return alphabet, frames, blocks()


def load_emissions(source) -> EmissionMatrix:
    with opened(source, "r") as fh:
        alphabet, _, blocks = _emission_blocks(fh)
        blocks = list(blocks)
    data = np.concatenate(blocks) if blocks else np.zeros((0, alphabet.size))
    return EmissionMatrix(alphabet, data)
