"""Core CTC semantics: alphabets, emission matrices, the collapse mapping,
exact transcript-probability oracles, and greedy decoding.

All probability accumulation happens in the log domain; zero probability is
the ``-inf`` sentinel.  Everything here is immutable after construction and
safe to share between threads.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, ValidationError

NEG_INF = float("-inf")

# Emission rows must sum to 1 within this tolerance; rows are never silently
# renormalized, so producer bugs surface as errors.
ROW_SUM_TOL = 1e-6

_BLOCK = 64  # emission rows checked and logged together

# Hard cap on (|A|+1)**T for the path-enumeration oracle.
ENUMERATION_CAP = 10**7

_FORBIDDEN_SYMBOLS = "\t\r\n"


def check_symbols(symbols: str) -> None:
    """Reject repeated characters, and the tab and line ends that separate
    the fields and lines of every file format."""
    if len(set(symbols)) != len(symbols):
        raise ValidationError("alphabet characters must be distinct")
    if any(c in _FORBIDDEN_SYMBOLS for c in symbols):
        raise ValidationError("tab/newline are not valid alphabet characters")


@dataclass(frozen=True)
class Alphabet:
    """Ordered visible characters; the CTC blank occupies the last index.

    The blank is not a character: it exists only as emission column
    ``blank_index`` and never appears in transcripts.
    """

    symbols: str

    def __post_init__(self):
        if not isinstance(self.symbols, str):
            object.__setattr__(self, "symbols", "".join(self.symbols))
        if len(self.symbols) < 1:
            raise ValidationError("alphabet needs at least one visible character")
        check_symbols(self.symbols)
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.symbols)})

    @property
    def blank_index(self) -> int:
        return len(self.symbols)

    @property
    def size(self) -> int:
        """Width of an emission row: visible characters plus blank."""
        return len(self.symbols) + 1

    def index_of(self, ch: str) -> int:
        idx = self._index.get(ch)
        if idx is None:
            raise ValidationError(f"character {ch!r} is not in the alphabet")
        return idx

    def validate_text(self, text: str) -> None:
        for ch in text:
            if ch not in self._index:
                raise ValidationError(f"character {ch!r} is not in the alphabet")


def check_rows(probs: np.ndarray, where: str = "emission row") -> None:
    """Raise ValidationError unless every row of ``probs``, one row or a 2-D
    block, is finite, lies in [0, 1] and sums to 1 within ROW_SUM_TOL.

    The comparisons are written so that NaN fails them.  ``probs`` must not be
    empty.  Messages name the bad row as ``where``, plus its index in a block.
    A single row, the streaming case, costs one min, one max and one sum.
    """
    if not (probs.min() >= 0.0 and probs.max() <= 1.0):
        raise ValidationError(f"{where} entries must be finite and lie in [0, 1]")
    if probs.ndim == 1:
        total = float(probs.sum())
        if not abs(total - 1.0) <= ROW_SUM_TOL:
            raise ValidationError(f"{where} sums to {total!r}, expected 1")
        return
    sums = probs.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOL))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"{where} {i} sums to {float(sums[i])!r}, expected 1")


@dataclass(frozen=True, eq=False)
class EmissionMatrix:
    """T x (|A|+1) row-stochastic matrix of per-frame posteriors."""

    alphabet: Alphabet
    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=np.float64)
        if arr.size == 0:
            arr = arr.reshape(0, self.alphabet.size)
        if arr.ndim != 2 or arr.shape[1] != self.alphabet.size:
            raise ValidationError(
                f"emissions must have shape (T, {self.alphabet.size}), got {arr.shape}"
            )
        if arr.size:
            check_rows(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def num_frames(self) -> int:
        return self.probs.shape[0]

    def __len__(self) -> int:
        return self.num_frames

    def log_probs(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.probs)


def _as_label(value) -> int:
    try:
        return operator.index(value)
    except TypeError as exc:
        raise ValidationError(f"path labels must be integers, got {value!r}") from exc


def collapse(path: Sequence[int], alphabet: Alphabet) -> str:
    """Map a frame-wise label path to a transcript.

    Adjacent repeats merge first, then blanks are removed, so a repeated
    character survives only when a blank separates its frames.
    """
    blank = alphabet.blank_index
    out: list[str] = []
    prev = -1
    for raw in path:
        idx = _as_label(raw)
        if not 0 <= idx <= blank:
            raise ValidationError(f"label index {idx} out of range for alphabet")
        if idx != prev and idx != blank:
            out.append(alphabet.symbols[idx])
        prev = idx
    return "".join(out)


def path_log_probability(path: Sequence[int], em: EmissionMatrix) -> float:
    """Sum of per-frame log posteriors along ``path``; -inf when any factor is 0."""
    if len(path) != em.num_frames:
        raise ValidationError(
            f"path length {len(path)} != number of frames {em.num_frames}"
        )
    logs = em.log_probs()
    blank = em.alphabet.blank_index
    total = 0.0
    for t, raw in enumerate(path):
        idx = _as_label(raw)
        if not 0 <= idx <= blank:
            raise ValidationError(f"label index {idx} out of range for alphabet")
        total += logs[t, idx]
    return total


def enumerate_transcript_probabilities(em: EmissionMatrix) -> dict[str, float]:
    """Exact distribution over transcripts by brute-force path enumeration.

    Guarded by ``ENUMERATION_CAP``; intended as a desk-scale oracle.
    """
    size = em.alphabet.size
    T = em.num_frames
    if size**T > ENUMERATION_CAP:
        raise CapacityError(
            f"enumeration over {size}**{T} paths exceeds the {ENUMERATION_CAP} guard"
        )
    blank = em.alphabet.blank_index
    symbols = em.alphabet.symbols
    probs = em.probs.tolist()
    acc: dict[str, float] = {}
    for path in itertools.product(range(size), repeat=T):
        p = 1.0
        chars = []
        prev = -1
        for t, idx in enumerate(path):
            p *= probs[t][idx]
            if idx != prev and idx != blank:
                chars.append(symbols[idx])
            prev = idx
        key = "".join(chars)
        acc[key] = acc.get(key, 0.0) + p
    return acc


def _forward_probability(em: EmissionMatrix, text: str) -> float:
    """Standard CTC forward pass over the blank-interleaved label sequence."""
    T = em.num_frames
    U = len(text)
    blank = em.alphabet.blank_index
    logs = em.log_probs()
    if U == 0:
        if T == 0:
            return 1.0
        return float(np.exp(np.sum(logs[:, blank])))
    if T == 0:
        return 0.0
    labels = [em.alphabet.index_of(c) for c in text]
    z = np.empty(2 * U + 1, dtype=np.intp)
    z[0::2] = blank
    z[1::2] = labels
    S = z.size
    emit = logs[:, z]  # (T, S)
    # A skip over the preceding blank is allowed only onto a label that
    # differs from the label two slots back (the repeat rule).
    skip_ok = np.zeros(S, dtype=bool)
    skip_ok[2:] = (z[2:] != blank) & (z[2:] != z[:-2])

    alpha = np.full(S, NEG_INF)
    alpha[0] = emit[0, 0]
    alpha[1] = emit[0, 1]
    for t in range(1, T):
        stay = np.logaddexp(alpha, np.concatenate(([NEG_INF], alpha[:-1])))
        skipped = np.logaddexp(stay, np.concatenate(([NEG_INF, NEG_INF], alpha[:-2])))
        alpha = np.where(skip_ok, skipped, stay) + emit[t]
    return float(np.exp(np.logaddexp(alpha[-1], alpha[-2])))


def exact_transcript_probability(
    em: EmissionMatrix, text: str, method: str = "forward"
) -> float:
    """Exact marginal probability that the emissions collapse to ``text``.

    ``method="forward"`` runs the dynamic program (no size limit);
    ``method="enumeration"`` brute-forces all paths under the capacity guard.
    Both agree to high precision and transcripts that no path can produce
    return 0 rather than raising.
    """
    em.alphabet.validate_text(text)
    if method == "forward":
        return _forward_probability(em, text)
    if method == "enumeration":
        return enumerate_transcript_probabilities(em).get(text, 0.0)
    raise ValidationError(f"unknown method {method!r}")


def greedy_decode(em: EmissionMatrix) -> str:
    """Collapse of the per-frame argmax path; ties break to the lowest index."""
    path = np.argmax(em.probs, axis=1)
    return collapse(path, em.alphabet)
