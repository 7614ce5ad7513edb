"""Edit-distance evaluation: alignments, WER/CER, and the substitution
confusion matrix."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class EditOp:
    """One alignment step; ``ref``/``hyp`` hold the tokens involved."""

    kind: str  # "match", "substitute", "delete", "insert"
    ref: object = None
    hyp: object = None


@dataclass(frozen=True)
class EditAlignment:
    operations: tuple[EditOp, ...]
    distance: int


def edit_distance(ref: Sequence, hyp: Sequence) -> EditAlignment:
    """Minimal Levenshtein alignment turning ``ref`` into ``hyp``.

    Ties resolve preferring match > substitute > delete > insert so the
    recovered alignment (and the confusion counts built from it) are
    deterministic.
    """
    n, m = len(ref), len(hyp)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        row = dist[i]
        prev = dist[i - 1]
        ri = ref[i - 1]
        for j in range(1, m + 1):
            sub = prev[j - 1] + (ri != hyp[j - 1])
            dele = prev[j] + 1
            ins = row[j - 1] + 1
            row[j] = sub if sub <= dele and sub <= ins else min(dele, ins)

    ops: list[EditOp] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and dist[i][j] == dist[i - 1][j - 1]:
            ops.append(EditOp("match", ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + 1:
            ops.append(EditOp("substitute", ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            ops.append(EditOp("delete", ref[i - 1], None))
            i -= 1
        else:
            ops.append(EditOp("insert", None, hyp[j - 1]))
            j -= 1
    ops.reverse()
    return EditAlignment(tuple(ops), dist[n][m])


def levenshtein(ref: Sequence, hyp: Sequence) -> int:
    """The edit distance from ``ref`` to ``hyp``, taken between what is left
    when their common prefix and then their common suffix are cut: a
    shortest edit never needs to touch those.  The alignment of what is
    left may differ at its ends, so :func:`confusion_matrix` aligns all."""
    start = len(os.path.commonprefix((ref, hyp)))
    ref, hyp = ref[start:], hyp[start:]
    end = len(os.path.commonprefix((ref[::-1], hyp[::-1])))
    return edit_distance(ref[:len(ref) - end], hyp[:len(hyp) - end]).distance


def _words(text: str) -> list[str]:
    return [w for w in text.strip().split(" ") if w]


def _chars(text: str) -> list[str]:
    return list(text.strip())


def _rate(pairs: Sequence[tuple[str, str]], tokens, name: str) -> float:
    """Edit distances summed over the (ref, hyp) pairs over the summed
    reference lengths, both counted in the ``tokens`` of each string."""
    edits = total = 0
    for ref, hyp in pairs:
        ref_tokens = tokens(ref)
        edits += levenshtein(ref_tokens, tokens(hyp))
        total += len(ref_tokens)
    if not total:
        raise ValidationError(f"{name} is undefined for an empty reference")
    return edits / total


def wer(ref: str, hyp: str) -> float:
    """Word error rate: word-level edit distance over the reference length."""
    return _rate([(ref, hyp)], _words, "WER")


def cer(ref: str, hyp: str) -> float:
    """Character error rate over the trimmed strings (spaces count)."""
    return _rate([(ref, hyp)], _chars, "CER")


def corpus_error_rates(pairs: Sequence[tuple[str, str]]) -> tuple[float, float]:
    """Corpus WER and CER: every pair's edits summed over the summed
    reference lengths, so long references weigh more."""
    return _rate(pairs, _words, "WER"), _rate(pairs, _chars, "CER")


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Row-normalized substitution counts; entry (i, j) is how often
    reference character i was decoded as character j."""

    symbols: str
    counts: np.ndarray
    rates: np.ndarray

    def rate(self, ref_char: str, hyp_char: str) -> float:
        i = self.symbols.index(ref_char)
        j = self.symbols.index(hyp_char)
        return float(self.rates[i, j])


def confusion_matrix(pairs: Sequence[tuple[str, str]],
                     symbols: str | None = None) -> ConfusionMatrix:
    """Accumulate substitution operations from character-level alignments.

    When ``symbols`` is omitted the matrix covers the sorted union of
    characters seen in the pairs.
    """
    if not pairs:
        raise ValidationError("confusion_matrix needs at least one pair")
    if symbols is None:
        symbols = "".join(sorted({c for ref, hyp in pairs for c in ref + hyp}))
    index = {c: i for i, c in enumerate(symbols)}
    k = len(symbols)
    counts = np.zeros((k, k), dtype=np.int64)
    for ref, hyp in pairs:
        for op in edit_distance(ref, hyp).operations:
            if op.kind == "substitute":
                try:
                    counts[index[op.ref], index[op.hyp]] += 1
                except KeyError as exc:
                    raise ValidationError(
                        f"character {exc.args[0]!r} is outside the matrix alphabet"
                    ) from exc
    totals = counts.sum(axis=1, keepdims=True)
    rates = np.divide(counts, totals, out=np.zeros((k, k)), where=totals > 0)
    counts.flags.writeable = False
    rates.flags.writeable = False
    return ConfusionMatrix(symbols, counts, rates)
