"""Character language models with incremental, cloneable state.

The interface is a character-level predictor over the visible alphabet plus
an end-of-sentence token.  States are immutable values: advancing returns a
new state and never mutates the old one, so "cloning" a state is free and
beams can share states safely.

The n-gram implementation uses add-k smoothing and backs off to a shorter
context only when a context was never seen in training, which keeps every
score finite.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import ParseError, ValidationError

#: End-of-sentence token.  Scored like a character but never emitted by CTC
#: decoding; used by seq2seq termination and word-completion rollouts.
EOS = "</s>"

NGLM_MAGIC = "NGLM v1"


class CharLm:
    """Base class for incremental character predictors.

    Subclasses implement :meth:`initial_state`, :meth:`next_log_probs` and
    :meth:`advance`.  The distribution returned by ``next_log_probs`` covers
    ``symbols`` in order followed by the end-of-sentence token, and sums to 1.
    """

    def __init__(self, symbols: str):
        symbols = "".join(symbols)
        if not symbols:
            raise ValidationError("alphabet needs at least one character")
        if len(set(symbols)) != len(symbols):
            raise ValidationError("alphabet characters must be distinct")
        self.symbols = symbols
        self._index = {c: i for i, c in enumerate(symbols)}

    @property
    def vocab_size(self) -> int:
        """Visible characters plus end-of-sentence."""
        return len(self.symbols) + 1

    def index_of(self, ch: str) -> int:
        if ch == EOS:
            return len(self.symbols)
        idx = self._index.get(ch)
        if idx is None:
            raise ValidationError(f"character {ch!r} is not in the alphabet")
        return idx

    def initial_state(self):
        """State representing the empty prefix."""
        raise NotImplementedError

    def next_log_probs(self, state) -> np.ndarray:
        """Log-probabilities over symbols + EOS given ``state``."""
        raise NotImplementedError

    def advance(self, state, ch: str):
        """Successor state for the prefix extended by ``ch``."""
        raise NotImplementedError

    def log_prob(self, state, ch: str) -> float:
        return float(self.next_log_probs(state)[self.index_of(ch)])

    def score_and_advance(self, state, ch: str) -> tuple[float, object]:
        return self.log_prob(state, ch), self.advance(state, ch)

    def sequence_log_prob(self, text: str, include_eos: bool = False) -> float:
        """Sum of conditional log-probabilities over the characters of ``text``."""
        state = self.initial_state()
        total = 0.0
        for ch in text:
            lp, state = self.score_and_advance(state, ch)
            total += lp
        if include_eos:
            total += self.log_prob(state, EOS)
        return total


class UniformLm(CharLm):
    """Assigns 1/(|symbols|+1) to every character and EOS, in every state."""

    def __init__(self, symbols: str):
        super().__init__(symbols)
        vec = np.full(self.vocab_size, -math.log(self.vocab_size))
        vec.flags.writeable = False
        self._vec = vec

    def initial_state(self):
        return None

    def next_log_probs(self, state) -> np.ndarray:
        return self._vec

    def advance(self, state, ch: str):
        self.index_of(ch)
        return None


class NgramLm(CharLm):
    """Add-k smoothed character n-gram model.

    ``counts`` maps context tuples (length < order, visible characters only)
    to next-token counts; next tokens are single characters or :data:`EOS`.
    A state is the tuple of up to ``order - 1`` most recent tokens; scoring
    uses the longest stored suffix of the state, dropping leading tokens only
    while the context is entirely unseen.

    Counts are fixed after construction; the per-context distribution cache
    is append-only, so instances may be shared across threads.
    """

    def __init__(self, symbols: str, order: int, k: float,
                 counts: dict[tuple[str, ...], dict[str, int]]):
        super().__init__(symbols)
        if order < 1:
            raise ValidationError("order must be >= 1")
        if not k > 0:
            raise ValidationError("smoothing constant k must be > 0")
        if () not in counts:
            raise ValidationError("counts must include the empty context")
        for ctx, dist in counts.items():
            if len(ctx) >= order:
                raise ValidationError(f"context {ctx!r} too long for order {order}")
            total = 0
            for tok, c in dist.items():
                self.index_of(tok)
                if c <= 0:
                    raise ValidationError(f"count for {ctx!r} -> {tok!r} must be positive")
                total += c
            if total <= 0:
                raise ValidationError(f"context {ctx!r} has no counts")
        self.order = order
        self.k = float(k)
        self._counts = counts
        self._totals = {ctx: sum(d.values()) for ctx, d in counts.items()}
        self._vec_cache: dict[tuple[str, ...], np.ndarray] = {}

    def initial_state(self):
        return ()

    def advance(self, state, ch: str):
        self.index_of(ch)
        if self.order == 1:
            return ()
        return (tuple(state) + (ch,))[-(self.order - 1):]

    def _resolve_context(self, state) -> tuple[str, ...]:
        ctx = tuple(state)
        while ctx and ctx not in self._counts:
            ctx = ctx[1:]
        return ctx

    def next_log_probs(self, state) -> np.ndarray:
        ctx = self._resolve_context(state)
        vec = self._vec_cache.get(ctx)
        if vec is None:
            arr = np.full(self.vocab_size, self.k)
            for tok, c in self._counts.get(ctx, {}).items():
                arr[self.index_of(tok)] += c
            denom = self._totals.get(ctx, 0) + self.k * self.vocab_size
            vec = np.log(arr) - math.log(denom)
            vec.flags.writeable = False
            self._vec_cache[ctx] = vec
        return vec

    def save(self, sink) -> None:
        save_ngram(self, sink)

    @classmethod
    def load(cls, source) -> "NgramLm":
        return load_ngram(source)


def normalize_corpus_line(line: str, symbols: str) -> str:
    """Lowercase, drop characters outside the alphabet, collapse whitespace."""
    keep = set(symbols)
    out = []
    for ch in line.lower():
        if ch.isspace():
            if " " in keep:
                out.append(" ")
        elif ch in keep:
            out.append(ch)
    return " ".join(t for t in "".join(out).split(" ") if t)


def train_ngram(lines: Iterable[str], symbols: str, order: int = 3,
                k: float = 1.0) -> NgramLm:
    """Count n-grams over normalized corpus lines; each line ends with EOS.

    Contexts of every length below ``order`` are stored so backoff always
    terminates at the empty context.
    """
    if order < 1:
        raise ValidationError("order must be >= 1")
    if not k > 0:
        raise ValidationError("smoothing constant k must be > 0")
    counts: dict[tuple[str, ...], dict[str, int]] = {}
    seen_any = False
    for raw in lines:
        text = normalize_corpus_line(raw, symbols)
        if not text:
            continue
        seen_any = True
        tokens = list(text) + [EOS]
        for i, tok in enumerate(tokens):
            for length in range(min(order - 1, i) + 1):
                ctx = tuple(tokens[i - length:i])
                dist = counts.setdefault(ctx, {})
                dist[tok] = dist.get(tok, 0) + 1
    if not seen_any:
        raise ValidationError("corpus is empty after normalization")
    return NgramLm(symbols, order, k, counts)


def _open_for_write(sink):
    if hasattr(sink, "write"):
        return sink, False
    return open(sink, "w", encoding="utf-8", newline="\n"), True


def _open_for_read(source):
    if hasattr(source, "read"):
        return source, False
    return open(source, "r", encoding="utf-8", newline=""), True


def save_ngram(lm: NgramLm, sink) -> None:
    """Write the versioned text format: header, then context/char/count lines."""
    fh, owned = _open_for_write(sink)
    try:
        fh.write(f"{NGLM_MAGIC} {lm.order} {lm.k!r} {lm.symbols}\n")
        for ctx in sorted(lm._counts):
            dist = lm._counts[ctx]
            for tok in sorted(dist):
                fh.write(f"{''.join(ctx)}\t{tok}\t{dist[tok]}\n")
    finally:
        if owned:
            fh.close()


def load_ngram(source) -> NgramLm:
    fh, owned = _open_for_read(source)
    try:
        header = fh.readline()
        if not header:
            raise ParseError("empty language model file", line=1)
        header = header.rstrip("\n")
        parts = header.split(" ", 4)
        if len(parts) != 5 or parts[0] != "NGLM" or parts[1] != "v1":
            raise ParseError(f"bad header {header!r}, expected '{NGLM_MAGIC} ...'", line=1)
        try:
            order = int(parts[2])
            k = float(parts[3])
        except ValueError as exc:
            raise ParseError(f"bad order/k in header: {exc}", line=1) from exc
        symbols = parts[4]
        if not symbols:
            raise ParseError("header is missing the alphabet", line=1)
        allowed = set(symbols)
        counts: dict[tuple[str, ...], dict[str, int]] = {}
        for lineno, raw in enumerate(fh, start=2):
            raw = raw.rstrip("\n")
            if not raw:
                continue
            fields = raw.split("\t")
            if len(fields) != 3:
                raise ParseError(f"expected 3 tab-separated fields, got {len(fields)}",
                                 line=lineno)
            ctx_str, tok, count_str = fields
            if any(c not in allowed for c in ctx_str):
                raise ParseError(f"context {ctx_str!r} uses characters outside the alphabet",
                                 line=lineno)
            if tok != EOS and (len(tok) != 1 or tok not in allowed):
                raise ParseError(f"unknown character field {tok!r}", line=lineno)
            try:
                count = int(count_str)
            except ValueError as exc:
                raise ParseError(f"bad count {count_str!r}", line=lineno) from exc
            if count <= 0:
                raise ParseError(f"count must be positive, got {count}", line=lineno)
            dist = counts.setdefault(tuple(ctx_str), {})
            if tok in dist:
                raise ParseError(f"duplicate entry for {ctx_str!r} -> {tok!r}", line=lineno)
            dist[tok] = count
        if () not in counts:
            raise ParseError("model has no empty-context counts")
        return NgramLm(symbols, order, k, counts)
    finally:
        if owned:
            fh.close()
