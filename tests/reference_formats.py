"""The NGLM and S2SM readers and models written as one Python loop per line.

These are the plain statements of the two formats: ``load_ngram`` and
``load_table_scorer`` check each body line in order and raise at the first
bad one, building a dict of dicts; ``NgramLm`` fills one context's
log-probability row the first time it is asked for, and ``TableScorer``
builds one row per prefix.  ``streamctc`` parses the files by column and
builds each model's rows once, at construction; the tests hold it to these
bit for bit, errors included.
"""

from __future__ import annotations

import math
from typing import IO

import numpy as np

from streamctc import EOS, CharLm, ParseError, ValidationError

NGLM_MAGIC = "NGLM v1"
S2SM_MAGIC = "S2SM v1"
DIST_SUM_TOL = 1e-9


class ReferenceNgramLm(CharLm):
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
        if not 0 < k < math.inf:
            raise ValidationError("smoothing constant k must be finite and > 0")
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


def _header_alphabet(symbols: str) -> str:
    """The alphabet field of a header; a fault in it is a fault of line 1."""
    if not symbols:
        raise ParseError("header is missing the alphabet", line=1)
    if len(set(symbols)) != len(symbols):
        raise ParseError("alphabet characters must be distinct", line=1)
    if "\t" in symbols or "\r" in symbols or "\n" in symbols:
        raise ParseError("tab/newline are not valid alphabet characters", line=1)
    return symbols


def _open_for_read(source):
    if hasattr(source, "read"):
        return source, False
    return open(source, "r", encoding="utf-8", newline=""), True


def reference_load_ngram(source) -> ReferenceNgramLm:
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
        if order < 1:
            raise ParseError("order must be >= 1", line=1)
        if not 0 < k < math.inf:
            raise ParseError("smoothing constant k must be finite and > 0", line=1)
        symbols = _header_alphabet(parts[4])
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
        return ReferenceNgramLm(symbols, order, k, counts)
    finally:
        if owned:
            fh.close()


class ReferenceTableScorer(CharLm):
    """Autoregressive mock scorer backed by a prefix -> distribution table.

    Prefixes not in the table fall back to a uniform distribution over the
    visible characters plus end-of-sentence, so the scorer is total.  States
    are the prefix strings themselves.  Character LMs satisfy the same
    protocol and can stand in as scorers in tests.
    """

    def __init__(self, symbols: str, table: dict[str, dict[str, float]]):
        super().__init__(symbols)
        self._uniform = np.full(self.vocab_size, -np.log(self.vocab_size))
        self._uniform.flags.writeable = False
        self._rows: dict[str, np.ndarray] = {}
        for prefix, dist in table.items():
            for ch in prefix:
                if ch not in self._index:
                    raise ValidationError(
                        f"table prefix {prefix!r} uses characters outside the alphabet"
                    )
            probs = np.zeros(self.vocab_size)
            for ch, p in dist.items():
                if not 0.0 <= p <= 1.0:
                    raise ValidationError(f"probability {p!r} out of range")
                probs[self.index_of(ch)] = p
            if abs(probs.sum() - 1.0) > DIST_SUM_TOL:
                raise ValidationError(
                    f"distribution for prefix {prefix!r} sums to {probs.sum()!r}"
                )
            with np.errstate(divide="ignore"):
                row = np.log(probs)
            row.flags.writeable = False
            self._rows[prefix] = row
        # kept for serialization round-trips
        self._table = {p: dict(d) for p, d in table.items()}

    def initial_state(self) -> str:
        return ""

    def next_log_probs(self, state) -> np.ndarray:
        return self._rows.get(state, self._uniform)

    def advance(self, state, ch: str) -> str:
        return state + ch


def reference_load_table_scorer(source) -> ReferenceTableScorer:
    own = not hasattr(source, "read")
    fh: IO[str] = open(source, "r", encoding="utf-8", newline="") if own else source
    try:
        header = fh.readline()
        if not header:
            raise ParseError("empty scorer file", line=1)
        header = header.rstrip("\n")
        parts = header.split(" ", 2)
        if len(parts) != 3 or parts[0] != "S2SM" or parts[1] != "v1":
            raise ParseError(f"bad header {header!r}, expected '{S2SM_MAGIC} ...'", line=1)
        symbols = _header_alphabet(parts[2])
        table: dict[str, dict[str, float]] = {}
        for lineno, raw in enumerate(fh, start=2):
            raw = raw.rstrip("\n")
            if not raw:
                continue
            fields = raw.split("\t")
            if len(fields) != 3:
                raise ParseError(f"expected 3 tab-separated fields, got {len(fields)}",
                                 line=lineno)
            prefix, ch, prob_str = fields
            try:
                prob = float(prob_str)
            except ValueError as exc:
                raise ParseError(f"bad probability {prob_str!r}", line=lineno) from exc
            dist = table.setdefault(prefix, {})
            if ch in dist:
                raise ParseError(f"duplicate entry for {prefix!r} -> {ch!r}", line=lineno)
            dist[ch] = prob
        try:
            return ReferenceTableScorer(symbols, table)
        except ValidationError as exc:
            raise ParseError(str(exc)) from exc
    finally:
        if own:
            fh.close()


def _sorted_text(header: str, table: dict) -> str:
    """``header`` and a line per entry of a ``{key: {token: value}}`` dict,
    keys joined to strings and values written by ``str``, sorted by key and
    then token."""
    lines = [header]
    for key in sorted(table, key="".join):
        dist = table[key]
        lines += [f"{''.join(key)}\t{tok}\t{dist[tok]}" for tok in sorted(dist)]
    return "".join(f"{line}\n" for line in lines)


def reference_saved_ngram(lm: ReferenceNgramLm) -> str:
    """The NGLM file of ``lm``."""
    return _sorted_text(f"{NGLM_MAGIC} {lm.order} {lm.k!r} {lm.symbols}", lm._counts)


def reference_saved_table_scorer(scorer: ReferenceTableScorer) -> str:
    """The S2SM file of ``scorer``."""
    return _sorted_text(f"{S2SM_MAGIC} {scorer.symbols}", scorer._table)
