"""Character language models with incremental, cloneable state.

The interface is a character-level predictor over the visible alphabet plus
an end-of-sentence token.  States are immutable values: advancing returns a
new state and never mutates the old one, so "cloning" a state is free and
beams can share states safely.

The n-gram implementation uses add-k smoothing and backs off to a shorter
context only when a context was never seen in training, which keeps every
score finite.  Its log-probability table is built whole at construction
and fixed from then on.  Its states are the ints of a goto/failure
automaton over the stored contexts, built at first use: advancing and
scoring are one array read each, and the batched methods read the rows
and successors of many states with one fancy index each.

:mod:`streamctc.formats` reads and writes the NGLM body as entry columns,
which a model keeps however it was built; this module checks what the
values mean: the empty context is there, and every count is an int above 0.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from typing import Iterable, NoReturn

import numpy as np

from .ctc import check_symbols
from .errors import ParseError, ValidationError
from .formats import (EOS, check_header_alphabet, entry_columns, first_line, header_fields,
                      opened, scan_entries, write_entries)

NGLM_MAGIC = "NGLM v1"


class CharLm:
    """Base class for incremental character predictors.

    Subclasses implement :meth:`initial_state`, :meth:`next_log_probs` and
    :meth:`advance`.  The distribution returned by ``next_log_probs`` covers
    ``symbols`` in order followed by the end-of-sentence token, and sums to 1.
    The batched :meth:`next_log_probs_many` and :meth:`advance_many` loop
    over those by default; a subclass may answer them faster.
    """

    def __init__(self, symbols: str):
        symbols = "".join(symbols)
        if not symbols:
            raise ValidationError("alphabet needs at least one character")
        check_symbols(symbols)
        self.symbols = symbols
        self._index = {c: i for i, c in enumerate(symbols)}
        self._tokens = [*symbols, EOS]

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

    def next_log_probs_many(self, states) -> np.ndarray:
        """The rows of :meth:`next_log_probs` for a sequence of states, as
        one (len(states), vocab_size) array."""
        rows = [self.next_log_probs(state) for state in states]
        return np.array(rows).reshape(len(rows), self.vocab_size)

    def advance_many(self, states, tokens) -> np.ndarray:
        """The successor of ``states[i]`` by token ``tokens[i]``, a column
        of :meth:`next_log_probs` (EOS is the last), for every i, as a 1-D
        array that ``states`` can be indexed like."""
        chars = [self._tokens[t] for t in np.asarray(tokens).tolist()]
        return np.fromiter(map(self.advance, states, chars), dtype=object, count=len(chars))

    def _complete_word(self, state, max_chars: int) -> str:
        """The rollout :func:`~streamctc.streaming.lm_complete_word` returns."""
        eos_index = len(self.symbols)
        out: list[str] = []
        while len(out) < max_chars:
            best = int(self.next_log_probs(state).argmax())
            if best == eos_index:
                break
            ch = self.symbols[best]
            out.append(ch)
            if ch == " ":
                break
            state = self.advance(state, ch)
        return "".join(out)

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

    def next_log_probs_many(self, states) -> np.ndarray:
        return np.broadcast_to(self._vec, (len(states), self.vocab_size))

    def advance_many(self, states, tokens) -> np.ndarray:
        return np.full(len(tokens), None, dtype=object)


class NgramLm(CharLm):
    """Add-k smoothed character n-gram model.

    ``counts`` maps context tuples (length < order, visible characters only)
    to next-token counts; next tokens are single characters or :data:`EOS`.
    Scoring after a history uses the longest stored suffix of its last
    ``order - 1`` tokens, dropping leading tokens only while the context is
    entirely unseen.

    A state is an opaque int: the longest suffix of the history that is a
    prefix of some stored context (the minimal state that still decides
    every later row).  It moves by one lookup in a successor table, EOS
    included, and its row is the row of its longest stored suffix.

    The constructor checks every entry once, as the reader does (a count is
    ``operator.index(c)`` above 0), keeps the entries as columns and builds
    the whole table, one read-only log-probability row per stored context;
    the automaton is built at first use.  After that only a memo of word
    completions grows, to one entry per state and budget at most; it holds
    derived values, so instances may be shared across threads, and threads
    that race on an entry compute the same word twice.
    """

    def __init__(self, symbols: str, order: int, k: float,
                 counts: dict[tuple[str, ...], dict[str, int]]):
        super().__init__(symbols)
        self.order, self.k = self._checked_order_and_k(order, k)
        if () not in counts:
            raise ValidationError("counts must include the empty context")
        rows: list[int] = []
        cols: list[int] = []
        values: list[int] = []
        for i, (ctx, dist) in enumerate(counts.items()):
            self._check_context(ctx)
            if not self._index.keys() >= set(ctx):
                raise ValidationError(f"context {ctx!r} uses characters outside the alphabet")
            for tok, c in dist.items():
                cols.append(self.index_of(tok))
                try:
                    values.append(operator.index(c))
                except TypeError:
                    raise ValidationError(
                        f"count for {ctx!r} -> {tok!r} must be an int, got {c!r}") from None
                if not values[-1] > 0:
                    raise ValidationError(f"count for {ctx!r} -> {tok!r} must be positive")
            if not dist:
                raise ValidationError(f"context {ctx!r} has no counts")
            rows += [i] * len(dist)
        contexts = list(map("".join, counts))
        if len(set(contexts)) < len(contexts):  # ("a",) and "a" are one context
            raise ValidationError("counts give a context twice")
        self._fill(contexts, np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
                   values)

    @classmethod
    def _from_columns(cls, symbols: str, order: int, k: float,
                      contexts: list[str], rows: np.ndarray, cols: np.ndarray,
                      counts: list[int]) -> "NgramLm":
        """The model whose entry j gives context ``contexts[rows[j]]``, a
        string of characters, and token column ``cols[j]`` the count
        ``counts[j]``.  The reader has checked the entries: contexts and
        tokens in the alphabet, counts positive, no duplicates, the empty
        context present."""
        lm = cls._unfilled(symbols, order, k)
        if max(map(len, contexts)) >= order:  # name the first, as the constructor does
            for ctx in contexts:
                lm._check_context(tuple(ctx))
        lm._fill(contexts, rows, cols, counts)
        return lm

    @classmethod
    def _unfilled(cls, symbols: str, order: int, k: float) -> "NgramLm":
        """A model with its alphabet, order and k checked and set, in the
        constructor's order, and no entries yet."""
        lm = cls.__new__(cls)
        CharLm.__init__(lm, symbols)
        lm.order, lm.k = lm._checked_order_and_k(order, k)
        return lm

    @staticmethod
    def _checked_order_and_k(order: int, k: float) -> tuple[int, float]:
        if order < 1:
            raise ValidationError("order must be >= 1")
        if not 0 < k < math.inf:
            raise ValidationError("smoothing constant k must be finite and > 0")
        return order, float(k)

    def _check_context(self, ctx: tuple[str, ...]) -> None:
        if len(ctx) >= self.order:
            raise ValidationError(f"context {ctx!r} too long for order {self.order}")

    def _fill(self, contexts: list[str], rows: np.ndarray, cols: np.ndarray,
              counts: list[int]) -> None:
        """Keep the entries and build the table: row i is log(k + count) -
        log(total + k * V) for context i, each count and total converted to
        float as Python would, and each denominator's log taken by ``math.log``."""
        try:
            values = np.fromiter(counts, dtype=float, count=len(counts))
            totals = np.bincount(rows, weights=values, minlength=len(contexts))
        except OverflowError:  # a count past the float range, so its total too
            totals = np.array([math.inf])
        if totals.max() >= 2.0 ** 53:  # the float sums may have rounded
            exact = [0] * len(contexts)
            for r, c in zip(rows.tolist(), counts):
                exact[r] += c
            totals = np.array([float(t) if t <= sys.float_info.max else math.inf
                               for t in exact])
        denoms = totals + self.k * self.vocab_size
        overflow = np.flatnonzero(denoms == math.inf)
        if overflow.size:
            raise ValidationError(f"counts for context {tuple(contexts[overflow[0]])!r} "
                                  f"plus k * {self.vocab_size} overflow a float")
        log_denoms = np.fromiter(map(math.log, denoms.tolist()), dtype=float, count=len(denoms))
        table = np.full((len(contexts), self.vocab_size), self.k)
        table[rows, cols] += values
        np.log(table, out=table)
        table -= log_denoms[:, None]
        table.flags.writeable = False
        self._table = table
        self._entries = (contexts, rows, cols, counts)

    @functools.cached_property
    def _automaton(self) -> tuple[np.ndarray, np.ndarray]:
        """``(succ, rows)`` over P, the stored contexts and all their
        prefixes, both indexed by state.

        State i < len(table) is the context of table row i, so the initial
        state needs no build; the prefixes not stored come after.
        ``succ[s, c]`` is the next state after ``s`` and token ``c``, the
        longest suffix of ``s + c`` in P, and ``rows[s]`` is the table row of
        the longest stored suffix of ``s``.  Both follow, depth by depth,
        from the failure link ``fail[s]``, the longest proper suffix of ``s``
        in P, as in Aho and Corasick's construction: a stored suffix of
        ``h + c`` is ``x + c`` with ``x`` a suffix of ``h`` in P, so the
        state of ``h`` decides every later row.  A state moves as its
        failure link does, except along its own edges.  When the stored
        contexts are closed under prefixes, ``rows`` is the table itself.
        """
        states = list(self._entries[0])
        stored = len(states)
        state_of = dict(zip(states, range(stored)))
        empty = self.initial_state()
        cut = operator.itemgetter(slice(None, -1))
        parents = list(map(cut, states))
        missing = set(parents).difference(state_of)
        while missing:  # close P under prefixes
            new = sorted(missing)
            state_of.update(zip(new, range(len(states), len(states) + len(new))))
            states += new
            parents += map(cut, new)
            missing = set(map(cut, new)).difference(state_of)
        size = len(states)
        parent = np.fromiter(map(state_of.__getitem__, parents), dtype=np.intp, count=size)
        depth = np.fromiter(map(len, states), dtype=np.intp, count=size)
        last_chars = map(operator.itemgetter(slice(-1, None)), states)
        token = np.fromiter(map(self._index.get, last_chars, itertools.repeat(0)),
                            dtype=np.intp, count=size)
        row_of = np.arange(size)

        succ = np.full((size, self.vocab_size), empty, dtype=np.int32)
        fail = np.full(size, empty)
        for d in range(1, int(depth.max()) + 1):
            kids = (depth == d).nonzero()[0]
            if d > 1:  # depth 1 fails to the empty context
                fail[kids] = succ[fail[parent[kids]], token[kids]]
            succ[parent[kids], token[kids]] = kids  # the parents' own edges
            succ[kids] = succ[fail[kids]]
            row_of[kids] = np.where(kids < stored, kids, row_of[fail[kids]])
        rows = self._table if size == stored else self._table[row_of]
        for table in (succ, rows):
            table.flags.writeable = False
        return succ, rows

    @functools.cached_property
    def _completions(self) -> dict[tuple[int, int], str]:
        """:meth:`_complete_word` by (state, max_chars), filled as asked."""
        return {}

    def _complete_word(self, state, max_chars: int) -> str:
        key = (operator.index(state), max_chars)
        if key not in self._completions:
            self._completions[key] = super()._complete_word(state, max_chars)
        return self._completions[key]

    def initial_state(self) -> int:
        return self._entries[0].index("")

    def advance(self, state, ch: str) -> int:
        return int(self._automaton[0][state, self.index_of(ch)])

    def next_log_probs(self, state) -> np.ndarray:
        return self._automaton[1][operator.index(state)]

    def next_log_probs_many(self, states) -> np.ndarray:
        return self._automaton[1][np.asarray(states, dtype=np.intp)]

    def advance_many(self, states, tokens) -> np.ndarray:
        return self._automaton[0][np.asarray(states, dtype=np.intp), tokens]


def check_log_rows(rows: np.ndarray, source: str) -> None:
    """Raise ValidationError if a block of log-probability rows holds NaN or
    an entry above 0: one max, which NaN fails."""
    if not rows.max() <= 0.0:
        raise ValidationError(f"{source} row holds NaN or a log-probability above 0")


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
    terminates at the empty context.  The alphabet, order and k are checked
    before the first line is read.
    """
    NgramLm._unfilled(symbols, order, k)
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


def save_ngram(lm: NgramLm, sink) -> None:
    """Write the versioned text format: header, then context/char/count lines."""
    write_entries(sink, f"{NGLM_MAGIC} {lm.order} {lm.k!r} {lm.symbols}", *lm._entries,
                  lm._tokens)


def load_ngram(source) -> NgramLm:
    """Read an NGLM file.  Every fault is a ParseError, with the number of
    the first bad line when the fault is in one line."""
    with opened(source, "r") as fh:
        order_field, k_field, symbols = header_fields(
            first_line(fh, "language model"), NGLM_MAGIC, 3)
        try:
            order, k = NgramLm._checked_order_and_k(int(order_field), float(k_field))
        except ValueError as exc:
            raise ParseError(f"bad order/k in header: {exc}", line=1) from exc
        except ValidationError as exc:
            raise ParseError(str(exc), line=1) from exc
        check_header_alphabet(symbols)
        lines = fh.readlines()
    entries = _ngram_entries(lines, symbols)
    if entries is None:
        _scan_ngram(lines, symbols)
    del lines  # not needed to build the table
    try:
        return NgramLm._from_columns(symbols, order, k, *entries)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def _ngram_entries(lines: list[str], symbols: str):
    """The arguments of :meth:`NgramLm._from_columns` after ``symbols``,
    read by column, if every line is well formed, the empty context is
    present and every count is an int above 0; None sends the caller to
    :func:`_scan_ngram`, which raises the fault."""
    columns = entry_columns(lines, symbols)
    if columns is None or "" not in columns[0]:
        return None
    contexts, rows, cols, count_fields = columns
    try:
        counts = list(map(int, count_fields))
    except ValueError:
        return None
    return (contexts, rows, cols, counts) if min(counts) > 0 else None


def _scan_ngram(lines: list[str], symbols: str) -> NoReturn:
    """Raise the ParseError of a body that :func:`_ngram_entries` rejects:
    the first bad line, checked line by line, or else the missing empty
    context, the one fault that is in no line."""
    allowed = set(symbols)
    seen: set[tuple[str, str]] = set()
    for lineno, (ctx_str, tok, count_str) in scan_entries(lines):
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
        if (ctx_str, tok) in seen:
            raise ParseError(f"duplicate entry for {ctx_str!r} -> {tok!r}", line=lineno)
        seen.add((ctx_str, tok))
    raise ParseError("model has no empty-context counts")
