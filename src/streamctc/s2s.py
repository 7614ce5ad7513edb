"""Left-to-right beam search over an autoregressive character scorer with
LM shallow fusion and length-normalized ranking.

Hypotheses y are ranked by (log p(y|x) + alpha * log p_LM(y)) / LP(|y|) with
LP(y) = ((5 + |y|) / 6)**beta.  Log-probabilities are negative, so dividing
by LP > 1 raises the score of longer sequences; the formula is applied as
written.  The length penalty is used both for intermediate pruning and for
the final ranking.  Both probabilities include the end-of-sentence term, so
fused scores are comparable across lengths; hypotheses still unfinished at
``max_length`` are force-finalized the same way.

A step reads the scorer and LM rows of the at most W active hypotheses,
which all have the same length L, with one batched call each.  numpy
scores each active's end-of-sentence final over LP(L) and all W x |A|
extensions over LP(L + 1) at once.  The kept finals and the extensions go
through :func:`streamctc.beam.ranked_cut`, the CTC beam's cut: the W best
by (-score, prefix, kind) survive, as a set in no fixed order but for the
best first.  Only the surviving extensions advance the scorer and the LM,
again in one batched call each; the best final is the least of the kept
finals by (-score, prefix).

The search stops early, with the same result, once the best kept final
scores strictly above (log p(y|x) + alpha * log p_LM(y)) / LP(max_length)
for every active y.  Every log-probability is <= 0, so extending y or
ending it never raises that numerator (rounding is monotone, so this holds
in floating point too), and LP does not decrease with length, so no
descendant of an active can reach the best final: it stays ranked first to
the end.  Rows holding NaN or an entry above 0 are rejected, since the
stop rests on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beam import ranked_cut
from .errors import ParseError, ValidationError
from .formats import (check_header_alphabet, entry_columns, first_line, header_fields, opened,
                      scan_entries, write_entries)
from .lm import CharLm, UniformLm, check_log_rows

S2SM_MAGIC = "S2SM v1"
DIST_SUM_TOL = 1e-9


@dataclass(frozen=True)
class S2SConfig:
    width: int = 15
    alpha: float = 0.1
    beta: float = 0.7
    max_length: int = 100

    def __post_init__(self):
        if self.width < 1:
            raise ValidationError("beam width must be >= 1")
        if self.max_length < 1:
            raise ValidationError("max_length must be >= 1")
        if self.alpha < 0 or self.beta < 0:
            raise ValidationError("alpha and beta must be >= 0")


def length_penalty(length: int, beta: float) -> float:
    """((5 + length) / 6)**beta; equals 1 at length 1 or beta 0."""
    if length < 0:
        raise ValidationError("length must be >= 0")
    return ((5.0 + length) / 6.0) ** beta


class TableScorer(CharLm):
    """Autoregressive mock scorer backed by a prefix -> distribution table.

    Prefixes not in the table fall back to a uniform distribution over the
    visible characters plus end-of-sentence, so the scorer is total.  States
    are the prefix strings themselves, so :meth:`advance_many` is one
    object-array concatenation.  Character LMs satisfy the same
    protocol and can stand in as scorers in tests.  The constructor checks
    the table as the reader does, keeps its entries as columns, and builds
    every prefix's read-only log-probability row at once.
    """

    def __init__(self, symbols: str, table: dict[str, dict[str, float]]):
        super().__init__(symbols)
        probs = np.zeros((len(table), self.vocab_size))
        rows: list[int] = []
        cols: list[int] = []
        values: list[float] = []
        for i, (row, (prefix, dist)) in enumerate(zip(probs, table.items())):
            if not isinstance(prefix, str):  # the reader's prefixes are strings
                raise ValidationError(f"table prefix {prefix!r} is not a string")
            if not self._index.keys() >= set(prefix):
                raise ValidationError(
                    f"table prefix {prefix!r} uses characters outside the alphabet")
            for ch, p in dist.items():
                if not 0.0 <= p <= 1.0:
                    raise ValidationError(f"probability {p!r} out of range")
                cols.append(self.index_of(ch))
                values.append(float(p))
                row[cols[-1]] = values[-1]
            if abs(row.sum() - 1.0) > DIST_SUM_TOL:
                raise ValidationError(
                    f"distribution for prefix {prefix!r} sums to {row.sum()!r}"
                )
            rows += [i] * len(dist)
        self._set_rows(list(table), probs,
                       (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), values))

    @classmethod
    def _from_columns(cls, symbols: str, prefixes: list[str], probs: np.ndarray,
                      entries: tuple[np.ndarray, np.ndarray, list[float]]) -> "TableScorer":
        """The scorer whose row i holds ``probs[i]`` for ``prefixes[i]``;
        the reader has checked the rows."""
        scorer = cls.__new__(cls)
        CharLm.__init__(scorer, symbols)
        scorer._set_rows(prefixes, probs, entries)
        return scorer

    def _set_rows(self, prefixes: list[str], probs: np.ndarray,
                  entries: tuple[np.ndarray, np.ndarray, list[float]]) -> None:
        """Keep the entries, for :func:`save_table_scorer`, and build the rows."""
        self._entries = (prefixes, *entries)
        self._token_objects = np.array(self._tokens, dtype=object)
        self._uniform = np.full(self.vocab_size, -np.log(self.vocab_size))
        self._uniform.flags.writeable = False
        with np.errstate(divide="ignore"):
            np.log(probs, out=probs)
        probs.flags.writeable = False
        self._rows = dict(zip(prefixes, probs))

    def initial_state(self) -> str:
        return ""

    def next_log_probs(self, state) -> np.ndarray:
        return self._rows.get(state, self._uniform)

    def advance(self, state, ch: str) -> str:
        return state + ch

    def advance_many(self, states, tokens) -> np.ndarray:
        return np.asarray(states, dtype=object) + self._token_objects[tokens]


def save_table_scorer(scorer: TableScorer, sink) -> None:
    write_entries(sink, f"{S2SM_MAGIC} {scorer.symbols}", *scorer._entries, scorer._tokens)


def load_table_scorer(source) -> TableScorer:
    """Read an S2SM file.  Every fault is a ParseError, with the number of
    the first bad line when the fault is in one line."""
    with opened(source, "r") as fh:
        (symbols,) = header_fields(first_line(fh, "scorer"), S2SM_MAGIC, 1)
        check_header_alphabet(symbols)
        lines = fh.readlines()
    entries = _table_entries(lines, symbols)
    try:
        if entries is None:
            return TableScorer(symbols, _scan_table(lines))
        del lines  # not needed to build the table
        return TableScorer._from_columns(symbols, *entries)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def _table_entries(lines: list[str], symbols: str):
    """The arguments of :meth:`TableScorer._from_columns` after
    ``symbols``, read by column, if every line is well formed, every
    probability is a float in [0, 1] and every row sums to 1; None sends the
    caller to :func:`_scan_table` and the constructor to find the first
    fault."""
    columns = entry_columns(lines, symbols)
    if columns is None:
        return None
    prefixes, rows, cols, prob_fields = columns
    try:
        values = list(map(float, prob_fields))
    except ValueError:
        return None
    probs = np.fromiter(values, dtype=float, count=len(values))
    if not ((probs >= 0.0) & (probs <= 1.0)).all():  # NaN fails both
        return None
    table = np.zeros((len(prefixes), len(symbols) + 1))
    table[rows, cols] = probs
    if (np.abs(table.sum(axis=1) - 1.0) > DIST_SUM_TOL).any():
        return None
    return prefixes, table, (rows, cols, values)


def _scan_table(lines: list[str]) -> dict[str, dict[str, float]]:
    """The body checked line by line, raising ParseError at the first bad
    line; the constructor checks the rows."""
    table: dict[str, dict[str, float]] = {}
    for lineno, (prefix, ch, prob_str) in scan_entries(lines):
        try:
            prob = float(prob_str)
        except ValueError as exc:
            raise ParseError(f"bad probability {prob_str!r}", line=lineno) from exc
        dist = table.setdefault(prefix, {})
        if ch in dist:
            raise ParseError(f"duplicate entry for {prefix!r} -> {ch!r}", line=lineno)
        dist[ch] = prob
    return table


def s2s_decode(
    scorer, config: S2SConfig | None = None, lm: CharLm | None = None
) -> tuple[str, float]:
    """Beam search over the scorer; returns the best finalized transcript and
    its fused length-normalized score."""
    config = config if config is not None else S2SConfig()
    lm = lm if lm is not None else UniformLm(scorer.symbols)
    if set(lm.symbols) != set(scorer.symbols):
        raise ValidationError("scorer and LM must share a visible alphabet")
    symbols = scorer.symbols
    m = len(symbols)
    # LM columns in scorer order, end of sentence last, as in a scorer row
    lm_index = np.array([lm.index_of(c) for c in symbols] + [len(lm.symbols)])
    alpha, beta, width = config.alpha, config.beta, config.width
    ceiling = length_penalty(config.max_length, beta)

    # actives, all of one length: prefixes, scorer and LM states, and
    # log p(y|x) and log p_LM(y); finals: (-fused score, prefix), in no
    # fixed order
    prefixes = [""]
    sc_states = np.fromiter([scorer.initial_state()], dtype=object, count=1)
    lm_states = np.fromiter([lm.initial_state()], dtype=object, count=1)
    base_sc = base_lm = np.zeros(1)
    finals: list[tuple[float, str]] = []

    for length in range(config.max_length + 1):
        sc_rows = scorer.next_log_probs_many(sc_states)
        lm_rows = lm.next_log_probs_many(lm_states)[:, lm_index]
        check_log_rows(sc_rows, "scorer")
        check_log_rows(lm_rows, "LM")
        sc = base_sc[:, None] + sc_rows
        lm_lp = base_lm[:, None] + lm_rows
        total = sc + alpha * lm_lp if alpha else sc
        # each active also ends here, with its end-of-sentence terms
        ends = (total[:, m] / length_penalty(length, beta)).tolist()
        finals += [(-score, prefix) for score, prefix in zip(ends, prefixes)]
        if length == config.max_length:
            break  # the length cap: everything still active is now final

        ext = total[:, :m] / length_penalty(length + 1, beta)
        nf = len(finals)
        scores = np.concatenate(([-neg for neg, _ in finals], ext.ravel()))

        def prefixes_of(ks: list[int]) -> list[str]:
            return [finals[k][1] if k < nf else prefixes[(k - nf) // m] + symbols[(k - nf) % m]
                    for k in ks]

        # finals come first in k, so the cut keeps the best by (-score, prefix, kind)
        ks = ranked_cut(scores, width, prefixes_of)
        finals = [finals[k] for k in ks[ks < nf].tolist()]
        rows, cols = np.divmod(ks[ks >= nf] - nf, m)
        prefixes = [prefixes[i] + symbols[j] for i, j in zip(rows.tolist(), cols.tolist())]
        if not prefixes:
            break
        sc_states = scorer.advance_many(sc_states[rows], cols)
        lm_states = lm.advance_many(lm_states[rows], lm_index[cols])
        base_sc, base_lm = sc[rows, cols], lm_lp[rows, cols]
        # No descendant of an active scores above bound / LP(max_length).
        if finals and -min(finals)[0] > float(total[rows, cols].max()) / ceiling:
            break

    neg_score, prefix = min(finals)
    return prefix, -neg_score
