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
which all have the same length L, with one batched call each; an LM's int
states stay an int array, and its columns are gathered into scorer order
only when it lists the symbols in another.  numpy divides the (W, |A| + 1)
grid of fused totals, each active's extensions over LP(L + 1) and its end
in the last column over LP(L), into one candidate array with the kept
finals: a float array of scores beside a list of prefixes.
:func:`streamctc.beam.ranked_cut`, the CTC beam's cut, keeps the W best by
(-score, prefix) as a set with the best first; no two candidates share a
prefix, as an extension is L + 1 long and no final is longer than L.  Only
the surviving extensions advance the scorer and the LM, in one batched
call each; the best final is the highest score, ties going to the least
prefix.

The search stops early, with the same result, once the best kept final
scores strictly above (log p(y|x) + alpha * log p_LM(y)) / LP(max_length)
for every active y.  Every log-probability is <= 0, so extending y or
ending it never raises that numerator (rounding is monotone, so this holds
in floating point too), and LP does not decrease with length, so no
descendant of an active can reach the best final: it stays ranked first to
the end.  Rows holding NaN or an entry above 0 are rejected, since the
stop rests on them.  A beta whose LP overflows a float is rejected at the
first length the search reaches where it does; an LP(max_length) that
overflows only rules out the early stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite

import numpy as np

from .beam import _state_array, ranked_cut
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
        if not (isfinite(self.alpha) and isfinite(self.beta)):
            raise ValidationError("alpha and beta must be finite")
        if self.alpha < 0 or self.beta < 0:
            raise ValidationError("alpha and beta must be >= 0")


def length_penalty(length: int, beta: float) -> float:
    """((5 + length) / 6)**beta; equals 1 at length 1 or beta 0.  A beta
    for which it overflows a float is a ValidationError."""
    if length < 0:
        raise ValidationError("length must be >= 0")
    try:
        return ((5.0 + length) / 6.0) ** beta
    except OverflowError:
        raise ValidationError(
            f"beta {beta!r} overflows the length penalty at length {length}") from None


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
    lm_cols = (None if lm.symbols == symbols
               else np.array([lm.index_of(c) for c in symbols] + [len(lm.symbols)]))
    chars = [*symbols, ""]  # a candidate's last character; none for an end
    alpha, beta, width = config.alpha, config.beta, config.width
    try:
        ceiling = length_penalty(config.max_length, beta)
    except ValidationError:  # an infinite ceiling never stops the search early
        ceiling = inf

    # actives, all of one length: prefixes, scorer and LM states, and
    # log p(y|x) and log p_LM(y); finals: fused scores and prefixes, in no
    # fixed order
    prefixes = [""]
    sc_states = np.fromiter([scorer.initial_state()], dtype=object, count=1)
    lm_states = _state_array([lm.initial_state()])
    base_sc = base_lm = np.zeros(1)
    finals = np.empty(0)
    final_prefixes: list[str] = []
    lp = length_penalty(0, beta)

    for length in range(config.max_length + 1):
        sc_rows = scorer.next_log_probs_many(sc_states)
        lm_rows = lm.next_log_probs_many(lm_states)
        if lm_cols is not None:
            lm_rows = lm_rows[:, lm_cols]
        check_log_rows(sc_rows, "scorer")
        check_log_rows(lm_rows, "LM")
        sc = base_sc[:, None] + sc_rows
        lm_lp = base_lm[:, None] + lm_rows
        total = sc + alpha * lm_lp if alpha else sc
        if length == config.max_length:
            # the length cap: every active ends here, with its end-of-sentence terms
            finals = np.concatenate((finals, total[:, m] / lp))
            final_prefixes += prefixes
            break

        # Candidate k < g is entry k of total, one row per active: an
        # extension over LP(L + 1), or in column m the end over LP(L).
        # Candidate g + i is kept final i.
        g, next_lp = total.size, length_penalty(length + 1, beta)
        divisors = np.full(m + 1, next_lp)
        divisors[m] = lp
        scores = np.concatenate(((total / divisors).ravel(), finals))

        def prefixes_of(ks: list[int]) -> list[str]:
            return [prefixes[k // (m + 1)] + chars[k % (m + 1)] if k < g else final_prefixes[k - g]
                    for k in ks]

        # the survivors in one Python pass, cheaper than numpy masks at W entries
        kept, ended, grown, rs, cs = [], [], [], [], []
        for k in ranked_cut(scores, width, prefixes_of).tolist():
            if k >= g:  # a kept final
                kept.append(k)
                ended.append(final_prefixes[k - g])
                continue
            r, c = divmod(k, m + 1)
            if c == m:  # a new end
                kept.append(k)
                ended.append(prefixes[r])
            else:
                rs.append(r)
                cs.append(c)
                grown.append(prefixes[r] + chars[c])
        finals, final_prefixes, prefixes = scores[kept], ended, grown
        if not prefixes:
            break
        rows, cols = np.array(rs, dtype=np.intp), np.array(cs, dtype=np.intp)
        sc_states = scorer.advance_many(sc_states[rows], cols)
        lm_states = lm.advance_many(lm_states[rows], cols if lm_cols is None else lm_cols[cols])
        base_sc, base_lm = sc[rows, cols], lm_lp[rows, cols]
        lp = next_lp
        # No descendant of an active scores above bound / LP(max_length).
        if finals.size and finals.max() > float(total[rows, cols].max()) / ceiling:
            break

    neg_score, prefix = min(zip((-finals).tolist(), final_prefixes))
    return prefix, -neg_score
