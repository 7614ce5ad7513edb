"""Left-to-right beam search over an autoregressive character scorer with
LM shallow fusion and length-normalized ranking.

Hypotheses y are ranked by (log p(y|x) + alpha * log p_LM(y)) / LP(|y|) with
LP(y) = ((5 + |y|) / 6)**beta.  Log-probabilities are negative, so dividing
by LP > 1 raises the score of longer sequences; the formula is applied as
written.  The length penalty is used both for intermediate pruning and for
the final ranking.  Both probabilities include the end-of-sentence term, so
fused scores are comparable across lengths; hypotheses still unfinished at
``max_length`` are force-finalized the same way.

A step makes one Python pass over the at most W active hypotheses, which
all have the same length L, for their scorer and LM rows.  Each active
becomes a final through its end-of-sentence term, scored one at a time;
numpy scores all W x |A| extensions at once, divided by the one scalar
LP(L + 1).  ``np.partition`` finds the W-th best score among the kept
finals and the extensions; only the extensions at or above it, ties
included, get a prefix string, and they are sorted with the finals by
(-score, prefix, kind).  Only the surviving extensions advance the scorer
and the LM.

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
from typing import IO

import numpy as np

from .errors import ParseError, ValidationError
from .lm import CharLm, UniformLm

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

    def save(self, sink) -> None:
        save_table_scorer(self, sink)

    @classmethod
    def load(cls, source) -> "TableScorer":
        return load_table_scorer(source)


def save_table_scorer(scorer: TableScorer, sink) -> None:
    own = not hasattr(sink, "write")
    fh: IO[str] = open(sink, "w", encoding="utf-8", newline="\n") if own else sink
    try:
        fh.write(f"{S2SM_MAGIC} {scorer.symbols}\n")
        for prefix in sorted(scorer._table):
            dist = scorer._table[prefix]
            for ch in sorted(dist):
                fh.write(f"{prefix}\t{ch}\t{dist[ch]!r}\n")
    finally:
        if own:
            fh.close()


def load_table_scorer(source) -> TableScorer:
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
        symbols = parts[2]
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
            return TableScorer(symbols, table)
        except ValidationError as exc:
            raise ParseError(str(exc)) from exc
    finally:
        if own:
            fh.close()


def _check_log_rows(rows: np.ndarray, source: str) -> None:
    # one max, which NaN fails: the early stop needs every entry <= 0
    if not rows.max() <= 0.0:
        raise ValidationError(f"{source} row holds NaN or a log-probability above 0")


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
    lm_index = [lm.index_of(c) for c in symbols] + [len(lm.symbols)]
    alpha, beta, width = config.alpha, config.beta, config.width
    ceiling = length_penalty(config.max_length, beta)

    def fused(lp_sc: float, lp_lm: float, length: int) -> float:
        total = lp_sc + (alpha * lp_lm if alpha else 0.0)
        return total / length_penalty(length, beta)

    # actives: (prefix, scorer state, lm state, log p(y|x), log p_LM(y)), all
    # of one length; finals: (-fused score, prefix), best first after a step
    actives = [("", scorer.initial_state(), lm.initial_state(), 0.0, 0.0)]
    finals: list[tuple[float, str]] = []

    for length in range(config.max_length + 1):
        sc_rows, lm_rows, base_sc, base_lm = [], [], [], []
        for _, ss, ls, lp_sc, lp_lm in actives:
            sc_rows.append(scorer.next_log_probs(ss))
            lm_rows.append(lm.next_log_probs(ls))
            base_sc.append(lp_sc)
            base_lm.append(lp_lm)
        sc_rows = np.array(sc_rows)
        lm_rows = np.array(lm_rows)[:, lm_index]
        _check_log_rows(sc_rows, "scorer")
        _check_log_rows(lm_rows, "LM")
        sc = np.array(base_sc)[:, None] + sc_rows
        lm_lp = np.array(base_lm)[:, None] + lm_rows
        # each active also ends here, with its end-of-sentence terms
        finals += [(-fused(float(sc[i, m]), float(lm_lp[i, m]), length), active[0])
                   for i, active in enumerate(actives)]
        if length == config.max_length:
            break  # the length cap: everything still active is now final

        total = sc + alpha * lm_lp if alpha else sc
        ext = total[:, :m] / length_penalty(length + 1, beta)
        nf = len(finals)
        scores = np.concatenate(([-neg for neg, _ in finals], ext.ravel()))
        # Everything scoring at least the W-th best is a candidate, ties
        # included; only candidates get a prefix string.  Finals come first
        # in k, so (-score, prefix, k) sorts as (-score, prefix, kind).
        kth = np.partition(scores, -width)[-width] if scores.size > width else -np.inf
        cand = np.flatnonzero(scores >= kth)
        ranked = []
        for k, score in zip(cand.tolist(), scores[cand].tolist()):
            if k < nf:
                prefix = finals[k][1]
            else:
                i, j = divmod(k - nf, m)
                prefix = actives[i][0] + symbols[j]
            ranked.append((-score, prefix, k))
        ranked.sort()

        kept, survivors, bound = [], [], -np.inf
        for neg, prefix, k in ranked[:width]:
            if k < nf:
                kept.append((neg, prefix))
            else:
                i, j = divmod(k - nf, m)
                _, ss, ls, _, _ = actives[i]
                c = symbols[j]
                survivors.append((prefix, scorer.advance(ss, c), lm.advance(ls, c),
                                  float(sc[i, j]), float(lm_lp[i, j])))
                bound = max(bound, float(total[i, j]))
        finals, actives = kept, survivors
        # No descendant of an active scores above bound / LP(max_length).
        if not actives or (finals and -finals[0][0] > bound / ceiling):
            break

    neg_score, prefix = min(finals)
    return prefix, -neg_score
