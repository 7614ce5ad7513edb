"""CTC prefix beam search with language-model shallow fusion.

A beam holds up to W distinct transcript prefixes; each prefix keeps two
log-probabilities, one for paths ending in blank and one for paths ending
in the final character.  Per frame every prefix may

  * absorb a blank (mass moves to the blank bucket, prefix unchanged),
  * repeat its final character with no blank in between (non-blank bucket,
    prefix unchanged, no LM involvement), or
  * extend by a visible character c, fused with the LM as p_LM(c|prefix)**alpha.
    Extending by the character the prefix already ends in consumes only the
    blank bucket: a repeated character needs a blank between its frames.

Contributions to the same extended prefix from different sources add up.
Pruning keeps the W prefixes with the highest length-normalized score
log p / max(1, |prefix|)**beta, breaking ties lexicographically, and drops
prefixes whose total probability is zero.

A step makes one Python pass over the W hypotheses for their stay buckets,
their extension bases and their LM rows; numpy then scores all W x |A|
extensions at once.  The few extensions that equal a prefix already in the
beam (s + c where s + c is itself a hypothesis) are merged into that
hypothesis and masked out.  :func:`ranked_cut`, shared with the seq2seq
search in ``s2s.py``, keeps the W best by (-score, prefix), so ties at the
cut fall lexicographically.  Only the W survivors advance the LM.

``beam_step`` is pure: the input beam is never modified, so independent
decodes can share beams, and the streaming decoder's beam after frame t is
exactly the offline beam over the same rows.  It rejects rows that are not
finite, in [0, 1] and summing to 1, whatever route they came by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ctc import NEG_INF, Alphabet, EmissionMatrix, check_rows
from .errors import ValidationError
from .lm import CharLm, UniformLm


def log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) for scalars, tolerating -inf."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def normalized_score(log_prob: float, length: int, beta: float) -> float:
    """log p / max(1, length)**beta; the empty prefix divides by 1."""
    if beta == 0.0:
        return log_prob
    return log_prob / max(1, length) ** beta


def ranked_cut(scores: np.ndarray, width: int, prefixes_of) -> list[tuple[float, str, int]]:
    """The ``width`` best entries k of ``scores`` as (-score, prefix, k), best
    first, so ties fall to the smaller prefix.  Only the entries at or above
    the width-th best score, ties included, get a prefix, from
    ``prefixes_of(ks)``, which gives the prefixes of the entries ``ks``."""
    kth = np.partition(scores, -width)[-width] if scores.size > width else NEG_INF
    cand = np.flatnonzero(scores >= kth)
    ks = cand.tolist()
    return sorted(zip([-score for score in scores[cand].tolist()], prefixes_of(ks), ks))[:width]


@dataclass(frozen=True)
class BeamConfig:
    width: int = 100
    alpha: float = 0.5
    beta: float = 0.1

    def __post_init__(self):
        if self.width < 1:
            raise ValidationError("beam width must be >= 1")
        if self.alpha < 0:
            raise ValidationError("alpha must be >= 0")
        if self.beta < 0:
            raise ValidationError("beta must be >= 0")


@dataclass(frozen=True)
class Hypothesis:
    prefix: str
    log_pb: float        # paths ending in blank
    log_pnb: float       # paths ending in the final character
    lm_state: object     # LM state advanced once per prefix character
    lm_logprob: float    # accumulated sum of log p_LM over the prefix

    @property
    def log_prob(self) -> float:
        return log_add(self.log_pb, self.log_pnb)


@dataclass(frozen=True)
class Beam:
    """Hypotheses for one frame, with distinct prefixes, sorted by pruning
    score descending."""

    alphabet: Alphabet
    hypotheses: tuple[Hypothesis, ...]
    frame_index: int = 0

    @property
    def best(self) -> Hypothesis:
        return self.hypotheses[0]


def beam_init(alphabet: Alphabet, config: BeamConfig, lm: CharLm | None = None) -> Beam:
    """Single empty-prefix hypothesis with all mass in the blank bucket."""
    lm = lm if lm is not None else UniformLm(alphabet.symbols)
    hyp = Hypothesis("", 0.0, NEG_INF, lm.initial_state(), 0.0)
    return Beam(alphabet, (hyp,), 0)


def beam_step(beam: Beam, frame, config: BeamConfig, lm: CharLm | None = None) -> Beam:
    """Advance the beam by one emission row and prune back to the width."""
    alphabet = beam.alphabet
    lm = lm if lm is not None else UniformLm(alphabet.symbols)
    row = np.asarray(frame, dtype=np.float64)
    if row.shape != (alphabet.size,):
        raise ValidationError(
            f"emission row has shape {row.shape}, expected ({alphabet.size},)"
        )
    check_rows(row)
    with np.errstate(divide="ignore"):
        log_row = np.log(row)
    symbols = alphabet.symbols
    lm_index = [lm.index_of(c) for c in symbols]
    alpha, beta = config.alpha, config.beta
    blank_lp = float(log_row[alphabet.blank_index])
    char_lp = log_row[: len(symbols)]
    char_lp_list = char_lp.tolist()
    sym_index = alphabet._index
    hyps = beam.hypotheses
    n, m = len(hyps), len(symbols)

    # One pass over the hypotheses: the stay buckets (blank, and the final
    # character repeated), each extension's base and each LM row.
    stay_pb, stay_pnb, totals, lm_rows, denoms = [], [], [], [], []
    last_rows, last_cols, last_pb = [], [], []
    merges = []  # (stay row, parent row, column): an extension that is a stay
    row_of = {hyp.prefix: i for i, hyp in enumerate(hyps)}
    for i, hyp in enumerate(hyps):
        s = hyp.prefix
        pb, pnb = hyp.log_pb, hyp.log_pnb
        total = log_add(pb, pnb)
        totals.append(total)
        stay_pb.append(blank_lp + total)
        rep = NEG_INF
        if s:
            j = sym_index[s[-1]]
            last_rows.append(i)
            last_cols.append(j)
            last_pb.append(pb)
            if pnb != NEG_INF:
                rep = char_lp_list[j] + pnb
            parent = row_of.get(s[:-1])
            if parent is not None:
                merges.append((i, parent, j))
        stay_pnb.append(rep)
        lm_rows.append(lm.next_log_probs(hyp.lm_state))
        denoms.append((len(s) + 1) ** beta)

    # p(s + c) = (p_char(c) + base) + alpha * log p_LM(c | s), where the base
    # is the total mass, or only the blank bucket when c repeats the last.
    base = np.repeat(np.array(totals)[:, None], m, axis=1)
    base[last_rows, last_cols] = last_pb
    ext = char_lp + base
    lm_lp = np.array(lm_rows)[:, lm_index]
    if alpha:
        ext += alpha * lm_lp
    for i, parent, j in merges:
        stay_pnb[i] = log_add(stay_pnb[i], float(ext[parent, j]))
        ext[parent, j] = NEG_INF

    stay_scores = [normalized_score(log_add(pb, pnb), len(hyp.prefix), beta)
                   for hyp, pb, pnb in zip(hyps, stay_pb, stay_pnb)]
    ext_scores = ext if beta == 0.0 else ext / np.array(denoms)[:, None]
    scores = np.concatenate((stay_scores, ext_scores.ravel()))

    def prefixes_of(ks: list[int]) -> list[str]:
        return [hyps[k].prefix if k < n else hyps[(k - n) // m].prefix + symbols[(k - n) % m]
                for k in ks]

    out = []
    for neg, prefix, k in ranked_cut(scores, config.width, prefixes_of):
        if neg == math.inf:
            break  # zero-probability prefixes rank last and are dropped
        if k < n:
            hyp = hyps[k]
            out.append(Hypothesis(prefix, stay_pb[k], stay_pnb[k], hyp.lm_state, hyp.lm_logprob))
        else:
            i, j = divmod(k - n, m)
            hyp = hyps[i]
            out.append(Hypothesis(prefix, NEG_INF, float(ext[i, j]),
                                  lm.advance(hyp.lm_state, symbols[j]),
                                  hyp.lm_logprob + float(lm_lp[i, j])))
    if not out:
        raise ValidationError("beam collapsed: the emission row assigns no mass "
                              "to any reachable prefix")
    return Beam(alphabet, tuple(out), beam.frame_index + 1)


def beam_decode_rows(
    alphabet: Alphabet, rows: Iterable, config: BeamConfig | None = None,
    lm: CharLm | None = None,
) -> tuple[str, float]:
    """Run the full beam search over ``rows``, taken one at a time, and return
    the best transcript and its length-normalized log score.  No rows decode
    to ("", 0.0)."""
    config = config if config is not None else BeamConfig()
    lm = lm if lm is not None else UniformLm(alphabet.symbols)
    beam = beam_init(alphabet, config, lm)
    for row in rows:
        beam = beam_step(beam, row, config, lm)
    best = beam.best
    return best.prefix, normalized_score(best.log_prob, len(best.prefix), config.beta)


def beam_decode(
    em: EmissionMatrix, config: BeamConfig | None = None, lm: CharLm | None = None
) -> tuple[str, float]:
    """:func:`beam_decode_rows` over the rows of ``em``."""
    return beam_decode_rows(em.alphabet, em.probs, config, lm)
