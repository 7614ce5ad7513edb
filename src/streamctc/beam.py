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

``beam_step`` is pure: the input beam is never modified, so independent
decodes can share beams, and the streaming decoder's beam after frame t is
exactly the offline beam over the same rows.  It rejects rows that are not
finite, in [0, 1] and summing to 1, whatever route they came by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Hypotheses for one frame, sorted by pruning score descending."""

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
    alpha = config.alpha
    blank_lp = float(log_row[alphabet.blank_index])
    char_lp = log_row[: len(symbols)].tolist()
    sym_index = alphabet._index

    # prefix -> [log_pb, log_pnb, lm_state, lm_logprob]
    acc: dict[str, list] = {}
    for hyp in beam.hypotheses:
        s = hyp.prefix
        pb, pnb = hyp.log_pb, hyp.log_pnb
        total = log_add(pb, pnb)
        ent = acc.get(s)
        if ent is None:
            ent = acc[s] = [NEG_INF, NEG_INF, hyp.lm_state, hyp.lm_logprob]
        ent[0] = log_add(ent[0], blank_lp + total)
        last = s[-1] if s else None
        if last is not None and pnb != NEG_INF:
            ent[1] = log_add(ent[1], char_lp[sym_index[last]] + pnb)
        lm_vec = lm.next_log_probs(hyp.lm_state).tolist()
        state = hyp.lm_state
        lm_lp_base = hyp.lm_logprob
        for i, c in enumerate(symbols):
            base = pb if c == last else total
            if base == NEG_INF:
                continue
            p_c = char_lp[i] + base
            if p_c == NEG_INF:
                continue
            lm_lp = lm_vec[lm_index[i]]
            if alpha:
                p_c += alpha * lm_lp
            sp = s + c
            ent2 = acc.get(sp)
            if ent2 is None:
                acc[sp] = [NEG_INF, p_c, lm.advance(state, c), lm_lp_base + lm_lp]
            else:
                ent2[1] = log_add(ent2[1], p_c)

    beta = config.beta
    scored = []
    for sp, (lpb, lpnb, st, lmlp) in acc.items():
        lp = log_add(lpb, lpnb)
        if lp == NEG_INF:
            continue
        score = lp if beta == 0.0 else lp / max(1, len(sp)) ** beta
        scored.append((-score, sp, lpb, lpnb, st, lmlp))
    if not scored:
        raise ValidationError("beam collapsed: the emission row assigns no mass "
                              "to any reachable prefix")
    scored.sort(key=lambda e: (e[0], e[1]))
    hyps = tuple(
        Hypothesis(sp, lpb, lpnb, st, lmlp)
        for _, sp, lpb, lpnb, st, lmlp in scored[: config.width]
    )
    return Beam(alphabet, hyps, beam.frame_index + 1)


def beam_decode(
    em: EmissionMatrix, config: BeamConfig | None = None, lm: CharLm | None = None
) -> tuple[str, float]:
    """Run the full beam search and return the best transcript and its
    length-normalized log score.  An empty matrix decodes to ("", 0.0)."""
    config = config if config is not None else BeamConfig()
    lm = lm if lm is not None else UniformLm(em.alphabet.symbols)
    beam = beam_init(em.alphabet, config, lm)
    for row in em.probs:
        beam = beam_step(beam, row, config, lm)
    best = beam.best
    return best.prefix, normalized_score(best.log_prob, len(best.prefix), config.beta)
