"""The prefix beam step written as one Python loop over every candidate.

This is the plain statement of one step of Hannun et al.'s prefix beam
search with LM fusion: every hypothesis makes a stay entry and one entry per
visible character, entries for the same prefix merge with ``log_add``, and
the W best by (-score, prefix) survive.  ``streamctc.beam_step`` computes the
same beam with numpy; the tests hold it to this one bit for bit.
"""

from __future__ import annotations

import numpy as np

from streamctc import NEG_INF, Beam, BeamConfig, Hypothesis, UniformLm, ValidationError, log_add
from streamctc.ctc import check_rows


def reference_beam_step(beam: Beam, frame, config: BeamConfig, lm=None) -> Beam:
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
