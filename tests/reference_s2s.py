"""The seq2seq beam search written as one Python loop over every candidate.

This is the plain statement of the search: at each step every active
hypothesis makes one end-of-sentence final and one extension per visible
character, each scored by (log p(y|x) + alpha * log p_LM(y)) / LP(|y|); the
kept finals compete with them, and the W best by (-score, prefix, kind)
survive.  It runs to ``max_length`` and force-finalizes what is still
active.  ``streamctc.s2s_decode`` computes the same result with numpy and an
early stop; the tests hold it to this one bit for bit.
"""

from __future__ import annotations

from streamctc import S2SConfig, UniformLm, ValidationError, length_penalty


def reference_s2s_decode(scorer, config: S2SConfig | None = None, lm=None) -> tuple[str, float]:
    config = config if config is not None else S2SConfig()
    lm = lm if lm is not None else UniformLm(scorer.symbols)
    if set(lm.symbols) != set(scorer.symbols):
        raise ValidationError("scorer and LM must share a visible alphabet")
    lm_index = [lm.index_of(c) for c in scorer.symbols]
    alpha, beta = config.alpha, config.beta
    eos_sc = len(scorer.symbols)
    eos_lm = len(lm.symbols)

    def fused(lp_sc: float, lp_lm: float, length: int) -> float:
        total = lp_sc + (alpha * lp_lm if alpha else 0.0)
        return total / length_penalty(length, beta)

    # entries: (prefix, scorer state, lm state, log p(y|x), log p_LM(y))
    actives = [("", scorer.initial_state(), lm.initial_state(), 0.0, 0.0)]
    finals: list[tuple[str, float, float]] = []

    for _ in range(config.max_length):
        if not actives:
            break
        pool: list[tuple[float, str, int, tuple]] = []
        for prefix, f_sc, f_lm in finals:
            pool.append((-fused(f_sc, f_lm, len(prefix)), prefix, 0, (prefix, f_sc, f_lm)))
        for prefix, ss, ls, lp_sc, lp_lm in actives:
            sc_vec = scorer.next_log_probs(ss)
            lm_vec = lm.next_log_probs(ls)
            f_sc = lp_sc + float(sc_vec[eos_sc])
            f_lm = lp_lm + float(lm_vec[eos_lm])
            pool.append((-fused(f_sc, f_lm, len(prefix)), prefix, 0, (prefix, f_sc, f_lm)))
            for i, c in enumerate(scorer.symbols):
                n_sc = lp_sc + float(sc_vec[i])
                n_lm = lp_lm + float(lm_vec[lm_index[i]])
                ext = (prefix + c, scorer.advance(ss, c), lm.advance(ls, c), n_sc, n_lm)
                pool.append((-fused(n_sc, n_lm, len(prefix) + 1), prefix + c, 1, ext))
        pool.sort(key=lambda e: (e[0], e[1], e[2]))
        finals = []
        actives = []
        for _, _, kind, payload in pool[: config.width]:
            if kind == 0:
                finals.append(payload)
            else:
                actives.append(payload)

    # Anything still active at the length cap finalizes with its EOS terms.
    for prefix, ss, ls, lp_sc, lp_lm in actives:
        f_sc = lp_sc + float(scorer.next_log_probs(ss)[eos_sc])
        f_lm = lp_lm + float(lm.next_log_probs(ls)[eos_lm])
        finals.append((prefix, f_sc, f_lm))

    ranked = sorted(
        ((-fused(f_sc, f_lm, len(prefix)), prefix) for prefix, f_sc, f_lm in finals),
        key=lambda e: (e[0], e[1]),
    )
    neg_score, prefix = ranked[0]
    return prefix, -neg_score
