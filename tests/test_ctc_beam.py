"""Prefix beam search: hand-expanded steps, oracle exactness, LM fusion."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from streamctc import (
    Alphabet,
    BeamConfig,
    EmissionMatrix,
    UniformLm,
    ValidationError,
    beam_decode,
    beam_init,
    beam_step,
    enumerate_transcript_probabilities,
    exact_transcript_probability,
    log_add,
    train_ngram,
)
from streamctc.beam import _log_add_many

from conftest import one_hot_emissions, random_emissions

NEG_INF = float("-inf")


def fused_oracle_argmax(em, lm, alpha, beta):
    """Exhaustive argmax of (log P_ctc(y) + alpha * log P_LM(y)) / max(1,|y|)**beta.

    Every path of a transcript passes through the same character-extension
    events, so the fused beam objective factorizes exactly this way.
    """
    best = None
    for text, p in enumerate_transcript_probabilities(em).items():
        if p == 0.0:
            continue
        score = math.log(p)
        if alpha:
            score += alpha * lm.sequence_log_prob(text)
        score /= max(1, len(text)) ** beta
        key = (-score, text)
        if best is None or key < best:
            best = key
    return best[1]


class TestBeamInit:
    def test_single_empty_hypothesis(self):
        beam = beam_init(Alphabet("ab"), BeamConfig())
        assert len(beam.hypotheses) == 1
        hyp = beam.best
        assert hyp.prefix == ""
        assert hyp.log_pb == 0.0
        assert hyp.log_pnb == NEG_INF

    def test_initial_score_is_zero(self):
        beam = beam_init(Alphabet("ab"), BeamConfig(beta=0.7))
        hyp = beam.best
        # empty-prefix divisor is max(1, 0)**beta == 1
        assert hyp.log_prob / max(1, len(hyp.prefix)) ** 0.7 == 0.0

    def test_deterministic(self):
        lm = train_ngram(["ab"], "ab", order=2)
        b1 = beam_init(Alphabet("ab"), BeamConfig(), lm)
        b2 = beam_init(Alphabet("ab"), BeamConfig(), lm)
        assert b1 == b2
        assert hash(b1) == hash(b2)
        assert repr(b1) == repr(b2)
        assert repr(b1).startswith("Beam(alphabet=")

    def test_equality_with_another_type(self):
        beam = beam_init(Alphabet("ab"), BeamConfig())
        assert beam.__eq__(beam.hypotheses) is NotImplemented
        assert beam != tuple(beam.hypotheses)


class TestBeamStep:
    def test_single_step_hand_expansion(self):
        cfg = BeamConfig(width=2, alpha=0.0, beta=0.0)
        beam = beam_init(Alphabet("a"), cfg)
        beam = beam_step(beam, [0.4, 0.6], cfg)
        by_prefix = {h.prefix: h for h in beam.hypotheses}
        assert set(by_prefix) == {"", "a"}
        assert math.exp(by_prefix[""].log_pb) == pytest.approx(0.6)
        assert by_prefix[""].log_pnb == NEG_INF
        assert math.exp(by_prefix["a"].log_pnb) == pytest.approx(0.4)
        assert by_prefix["a"].log_pb == NEG_INF
        assert beam.best.prefix == ""  # 0.6 > 0.4

    def test_blank_only_frame_keeps_prefixes(self):
        ab = Alphabet("ab")
        cfg = BeamConfig(width=4, alpha=0.0, beta=0.0)
        beam = beam_init(ab, cfg)
        beam = beam_step(beam, [0.3, 0.3, 0.4], cfg)
        prefixes = {h.prefix for h in beam.hypotheses}
        blank_frame = [0.0, 0.0, 1.0]
        after = beam_step(beam, blank_frame, cfg)
        assert {h.prefix for h in after.hypotheses} == prefixes
        for hyp in after.hypotheses:
            assert hyp.log_pnb == NEG_INF  # all mass moved to the blank bucket

    def test_alpha_zero_is_lm_invariant(self):
        ab = Alphabet("ab")
        cfg = BeamConfig(width=4, alpha=0.0, beta=0.0)
        rng = np.random.default_rng(3)
        em = random_emissions(rng, ab, 6)
        lms = [None, UniformLm("ab"), train_ngram(["abba", "b"], "ab", order=2)]
        results = []
        for lm in lms:
            beam = beam_init(ab, cfg, lm)
            for row in em.probs:
                beam = beam_step(beam, row, cfg, lm)
            results.append([(h.prefix, h.log_pb, h.log_pnb) for h in beam.hypotheses])
        assert results[0] == results[1] == results[2]

    def test_dimension_mismatch(self):
        cfg = BeamConfig()
        beam = beam_init(Alphabet("ab"), cfg)
        with pytest.raises(ValidationError):
            beam_step(beam, [0.5, 0.5], cfg)

    def test_lm_alphabet_mismatch(self):
        cfg = BeamConfig(alpha=0.5)
        lm = train_ngram(["xy"], "xy", order=2)
        beam = beam_init(Alphabet("ab"), cfg, lm)
        with pytest.raises(ValidationError):
            beam_step(beam, [0.3, 0.3, 0.4], cfg, lm)


class TestBeamDecode:
    def test_uniform_matches_oracle(self):
        em = EmissionMatrix(Alphabet("a"), [[0.5, 0.5], [0.5, 0.5]])
        text, score = beam_decode(em, BeamConfig(width=4, alpha=0.0, beta=0.0))
        assert text == "a"
        assert math.exp(score) == pytest.approx(0.75)

    def test_one_hot_certainty(self):
        ab = Alphabet("hi")
        em = one_hot_emissions(ab, "h-i")
        text, score = beam_decode(em, BeamConfig(width=4, alpha=0.0, beta=0.0))
        assert text == "hi"
        assert score == pytest.approx(0.0)

    def test_empty_matrix(self):
        em = EmissionMatrix(Alphabet("a"), [])
        assert beam_decode(em) == ("", 0.0)

    def test_repeat_needs_blank(self):
        ab = Alphabet("ab")
        cfg = BeamConfig(width=4, alpha=0.0, beta=0.0)
        assert beam_decode(one_hot_emissions(ab, "aa"), cfg)[0] == "a"
        assert beam_decode(one_hot_emissions(ab, "a-a"), cfg)[0] == "aa"

    def test_determinism(self):
        rng = np.random.default_rng(11)
        ab = Alphabet("abc")
        em = random_emissions(rng, ab, 20)
        lm = train_ngram(["abc cab", "bca"], "abc ", order=2)
        cfg = BeamConfig(width=6, alpha=0.5, beta=0.1)
        assert beam_decode(em, cfg, lm) == beam_decode(em, cfg, lm)

    def test_full_width_equals_exact_argmax(self):
        rng = np.random.default_rng(42)
        cfg_cache = {}
        for _ in range(60):
            visible = "ab"[: rng.integers(1, 3)]
            ab = Alphabet(visible)
            T = int(rng.integers(1, 7))
            em = random_emissions(rng, ab, T)
            width = ab.size**T
            cfg = cfg_cache.setdefault(width, BeamConfig(width=width, alpha=0.0, beta=0.0))
            text, _ = beam_decode(em, cfg)
            dist = enumerate_transcript_probabilities(em)
            expected = min(dist.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            assert text == expected

    def test_full_width_bookkeeping_matches_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            ab = Alphabet("ab")
            T = int(rng.integers(1, 6))
            em = random_emissions(rng, ab, T)
            cfg = BeamConfig(width=3**T, alpha=0.0, beta=0.0)
            beam = beam_init(ab, cfg)
            for row in em.probs:
                beam = beam_step(beam, row, cfg)
            for hyp in beam.hypotheses:
                exact = exact_transcript_probability(em, hyp.prefix)
                assert math.exp(hyp.log_prob) == pytest.approx(exact, abs=1e-9)

    def test_beam_quality_bounded_by_exact_maximum(self):
        # Widening the beam is not strictly monotone (pruning reorders merge
        # opportunities), but no width can report more than the exact fused
        # maximum, and an unpruned run attains it.
        rng = np.random.default_rng(23)
        ab = Alphabet("abc")
        lm = train_ngram(["abc", "cba ab"], "abc ", order=2)
        alpha, beta = 0.3, 0.1
        for _ in range(10):
            em = random_emissions(rng, ab, 7)
            dist = enumerate_transcript_probabilities(em)
            exact_best = max(
                (math.log(p) + alpha * lm.sequence_log_prob(t)) / max(1, len(t)) ** beta
                for t, p in dist.items()
                if p > 0.0
            )
            for width in (1, 2, 4, 8, 16):
                _, score = beam_decode(em, BeamConfig(width=width, alpha=alpha, beta=beta), lm)
                assert score <= exact_best + 1e-9
            _, full = beam_decode(em, BeamConfig(width=len(dist) + 1, alpha=alpha, beta=beta), lm)
            assert full == pytest.approx(exact_best, abs=1e-9)

    def test_lm_state_tracks_prefix(self):
        ab = Alphabet("ab")
        lm = train_ngram(["abab"], "ab", order=2)
        cfg = BeamConfig(width=4, alpha=0.5, beta=0.0)
        beam = beam_init(ab, cfg, lm)
        for row in ([0.6, 0.2, 0.2], [0.2, 0.6, 0.2]):
            beam = beam_step(beam, row, cfg, lm)
        for hyp in beam.hypotheses:
            state = lm.initial_state()
            expected_lp = 0.0
            for ch in hyp.prefix:
                lp, state = lm.score_and_advance(state, ch)
                expected_lp += lp
            assert hyp.lm_state == state
            assert hyp.lm_logprob == pytest.approx(expected_lp)


class TestLmFusionFlip:
    """Emissions slightly favor "cav"; a bigram LM trained on "cab" flips it."""

    ALPHABET = Alphabet("abcv")

    def _emissions(self):
        fill = 0.02
        rows = []
        for peaks in ({"c": 0.92}, {"a": 0.92}, {"v": 0.47, "b": 0.45}):
            row = {ch: fill for ch in "abcv"}
            row["-"] = fill
            row.update(peaks)
            used = sum(row[ch] for ch in peaks) + fill * (5 - len(peaks))
            row[max(peaks, key=peaks.get)] += 1.0 - used  # exact row sum
            rows.append([row[ch] for ch in "abcv"] + [row["-"]])
        return EmissionMatrix(self.ALPHABET, rows)

    def _lm(self):
        return train_ngram(["cab"], "abcv", order=2, k=1.0)

    @pytest.mark.parametrize("alpha,expected", [(0.0, "cav"), (0.5, "cab")])
    def test_flip(self, alpha, expected):
        em = self._emissions()
        lm = self._lm()
        cfg = BeamConfig(width=100, alpha=alpha, beta=0.1)
        text, _ = beam_decode(em, cfg, lm)
        assert text == expected
        assert fused_oracle_argmax(em, lm, alpha, cfg.beta) == expected


class TestConfig:
    def test_rejects_bad_width(self):
        with pytest.raises(ValidationError):
            BeamConfig(width=0)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValidationError):
            BeamConfig(alpha=-0.1)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValidationError, match="beta must be >= 0"):
            BeamConfig(beta=-1)

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_weights(self, field, value):
        with pytest.raises(ValidationError) as exc:
            BeamConfig(**{field: value})
        assert str(exc.value) == "alpha and beta must be finite"

    def test_log_add(self):
        assert log_add(NEG_INF, NEG_INF) == NEG_INF
        assert log_add(0.0, NEG_INF) == 0.0
        assert log_add(math.log(0.25), math.log(0.5)) == pytest.approx(math.log(0.75))


def written_out_log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) spelled case by case."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    hi, lo = max(a, b), min(a, b)
    return hi + math.log1p(math.exp(lo - hi))


LOG_PROBS = st.one_of(st.just(NEG_INF), st.just(0.0), st.just(-0.0),
                      st.floats(max_value=0.0, allow_nan=False),
                      st.floats(min_value=-50.0, max_value=0.0))


@st.composite
def log_prob_pairs(draw):
    """(a, b) of log-probabilities: apart, equal, or a large gap apart."""
    a = draw(LOG_PROBS)
    b = draw(st.one_of(LOG_PROBS, st.just(a),
                       st.floats(min_value=30.0, max_value=1e300).map(lambda gap: a - gap)))
    return (a, b) if draw(st.booleans()) else (b, a)


class TestPairwiseLogAdd:
    @given(st.lists(log_prob_pairs(), max_size=40))
    @example([(NEG_INF, NEG_INF), (NEG_INF, -1.5), (-1.5, NEG_INF), (-0.7, -0.7),
              (0.0, -800.0), (-800.0, -1e-300), (-0.0, 0.0), (0.0, -0.0)])
    def test_each_pair_is_log_add(self, pairs):
        a = np.array([p[0] for p in pairs], dtype=np.float64)
        b = np.array([p[1] for p in pairs], dtype=np.float64)
        out = _log_add_many(a, b)
        assert out.dtype == np.float64 and out.shape == a.shape
        expected = [log_add(x, y) for x, y in pairs]
        assert list(map(float.hex, out.tolist())) == list(map(float.hex, expected))
        written = [written_out_log_add(x, y) for x, y in pairs]
        assert list(map(float.hex, expected)) == list(map(float.hex, written))
