"""Seq2seq beam search: length penalty, mock scorers, enumeration equivalence."""

import io
import itertools
import math

import numpy as np
import pytest

from streamctc import (
    EOS,
    ParseError,
    S2SConfig,
    TableScorer,
    UniformLm,
    ValidationError,
    length_penalty,
    load_table_scorer,
    s2s_decode,
    save_table_scorer,
    train_ngram,
)


def enumerate_best(scorer, lm, config):
    """Exhaustive argmax over all sequences up to max_length, every candidate
    terminated (its EOS term is always included)."""
    best = None
    for length in range(config.max_length + 1):
        for chars in itertools.product(scorer.symbols, repeat=length):
            text = "".join(chars)
            sc_state = scorer.initial_state()
            lm_state = lm.initial_state()
            lp_sc = lp_lm = 0.0
            for ch in text:
                lp_sc += float(scorer.next_log_probs(sc_state)[scorer.index_of(ch)])
                lp_lm += float(lm.next_log_probs(lm_state)[lm.index_of(ch)])
                sc_state = scorer.advance(sc_state, ch)
                lm_state = lm.advance(lm_state, ch)
            lp_sc += float(scorer.next_log_probs(sc_state)[scorer.index_of(EOS)])
            lp_lm += float(lm.next_log_probs(lm_state)[lm.index_of(EOS)])
            fused = lp_sc + (config.alpha * lp_lm if config.alpha else 0.0)
            score = fused / length_penalty(length, config.beta)
            key = (-score, text)
            if best is None or key < best:
                best = key
    return best[1], -best[0]


def random_scorer(rng, symbols="abc", depth=2):
    table = {}
    prefixes = [""]
    for _ in range(depth + 1):
        next_prefixes = []
        for prefix in prefixes:
            probs = rng.dirichlet(np.ones(len(symbols) + 1))
            table[prefix] = {
                ch: float(p) for ch, p in zip(list(symbols) + [EOS], probs)
            }
            next_prefixes.extend(prefix + c for c in symbols)
        prefixes = next_prefixes
    return TableScorer(symbols, table)


class TestLengthPenalty:
    @pytest.mark.parametrize("beta", [0.0, 0.6, 0.7])
    def test_length_one_is_unity(self, beta):
        assert length_penalty(1, beta) == 1.0

    def test_length_seven(self):
        assert length_penalty(7, 0.7) == pytest.approx(2**0.7, abs=1e-15)

    def test_beta_zero(self):
        for length in (0, 1, 5, 100):
            assert length_penalty(length, 0.0) == 1.0

    def test_rejects_negative_length(self):
        with pytest.raises(ValidationError):
            length_penalty(-1, 0.5)


class TestConfig:
    @pytest.mark.parametrize("kwargs,message", [
        ({"width": 0}, "beam width must be >= 1"),
        ({"max_length": 0}, "max_length must be >= 1"),
        ({"alpha": -0.1}, "alpha and beta must be >= 0"),
        ({"beta": -0.1}, "alpha and beta must be >= 0"),
        ({"alpha": float("nan")}, "alpha and beta must be finite"),
        ({"alpha": float("inf")}, "alpha and beta must be finite"),
        ({"beta": float("nan")}, "alpha and beta must be finite"),
        ({"beta": float("-inf")}, "alpha and beta must be finite"),
    ])
    def test_rejects_out_of_range_fields(self, kwargs, message):
        with pytest.raises(ValidationError) as exc:
            S2SConfig(**kwargs)
        assert str(exc.value) == message


class TestTableScorer:
    def test_listed_prefix(self):
        scorer = TableScorer("ab", {"": {"a": 0.5, "b": 0.25, EOS: 0.25}})
        vec = scorer.next_log_probs("")
        assert math.exp(vec[0]) == pytest.approx(0.5)
        assert math.exp(vec[2]) == pytest.approx(0.25)

    def test_unlisted_prefix_is_uniform(self):
        scorer = TableScorer("ab", {})
        vec = scorer.next_log_probs("zzz")
        assert np.allclose(np.exp(vec), 1 / 3)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            TableScorer("ab", {"": {"a": 0.5, "b": 0.6}})

    def test_rejects_a_prefix_that_is_not_a_string(self):
        # it would save as "('a',)", a prefix the reader rejects
        with pytest.raises(ValidationError) as exc:
            TableScorer("ab", {("a",): {"a": 1.0}})
        assert str(exc.value) == "table prefix ('a',) is not a string"

    def test_normalization_invariant(self):
        rng = np.random.default_rng(0)
        scorer = random_scorer(rng)
        for prefix in ["", "a", "ab", "zz"]:
            total = np.exp(scorer.next_log_probs(prefix)).sum()
            assert total == pytest.approx(1.0, abs=1e-9)


class TestS2SDecode:
    def test_deterministic_spelling(self):
        table = {
            "": {"h": 1.0},
            "h": {"i": 1.0},
            "hi": {EOS: 1.0},
        }
        scorer = TableScorer("hi", table)
        text, score = s2s_decode(scorer, S2SConfig(width=4, alpha=0.0, beta=0.0, max_length=5))
        assert text == "hi"
        assert score == pytest.approx(0.0)

    def test_full_width_equals_enumeration(self):
        rng = np.random.default_rng(77)
        config = S2SConfig(width=200, alpha=0.0, beta=0.0, max_length=3)
        lm = UniformLm("abc")
        for _ in range(30):
            scorer = random_scorer(rng)
            expected_text, expected_score = enumerate_best(scorer, lm, config)
            text, score = s2s_decode(scorer, config, lm)
            assert text == expected_text
            assert score == pytest.approx(expected_score, abs=1e-9)

    def test_longer_candidate_wins_under_length_penalty(self):
        # equal sequence log-probability, lengths 1 and 7, beta=0.7:
        # dividing a negative score by LP > 1 raises it, so the longer wins
        lp = -2.0
        short = lp / length_penalty(1, 0.7)
        long = lp / length_penalty(7, 0.7)
        assert long > short
        assert long == pytest.approx(-2.0 / 2**0.7)

    def test_fusion_with_ngram_lm(self):
        # scorer is indifferent between "ab" and "aa"; the LM prefers "ab"
        table = {
            "": {"a": 1.0},
            "a": {"a": 0.5, "b": 0.5},
            "aa": {EOS: 1.0},
            "ab": {EOS: 1.0},
        }
        scorer = TableScorer("ab", table)
        lm = train_ngram(["abab", "ab"], "ab", order=2)
        no_lm_text, _ = s2s_decode(scorer, S2SConfig(width=8, alpha=0.0, beta=0.0, max_length=4))
        assert no_lm_text == "aa"  # lexicographic tie-break
        fused_text, _ = s2s_decode(scorer, S2SConfig(width=8, alpha=1.0, beta=0.0, max_length=4), lm)
        assert fused_text == "ab"

    def test_alpha_weighting_is_monotone_for_fixed_candidate(self):
        # log p_LM is negative, so raising alpha strictly lowers the fused
        # score of any fixed candidate with finite LM probability
        lm = train_ngram(["abab", "bb"], "ab", order=2)
        lp_sc = -1.5
        text = "ab"
        lp_lm = lm.sequence_log_prob(text, include_eos=True)
        assert lp_lm < 0
        scores = [(lp_sc + alpha * lp_lm) / length_penalty(len(text), 0.7)
                  for alpha in (0.0, 0.1, 0.5, 1.0)]
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_uniform_lm_cannot_flip_equal_length_ranking(self):
        rng = np.random.default_rng(5)
        lm = UniformLm("abc")
        for _ in range(10):
            scorer = random_scorer(rng)
            # max_length 1 keeps all candidates the same length
            cfg0 = S2SConfig(width=50, alpha=0.0, beta=0.4, max_length=1)
            cfg1 = S2SConfig(width=50, alpha=0.9, beta=0.4, max_length=1)
            assert s2s_decode(scorer, cfg0, lm)[0] == s2s_decode(scorer, cfg1, lm)[0]

    def test_alphabet_mismatch(self):
        scorer = TableScorer("ab", {})
        with pytest.raises(ValidationError):
            s2s_decode(scorer, S2SConfig(), train_ngram(["xy"], "xy", order=1))

    def test_determinism(self):
        rng = np.random.default_rng(13)
        scorer = random_scorer(rng)
        cfg = S2SConfig(width=3, alpha=0.1, beta=0.7, max_length=4)
        lm = train_ngram(["abc", "cab"], "abc", order=2)
        assert s2s_decode(scorer, cfg, lm) == s2s_decode(scorer, cfg, lm)


class BadRowScorer(TableScorer):
    """Uniform scorer whose row after "a" is replaced by ``row``."""

    def __init__(self, row):
        super().__init__("ab", {})
        self.row = np.asarray(row, dtype=float)

    def next_log_probs(self, state):
        return self.row if state == "a" else super().next_log_probs(state)


class TestRowChecks:
    @pytest.mark.parametrize("row", [[np.nan, -1.0, -1.0], [0.1, -1.0, -1.0]],
                             ids=["nan", "positive"])
    def test_rejects_scorer_row(self, row):
        with pytest.raises(ValidationError, match="NaN or a log-probability above 0"):
            s2s_decode(BadRowScorer(row), S2SConfig(width=4, max_length=5))

    @pytest.mark.parametrize("row", [[np.nan, -1.0, -1.0], [0.1, -1.0, -1.0]],
                             ids=["nan", "positive"])
    def test_rejects_lm_row(self, row):
        scorer = TableScorer("ab", {})
        with pytest.raises(ValidationError, match="NaN or a log-probability above 0"):
            s2s_decode(scorer, S2SConfig(width=4, max_length=5), BadRowScorer(row))


class TestSerialization:
    def _roundtrip_text(self, scorer):
        buf = io.StringIO()
        save_table_scorer(scorer, buf)
        return buf.getvalue()

    def test_save_load_save_byte_identical(self):
        rng = np.random.default_rng(3)
        scorer = random_scorer(rng)
        first = self._roundtrip_text(scorer)
        again = self._roundtrip_text(load_table_scorer(io.StringIO(first)))
        assert again == first

    def test_path_roundtrip(self, tmp_path):
        scorer = TableScorer("ab", {"": {"a": 0.25, "b": 0.25, EOS: 0.5}})
        path = tmp_path / "scorer.s2sm"
        save_table_scorer(scorer, path)
        reloaded = load_table_scorer(path)
        assert np.array_equal(reloaded.next_log_probs(""), scorer.next_log_probs(""))

    def test_load_builds_the_rows(self, tmp_path):
        path = tmp_path / "scorer.s2sm"
        save_table_scorer(TableScorer("ab", {"": {"a": 0.25, "b": 0.25, EOS: 0.5}}), path)
        assert set(vars(load_table_scorer(path))["_rows"]) == {""}

    def test_each_load_reads_the_file(self, tmp_path):
        # a file rewritten between two loads gives the new scorer: no load
        # keeps anything for the next
        path = tmp_path / "scorer.s2sm"
        first = TableScorer("ab", {"": {"a": 0.25, "b": 0.25, EOS: 0.5}})
        second = TableScorer("ab", {"a": {"b": 1.0}})
        save_table_scorer(first, path)
        assert self._roundtrip_text(load_table_scorer(path)) == self._roundtrip_text(first)
        save_table_scorer(second, path)
        reloaded = load_table_scorer(path)
        assert self._roundtrip_text(reloaded) == self._roundtrip_text(second)
        assert np.array_equal(reloaded.next_log_probs("a"), second.next_log_probs("a"))
        assert np.array_equal(reloaded.next_log_probs(""), second.next_log_probs(""))

    def test_numpy_probabilities_save_as_numbers(self):
        # under numpy 2, repr(np.float64(0.5)) is "np.float64(0.5)", which no reader parses
        scorer = TableScorer("ab", {"": dict(zip(["a", "b", EOS], np.array([0.25, 0.25, 0.5])))})
        text = self._roundtrip_text(scorer)
        assert text == f"S2SM v1 ab\n\t{EOS}\t0.5\n\ta\t0.25\n\tb\t0.25\n"
        assert self._roundtrip_text(load_table_scorer(io.StringIO(text))) == text

    def test_bad_header(self):
        with pytest.raises(ParseError):
            load_table_scorer(io.StringIO("S2SM v9 ab\n"))

    def test_bad_probability(self):
        with pytest.raises(ParseError) as err:
            load_table_scorer(io.StringIO("S2SM v1 ab\na\tb\tlots\n"))
        assert err.value.line == 2

    @pytest.mark.parametrize("header", ["S2SM v1 aba\n", "S2SM v1 \n", "S2SM v1 a\tb\n",
                                        "S2SM v1 ab\r\n"])
    def test_bad_alphabet_is_parse_error(self, header):
        # a fault of line 1, named before the body's bad line 2
        with pytest.raises(ParseError) as err:
            load_table_scorer(io.StringIO(f"{header}bad\n"))
        assert err.value.line == 1

    def test_unnormalized_rejected(self):
        with pytest.raises(ParseError):
            load_table_scorer(io.StringIO("S2SM v1 ab\n\ta\t0.9\n\tb\t0.9\n"))
