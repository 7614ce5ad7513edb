"""The numpy seq2seq beam search against the loop reference in
reference_s2s.py: the same transcript and the same score, bit for bit."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctc import EOS, CharLm, S2SConfig, TableScorer, UniformLm, s2s_decode, train_ngram

from reference_s2s import reference_s2s_decode

# not in sorted order, so index order is not a lexicographic tie-break
SYMBOLS = "cab"
CORPUS = ["ab ba", "abc cab", "a b c", "aa bb cc", "cab"]
LMS = [UniformLm(SYMBOLS)] + [train_ngram(CORPUS, SYMBOLS, order=n) for n in (1, 2, 3)]
# the same characters in another order, so LM columns are gathered into scorer order
LMS.append(train_ngram(CORPUS, "abc", order=2))


class DrawnScorer(CharLm):
    """Scorer whose row for a prefix is drawn once from a generator seeded by
    the prefix, of the kind listed for the prefix's length: Dirichlet,
    uniform (every extension ties) or one-hot (log -inf elsewhere)."""

    def __init__(self, symbols, kinds, seed):
        super().__init__(symbols)
        self.kinds, self.seed = kinds, seed
        self._rows = {}

    def initial_state(self):
        return ""

    def next_log_probs(self, state):
        row = self._rows.get(state)
        if row is None:
            rng = np.random.default_rng([self.seed, zlib.crc32(state.encode())])
            kind = self.kinds[len(state) % len(self.kinds)]
            if kind == "uniform":
                probs = np.full(self.vocab_size, 1.0 / self.vocab_size)
            elif kind == "one-hot":
                probs = np.zeros(self.vocab_size)
                probs[rng.integers(self.vocab_size)] = 1.0
            else:
                probs = rng.dirichlet(np.full(self.vocab_size, 0.5))
            with np.errstate(divide="ignore"):
                row = self._rows[state] = np.log(probs)
        return row

    def advance(self, state, ch):
        return state + ch


def chain_scorer(table):
    """Scorer from ``{prefix: {token: probability}}``; unlisted tokens get 0."""
    tokens = list(SYMBOLS) + [EOS]
    return TableScorer(SYMBOLS, {p: {t: d.get(t, 0.0) for t in tokens} for p, d in table.items()})


def peaked_scorer(target, peak=0.9):
    """Each target prefix puts ``peak`` on the next target character (end of
    sentence after the last one); other prefixes fall back to uniform."""
    tokens = list(SYMBOLS) + [EOS]
    rest = (1.0 - peak) / (len(tokens) - 1)
    table = {}
    for i in range(len(target) + 1):
        nxt = target[i] if i < len(target) else EOS
        table[target[:i]] = {tok: (peak if tok == nxt else rest) for tok in tokens}
    return TableScorer(SYMBOLS, table)


def assert_same(scorer, config, lm):
    text, score = s2s_decode(scorer, config, lm)
    want_text, want_score = reference_s2s_decode(scorer, config, lm)
    assert (text, score.hex()) == (want_text, want_score.hex())


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["dirichlet", "uniform", "one-hot"]), min_size=1, max_size=4),
           st.integers(0, 2**32 - 1),
           st.sampled_from([1, 2, 15, 50]),
           st.sampled_from([0.0, 0.1, 1.0]),
           st.sampled_from([0.0, 0.7]),
           st.sampled_from([1, 3, 30]),
           st.sampled_from(LMS))
    def test_drawn_scorers(self, kinds, seed, width, alpha, beta, max_length, lm):
        config = S2SConfig(width=width, alpha=alpha, beta=beta, max_length=max_length)
        assert_same(DrawnScorer(SYMBOLS, kinds, seed), config, lm)

    @pytest.mark.parametrize("width", [1, 2, 15, 50])
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
    def test_peaked_tables(self, width, alpha):
        # off the target every row is uniform, so extensions tie at the cut
        for target, peak in [("abc", 0.9), ("cabbac", 0.5), ("a", 0.3)]:
            config = S2SConfig(width=width, alpha=alpha, beta=0.7, max_length=30)
            for lm in LMS[3:]:
                assert_same(peaked_scorer(target, peak), config, lm)


class TestEarlyStop:
    @pytest.mark.parametrize("width", [1, 15, 50])
    def test_stops_long_before_max_length(self, width):
        scorer = peaked_scorer("abcab")
        calls = []
        next_log_probs = scorer.next_log_probs
        scorer.next_log_probs = lambda state: calls.append(state) or next_log_probs(state)
        config = S2SConfig(width=width, max_length=100)
        assert s2s_decode(scorer, config, LMS[3])[0] == "abcab"
        # running to max_length reads about one row per active per step
        assert len(calls) < width * 20
        assert_same(peaked_scorer("abcab"), config, LMS[3])

    def test_no_stop_on_a_tie_with_the_best_final(self):
        # after two steps the final "b" and the active "aa" both score log .5;
        # "aa" ends with probability 1 and wins the tie on its prefix
        scorer = chain_scorer({"": {"a": 0.5, "b": 0.5}, "b": {EOS: 1.0},
                               "a": {"a": 1.0}, "aa": {EOS: 1.0}})
        config = S2SConfig(width=4, alpha=0.0, beta=0.0, max_length=10)
        assert s2s_decode(scorer, config)[0] == "aa"
        assert_same(scorer, config, UniformLm(SYMBOLS))

    def test_length_penalty_lets_a_long_active_overtake(self):
        # "b" leads "aa" after two steps, but "a" * 20 ends with probability 1
        # and LP(20) raises its score above that of "b"
        table = {"": {"a": 0.4, "b": 0.6}, "b": {EOS: 1.0}, "a" * 20: {EOS: 1.0}}
        table.update({"a" * n: {"a": 1.0} for n in range(1, 20)})
        scorer = chain_scorer(table)
        config = S2SConfig(width=4, alpha=0.0, beta=0.7, max_length=30)
        assert s2s_decode(scorer, config)[0] == "a" * 20
        assert_same(scorer, config, UniformLm(SYMBOLS))
