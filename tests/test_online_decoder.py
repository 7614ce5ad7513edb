"""Streaming decoder: receptive fields, lagged commits, flush identity,
word completions, and display-churn measurement."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamctc import metrics, streaming
from streamctc import (
    Alphabet,
    BeamConfig,
    CharLm,
    EmissionMatrix,
    NgramLm,
    ReceptiveFieldSpec,
    StreamingDecoder,
    ValidationError,
    beam_decode,
    beam_init,
    beam_step,
    changes_per_frame,
    edit_distance,
    lm_complete_word,
    receptive_field,
    train_ngram,
)

from conftest import one_hot_emissions, random_emissions


def count_beam_steps(monkeypatch) -> list:
    """Make the decoder's beam steps go through a spy; the returned list
    grows by one per step."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(None)
        return beam_step(*args, **kwargs)

    monkeypatch.setattr(streaming, "beam_step", spy)
    return calls


class TestReceptiveField:
    def test_eleven_layers_of_width_five(self):
        total, future = receptive_field([5] * 11)
        assert future == 22
        assert total == 45

    def test_sixteen_layers_of_width_five(self):
        total, future = receptive_field([5] * 16)
        assert future == 32
        assert total == 65

    def test_pointwise_layer(self):
        assert receptive_field([1]) == (1, 0)

    def test_rejects_even_width(self):
        with pytest.raises(ValidationError):
            receptive_field([4])

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValidationError):
            receptive_field([5, -1])

    def test_accepts_spec_object(self):
        spec = ReceptiveFieldSpec((5, 3, 7))
        assert receptive_field(spec) == (2 * (2 + 1 + 3) + 1, 2 + 1 + 3)

    @given(st.lists(st.sampled_from([1, 3, 5, 7]), max_size=8),
           st.lists(st.sampled_from([1, 3, 5, 7]), max_size=8))
    def test_additive_under_concatenation(self, first, second):
        _, r1 = receptive_field(first) if first else (1, 0)
        _, r2 = receptive_field(second) if second else (1, 0)
        if first or second:
            _, r_both = receptive_field(first + second)
            assert r_both == r1 + r2


class TestStreamPush:
    def test_zero_lag_degenerates_to_offline_stepping(self, monkeypatch):
        rng = np.random.default_rng(8)
        ab = Alphabet("ab")
        em = random_emissions(rng, ab, 12)
        cfg = BeamConfig(width=4, alpha=0.0, beta=0.0)
        dec = StreamingDecoder(ab, cfg, lag=0)
        ref = beam_init(ab, cfg)
        steps = count_beam_steps(monkeypatch)
        for i, row in enumerate(em.probs):
            out = dec.push(row)
            ref = beam_step(ref, row, cfg)
            assert out.committed == out.hypothesis == ref.best.prefix
            assert len(steps) == i + 1

    def test_lag_two_hand_trace(self):
        ab = Alphabet("ab")
        em = one_hot_emissions(ab, "a-b")
        cfg = BeamConfig(width=4, alpha=0.0, beta=0.0)
        dec = StreamingDecoder(ab, cfg, lag=2)
        outs = [dec.push(row) for row in em.probs]
        assert [o.committed for o in outs] == ["", "", "a"]
        assert [o.hypothesis for o in outs] == ["a", "a", "ab"]
        assert dec.flush() == "ab"

    def test_replay_determinism(self):
        rng = np.random.default_rng(21)
        ab = Alphabet("abc")
        em = random_emissions(rng, ab, 15)
        cfg = BeamConfig(width=4, alpha=0.0, beta=0.1)

        def run():
            dec = StreamingDecoder(ab, cfg, lag=3)
            outs = [dec.push(row) for row in em.probs]
            return outs, dec.flush()

        assert run() == run()

    def test_bounded_work_per_push(self, monkeypatch):
        rng = np.random.default_rng(2)
        ab = Alphabet("ab")
        em = random_emissions(rng, ab, 30)
        dec = StreamingDecoder(ab, BeamConfig(width=4), lag=4)
        steps = count_beam_steps(monkeypatch)
        for i, row in enumerate(em.probs):
            dec.push(row)
            assert len(steps) == i + 1

    @pytest.mark.parametrize("lag", [0, 1, 5, 22])
    def test_commits_trail_a_plain_beam_chain_by_lag(self, lag):
        rng = np.random.default_rng(40 + lag)
        ab = Alphabet("abc ")
        em = random_emissions(rng, ab, 40)
        lm = train_ngram(["ab ca", "cab a"], ab.symbols, order=2)
        cfg = BeamConfig(width=5, alpha=0.5, beta=0.1)
        dec = StreamingDecoder(ab, cfg, lag=lag, lm=lm)
        chain = [beam_init(ab, cfg, lm)]
        for t, row in enumerate(em.probs, start=1):
            chain.append(beam_step(chain[-1], row, cfg, lm))
            out = dec.push(row)
            expected = chain[t - lag].best.prefix if t > lag else ""
            assert out.committed == expected
            assert out.hypothesis == chain[t].best.prefix
            assert out.completion == lm_complete_word(out.hypothesis, lm)

    def test_flush_makes_no_beam_steps(self, monkeypatch):
        rng = np.random.default_rng(5)
        ab = Alphabet("ab")
        em = random_emissions(rng, ab, 10)
        cfg = BeamConfig(width=4, alpha=0.0, beta=0.0)
        dec = StreamingDecoder(ab, cfg, lag=22)
        for row in em.probs:
            dec.push(row)
        offline_text, _ = beam_decode(em, cfg)
        calls = []

        def counting_step(*args, **kwargs):
            calls.append(1)
            return beam_step(*args, **kwargs)

        monkeypatch.setattr(streaming, "beam_step", counting_step)
        assert dec.flush() == offline_text
        assert calls == []

    @pytest.mark.parametrize("bad", [
        [float("nan"), 0.5, 0.5],
        [float("inf"), 0.0, 0.0],
        [-0.5, 0.5, 1.0],
    ])
    def test_rejects_nonfinite_and_negative_rows(self, bad):
        dec = StreamingDecoder(Alphabet("ab"), BeamConfig(width=2), lag=1)
        with pytest.raises(ValidationError):
            dec.push(bad)
        assert dec.frames_seen == 0

    def test_committed_prefix_is_stable(self):
        # the committed prefix at push t is the hypothesis at push t - lag,
        # or "" before that
        rng = np.random.default_rng(31)
        ab = Alphabet("ab")
        em = random_emissions(rng, ab, 25)
        for lag in [0, 1, 3]:
            dec = StreamingDecoder(ab, BeamConfig(width=4), lag=lag)
            outs = [dec.push(row) for row in em.probs]
            for t, out in enumerate(outs):
                assert out.committed == (outs[t - lag].hypothesis if t >= lag else "")
                assert out.frame_index == t + 1
            assert dec.best_committed() == (outs[-1 - lag].hypothesis, outs[-1 - lag].score)
            assert dec.flush() == outs[-1].hypothesis
            assert dec.best_committed() == (outs[-1].hypothesis, outs[-1].score)

    def test_dimension_mismatch(self):
        dec = StreamingDecoder(Alphabet("ab"), BeamConfig(width=2), lag=1)
        with pytest.raises(ValidationError):
            dec.push([0.5, 0.5])

    def test_rejects_negative_lag(self):
        with pytest.raises(ValidationError):
            StreamingDecoder(Alphabet("a"), lag=-1)


class TestStreamFlush:
    @pytest.mark.parametrize("lag", [0, 1, 5, 22])
    def test_flush_equals_offline(self, lag):
        rng = np.random.default_rng(100 + lag)
        for _ in range(5):
            size = int(rng.integers(2, 6))
            ab = Alphabet("abcd"[: size - 1])
            em = random_emissions(rng, ab, int(rng.integers(1, 30)))
            lm = train_ngram(["abcd", "dab c"], ab.symbols, order=2) \
                if " " not in ab.symbols else None
            cfg = BeamConfig(width=6, alpha=0.4, beta=0.1) if lm else BeamConfig(width=6)
            dec = StreamingDecoder(ab, cfg, lag=lag, lm=lm)
            for row in em.probs:
                dec.push(row)
            text = dec.flush()
            offline_text, offline_score = beam_decode(em, cfg, lm)
            assert text == offline_text
            assert dec.best_committed() == (offline_text, offline_score)

    def test_empty_stream(self):
        dec = StreamingDecoder(Alphabet("a"), BeamConfig(width=2), lag=3)
        assert dec.flush() == ""

    def test_lag_longer_than_stream(self):
        ab = Alphabet("ab")
        em = one_hot_emissions(ab, "a-b")
        cfg = BeamConfig(width=4, alpha=0.0, beta=0.0)
        dec = StreamingDecoder(ab, cfg, lag=50)
        for row in em.probs:
            out = dec.push(row)
            assert out.committed == ""  # nothing commits while buffering
        assert dec.flush() == beam_decode(em, cfg)[0]


class TestWordCompletion:
    def _lm(self):
        return train_ngram(["the cat"], "acehst ", order=2)

    def test_completes_current_word(self):
        assert lm_complete_word("th", self._lm()) == "e "

    def test_prefix_ending_in_space(self):
        assert lm_complete_word("the ", self._lm()) == ""

    def test_empty_prefix(self):
        assert lm_complete_word("", self._lm()) == ""

    def test_zero_budget(self):
        assert lm_complete_word("th", self._lm(), max_chars=0) == ""

    def test_budget_caps_length(self):
        out = lm_complete_word("th", self._lm(), max_chars=1)
        assert out == "e"

    def test_lm_state_gives_the_same_completion(self):
        lm = train_ngram(["the cat sat", "a hat"], "acehst ", order=3)
        for prefix in ["t", "th", "the c", "a h", "s"]:
            state = lm.initial_state()
            for ch in prefix:
                state = lm.advance(state, ch)
            assert lm_complete_word(prefix, lm, state=state) == lm_complete_word(prefix, lm)

    def test_no_lm_means_no_completion(self):
        ab = Alphabet("ab ")
        em = one_hot_emissions(ab, "a-b")
        dec = StreamingDecoder(ab, BeamConfig(width=4, alpha=0.0, beta=0.0), lag=1)
        outs = [dec.push(row) for row in em.probs]
        assert outs[-1].hypothesis == "ab"
        assert [o.completion for o in outs] == ["", "", ""]

    def test_no_internal_spaces(self):
        lm = train_ngram(["the cat sat", "a hat"], "acehst ", order=3)
        for prefix in ["t", "th", "c", "s", "a"]:
            completion = lm_complete_word(prefix, lm)
            assert " " not in completion[:-1]

    def test_memoized_completion_is_the_rollout(self):
        lm = train_ngram(["the cat sat on the mat", "a hat", "that cheese"],
                         "acehmnost ", order=3)
        states = range(len(lm._automaton[0]))
        budgets = [16, 0, 3, 1]
        rollouts = {k: [CharLm._complete_word(lm, s, k) for s in states] for k in budgets}
        assert lm._completions == {}  # the base rollout keeps no memo
        for _ in range(2):  # fills the memo, then reads it
            for k in budgets:
                assert [lm._complete_word(s, k) for s in states] == rollouts[k]
        assert len(lm._completions) == len(states) * len(budgets)
        for k in budgets:
            assert all(len(word) <= k for word in rollouts[k])
            assert any(rollouts[k]) == (k > 0)

    def test_threads_sharing_a_model_read_the_same_words(self):
        lm = train_ngram(["the cat sat on the mat", "a hat", "that cheese"],
                         "acehmnost ", order=3)
        jobs = [(s, k) for s in range(len(lm._automaton[0])) for k in (16, 3)]
        expected = [CharLm._complete_word(lm, s, k) for s, k in jobs]
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: results.append(
                [lm._complete_word(s, k) for s, k in jobs])) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 4
        assert len(lm._completions) == len(jobs)

    def test_memo_hits_advance_nothing_and_stay_bounded(self):
        rng = np.random.default_rng(3)
        ab = Alphabet("abc ")
        lm = train_ngram(["ab ca", "cab a", "bb cc a"], ab.symbols, order=3)
        dec = StreamingDecoder(ab, BeamConfig(width=4), lag=0, lm=lm)
        outs, states = [], []
        for row in random_emissions(rng, ab, 400).probs:
            outs.append(dec.push(row))
            states.append(dec._beam._state[0])
        assert len(outs[-1].hypothesis) > 100
        # at most one entry per automaton state and budget used
        assert {chars for _, chars in lm._completions} == {16}
        assert len(lm._completions) <= len(lm._automaton[0]) < len(outs)
        advances = []  # the tracer counts advances as this does
        lm.advance = lambda state, ch: advances.append(ch) or NgramLm.advance(lm, state, ch)
        again = [lm_complete_word(out.hypothesis, lm, state=state)
                 for out, state in zip(outs, states)]
        assert again == [out.completion for out in outs]
        assert advances == []


class TestChangesPerFrame:
    def test_long_transcript_runs_small_tables(self, monkeypatch):
        # only the changed middles reach the quadratic edit-distance table
        cells = []

        def spy(a, b):
            cells.append(len(a) * len(b))
            return edit_distance(a, b)

        monkeypatch.setattr(metrics, "edit_distance", spy)
        prev = "the cat sat on the mat " * 90
        outputs = [prev, prev + "a", prev[:-1] + "x", prev[:-5]]
        assert changes_per_frame(outputs) == pytest.approx((len(prev) + 1 + 2 + 5) / 4)
        assert max(cells) <= 5

    def test_steady_growth(self):
        assert changes_per_frame(["a", "ab", "abc"]) == pytest.approx(1.0)

    def test_constant_after_first(self):
        outputs = ["abc"] * 10
        assert changes_per_frame(outputs) == pytest.approx((3 + 0 * 9) / 10)

    def test_one_rewrite(self):
        # 9 pushes that change one character, one push that rewrites three
        outputs = ["a", "ab", "abc", "abcd", "abcde", "abxyz", "abxyzq",
                   "abxyzqr", "abxyzqrs", "abxyzqrst"]
        assert changes_per_frame(outputs) == pytest.approx((9 * 1 + 3) / 10)

    def test_accepts_incremental_outputs(self):
        ab = Alphabet("ab")
        em = one_hot_emissions(ab, "a-b")
        dec = StreamingDecoder(ab, BeamConfig(width=4, alpha=0.0, beta=0.0), lag=1)
        outs = [dec.push(row) for row in em.probs]
        assert changes_per_frame(outs) > 0

    def test_empty_sequence_raises(self):
        with pytest.raises(ValidationError):
            changes_per_frame([])
