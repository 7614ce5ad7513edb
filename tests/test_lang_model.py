"""Character n-gram LM: training counts, smoothing, state semantics, file I/O."""

import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamctc import (
    EOS,
    NgramLm,
    ParseError,
    UniformLm,
    ValidationError,
    load_ngram,
    normalize_corpus_line,
    save_ngram,
    train_ngram,
)


def saved(lm) -> str:
    buf = io.StringIO()
    save_ngram(lm, buf)
    return buf.getvalue()


class TestUniformLm:
    def test_constant_distribution(self):
        lm = UniformLm("ab")
        state = lm.initial_state()
        vec = lm.next_log_probs(state)
        assert np.allclose(np.exp(vec), 1 / 3)
        state = lm.advance(state, "a")
        assert lm.log_prob(state, "b") == pytest.approx(math.log(1 / 3))
        assert lm.log_prob(state, EOS) == pytest.approx(math.log(1 / 3))

    def test_rejects_unknown_char(self):
        with pytest.raises(ValidationError):
            UniformLm("ab").log_prob(None, "z")


class TestTraining:
    def test_bigram_counts_ab(self):
        lm = train_ngram(["ab"], "ab", order=2)
        assert saved(lm).split("\n", 1)[1] == (
            f"\t{EOS}\t1\n\ta\t1\n\tb\t1\n"  # the empty context
            f"a\tb\t1\n"
            f"b\t{EOS}\t1\n")

    def test_bigram_conditional_from_abab(self):
        # context "a" appears twice, both followed by "b": (2+1)/(2+1*3) = 0.6
        lm = train_ngram(["abab"], "ab", order=2, k=1.0)
        state = lm.advance(lm.initial_state(), "a")
        assert math.exp(lm.log_prob(state, "b")) == pytest.approx(0.6)

    def test_unigram_initial_distribution(self):
        lm = train_ngram(["aab"], "ab", order=1, k=1.0)
        vec = np.exp(lm.next_log_probs(lm.initial_state()))
        # counts a:2 b:1 eos:1, V=3
        assert vec[0] == pytest.approx((2 + 1) / (4 + 3))
        assert vec[1] == pytest.approx((1 + 1) / (4 + 3))
        assert vec[2] == pytest.approx((1 + 1) / (4 + 3))

    def test_single_letter_line(self):
        lm = train_ngram(["a"], "ab", order=1)
        vec = np.exp(lm.next_log_probs(lm.initial_state()))
        assert vec[0] > vec[1]

    def test_empty_corpus_raises(self):
        with pytest.raises(ValidationError):
            train_ngram(["", "   ", "123"], "ab", order=2)

    @pytest.mark.parametrize("symbols,order,k,message", [
        ("a\tb", 0, 1.0, "tab/newline are not valid alphabet characters"),  # alphabet first
        ("", 2, 1.0, "alphabet needs at least one character"),
        ("ab", 0, 0.0, "order must be >= 1"),
        ("ab", 2, 0.0, "smoothing constant k must be finite and > 0"),
    ], ids=["tab", "empty", "order", "k"])
    def test_checks_come_before_the_corpus_is_read(self, symbols, order, k, message):
        def unread():
            raise AssertionError("the corpus was read")
            yield

        with pytest.raises(ValidationError) as exc:
            train_ngram(unread(), symbols, order=order, k=k)
        assert str(exc.value) == message

    def test_training_is_deterministic(self):
        corpus = ["the cat", "a cat sat"]
        symbols = "acehst "
        a = io.StringIO()
        b = io.StringIO()
        save_ngram(train_ngram(corpus, symbols, order=3), a)
        save_ngram(train_ngram(corpus, symbols, order=3), b)
        assert a.getvalue() == b.getvalue()

    def test_normalization(self):
        assert normalize_corpus_line("  The CAT!\tsat  ", "acehst ") == "the cat sat"
        assert normalize_corpus_line("dog", "acehst ") == ""
        assert normalize_corpus_line("ab", "ab") == "ab"
        assert normalize_corpus_line("A  B", "ab") == "ab"  # no space in alphabet


class TestStateSemantics:
    def test_clone_independence(self):
        lm = train_ngram(["abab", "bb"], "ab", order=3)
        original = lm.initial_state()
        before = lm.next_log_probs(original).copy()
        clone = original  # states are immutable values
        lm.advance(clone, "a")
        assert np.array_equal(lm.next_log_probs(original), before)

    def test_deterministic_scoring(self):
        lm = train_ngram(["abab"], "ab", order=2)
        state = lm.advance(lm.initial_state(), "b")
        assert lm.log_prob(state, "a") == lm.log_prob(state, "a")

    def test_score_and_advance_matches_parts(self):
        lm = train_ngram(["abba"], "ab", order=2)
        state = lm.initial_state()
        lp, nxt = lm.score_and_advance(state, "a")
        assert lp == lm.log_prob(state, "a")
        assert nxt == lm.advance(state, "a")

    @given(st.text(alphabet="ab", min_size=2, max_size=8),
           st.text(alphabet="ab", min_size=2, max_size=8))
    def test_markov_property(self, p1, p2):
        # order 3: states reached via prefixes sharing the last 2 chars agree
        lm = train_ngram(["abab", "ba", "aabb"], "ab", order=3)
        s1 = lm.initial_state()
        for ch in p1:
            s1 = lm.advance(s1, ch)
        s2 = lm.initial_state()
        for ch in p2:
            s2 = lm.advance(s2, ch)
        if p1[-2:] == p2[-2:]:
            assert np.array_equal(lm.next_log_probs(s1), lm.next_log_probs(s2))

    def test_normalization_over_random_states(self):
        lm = train_ngram(["abab", "bbba", "ab"], "ab", order=3)
        rng = np.random.default_rng(5)
        for _ in range(100):
            state = lm.initial_state()
            for _ in range(int(rng.integers(0, 10))):
                state = lm.advance(state, "ab"[rng.integers(0, 2)])
            total = np.exp(lm.next_log_probs(state)).sum()
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_positivity(self):
        lm = train_ngram(["ab"], "ab", order=2)
        for ctx_char in ["a", "b"]:
            state = lm.advance(lm.initial_state(), ctx_char)
            assert np.all(np.isfinite(lm.next_log_probs(state)))

    def test_backoff_only_on_unseen_context(self):
        lm = train_ngram(["ab"], "ab", order=3)
        # ("b", "a") never trained; backs off to ("a",) then scores b
        state = lm.advance(lm.advance(lm.initial_state(), "b"), "a")
        direct = lm.advance(lm.initial_state(), "a")
        assert np.array_equal(lm.next_log_probs(state), lm.next_log_probs(direct))

    def test_sequence_log_prob_sums_steps(self):
        lm = train_ngram(["abab"], "ab", order=2)
        total = lm.sequence_log_prob("ab", include_eos=True)
        state = lm.initial_state()
        expected = 0.0
        for ch in "ab":
            lp, state = lm.score_and_advance(state, ch)
            expected += lp
        expected += lm.log_prob(state, EOS)
        assert total == pytest.approx(expected)


class TestSerialization:
    def _roundtrip(self, lm):
        buf = io.StringIO()
        save_ngram(lm, buf)
        return buf.getvalue()

    def test_save_load_save_byte_identical(self):
        lm = train_ngram(["the cat", "the bat"], "abcehst ", order=3)
        first = self._roundtrip(lm)
        reloaded = load_ngram(io.StringIO(first))
        assert self._roundtrip(reloaded) == first

    def test_loaded_model_scores_identically(self):
        lm = train_ngram(["abab"], "ab", order=2)
        reloaded = load_ngram(io.StringIO(self._roundtrip(lm)))
        state = reloaded.advance(reloaded.initial_state(), "a")
        assert math.exp(reloaded.log_prob(state, "b")) == pytest.approx(0.6)

    def test_path_roundtrip(self, tmp_path):
        lm = train_ngram(["abc cab"], "abc ", order=2)
        path = tmp_path / "model.nglm"
        save_ngram(lm, path)
        reloaded = load_ngram(path)
        assert reloaded.order == lm.order
        assert self._roundtrip(reloaded) == self._roundtrip(lm)

    def test_load_builds_the_table_and_leaves_the_automaton(self, tmp_path):
        path = tmp_path / "model.nglm"
        save_ngram(train_ngram(["abc cab"], "abc ", order=3), path)
        lm = load_ngram(path)
        assert "_table" in vars(lm)
        assert "_automaton" not in vars(lm)  # built at first use, not by the load

    def test_each_load_reads_the_file(self, tmp_path):
        # a file rewritten between two loads gives the new model: no load
        # keeps anything for the next
        path = tmp_path / "model.nglm"
        first, second = train_ngram(["abab"], "ab", order=2), train_ngram(["bbba"], "ab", order=2)
        save_ngram(first, path)
        assert self._roundtrip(load_ngram(path)) == self._roundtrip(first)
        save_ngram(second, path)
        reloaded = load_ngram(path)
        assert self._roundtrip(reloaded) == self._roundtrip(second) != self._roundtrip(first)
        for text in ["", "ab", "bba"]:
            assert (reloaded.sequence_log_prob(text, include_eos=True)
                    == second.sequence_log_prob(text, include_eos=True))

    @pytest.mark.parametrize("alphabet, message", [
        ("aba", "alphabet characters must be distinct"),
        ("a\tb", "tab/newline are not valid alphabet characters"),
        ("ab\r", "tab/newline are not valid alphabet characters"),
        ("", "header is missing the alphabet"),
    ], ids=["repeated", "tab", "cr", "empty"])
    def test_bad_alphabet_is_a_fault_of_line_1(self, alphabet, message):
        # named before the body is read, so before its bad line 2
        with pytest.raises(ParseError) as err:
            load_ngram(io.StringIO(f"NGLM v1 2 1.0 {alphabet}\nbad\n"))
        assert (err.value.line, str(err.value)) == (1, f"line 1: {message}")

    def test_truncated_file_is_parse_error(self):
        lm = train_ngram(["abab"], "ab", order=2)
        text = self._roundtrip(lm)
        broken = text[: text.rfind("\t")]  # cut the last count field
        with pytest.raises(ParseError):
            load_ngram(io.StringIO(broken))

    def test_bad_header(self):
        with pytest.raises(ParseError):
            load_ngram(io.StringIO("NGLM v2 2 1.0 ab\n"))

    def test_bad_count(self):
        with pytest.raises(ParseError) as err:
            load_ngram(io.StringIO("NGLM v1 2 1.0 ab\na\tb\tmany\n"))
        assert err.value.line == 2

    def test_unknown_char_field(self):
        with pytest.raises(ParseError):
            load_ngram(io.StringIO("NGLM v1 2 1.0 ab\n\tz\t3\n"))

    @pytest.mark.parametrize("text", [
        "NGLM v1 2 inf ab\n\ta\t1\n",
        "NGLM v1 2 nan ab\n\ta\t1\n",
        f"NGLM v1 2 1.0 ab\n\ta\t1{'0' * 400}\n",
        f"NGLM v1 2 1.0 ab\n\ta\t{10**308}\n\tb\t{10**308}\n",
    ], ids=["k-inf", "k-nan", "count-1e400", "total-2e308"])
    def test_model_past_the_float_range_is_parse_error(self, text):
        with pytest.raises(ParseError):
            load_ngram(io.StringIO(text))

    def test_alphabet_with_space_survives(self):
        lm = train_ngram(["a b"], "ab ", order=2)
        reloaded = load_ngram(io.StringIO(self._roundtrip(lm)))
        assert reloaded.symbols == "ab "


class TestConstruction:
    def test_requires_empty_context(self):
        with pytest.raises(ValidationError):
            NgramLm("ab", 2, 1.0, {("a",): {"b": 1}})

    def test_rejects_bad_order(self):
        with pytest.raises(ValidationError):
            NgramLm("ab", 0, 1.0, {(): {"a": 1}})

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValidationError):
            train_ngram(["ab"], "ab", order=2, k=0.0)

    # k = inf gave all-NaN rows; 1e308 * 3 overflows every denominator
    @pytest.mark.parametrize("k", [math.inf, math.nan, 1e308])
    def test_rejects_k_that_is_not_finite_or_overflows(self, k):
        with pytest.raises(ValidationError):
            NgramLm("ab", 1, k, {(): {"a": 1}})

    @pytest.mark.parametrize("dist", [{"a": 10**400}, {"a": 10**308, "b": 10**308}],
                             ids=["count-1e400", "total-2e308"])
    def test_rejects_counts_that_overflow_a_float(self, dist):
        with pytest.raises(ValidationError, match="overflow a float"):
            NgramLm("ab", 1, 1.0, {(): dist})

    def test_bool_and_numpy_counts_are_the_ints_they_are(self):
        lm = NgramLm("ab", 1, 1.0, {(): {"a": True, "b": np.int64(3)}})
        ints = NgramLm("ab", 1, 1.0, {(): {"a": 1, "b": 3}})
        assert saved(lm) == saved(ints) == "NGLM v1 1 1.0 ab\n\ta\t1\n\tb\t3\n"
        assert np.array_equal(lm.next_log_probs(0), ints.next_log_probs(0))

    def test_saved_text_ignores_later_changes_to_the_counts(self):
        counts = {(): {"a": 5, "b": 1}}
        lm = NgramLm("ab", 1, 1.0, counts)
        counts[()]["a"] = 50
        counts[("a",)] = {"b": 2}
        assert saved(lm) == "NGLM v1 1 1.0 ab\n\ta\t5\n\tb\t1\n"

    @pytest.mark.parametrize("counts,message", [
        ({(): {"a": 1}, ("a", "b"): {"a": 1}}, "context ('a', 'b') too long for order 2"),
        ({(): {"a": 1, "b": 0}}, "count for () -> 'b' must be positive"),
        ({(): {"a": 1}, ("b",): {"a": -2}}, "count for ('b',) -> 'a' must be positive"),
        ({(): {"a": 1}, ("a",): {}}, "context ('a',) has no counts"),
        # what the reader rejects: a context outside the alphabet, a count
        # that is not an int, whole or not, and one context given twice
        ({(): {"a": 1}, ("z",): {"a": 1}}, "context ('z',) uses characters outside the alphabet"),
        ({(): {"a": 1}, (EOS,): {"a": 1}},
         "context ('</s>',) uses characters outside the alphabet"),
        ({(): {"a": 0.5}}, "count for () -> 'a' must be an int, got 0.5"),
        ({(): {"a": 1, "b": 2.0}}, "count for () -> 'b' must be an int, got 2.0"),
        ({(): {"a": 1.0, "b": math.inf}}, "count for () -> 'a' must be an int, got 1.0"),
        ({(): {"a": 1}, ("a",): {"a": 1}, "a": {"b": 1}}, "counts give a context twice"),
    ], ids=["context-too-long", "zero-count", "negative-count", "empty-distribution",
            "context-z", "context-eos", "count-0.5", "count-2.0", "count-inf",
            "context-twice"])
    def test_rejects_bad_contexts_and_counts(self, counts, message):
        with pytest.raises(ValidationError) as exc:
            NgramLm("ab", 2, 1.0, counts)
        assert str(exc.value) == message

    def test_counts_past_2_53_sum_exactly(self):
        # 2**53 + 1 has no float; the total must be the int sum, rounded once
        lm = NgramLm("ab", 1, 1.0, {(): {"a": 2**53 + 1, "b": 2**53 + 1}})
        denom = (2**54 + 2) + 3.0
        expected = math.log(1.0 + (2**53 + 1)) - math.log(denom)
        assert lm.next_log_probs(lm.initial_state())[0] == expected

    def test_advance_past_eos_falls_back(self):
        lm = train_ngram(["ab"], "ab", order=2)
        state = lm.advance(lm.initial_state(), EOS)
        # contexts never contain EOS, so scoring backs off to the empty context
        assert np.array_equal(
            lm.next_log_probs(state), lm.next_log_probs(lm.initial_state())
        )
