"""Edit distance, WER/CER, and the substitution confusion matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctc import metrics
from streamctc import (
    ValidationError,
    cer,
    confusion_matrix,
    edit_distance,
    wer,
)
from streamctc.metrics import corpus_error_rates, levenshtein

texts = st.text(alphabet="abcd ", max_size=10)


class TestEditDistance:
    def test_identity(self):
        al = edit_distance("abc", "abc")
        assert al.distance == 0
        assert all(op.kind == "match" for op in al.operations)

    def test_empty_reference(self):
        al = edit_distance("", "abc")
        assert al.distance == 3
        assert all(op.kind == "insert" for op in al.operations)

    def test_single_substitution(self):
        al = edit_distance("abc", "axc")
        assert al.distance == 1
        kinds = [op.kind for op in al.operations]
        assert kinds == ["match", "substitute", "match"]
        sub = al.operations[1]
        assert (sub.ref, sub.hyp) == ("b", "x")

    def test_operations_replay_reference_into_hypothesis(self):
        ref, hyp = "kitten", "sitting"
        al = edit_distance(ref, hyp)
        assert al.distance == 3
        rebuilt = []
        for op in al.operations:
            if op.kind in ("match", "substitute", "insert"):
                rebuilt.append(op.hyp)
        assert "".join(rebuilt) == hyp
        consumed = [op.ref for op in al.operations if op.kind in ("match", "substitute", "delete")]
        assert "".join(consumed) == ref

    def test_distance_counts_non_matches(self):
        al = edit_distance("abcd", "axd")
        assert al.distance == sum(op.kind != "match" for op in al.operations)

    @given(texts, texts)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b).distance == edit_distance(b, a).distance

    @given(texts, texts, texts)
    def test_triangle_inequality(self, a, b, c):
        ab = edit_distance(a, b).distance
        bc = edit_distance(b, c).distance
        ac = edit_distance(a, c).distance
        assert ac <= ab + bc

    @given(texts, texts)
    def test_zero_iff_equal(self, a, b):
        assert (edit_distance(a, b).distance == 0) == (a == b)

    def test_works_on_token_lists(self):
        assert edit_distance(["to", "be"], ["to", "see"]).distance == 1


class TestLevenshtein:
    @settings(max_examples=300, deadline=None)
    @given(st.text("abc", max_size=12), st.text("abc", max_size=12), st.text("ab", max_size=4))
    def test_trimmed_distance_is_the_edit_distance(self, prev, cur, shared):
        # shared text around both strings makes the common prefix and suffix
        for a, b in [(prev, cur), (shared + prev, shared + cur), (prev + shared, cur + shared),
                     (shared + prev + shared, shared + cur + shared)]:
            assert levenshtein(a, b) == edit_distance(a, b).distance

    @settings(max_examples=300, deadline=None)
    @given(*[st.lists(st.sampled_from(["a", "ab", "b", "ba", ""]), max_size=6)] * 3)
    def test_trimmed_distance_on_word_lists(self, ref, hyp, shared):
        for a, b in [(ref, hyp), (shared + ref + shared, shared + hyp + shared)]:
            assert levenshtein(a, b) == edit_distance(a, b).distance


class TestWerCer:
    @pytest.mark.parametrize("rate,ref,hyp,middle,expected", [
        (cer, "the cat sat", "the bat sat", (["c"], ["b"]), 1 / 11),
        (cer, "abc" * 700, "abc" * 350 + "x" + "abc" * 350, ([], ["x"]), 1 / 2100),
        (wer, "the cat sat on the mat", "the cat ran on the mat", (["sat"], ["ran"]), 1 / 6),
    ], ids=["cer", "cer-2100-chars", "wer"])
    def test_only_the_differing_middle_is_aligned(self, monkeypatch, rate, ref, hyp, middle,
                                                   expected):
        calls = []

        def spy(a, b):
            calls.append((a, b))
            return edit_distance(a, b)

        monkeypatch.setattr(metrics, "edit_distance", spy)
        assert rate(ref, hyp) == expected
        assert calls == [middle]

    def test_spec_sentence(self):
        assert wer("home to an animal", "home you and animal") == 0.5

    def test_identity(self):
        assert wer("we did", "we did") == 0.0
        assert cer("we did", "we did") == 0.0

    def test_single_trailing_insertion(self):
        assert wer("we did a different", "we did a different thing") == 0.25

    def test_empty_reference_raises(self):
        with pytest.raises(ValidationError):
            wer("", "hyp")
        with pytest.raises(ValidationError):
            cer("   ", "hyp")

    def test_empty_hypothesis_is_all_deletions(self):
        assert wer("a b c", "") == 1.0
        assert cer("abc", "") == 1.0

    def test_can_exceed_one(self):
        assert wer("a", "b c d") > 1.0

    @given(texts.filter(lambda t: t.strip()), texts)
    def test_nonnegative(self, ref, hyp):
        assert wer(ref, hyp) >= 0.0
        assert cer(ref, hyp) >= 0.0


class TestCorpusErrorRates:
    def test_sums_edits_over_summed_reference_lengths(self):
        pairs = [("the cat", "the bat"), ("a dog ran home", "a dog ran home"), ("hi", "")]
        # words: 1 + 0 + 1 edits over 2 + 4 + 1; chars: 1 + 0 + 2 over 7 + 14 + 2
        assert corpus_error_rates(pairs) == (2 / 7, 3 / 23)

    @given(texts.filter(str.strip), texts)
    def test_single_pair_equals_wer_and_cer(self, ref, hyp):
        assert corpus_error_rates([(ref, hyp)]) == (wer(ref, hyp), cer(ref, hyp))

    @pytest.mark.parametrize("pairs", [[], [("", "abc"), (" ", "")]])
    def test_no_reference_words_raises(self, pairs):
        with pytest.raises(ValidationError):
            corpus_error_rates(pairs)


class TestConfusionMatrix:
    def test_no_substitutions(self):
        matrix = confusion_matrix([("abc", "abc"), ("a", "ab")])
        assert matrix.counts.sum() == 0
        assert matrix.rates.sum() == 0

    def test_single_pair(self):
        matrix = confusion_matrix([("b", "m")])
        assert matrix.rate("b", "m") == 1.0

    def test_v_confused_with_f(self):
        matrix = confusion_matrix([("vf", "ff"), ("vv", "fv")])
        assert matrix.rate("v", "f") == 1.0

    def test_rows_normalize(self):
        rng = np.random.default_rng(4)
        chars = "abcdef"
        pairs = []
        for _ in range(50):
            ref = "".join(rng.choice(list(chars), size=6))
            hyp = "".join(rng.choice(list(chars), size=6))
            pairs.append((ref, hyp))
        matrix = confusion_matrix(pairs)
        sums = matrix.rates.sum(axis=1)
        for i in range(len(matrix.symbols)):
            if matrix.counts[i].sum():
                assert sums[i] == pytest.approx(1.0, abs=1e-9)
            else:
                assert sums[i] == 0.0

    def test_explicit_symbols(self):
        matrix = confusion_matrix([("ab", "ax")], symbols="abx")
        assert matrix.rate("b", "x") == 1.0

    def test_char_outside_explicit_symbols(self):
        with pytest.raises(ValidationError):
            confusion_matrix([("ab", "az")], symbols="ab")

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValidationError):
            confusion_matrix([])
