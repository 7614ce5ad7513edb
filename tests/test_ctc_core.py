"""Core CTC semantics: collapse, path probabilities, exact oracles, greedy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctc import (
    Alphabet,
    CapacityError,
    EmissionMatrix,
    ValidationError,
    collapse,
    enumerate_transcript_probabilities,
    exact_transcript_probability,
    greedy_decode,
    path_log_probability,
)

from conftest import one_hot_emissions, random_emissions


class TestAlphabet:
    def test_blank_is_last_index(self):
        ab = Alphabet("abc ")
        assert ab.blank_index == 4
        assert ab.size == 5

    def test_index_bijection(self):
        ab = Alphabet("xyz")
        for i, c in enumerate("xyz"):
            assert ab.index_of(c) == i
            assert ab.symbols[i] == c

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            Alphabet("aba")

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Alphabet("")

    def test_unknown_character(self):
        with pytest.raises(ValidationError):
            Alphabet("ab").index_of("z")


class TestEmissionMatrix:
    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValidationError):
            EmissionMatrix(Alphabet("a"), [[0.5, 0.4]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            EmissionMatrix(Alphabet("a"), [[1.5, -0.5]])

    @pytest.mark.parametrize("bad", [
        [float("nan"), 0.5, 0.5],
        [float("inf"), 0.0, 0.0],
        [-0.5, 0.5, 1.0],
    ])
    def test_rejects_nonfinite_and_negative_rows(self, bad):
        with pytest.raises(ValidationError):
            EmissionMatrix(Alphabet("ab"), [[0.2, 0.3, 0.5], bad])

    def test_rejects_wrong_width(self):
        with pytest.raises(ValidationError):
            EmissionMatrix(Alphabet("ab"), [[0.5, 0.5]])

    def test_empty_matrix_allowed(self):
        em = EmissionMatrix(Alphabet("a"), [])
        assert em.num_frames == 0

    def test_tolerates_tiny_row_error(self):
        em = EmissionMatrix(Alphabet("a"), [[0.5 + 1e-8, 0.5]])
        assert em.num_frames == 1

    def test_immutable(self):
        em = EmissionMatrix(Alphabet("a"), [[0.5, 0.5]])
        with pytest.raises(ValueError):
            em.probs[0, 0] = 0.9

    def test_read_only_copy_of_a_list_or_a_read_only_array(self):
        frozen = np.array([[0.5, 0.5], [0.25, 0.75]])
        frozen.flags.writeable = False
        for given in (frozen.tolist(), frozen):
            em = EmissionMatrix(Alphabet("a"), given)
            assert not em.probs.flags.writeable
            assert not np.shares_memory(em.probs, frozen)
            assert np.array_equal(em.probs, frozen)


class TestCollapse:
    def test_blank_separated_repeat(self):
        ab = Alphabet("ab")
        # a, -, a, b, -
        assert collapse([0, 2, 0, 1, 2], ab) == "aab"

    def test_all_blank(self):
        ab = Alphabet("ab")
        assert collapse([2, 2, 2], ab) == ""

    def test_repeat_merging(self):
        ab = Alphabet("ab")
        assert collapse([0, 0, 1, 1], ab) == "ab"

    def test_invalid_index(self):
        with pytest.raises(ValidationError):
            collapse([5], Alphabet("ab"))

    @given(st.text(alphabet="abc", max_size=20))
    def test_idempotent_on_clean_text(self, text):
        # squash adjacent duplicates: the result has no repeats and no blanks,
        # so reading it back through collapse is the identity
        squashed = []
        for c in text:
            if not squashed or squashed[-1] != c:
                squashed.append(c)
        ab = Alphabet("abc")
        path = [ab.index_of(c) for c in squashed]
        assert collapse(path, ab) == "".join(squashed)


class TestPathLogProbability:
    def test_uniform(self):
        em = EmissionMatrix(Alphabet("a"), [[0.5, 0.5], [0.5, 0.5]])
        assert path_log_probability([0, 1], em) == pytest.approx(math.log(0.25))

    def test_one_hot_certainty(self):
        ab = Alphabet("ab")
        em = one_hot_emissions(ab, "a-b")
        assert path_log_probability([0, 2, 1], em) == 0.0

    def test_hand_product(self):
        em = EmissionMatrix(Alphabet("a"), [[0.6, 0.4], [0.5, 0.5], [0.9, 0.1]])
        expected = math.log(0.6 * 0.5 * 0.9)
        assert path_log_probability([0, 1, 0], em) == pytest.approx(expected, rel=1e-12)

    def test_zero_path_is_neg_inf(self):
        ab = Alphabet("ab")
        em = one_hot_emissions(ab, "a")
        assert path_log_probability([1], em) == float("-inf")

    def test_length_mismatch(self):
        em = EmissionMatrix(Alphabet("a"), [[0.5, 0.5]])
        with pytest.raises(ValidationError):
            path_log_probability([0, 0], em)

    @pytest.mark.parametrize("label, message", [
        (0.0, "path labels must be integers, got 0.0"),
        ("0", "path labels must be integers, got '0'"),
        (2, "label index 2 out of range for alphabet"),
        (-1, "label index -1 out of range for alphabet"),
    ])
    def test_bad_label(self, label, message):
        em = EmissionMatrix(Alphabet("a"), [[0.5, 0.5]])
        with pytest.raises(ValidationError, match=f"^{message}$"):
            path_log_probability([label], em)


class TestExactTranscriptProbability:
    def test_uniform_two_frames(self):
        em = EmissionMatrix(Alphabet("a"), [[0.5, 0.5], [0.5, 0.5]])
        for method in ("forward", "enumeration"):
            assert exact_transcript_probability(em, "a", method) == pytest.approx(0.75)
            assert exact_transcript_probability(em, "", method) == pytest.approx(0.25)

    def test_impossible_repeat_returns_zero(self):
        em = EmissionMatrix(Alphabet("a"), [[0.5, 0.5]])
        assert exact_transcript_probability(em, "aa") == 0.0
        assert exact_transcript_probability(em, "aa", "enumeration") == 0.0

    def test_one_hot_spelling(self):
        ab = Alphabet("ab")
        em = one_hot_emissions(ab, "a-b")
        assert exact_transcript_probability(em, "ab") == pytest.approx(1.0)

    def test_transcript_outside_alphabet(self):
        em = EmissionMatrix(Alphabet("a"), [[0.5, 0.5]])
        with pytest.raises(ValidationError):
            exact_transcript_probability(em, "z")

    def test_unknown_method(self):
        em = EmissionMatrix(Alphabet("a"), [[0.5, 0.5]])
        with pytest.raises(ValidationError, match="^unknown method 'x'$"):
            exact_transcript_probability(em, "a", method="x")

    def test_enumeration_guard(self):
        ab = Alphabet("abcdefghi")  # size 10, 10**8 paths
        em = random_emissions(np.random.default_rng(0), ab, 8)
        with pytest.raises(CapacityError):
            exact_transcript_probability(em, "a", "enumeration")

    def test_empty_matrix(self):
        em = EmissionMatrix(Alphabet("a"), [])
        assert exact_transcript_probability(em, "") == 1.0
        assert exact_transcript_probability(em, "a") == 0.0

    def test_oracles_agree_on_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            ab = Alphabet("ab"[: rng.integers(1, 3)])
            em = random_emissions(rng, ab, int(rng.integers(0, 6)))
            dist = enumerate_transcript_probabilities(em)
            for text, p_enum in dist.items():
                p_fwd = exact_transcript_probability(em, text, "forward")
                assert p_fwd == pytest.approx(p_enum, rel=1e-10)

    def test_marginalization_completeness(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            ab = Alphabet("ab"[: rng.integers(1, 3)])
            em = random_emissions(rng, ab, int(rng.integers(0, 6)))
            total = sum(enumerate_transcript_probabilities(em).values())
            assert total == pytest.approx(1.0, abs=1e-9)


class TestGreedyDecode:
    def test_argmax_then_collapse(self):
        ab = Alphabet("ab")
        em = EmissionMatrix(ab, [
            [0.8, 0.1, 0.1],
            [0.8, 0.1, 0.1],
            [0.1, 0.1, 0.8],
            [0.1, 0.8, 0.1],
        ])
        assert greedy_decode(em) == "ab"

    def test_empty(self):
        assert greedy_decode(EmissionMatrix(Alphabet("a"), [])) == ""

    def test_blank_vs_char(self):
        em = EmissionMatrix(Alphabet("a"), [[0.6, 0.4], [0.4, 0.6]])
        assert greedy_decode(em) == "a"

    def test_tie_breaks_to_lowest_index(self):
        em = EmissionMatrix(Alphabet("ab"), [[0.4, 0.4, 0.2]])
        assert greedy_decode(em) == "a"

    def test_symbol_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        ab = Alphabet("abc")
        em = random_emissions(rng, ab, 12)
        perm = [2, 0, 1]  # visible columns only; blank stays last
        permuted_symbols = "".join(ab.symbols[i] for i in perm)
        cols = perm + [ab.blank_index]
        em2 = EmissionMatrix(Alphabet(permuted_symbols), em.probs[:, cols])
        assert greedy_decode(em2) == greedy_decode(em)
