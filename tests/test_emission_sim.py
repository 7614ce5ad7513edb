"""Emission simulator and the bit-exact CTCEM file format."""

import io
import random

import numpy as np
import pytest

from streamctc import (
    Alphabet,
    BeamConfig,
    ParseError,
    SimConfig,
    ValidationError,
    beam_decode,
    cer,
    greedy_decode,
    load_emissions,
    save_emissions,
    simulate,
)
from streamctc.simulate import parse_emission_row


def random_sentence(rng: random.Random, letters: str, n_words: int) -> str:
    words = []
    for _ in range(n_words):
        length = 1 + int(rng.random() * 4)
        words.append("".join(letters[int(rng.random() * len(letters))]
                             for _ in range(length)))
    return " ".join(words)


class TestSimulate:
    def test_certainty_emissions_greedy_decode(self):
        rng = random.Random(0)
        ab = Alphabet("abcdefg ")
        config_seed = 0
        for _ in range(200):
            gt = random_sentence(rng, "abcdefg", 1 + int(rng.random() * 3))
            config_seed += 1
            em = simulate(gt, ab, SimConfig(peak_prob=1.0, noise_seed=config_seed))
            assert greedy_decode(em) == gt

    def test_repeat_gets_blank_separator(self):
        ab = Alphabet("ab")
        em = simulate("aa", ab, SimConfig(peak_prob=0.9, frames_per_char=1.0,
                                          noise_seed=3, blank_fill=False))
        peaks = np.argmax(em.probs, axis=1)
        a, blank = ab.index_of("a"), ab.blank_index
        assert list(peaks) == [a, blank, a]

    def test_deterministic_given_seed(self):
        ab = Alphabet("abc")
        config = SimConfig(peak_prob=0.9, frames_per_char=2.5, noise_seed=7)
        em1 = simulate("abcba", ab, config)
        em2 = simulate("abcba", ab, config)
        assert np.array_equal(em1.probs, em2.probs)

    def test_each_char_has_a_peak_frame(self):
        ab = Alphabet("abc")
        em = simulate("cab", ab, SimConfig(peak_prob=0.9, noise_seed=1))
        peaks = np.argmax(em.probs, axis=1)
        collapsed = [p for i, p in enumerate(peaks) if i == 0 or p != peaks[i - 1]]
        visible = [ab.symbols[p] for p in collapsed if p != ab.blank_index]
        assert "".join(visible) == "cab"

    def test_rejects_out_of_alphabet_char(self):
        with pytest.raises(ValidationError):
            simulate("xyz", Alphabet("ab"), SimConfig())

    def test_rejects_weak_peak(self):
        # uniform over 3 entries is 1/3; a 0.3 peak does not dominate
        with pytest.raises(ValidationError):
            simulate("a", Alphabet("ab"), SimConfig(peak_prob=0.3))

    def test_empty_text(self):
        em = simulate("", Alphabet("ab"), SimConfig(blank_fill=False))
        assert em.num_frames == 0
        assert greedy_decode(em) == ""

    def test_decodability_smoke(self):
        rng = random.Random(5)
        ab = Alphabet("abcdefg ")
        cfg = BeamConfig(width=100, alpha=0.0, beta=0.0)
        edits = total = 0
        for i in range(25):
            gt = random_sentence(rng, "abcdefg", 2)
            em = simulate(gt, ab, SimConfig(peak_prob=0.85, frames_per_char=2.0,
                                            noise_seed=i))
            text, _ = beam_decode(em, cfg)
            edits += cer(gt, text) * len(gt)
            total += len(gt)
        assert edits / total < 0.05


class TestEmissionFileFormat:
    def _roundtrip_text(self, em) -> str:
        buf = io.StringIO()
        save_emissions(em, buf)
        return buf.getvalue()

    def test_save_load_exact(self):
        ab = Alphabet("ab ")
        em = simulate("a b", ab, SimConfig(noise_seed=2))
        text = self._roundtrip_text(em)
        reloaded = load_emissions(io.StringIO(text))
        assert reloaded.alphabet == em.alphabet
        assert np.array_equal(reloaded.probs, em.probs)

    def test_save_load_save_byte_identical(self):
        ab = Alphabet("abc")
        em = simulate("cabba", ab, SimConfig(peak_prob=0.87, noise_seed=9))
        first = self._roundtrip_text(em)
        assert self._roundtrip_text(load_emissions(io.StringIO(first))) == first

    def test_empty_matrix_roundtrip(self):
        from streamctc import EmissionMatrix

        em = EmissionMatrix(Alphabet("ab"), [])
        reloaded = load_emissions(io.StringIO(self._roundtrip_text(em)))
        assert reloaded.num_frames == 0

    def test_path_roundtrip(self, tmp_path):
        ab = Alphabet("ab")
        em = simulate("ab", ab, SimConfig(noise_seed=4))
        path = tmp_path / "sample.em"
        save_emissions(em, path)
        assert np.array_equal(load_emissions(path).probs, em.probs)

    def test_header_row_count_mismatch(self):
        text = "CTCEM v1 3 2 a-\n" + "0.5 0.5\n" * 2
        with pytest.raises(ParseError) as err:
            load_emissions(io.StringIO(text))
        assert "3" in str(err.value) and "2" in str(err.value)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            load_emissions(io.StringIO("EMISSIONS 1 2 a-\n0.5 0.5\n"))

    def test_header_width_alphabet_mismatch(self):
        with pytest.raises(ParseError):
            load_emissions(io.StringIO("CTCEM v1 1 3 a-\n0.5 0.5\n"))

    def test_non_stochastic_row_is_validation_error(self):
        text = "CTCEM v1 1 2 a-\n0.9 0.5\n"
        with pytest.raises(ValidationError):
            load_emissions(io.StringIO(text))

    @pytest.mark.parametrize("bad", ["nan 0.5 0.5", "inf 0 0", "-0.5 0.5 1.0"])
    def test_nonfinite_or_negative_row_is_validation_error(self, bad):
        with pytest.raises(ValidationError):
            parse_emission_row(bad, 3, 2)
        with pytest.raises(ValidationError):
            load_emissions(io.StringIO(f"CTCEM v1 1 3 ab-\n{bad}\n"))

    def test_malformed_float_names_line(self):
        text = "CTCEM v1 1 2 a-\n0.5 half\n"
        with pytest.raises(ParseError) as err:
            load_emissions(io.StringIO(text))
        assert err.value.line == 2

    def test_alphabet_with_space(self):
        ab = Alphabet("ab ")
        em = simulate("a b", ab, SimConfig(noise_seed=1))
        reloaded = load_emissions(io.StringIO(self._roundtrip_text(em)))
        assert reloaded.alphabet.symbols == "ab "


class TestSimConfig:
    def test_rejects_bad_peak(self):
        with pytest.raises(ValidationError):
            SimConfig(peak_prob=0.0)
        with pytest.raises(ValidationError):
            SimConfig(peak_prob=1.5)

    def test_rejects_bad_duration(self):
        with pytest.raises(ValidationError):
            SimConfig(frames_per_char=0.5)
