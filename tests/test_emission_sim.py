"""Emission simulator and the bit-exact CTCEM file format."""

import io
import random
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
from streamctc.ctc import check_rows
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

    def test_different_characters_get_no_separator(self):
        ab = Alphabet("ab")
        em = simulate("abba", ab, SimConfig(peak_prob=0.9, frames_per_char=1.0,
                                            noise_seed=3, blank_fill=False))
        peaks = np.argmax(em.probs, axis=1)
        a, b, blank = ab.index_of("a"), ab.index_of("b"), ab.blank_index
        assert list(peaks) == [a, b, blank, b, a]

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


def parse_row_by_list(line: str, size: int, lineno: int) -> np.ndarray:
    """The row parse written with ``float()`` on every field."""
    fields = line.split(" ")
    if len(fields) != size:
        raise ParseError(f"expected {size} values, got {len(fields)}", line=lineno)
    try:
        row = np.array([float(f) for f in fields])
    except ValueError as exc:
        raise ParseError(f"bad float: {exc}", line=lineno) from exc
    check_rows(row, f"line {lineno}: row")
    return row


def parse_outcome(parse, line: str, size: int):
    """The row's bytes, or the type, message and line of the error."""
    try:
        return parse(line, size, 7).tobytes()
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")


def respellings(text: str):
    """Other spellings of a float field: padded, with an underscore between
    two digits, or in Arabic-Indic digits."""
    return st.sampled_from([text, f"\t{text}", f"{text}\u2003", text.translate(ARABIC_INDIC),
                            re.sub(r"(\d)(\d)", r"\1_\2", text, count=1)])


ODD_FIELDS = st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1e500", "1_0", "1__0",
                              "_1", "0x1", "", " 1.0", "True", "\u0661", "\uff11", "1e-400"])


@st.composite
def emission_lines(draw):
    """(line, size): a row that sums to 1, in fields spelled as ``repr``
    or otherwise, some of them replaced by odd fields or random floats."""
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
    total = sum(weights)
    values = [w / total for w in weights] if total > 0 else [1.0] + weights[1:]
    fields = [draw(respellings(repr(v))) for v in values]
    for i in draw(st.lists(st.integers(0, len(fields) - 1), max_size=2)):
        fields[i] = draw(st.one_of(ODD_FIELDS, st.floats().map(repr)))
    size = draw(st.sampled_from([len(fields), len(fields) + 1]))
    return " ".join(fields), size


class TestRowParse:
    @given(emission_lines())
    @example(("0.25 \t0.25 0.2_5\u2003 \u0660.\u0662\u0665", 4))
    @example(("0.5  0.5", 3))
    @example(("nan 0.5 0.5", 3))
    @example(("0_1 0.5 0.5", 3))
    def test_same_bits_or_same_error_as_float(self, case):
        line, size = case
        assert parse_outcome(parse_emission_row, line, size) \
            == parse_outcome(parse_row_by_list, line, size)

    def test_respelled_fields_give_the_same_row(self):
        row = parse_emission_row("0.25 \t0.25 0.2_5\u2003 \u0660.\u0662\u0665", 4)
        assert row.tobytes() == np.full(4, 0.25).tobytes()


class TestSimConfig:
    def test_rejects_bad_peak(self):
        with pytest.raises(ValidationError):
            SimConfig(peak_prob=0.0)
        with pytest.raises(ValidationError):
            SimConfig(peak_prob=1.5)

    def test_rejects_bad_duration(self):
        with pytest.raises(ValidationError, match="^frames_per_char must be >= 1$"):
            SimConfig(frames_per_char=0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_nonfinite_duration(self, value):
        with pytest.raises(ValidationError, match="^frames_per_char must be finite$"):
            SimConfig(frames_per_char=value)
