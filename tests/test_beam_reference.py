"""The numpy beam step against the loop reference in reference_beam.py: every
beam (prefixes, both buckets, LM state and LM log-probability, order) must be
the same bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamctc.beam as beam_module
from streamctc import (
    Alphabet,
    Beam,
    BeamConfig,
    CharLm,
    EmissionMatrix,
    Hypothesis,
    SimConfig,
    StreamingDecoder,
    ValidationError,
    beam_decode,
    beam_init,
    beam_step,
    normalized_score,
    simulate,
    train_ngram,
)
from streamctc.cli import DEFAULT_ALPHABET

from reference_beam import reference_beam_step

SMALL = Alphabet("abc ")
SMALL_LM = train_ngram(["ab ba", "abc cab", "a b c", "aa bb cc"], SMALL.symbols, order=3)
WIDE = Alphabet(DEFAULT_ALPHABET)
WIDE_LM = train_ngram(["the cat sat on the mat", "a dog ate the hat"], WIDE.symbols, order=3)


class NoCLm(CharLm):
    """Gives 'c' zero probability (log -inf) and spreads the rest evenly."""

    def initial_state(self):
        return ""

    def next_log_probs(self, state):
        vec = np.full(self.vocab_size, -np.log(self.vocab_size - 1))
        vec[self.index_of("c")] = -np.inf
        return vec

    def advance(self, state, ch):
        return state + ch


class NoALm(NoCLm):
    """Gives 'a' zero probability (log -inf) and spreads the rest evenly."""

    def next_log_probs(self, state):
        vec = np.full(self.vocab_size, -np.log(self.vocab_size - 1))
        vec[self.index_of("a")] = -np.inf
        return vec


class BadALm(NoCLm):
    """Spreads its mass evenly but gives 'a' the log-probability ``value``."""

    def __init__(self, symbols, value):
        super().__init__(symbols)
        self.value = value

    def next_log_probs(self, state):
        vec = np.full(self.vocab_size, -np.log(self.vocab_size))
        vec[self.index_of("a")] = self.value
        return vec


def snapshot(beam):
    """Everything a beam holds, with floats as hex so that -0.0 != 0.0."""
    return beam.frame_index, [
        (h.prefix, h.log_pb.hex(), h.log_pnb.hex(), h.lm_state, h.lm_logprob.hex())
        for h in beam.hypotheses
    ]


def assert_parents(beam):
    """The beam's carried parent rows are those its spelled prefixes give:
    the row holding the prefix less its last character, or -1."""
    prefixes = [beam._prefix(r) for r in range(len(beam))]
    row_of = {p: r for r, p in enumerate(prefixes)}
    assert len(row_of) == len(prefixes)
    assert beam._up.tolist() == [row_of.get(p[:-1], -1) if p else -1 for p in prefixes]


def assert_parent_tails(beam):
    """Each row's carried parent tail is the tail (the characters after the
    last full chunk) of its spelled prefix less the last character, or None
    for the empty prefix."""
    chunk = beam_module._CHUNK
    parents = [beam._prefix(r)[:-1] if beam._length[r] else None for r in range(len(beam))]
    assert beam._up_tail.tolist() == [
        None if p is None else p[len(p) // chunk * chunk:] for p in parents]


def slots(beam):
    """The object each slot of ``beam`` holds, with an array's bytes (for an
    object array, the identities of its elements)."""
    held = [getattr(beam, name) for name in Beam.__slots__]
    return held, [v.tobytes() if isinstance(v, np.ndarray) else None for v in held]


def frame_of(row):
    """The checked frame that the package's readers make of a checked row,
    here as the file reader does, from a block."""
    frame, = beam_module._log_frames(np.asarray(row, dtype=np.float64)[None])
    return frame


def run_both(alphabet, rows, config, lm, beam=None):
    """Step both implementations from the same beam (``beam``, or the initial
    one) on every row and compare; returns the beams before each step.  The
    step also takes each row as a checked frame, to the same beam bit for
    bit.  A collapse must happen in both, by either route."""
    beam = beam_init(alphabet, config, lm) if beam is None else beam
    seen = []
    for row in rows:
        seen.append(beam)
        try:
            want = reference_beam_step(beam, row, config, lm)
        except ValidationError as exc:
            for frame in (row, frame_of(row)):
                with pytest.raises(ValidationError, match="collapsed"):
                    beam_step(beam, frame, config, lm)
            assert "collapsed" in str(exc)
            break
        got = beam_step(beam, row, config, lm)
        assert snapshot(got) == snapshot(want)
        assert snapshot(beam_step(beam, frame_of(row), config, lm)) == snapshot(got)
        assert got.best == got.hypotheses[0]  # row 0 is the best
        assert_parents(got)
        beam = got
    return seen


def make_row(kind: str, seed: int, size: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    row = np.zeros(size)
    if kind == "uniform":
        row[:] = 1.0 / size
    elif kind == "one-hot":
        row[rng.integers(size)] = 1.0
    elif kind == "two-hot":
        i, j = rng.choice(size, 2, replace=False)
        row[i] = p = float(rng.choice([0.5, 0.25, rng.random()]))
        row[j] = 1.0 - p
    else:  # Dirichlet over a random subset, zeros elsewhere
        support = rng.random(size) < 0.6
        support[rng.integers(size)] = True
        row[support] = rng.dirichlet(np.ones(int(support.sum())))
    return row


rows_strategy = st.lists(
    st.tuples(st.sampled_from(["uniform", "one-hot", "two-hot", "zeros"]),
              st.integers(0, 2**32 - 1)),
    min_size=1, max_size=10,
)


class TestMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(rows_strategy,
           st.sampled_from([1, 2, 8, 100]),
           st.sampled_from([0.0, 0.5]),
           st.sampled_from([0.0, 0.1]),
           st.booleans())
    def test_fuzzed_rows(self, kinds, width, alpha, beta, with_lm):
        rows = [make_row(kind, seed, SMALL.size) for kind, seed in kinds]
        config = BeamConfig(width=width, alpha=alpha, beta=beta)
        run_both(SMALL, rows, config, SMALL_LM if with_lm else None)

    @pytest.mark.parametrize("width", [1, 2, 8, 100])
    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.5, 0.1)])
    def test_uniform_rows_tie_at_the_cut(self, width, alpha, beta):
        config = BeamConfig(width=width, alpha=alpha, beta=beta)
        # the first row puts no mass on the blank, so every extension ties
        no_blank = np.append(np.full(SMALL.size - 1, 1.0 / (SMALL.size - 1)), 0.0)
        rows = [no_blank] + [np.full(SMALL.size, 1.0 / SMALL.size)] * 5
        seen = run_both(SMALL, rows, config, None)
        # the candidates of some step tie across the W-th place
        straddles = 0
        for beam, row in zip(seen, rows):
            full = reference_beam_step(beam, row, BeamConfig(10**6, alpha, beta))
            ranked = [normalized_score(h.log_prob, len(h.prefix), beta)
                      for h in full.hypotheses]
            if len(ranked) > width and ranked[width - 1] == ranked[width]:
                straddles += 1
        assert straddles

    @pytest.mark.parametrize("width", [2, 8, 100])
    def test_extension_equal_to_existing_prefix(self, width):
        config = BeamConfig(width=width, alpha=0.5, beta=0.1)
        rows = [make_row("zeros", seed, SMALL.size) for seed in range(12)]
        seen = run_both(SMALL, rows, config, SMALL_LM)
        prefixes = [{h.prefix for h in beam.hypotheses} for beam in seen]
        assert any(p and p[:-1] in ps for ps in prefixes for p in ps)

    @pytest.mark.parametrize("with_lm", [False, True])
    def test_simulated_utterance_at_cli_defaults(self, with_lm):
        em = simulate("the cat ate", WIDE, SimConfig(peak_prob=0.5, noise_seed=7))
        config = BeamConfig(width=100, alpha=0.5 if with_lm else 0.0, beta=0.1)
        seen = run_both(WIDE, em.probs, config, WIDE_LM if with_lm else None)
        assert len(seen) == em.num_frames

    def test_lm_over_the_alphabet_in_another_order(self):
        lm = train_ngram(["ab ba", "abc cab", "a b c"], " cba", order=3)
        rows = [make_row("zeros", seed, SMALL.size) for seed in range(10)]
        run_both(SMALL, rows, BeamConfig(width=8, alpha=0.5, beta=0.1), lm)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_lm_with_zero_probability_character(self, alpha):
        config = BeamConfig(width=8, alpha=alpha, beta=0.1)
        rows = [make_row("zeros", seed, SMALL.size) for seed in range(8)]
        run_both(SMALL, rows, config, NoCLm(SMALL.symbols))


class TestPrefixNodes:
    """Prefixes are chains of shared chunk nodes plus a tail string, and a
    returning parent is found again by its tail.  Chunks of one to three
    characters make every path through the nodes run on short prefixes; with
    chunks of one every tail is empty, so only the check on the nodes tells
    a parent from any other extension.  The colliding cases start from
    prefixes that differ only in their first chunk, so that at every chunk
    size the tails meet across different nodes."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 64])
    @pytest.mark.parametrize("colliding", [False, True])
    def test_beams_match_the_reference(self, monkeypatch, chunk, colliding):
        monkeypatch.setattr(beam_module, "_CHUNK", chunk)
        if colliding:
            self.check_colliding_tails(chunk)
            return
        for seed in range(4):
            rows = [make_row(kind, seed * 31 + i, SMALL.size)
                    for i, kind in enumerate(["zeros", "two-hot", "zeros", "uniform"] * 3)]
            run_both(SMALL, rows, BeamConfig(width=8, alpha=0.5, beta=0.1), SMALL_LM)
        # uniform rows: whole groups of prefixes tie and are ordered by spelling
        uniform = [np.append(np.full(SMALL.size - 1, 1.0 / (SMALL.size - 1)), 0.0)]
        run_both(SMALL, uniform + [np.full(SMALL.size, 1.0 / SMALL.size)] * 5,
                 BeamConfig(width=8, alpha=0.0, beta=0.1), None)
        em = simulate("the cat ate", WIDE, SimConfig(peak_prob=0.5, noise_seed=7))
        seen = run_both(WIDE, em.probs, BeamConfig(width=100, alpha=0.5, beta=0.1), WIDE_LM)
        # a beam rebuilt from its hypotheses steps to the same beam
        beam, row = seen[-1], em.probs[-1]
        config = BeamConfig(width=100, alpha=0.5, beta=0.1)
        rebuilt = Beam(WIDE, beam.hypotheses, beam.frame_index)
        assert snapshot(beam_step(rebuilt, row, config, WIDE_LM)) == \
            snapshot(beam_step(beam, row, config, WIDE_LM))

    def check_colliding_tails(self, chunk):
        """From a beam of ``c * chunk + s`` for every symbol c and every s of
        "ba", "ab", "abc " and "c": each "ab" + "c" returns as the parent of
        its own "abc " alone, beside three extensions with equal tails and
        other first chunks; then "abc" + " " merges into "abc "."""
        returns = [[0.05, 0.05, 0.4, 0.05, 0.45], [0.05, 0.05, 0.05, 0.4, 0.45]]
        for lm, alpha in ((None, 0.0), (SMALL_LM, 0.5)):
            def state(prefix):
                if lm is None:
                    return None
                s = lm.initial_state()
                for ch in prefix:
                    s = lm.advance(s, ch)
                return s
            prefixes = [c * chunk + s for c in SMALL.symbols for s in ("ba", "ab", "abc ", "c")]
            beam = Beam(SMALL, [Hypothesis(p, -1.1, -2.2, state(p), 0.0) for p in prefixes])
            assert (beam._up == -1).all()
            rows = returns + [make_row(kind, 5 + i, SMALL.size)
                              for i, kind in enumerate(["zeros", "two-hot", "uniform"] * 2)]
            seen = run_both(SMALL, rows, BeamConfig(width=100, alpha=alpha, beta=0.1), lm,
                            beam)
            first = seen[1]
            spelled = [first._prefix(r) for r in range(len(first))]
            for c in SMALL.symbols:
                assert first._up[spelled.index(c * chunk + "abc ")] == \
                    spelled.index(c * chunk + "abc")

    def test_ties_between_prefixes_that_part_early(self, monkeypatch):
        monkeypatch.setattr(beam_module, "_CHUNK", 1)
        beam = Beam(SMALL, [Hypothesis(p, -1.0, -2.0, None, 0.0)
                            for p in ("cab", "bca", "abc", "ca")])
        config = BeamConfig(width=2, alpha=0.0, beta=0.0)
        row = [0.1, 0.1, 0.1, 0.1, 0.6]
        got = beam_step(beam, row, config)
        assert snapshot(got) == snapshot(reference_beam_step(beam, row, config))
        # "ca" + "b" merges into "cab"; "abc" and "bca" tie for the last place
        assert [h.prefix for h in got.hypotheses] == ["cab", "abc"]


class TestCarriedParents:
    """A beam carries, for each row, the row whose prefix is its own less the
    last character, and a step updates that relation from its cut."""

    ABCD = Alphabet("abcd")

    @pytest.mark.parametrize("chunk", [1, 64])
    @pytest.mark.parametrize("colliding", [False, True])
    def test_parent_found_among_new_extensions(self, monkeypatch, chunk, colliding):
        monkeypatch.setattr(beam_module, "_CHUNK", chunk)
        if not colliding:
            self.check_return("", ["ba", "ab", "abcd", "c"])
        else:  # "d" * 64 + "abcd" has the parent tail of the extensions
            # "a" * 64 + "abc" and "b" * 64 + "abc" (at chunk 64 "abc", at chunk 1
            # ""), but neither is its parent
            a = "a" * 64
            self.check_return(a, [a + "ba", a + "ab", a + "abcd", a + "c", "b" * 64 + "ab",
                                  "d" * 64 + "abcd"])

    def check_return(self, a, prefixes):
        """Two steps from a beam of ``prefixes``, in which ``a + "ab"`` gains a
        "c" and so becomes the parent of ``a + "abcd"``, which then absorbs
        ``a + "abc" + "d"``."""
        beam = Beam(self.ABCD, [Hypothesis(p, -1.1, -2.2, None, 0.0) for p in prefixes])
        assert (beam._up == -1).all()  # a + "abcd" has no parent in the beam
        config = BeamConfig(width=100, alpha=0.0, beta=0.0)
        stepped = []
        for row in ([0.05, 0.05, 0.4, 0.05, 0.45], [0.05, 0.05, 0.05, 0.4, 0.45]):
            got = beam_step(beam, row, config)
            assert snapshot(got) == snapshot(reference_beam_step(beam, row, config))
            assert_parents(got)
            assert_parent_tails(got)
            stepped.append(got)
            beam = got
        first = stepped[0]
        spelled = [first._prefix(r) for r in range(len(first))]
        assert first._up[spelled.index(a + "abcd")] == spelled.index(a + "abc")
        assert a + "abcd" in [h.prefix for h in stepped[1].hypotheses]

    @settings(max_examples=100, deadline=None)
    @given(rows_strategy, st.sampled_from([1, 2, 8, 100]), st.sampled_from([1, 2, 3, 64]),
           st.booleans())
    def test_parent_tail_is_the_tail_of_the_prefix_less_its_last(
            self, kinds, width, chunk, with_lm):
        # on stepped beams and on beams rebuilt from their hypotheses
        config = BeamConfig(width=width, alpha=0.5 if with_lm else 0.0, beta=0.1)
        lm = SMALL_LM if with_lm else None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(beam_module, "_CHUNK", chunk)
            beam = beam_init(SMALL, config, lm)
            assert_parent_tails(beam)
            for kind, seed in kinds:
                try:
                    beam = beam_step(beam, make_row(kind, seed, SMALL.size), config, lm)
                except ValidationError:  # collapsed
                    break
                for built in (beam, Beam(SMALL, beam.hypotheses, beam.frame_index)):
                    assert_parents(built)
                    assert_parent_tails(built)

    def test_repeated_prefix_is_rejected(self):
        hyps = [Hypothesis("a", -1.0, -2.0, None, 0.0), Hypothesis("a", -1.5, -2.5, None, 0.0)]
        with pytest.raises(ValidationError, match="beam holds the prefix 'a' twice"):
            Beam(Alphabet("ab"), hyps)


class TestInputBeamUnchanged:
    """``beam_step`` writes nothing to the beam it steps: after the step each
    slot holds the same object, and each array the same bytes."""

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    @pytest.mark.parametrize("with_lm", [False, True])
    def test_every_slot_unchanged(self, beta, with_lm):
        em = simulate("the cat ate", WIDE, SimConfig(peak_prob=0.5, noise_seed=7))
        config = BeamConfig(width=8, alpha=0.5 if with_lm else 0.0, beta=beta)
        lm = WIDE_LM if with_lm else None
        beam = beam_init(WIDE, config, lm)
        for row in em.probs:
            objects, data = slots(beam)
            stepped = beam_step(beam, row, config, lm)
            assert snapshot(beam_step(beam, row, config, lm)) == snapshot(stepped)
            now_objects, now_data = slots(beam)
            for name, before, now in zip(Beam.__slots__, objects, now_objects):
                assert now is before, name
            assert now_data == data
            beam = stepped


class TestBeamCollapse:
    """All of the row's mass on 'a', which the LM rules out, and none on the
    blank: no prefix keeps any probability, so the search cannot go on."""

    AB = Alphabet("ab")
    ROW = [1.0, 0.0, 0.0]
    COLLAPSED = "beam collapsed: the emission row assigns no mass to any reachable prefix"

    @pytest.mark.parametrize("width", [1, 100])
    def test_beam_step_and_reference_raise(self, width):
        config = BeamConfig(width=width, alpha=0.5)
        lm = NoALm(self.AB.symbols)
        beam = beam_init(self.AB, config, lm)
        for step in (beam_step, reference_beam_step):
            with pytest.raises(ValidationError) as exc:
                step(beam, self.ROW, config, lm)
            assert str(exc.value) == self.COLLAPSED

    def test_empty_beam_raises(self):
        config = BeamConfig(width=2)
        for step in (beam_step, reference_beam_step):
            with pytest.raises(ValidationError) as exc:
                step(Beam(self.AB, ()), [0.5, 0.25, 0.25], config)
            assert str(exc.value) == self.COLLAPSED

    def test_beam_decode_raises(self):
        em = EmissionMatrix(self.AB, [[0.5, 0.25, 0.25], self.ROW])
        with pytest.raises(ValidationError) as exc:
            beam_decode(em, BeamConfig(alpha=0.5), NoALm(self.AB.symbols))
        assert str(exc.value) == self.COLLAPSED

    def test_push_raises_and_counts_no_frame(self):
        dec = StreamingDecoder(self.AB, BeamConfig(alpha=0.5), lag=1,
                               lm=NoALm(self.AB.symbols))
        dec.push([0.5, 0.25, 0.25])
        with pytest.raises(ValidationError) as exc:
            dec.push(self.ROW)
        assert str(exc.value) == self.COLLAPSED
        assert dec.frames_seen == 1


class TestLmRowCheck:
    """An LM row holding NaN or a log-probability above 0 is rejected once per
    step, whatever the width: it is not pruned away by the cut at one width
    and kept at another."""

    AB = Alphabet("ab")
    ROW = [0.4, 0.3, 0.3]
    MESSAGE = "LM row holds NaN or a log-probability above 0"

    @pytest.mark.parametrize("value", [np.nan, 0.5], ids=["nan", "positive"])
    @pytest.mark.parametrize("width", [1, 2, 100])
    def test_every_route_raises_the_same_error(self, width, value):
        config = BeamConfig(width=width, alpha=0.5)
        lm = BadALm(self.AB.symbols, value)
        with pytest.raises(ValidationError) as exc:
            beam_step(beam_init(self.AB, config, lm), self.ROW, config, lm)
        assert str(exc.value) == self.MESSAGE
        with pytest.raises(ValidationError) as exc:
            beam_decode(EmissionMatrix(self.AB, [self.ROW]), config, lm)
        assert str(exc.value) == self.MESSAGE
        dec = StreamingDecoder(self.AB, config, lag=1, lm=lm)
        with pytest.raises(ValidationError) as exc:
            dec.push(self.ROW)
        assert str(exc.value) == self.MESSAGE
        assert dec.frames_seen == 0


class TestEveryEntryChecksRows:
    """Only the package's readers make checked frames: each public entry
    point still checks every probability row it is handed, with the same
    message as before, and a stream that rejects a row counts no frame."""

    AB = Alphabet("ab")
    GOOD = [0.5, 0.25, 0.25]
    ENTRIES = "emission row entries must be finite and lie in [0, 1]"
    BAD = {
        "nan": ([0.5, np.nan, 0.5], ENTRIES, ENTRIES),
        "inf": ([0.5, np.inf, 0.5], ENTRIES, ENTRIES),
        "negative": ([0.5, -0.25, 0.75], ENTRIES, ENTRIES),
        "above-one": ([1.5, 0.0, 0.0], ENTRIES, ENTRIES),
        "sum": ([0.5, 0.25, 0.125], "emission row sums to 0.875, expected 1",
                "emission row 1 sums to 0.875, expected 1"),
        "shape": ([0.5, 0.5], "emission row has shape (2,), expected (3,)",
                  "emissions must have shape (T, 3), got (2,)"),
    }

    @pytest.mark.parametrize("kind", BAD)
    def test_each_route_rejects_the_row(self, kind):
        row, message, matrix_message = self.BAD[kind]
        config = BeamConfig(width=4, alpha=0.0)
        routes = {
            "beam_step": lambda: beam_step(beam_init(self.AB, config), row, config),
            "beam_decode_rows": lambda: beam_module.beam_decode_rows(
                self.AB, [self.GOOD, row, self.GOOD], config),
        }
        for name, call in routes.items():
            with pytest.raises(ValidationError) as exc:
                call()
            assert str(exc.value) == message, name
        dec = StreamingDecoder(self.AB, config, lag=1)
        first = dec.push(self.GOOD)
        with pytest.raises(ValidationError) as exc:
            dec.push(row)
        assert str(exc.value) == message
        assert dec.frames_seen == 1
        assert dec.push(self.GOOD).frame_index == first.frame_index + 1
        with pytest.raises(ValidationError) as exc:
            EmissionMatrix(self.AB, [self.GOOD, row] if kind != "shape" else row)
        assert str(exc.value) == matrix_message


class TestRankedCut:
    """The cut keeps the ``width`` best entries by (-score, prefix, k), the
    best first, and asks for the prefixes of only the entries that decide a
    tie: those equal to the width-th score or to the best score."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([-np.inf, -2.0, -1.0, -0.5, 0.0]),
                              st.sampled_from(["", "a", "ab", "b", "ba"])),
                    min_size=1, max_size=30),
           st.data())
    def test_keeps_the_best_by_score_then_prefix(self, entries, data):
        width = data.draw(st.integers(1, len(entries)), label="width")
        scores = np.array([score for score, _ in entries])
        prefixes = [prefix for _, prefix in entries]
        order = sorted(range(len(entries)), key=lambda k: (-scores[k], prefixes[k], k))
        kth, best = scores[order[width - 1]], scores[order[0]]
        asked = []

        def prefixes_of(ks):
            asked.extend(ks)
            return [prefixes[k] for k in ks]

        got = beam_module.ranked_cut(scores, width, prefixes_of).tolist()
        assert sorted(got) == sorted(order[:width])
        assert got[0] == order[0]
        assert all(scores[k] == kth or scores[k] == best for k in asked)
