"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria are property-based at desk scale: streaming/offline identity,
beam-vs-oracle exactness, receptive-field and length-penalty values, bounded
per-frame latency, the LM fusion flip, metric correctness, seq2seq beam
exactness, simulator decodability, and byte-identical format round-trips.
"""

import io
import itertools
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from streamctc import (
    EOS,
    Alphabet,
    Beam,
    BeamConfig,
    EmissionMatrix,
    S2SConfig,
    SimConfig,
    StreamingDecoder,
    TableScorer,
    UniformLm,
    beam_decode,
    beam_init,
    beam_step,
    cer,
    confusion_matrix,
    edit_distance,
    enumerate_transcript_probabilities,
    exact_transcript_probability,
    length_penalty,
    load_emissions,
    load_ngram,
    load_table_scorer,
    receptive_field,
    s2s_decode,
    save_emissions,
    save_ngram,
    save_table_scorer,
    simulate,
    train_ngram,
    wer,
)

GOLDEN = Path(__file__).parent / "golden"
MASTER_SYMBOLS = "abcdefghijklmnopqrstuvwxyz' "


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _random_corpus(rng: np.random.Generator, symbols: str, lines: int = 4) -> list[str]:
    corpus = []
    for _ in range(lines):
        length = int(rng.integers(3, 12))
        corpus.append("".join(symbols[rng.integers(0, len(symbols))]
                              for _ in range(length)))
    return corpus


def test_online_offline_identity():
    """Streaming final transcript == offline transcript, exact string equality,
    for 200 random matrices x lag in {0,1,5,22} x alpha in {0,0.5}."""
    rng = np.random.default_rng(20240811)
    started = time.perf_counter()
    checked = 0
    for _ in range(200):
        visible = int(rng.integers(1, 29))  # |A|+1 between 2 and 29
        alphabet = Alphabet(MASTER_SYMBOLS[:visible])
        num_frames = int(rng.integers(1, 51))
        em = EmissionMatrix(
            alphabet, rng.dirichlet(np.ones(alphabet.size), size=num_frames)
        )
        lm = train_ngram(_random_corpus(rng, alphabet.symbols), alphabet.symbols,
                         order=2, k=1.0)
        for alpha in (0.0, 0.5):
            config = BeamConfig(width=8, alpha=alpha, beta=0.1)
            offline_text, offline_score = beam_decode(em, config, lm)
            for lag in (0, 1, 5, 22):
                decoder = StreamingDecoder(alphabet, config, lag=lag, lm=lm)
                for row in em.probs:
                    decoder.push(row)
                streamed = decoder.flush()
                assert streamed == offline_text, (
                    f"lag={lag} alpha={alpha}: {streamed!r} != {offline_text!r}"
                )
                assert decoder.best_committed() == (offline_text, offline_score)
                checked += 1
    elapsed = time.perf_counter() - started
    _report(
        "online/offline identity",
        checked == 200 * 2 * 4 and elapsed < 300,
        f"{checked} stream/offline pairs equal, {elapsed:.1f}s",
    )


def test_beam_vs_oracle_exactness():
    """At full width with alpha=0, beta=0 the beam winner equals the
    enumeration argmax; forward DP agrees with enumeration to 1e-10."""
    rng = np.random.default_rng(7331)
    worst_rel = 0.0
    for _ in range(500):
        visible = int(rng.integers(1, 3))  # |A|+1 in {2, 3}
        alphabet = Alphabet("ab"[:visible])
        num_frames = int(rng.integers(1, 7))
        em = EmissionMatrix(
            alphabet, rng.dirichlet(np.ones(alphabet.size), size=num_frames)
        )
        dist = enumerate_transcript_probabilities(em)
        expected = min(dist.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        width = alphabet.size**num_frames
        text, _ = beam_decode(em, BeamConfig(width=width, alpha=0.0, beta=0.0))
        assert text == expected, f"beam {text!r} != oracle {expected!r}"
        for transcript, p_enum in dist.items():
            p_fwd = exact_transcript_probability(em, transcript, "forward")
            rel = abs(p_fwd - p_enum) / max(p_enum, p_fwd, 1e-300)
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-10
    _report("beam-vs-oracle exactness", True,
            f"500 instances, worst oracle disagreement {worst_rel:.2e}")


def test_receptive_field_values():
    total11, future11 = receptive_field([5] * 11)
    total16, future16 = receptive_field([5] * 16)
    _report(
        "receptive-field values",
        future11 == 22 and future16 == 32 and total11 == 45 and total16 == 65,
        f"11x5 -> r={future11}, 16x5 -> r={future16}",
    )


def test_length_penalty_values():
    exact_ones = all(length_penalty(1, beta) == 1.0 for beta in (0.0, 0.6, 0.7))
    deviation = abs(length_penalty(7, 0.7) - 2**0.7)
    _report(
        "length-penalty formula",
        exact_ones and deviation <= 1e-12,
        f"LP(1,*)=1 exact, |LP(7,0.7)-2^0.7|={deviation:.1e}",
    )


def test_bounded_streaming_latency():
    """Per-frame work depends on the lag, not on how long the stream has run:
    the mean per-frame time at T=1000 stays within 2x of T=100."""
    rng = random.Random(1)
    alphabet = Alphabet(MASTER_SYMBOLS)
    config = BeamConfig(width=8, alpha=0.0, beta=0.1)
    lag = 5

    def sentence(n_chars: int) -> str:
        words = []
        while sum(len(w) + 1 for w in words) < n_chars:
            words.append("".join(MASTER_SYMBOLS[rng.randrange(26)]
                                 for _ in range(rng.randrange(3, 8))))
        return " ".join(words)

    def mean_frame_seconds(num_frames: int, seed: int) -> float:
        text = sentence(num_frames // 5)
        em = simulate(text, alphabet,
                      SimConfig(peak_prob=0.9, frames_per_char=2.0, noise_seed=seed))
        while em.num_frames < num_frames:  # pad by repeating rows
            em = EmissionMatrix(alphabet,
                                np.vstack([em.probs, em.probs[: num_frames - em.num_frames]]))
        rows = em.probs[:num_frames]
        decoder = StreamingDecoder(alphabet, config, lag=lag)
        start = time.perf_counter()
        for row in rows:
            decoder.push(row)
        return (time.perf_counter() - start) / num_frames

    mean_frame_seconds(100, seed=0)  # warm-up
    short = mean_frame_seconds(100, seed=1)
    long = mean_frame_seconds(1000, seed=2)
    ratio = long / short
    _report(
        "bounded streaming latency",
        ratio <= 2.0,
        f"{short * 1e3:.2f} ms/frame @T=100 vs {long * 1e3:.2f} ms/frame @T=1000, "
        f"ratio {ratio:.2f}",
    )


def test_step_cost_flat_in_transcript_length():
    """A beam step at W=100 with a 3-gram LM costs the same whether its
    prefixes are about 1k or about 10k characters long: the median of
    interleaved steps of the two beams, on the same row, stays within 1.25x.
    ``beam_step`` is pure, so each beam can be stepped again and again."""
    rng = random.Random(3)
    alphabet = Alphabet(MASTER_SYMBOLS)
    words = ["".join(rng.choice(MASTER_SYMBOLS[:26]) for _ in range(rng.randrange(2, 8)))
             for _ in range(60)]

    def text(n_chars: int) -> str:
        out = []
        while sum(len(w) + 1 for w in out) < n_chars:
            out.append(rng.choice(words))
        return " ".join(out)

    lm = train_ngram([text(300) for _ in range(40)], alphabet.symbols, order=3)
    config = BeamConfig(width=100, alpha=0.5, beta=0.1)
    em = simulate(text(1000), alphabet,
                  SimConfig(peak_prob=0.6, frames_per_char=2.0, noise_seed=4))
    short_beam = beam_init(alphabet, config, lm)
    for row in em.probs:
        short_beam = beam_step(short_beam, row, config, lm)
    # 9000 more characters in front: an order-3 state depends on the last two
    history = text(9000)
    long_beam = Beam(alphabet, [replace(h, prefix=history + h.prefix)
                                for h in short_beam.hypotheses], short_beam.frame_index)
    assert len(long_beam.best.prefix) >= 10_000 and len(short_beam.best.prefix) >= 1_000
    row = em.probs[len(em.probs) // 2]
    times = {"short": [], "long": []}
    for _ in range(40):
        for name, beam in (("short", short_beam), ("long", long_beam)):
            start = time.perf_counter()
            beam_step(beam, row, config, lm)
            times[name].append(time.perf_counter() - start)
    short, long = (float(np.median(times[name])) for name in ("short", "long"))
    ratio = long / short
    _report(
        "step cost flat in transcript length",
        ratio <= 1.25,
        f"{short * 1e3:.3f} ms/step @~1k chars vs {long * 1e3:.3f} ms/step @~10k chars, "
        f"ratio {ratio:.2f}",
    )


def _fused_argmax(em, lm, alpha, beta):
    best = None
    for text, p in enumerate_transcript_probabilities(em).items():
        if p == 0.0:
            continue
        score = (math.log(p) + alpha * lm.sequence_log_prob(text)) \
            / max(1, len(text)) ** beta
        key = (-score, text)
        if best is None or key < best:
            best = key
    return best[1]


def test_lm_fusion_effect():
    """Emissions slightly favor "cav"; a bigram LM trained on "cab" flips the
    decode at alpha=0.5 and not at alpha=0, matching exhaustive fused scoring."""
    alphabet = Alphabet("abcv")
    fill = 0.02
    rows = []
    for peaks in ({"c": 0.92}, {"a": 0.92}, {"v": 0.47, "b": 0.45}):
        row = {ch: fill for ch in "abcv-"}
        row.update(peaks)
        slack = 1.0 - sum(row.values())
        row[max(peaks, key=peaks.get)] += slack
        rows.append([row[ch] for ch in "abcv"] + [row["-"]])
    em = EmissionMatrix(alphabet, rows)
    lm = train_ngram(["cab"], "abcv", order=2, k=1.0)
    results = {}
    for alpha in (0.0, 0.5):
        config = BeamConfig(width=100, alpha=alpha, beta=0.1)
        text, _ = beam_decode(em, config, lm)
        oracle = _fused_argmax(em, lm, alpha, config.beta)
        assert text == oracle, f"alpha={alpha}: beam {text!r} != oracle {oracle!r}"
        results[alpha] = text
    _report(
        "LM fusion effect",
        results[0.0] == "cav" and results[0.5] == "cab",
        f"alpha=0 -> {results[0.0]!r}, alpha=0.5 -> {results[0.5]!r}",
    )


def test_metrics_correctness():
    spec_wer = wer("home to an animal", "home you and animal")
    rng = random.Random(9)

    def random_text():
        return "".join(random.Random(rng.random()).choice("abcd ")
                       for _ in range(rng.randrange(0, 9)))

    axioms_hold = True
    for _ in range(1000):
        a, b, c = random_text(), random_text(), random_text()
        d_ab = edit_distance(a, b).distance
        d_ba = edit_distance(b, a).distance
        d_bc = edit_distance(b, c).distance
        d_ac = edit_distance(a, c).distance
        axioms_hold &= d_ab == d_ba
        axioms_hold &= d_ac <= d_ab + d_bc

    pairs = [("vf", "ff"), ("vv", "fv"), ("abc", "axc"), ("b", "m")]
    matrix = confusion_matrix(pairs)
    rows_ok = True
    for i in range(len(matrix.symbols)):
        row_sum = matrix.rates[i].sum()
        if matrix.counts[i].sum():
            rows_ok &= abs(row_sum - 1.0) <= 1e-9
    _report(
        "metrics correctness",
        spec_wer == 0.5 and axioms_hold and rows_ok,
        f"WER={spec_wer}, axioms on 1000 triples, confusion rows normalized",
    )


def test_seq2seq_beam_exactness():
    """Full-width seq2seq beam equals enumeration argmax on 100 random mock
    scorers (alpha=0, beta=0, max_length=3)."""
    rng = np.random.default_rng(606)
    symbols = "abc"
    config = S2SConfig(width=200, alpha=0.0, beta=0.0, max_length=3)
    lm = UniformLm(symbols)
    for _ in range(100):
        table = {}
        prefixes = [""]
        for _ in range(3):
            nxt = []
            for prefix in prefixes:
                probs = rng.dirichlet(np.ones(len(symbols) + 1))
                table[prefix] = dict(zip(list(symbols) + [EOS], map(float, probs)))
                nxt.extend(prefix + c for c in symbols)
            prefixes = nxt
        scorer = TableScorer(symbols, table)

        best = None
        for length in range(config.max_length + 1):
            for chars in itertools.product(symbols, repeat=length):
                text = "".join(chars)
                state = scorer.initial_state()
                lp = 0.0
                for ch in text:
                    lp += float(scorer.next_log_probs(state)[scorer.index_of(ch)])
                    state = scorer.advance(state, ch)
                lp += float(scorer.next_log_probs(state)[scorer.index_of(EOS)])
                key = (-lp, text)
                if best is None or key < best:
                    best = key
        text, score = s2s_decode(scorer, config, lm)
        assert text == best[1], f"beam {text!r} != enumeration {best[1]!r}"
        assert score == pytest.approx(-best[0], abs=1e-9)
    _report("seq2seq beam exactness", True, "100 scorers, all equal enumeration")


def test_simulator_decodability():
    """peak_prob >= 0.8 emissions decode back to the ground truth with
    aggregate CER < 0.05 over 500 random sentences (W=100, uniform LM)."""
    rng = random.Random(2718)
    alphabet = Alphabet("abcdefg ")
    config = BeamConfig(width=100, alpha=0.0, beta=0.0)
    char_edits = 0
    char_total = 0
    for i in range(500):
        n_words = 1 + rng.randrange(2)
        words = ["".join("abcdefg"[rng.randrange(7)]
                         for _ in range(1 + rng.randrange(4)))
                 for _ in range(n_words)]
        gt = " ".join(words)
        sim = SimConfig(
            peak_prob=0.8 + 0.2 * rng.random(),
            frames_per_char=2.0 + 2.0 * rng.random(),
            noise_seed=i,
        )
        em = simulate(gt, alphabet, sim)
        text, _ = beam_decode(em, config)
        char_edits += edit_distance(gt, text).distance
        char_total += len(gt)
    rate = char_edits / char_total
    _report("simulator decodability", rate < 0.05,
            f"aggregate CER {rate:.4f} over 500 sentences")


def test_format_round_trips():
    cases = [
        ("sample.em", load_emissions, save_emissions),
        ("sample.nglm", load_ngram, save_ngram),
        ("sample.s2sm", load_table_scorer, save_table_scorer),
    ]
    all_ok = True
    for name, loader, saver in cases:
        original = (GOLDEN / name).read_text(encoding="utf-8")
        buf = io.StringIO()
        saver(loader(io.StringIO(original)), buf)
        all_ok &= buf.getvalue() == original
    _report("format round-trips", all_ok, "CTCEM, NGLM, S2SM byte-identical")
