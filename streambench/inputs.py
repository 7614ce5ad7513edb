"""Seeded inputs for the benchmark.

Everything the program sees is built here from one seed with the package's
public writers: a Zipf-distributed vocabulary of made-up words, a training
corpus and its 3-gram NGLM file, CTCEM utterances from ``simulate``, and
S2SM tables that peak along target sentences.  The same seed always gives
byte-identical files.
"""

from __future__ import annotations

import io
import itertools
import os
import random
from dataclasses import dataclass, field

from streamctc import (
    EOS,
    Alphabet,
    EmissionMatrix,
    SimConfig,
    TableScorer,
    save_emissions,
    save_ngram,
    save_table_scorer,
    simulate,
    train_ngram,
)
from streamctc.cli import DEFAULT_ALPHABET

ALPHABET = Alphabet(DEFAULT_ALPHABET)

# Peak probability of the intended symbol in each row, drawn per utterance.
# 0.9 decodes cleanly; near 0.15 the 3-gram LM starts to win against the
# acoustics and the character error rate reaches a few percent.
PEAK_CLEAN = 0.9
PEAK_NOISY = 0.15

# One spike frame per character with one blank frame between characters:
# the peaky shape of CTC posteriors, and a frame count fixed by the text
# (2 * len + 1), so throughput does not vary with drawn run lengths.
FRAMES_PER_CHAR = 1.0


@dataclass(frozen=True)
class Sizes:
    """How much input one run generates; the tests shrink these."""

    vocab_words: int = 400
    corpus_sentences: int = 3000
    sentence_words: tuple[int, int] = (6, 12)   # corpus sentences
    utterance_chars: int = 48  # utterances and S2S targets, all of one size
    utterances: int = 64       # stream-default and decode-offline
    long_chars: int = 2000     # stream-long: two or three finish within a run
    long_utterances: int = 4
    tables: int = 64           # s2s-batch, cycled so every table repeats


@dataclass
class Utterance:
    text: str                  # ground truth
    em: EmissionMatrix
    lines: list[str]           # CTCEM v1 lines, header first
    path: str | None = None    # CTCEM file, written for decode


@dataclass
class Table:
    target: str
    path: str                  # S2SM v1 file

    @property
    def steps(self) -> int:
        """Decoding positions along the target, end of sentence included."""
        return len(self.target) + 1


@dataclass
class Inputs:
    lm_path: str
    utterances: list[Utterance] = field(default_factory=list)
    tables: list[Table] = field(default_factory=list)


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    letters = DEFAULT_ALPHABET[:26]
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(letters) for _ in range(rng.randint(2, 8))))
    return sorted(words)


def emission_lines(em: EmissionMatrix) -> list[str]:
    buf = io.StringIO()
    save_emissions(em, buf)
    return buf.getvalue().splitlines(keepends=True)


def reference_prefix(utt: Utterance, rows: int) -> str:
    """Ground truth of the first ``rows`` rows of ``utt``: with one frame
    per character, row 2i + 1 carries character i and every other row is
    blank."""
    return utt.text[: rows // 2]


def _utterance(rng: random.Random, text: str) -> Utterance:
    peak = rng.uniform(PEAK_NOISY, PEAK_CLEAN)
    em = simulate(text, ALPHABET, SimConfig(peak_prob=peak, frames_per_char=FRAMES_PER_CHAR,
                                            noise_seed=rng.randrange(2**31)))
    return Utterance(text, em, emission_lines(em))


def _table(rng: random.Random, target: str, path: str) -> Table:
    """Each target prefix gets a distribution with ``peak`` on the next
    target character (end of sentence after the last one) and the rest spread
    evenly; prefixes off the target fall back to the scorer's uniform row."""
    peak = rng.uniform(PEAK_NOISY, PEAK_CLEAN)
    tokens = list(ALPHABET.symbols) + [EOS]
    rest = (1.0 - peak) / (len(tokens) - 1)
    table = {}
    for i in range(len(target) + 1):
        nxt = target[i] if i < len(target) else EOS
        table[target[:i]] = {tok: (peak if tok == nxt else rest) for tok in tokens}
    save_table_scorer(TableScorer(ALPHABET.symbols, table), path)
    return Table(target, path)


def make_inputs(seed: int, kind: str, workdir: str, sizes: Sizes = Sizes()) -> Inputs:
    """Build the inputs of one workload kind (``utterances``, ``long`` or
    ``tables``) under ``workdir``.  The corpus, LM and sentence stream are the
    same for every kind, so stream-default and decode-offline see the same
    utterance files."""
    rng = random.Random(seed)
    words = _vocabulary(rng, sizes.vocab_words)
    zipf = list(itertools.accumulate(1.0 / rank for rank in range(1, len(words) + 1)))

    def sentence() -> str:
        return " ".join(rng.choices(words, cum_weights=zipf, k=rng.randint(*sizes.sentence_words)))

    def text(chars: int) -> str:
        """Sentences run together and cut to ``chars`` characters (one
        fewer if the cut lands after a space)."""
        out = sentence()
        while len(out) < chars:
            out = f"{out} {sentence()}"
        return out[:chars].rstrip()

    corpus = [sentence() for _ in range(sizes.corpus_sentences)]
    lm_path = os.path.join(workdir, "lm.nglm")
    save_ngram(train_ngram(corpus, ALPHABET.symbols, order=3, k=1.0), lm_path)
    inputs = Inputs(lm_path)

    if kind == "utterances":
        for i in range(sizes.utterances):
            utt = _utterance(rng, text(sizes.utterance_chars))
            utt.path = os.path.join(workdir, f"utt{i:03d}.em")
            save_emissions(utt.em, utt.path)
            inputs.utterances.append(utt)
    elif kind == "long":
        for _ in range(sizes.long_utterances):
            inputs.utterances.append(_utterance(rng, text(sizes.long_chars)))
    elif kind == "tables":
        for i in range(sizes.tables):
            path = os.path.join(workdir, f"t{i:03d}.s2sm")
            inputs.tables.append(_table(rng, text(sizes.utterance_chars), path))
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    return inputs
