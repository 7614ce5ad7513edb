"""Streaming CTC decoding toolkit.

Prefix beam search with language-model shallow fusion, online decoding with
one beam step per frame, lookahead hypotheses, commits that trail them by a
fixed lag, and word completions, length-normalized
seq2seq beam search, exact brute-force decoding oracles, edit-distance
metrics, and a synthetic emission simulator.
"""

from .beam import (
    Beam,
    BeamConfig,
    Hypothesis,
    beam_decode,
    beam_init,
    beam_step,
    log_add,
    normalized_score,
)
from .ctc import (
    Alphabet,
    EmissionMatrix,
    NEG_INF,
    collapse,
    enumerate_transcript_probabilities,
    exact_transcript_probability,
    greedy_decode,
    path_log_probability,
)
from .errors import CapacityError, ParseError, StreamCtcError, ValidationError
from .lm import (
    EOS,
    CharLm,
    NgramLm,
    UniformLm,
    load_ngram,
    normalize_corpus_line,
    save_ngram,
    train_ngram,
)
from .metrics import (
    ConfusionMatrix,
    EditAlignment,
    EditOp,
    cer,
    confusion_matrix,
    edit_distance,
    wer,
)
from .s2s import (
    S2SConfig,
    TableScorer,
    length_penalty,
    load_table_scorer,
    s2s_decode,
    save_table_scorer,
)
from .simulate import (
    SimConfig,
    load_emissions,
    save_emissions,
    simulate,
)
from .streaming import (
    IncrementalOutput,
    ReceptiveFieldSpec,
    StreamingDecoder,
    changes_per_frame,
    lm_complete_word,
    receptive_field,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "Beam",
    "BeamConfig",
    "CapacityError",
    "CharLm",
    "ConfusionMatrix",
    "EOS",
    "EditAlignment",
    "EditOp",
    "EmissionMatrix",
    "Hypothesis",
    "IncrementalOutput",
    "NEG_INF",
    "NgramLm",
    "ParseError",
    "ReceptiveFieldSpec",
    "S2SConfig",
    "SimConfig",
    "StreamCtcError",
    "StreamingDecoder",
    "TableScorer",
    "UniformLm",
    "ValidationError",
    "beam_decode",
    "beam_init",
    "beam_step",
    "cer",
    "changes_per_frame",
    "collapse",
    "confusion_matrix",
    "edit_distance",
    "enumerate_transcript_probabilities",
    "exact_transcript_probability",
    "greedy_decode",
    "length_penalty",
    "lm_complete_word",
    "load_emissions",
    "load_ngram",
    "load_table_scorer",
    "log_add",
    "normalize_corpus_line",
    "normalized_score",
    "path_log_probability",
    "receptive_field",
    "s2s_decode",
    "save_emissions",
    "save_ngram",
    "save_table_scorer",
    "simulate",
    "train_ngram",
    "wer",
]
