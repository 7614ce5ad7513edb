"""Online decoding with lookahead hypotheses, word completions, and
receptive-field arithmetic.

The decoder receives one emission row per input frame and advances its beam
by exactly one beam step per row.  ``beam_step`` is pure, so the beam after
frame t is the offline beam over every row seen so far; it supplies the
lookahead hypothesis, as if the utterance ended now.  Commits trail the
lookahead by ``lag`` frames: the committed prefix is the best prefix of the
beam from frame t - lag, and never changes for that frame.  Flushing
commits the latest beam, so the final transcript is exactly the offline
beam-search result.

A stream holds only its latest beam, and a window of the (best prefix,
score) each of the last ``lag + 1`` beams showed; the committed prefix is
the oldest in the window, spelled ``lag`` pushes earlier.  The word
completion depends only on the best hypothesis's LM state and the budget,
by which an n-gram model memoizes it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .beam import BeamConfig, beam_init, beam_step
from .ctc import Alphabet
from .errors import ValidationError
from .lm import CharLm, UniformLm
from .metrics import levenshtein

_COMPLETION_CHARS = 16  # the most characters a word completion adds


@dataclass(frozen=True)
class ReceptiveFieldSpec:
    """Temporal filter widths of a convolution stack, one per layer."""

    layer_filter_widths: tuple[int, ...]

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_filter_widths)
        object.__setattr__(self, "layer_filter_widths", widths)
        for w in widths:
            if w < 1 or w % 2 == 0:
                raise ValidationError(f"filter widths must be odd and >= 1, got {w}")


def receptive_field(spec: ReceptiveFieldSpec | Iterable[int]) -> tuple[int, int]:
    """Total receptive field R and future half-span r of a temporal stack.

    Each layer of width K sees (K-1)/2 frames into the future, so
    r = sum((K_i - 1) / 2) and R = 2r + 1.
    """
    if not isinstance(spec, ReceptiveFieldSpec):
        spec = ReceptiveFieldSpec(tuple(spec))
    r = sum((w - 1) // 2 for w in spec.layer_filter_widths)
    return 2 * r + 1, r


@dataclass(frozen=True)
class IncrementalOutput:
    """Per-frame display: committed prefix, lookahead hypothesis, completion."""

    frame_index: int
    committed: str
    hypothesis: str
    completion: str
    score: float


def lm_complete_word(prefix: str, lm: CharLm, max_chars: int = _COMPLETION_CHARS,
                     state=None) -> str:
    """Greedy LM rollout finishing the current word of ``prefix``.

    Stops at a space (kept, terminal), end-of-sentence, or after
    ``max_chars`` characters; returns only the appended characters.  A prefix
    that is empty or already ends in a space has no word to complete.
    ``state``, when given, is the LM state after ``prefix`` (a hypothesis's
    ``lm_state``); it spares re-advancing the LM over the whole prefix.
    """
    if max_chars <= 0 or not prefix or prefix.endswith(" "):
        return ""
    if state is None:
        state = lm.initial_state()
        for ch in prefix:
            state = lm.advance(state, ch)
    return lm._complete_word(state, max_chars)


class StreamingDecoder:
    """One decoding stream; feed rows with :meth:`push`, end with :meth:`flush`.

    A single immutable LM may be shared by many concurrent streams, but each
    stream is single-threaded.  Without an LM there are no word completions.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        config: BeamConfig | None = None,
        lag: int = 22,
        lm: CharLm | None = None,
    ):
        if lag < 0:
            raise ValidationError("lag must be >= 0")
        self.alphabet = alphabet
        self.config = config if config is not None else BeamConfig()
        self.lag = lag
        self.lm = lm if lm is not None else UniformLm(alphabet.symbols)
        # every symbol ties under the uniform LM, so it has nothing to say
        self._completion_chars = _COMPLETION_CHARS if lm is not None else 0
        self._beam = beam = beam_init(alphabet, self.config, self.lm)
        # (best prefix, score) after frames t - lag .. t: [0] is committed
        self._shown = deque([(beam._prefix(0), beam._score(0, self.config.beta))],
                            maxlen=lag + 1)

    @property
    def frames_seen(self) -> int:
        return self._beam.frame_index

    def push(self, frame) -> IncrementalOutput:
        """Ingest one emission row with one beam step; returns the refreshed
        display state.  The committed prefix trails the hypothesis by ``lag``
        frames."""
        self._beam = beam = beam_step(self._beam, frame, self.config, self.lm)
        hypothesis, score = beam._prefix(0), beam._score(0, self.config.beta)
        self._shown.append((hypothesis, score))
        return IncrementalOutput(
            frame_index=beam.frame_index,
            committed=self._shown[0][0],
            hypothesis=hypothesis,
            completion=lm_complete_word(hypothesis, self.lm, self._completion_chars,
                                        state=beam._state[0]),
            score=score,
        )

    def flush(self) -> str:
        """Commit the latest beam without a beam step; the result equals the
        offline decode."""
        latest = self._shown[-1]
        self._shown.clear()
        self._shown.append(latest)
        return latest[0]

    def best_committed(self) -> tuple[str, float]:
        return self._shown[0]


def changes_per_frame(outputs: Sequence[IncrementalOutput | str]) -> float:
    """Mean display churn: character edit distance between consecutive
    lookahead hypotheses (starting from the empty display), divided by the
    number of pushes.  Completions are excluded."""
    if not outputs:
        raise ValidationError("changes_per_frame needs at least one output")
    prev = ""
    total = 0
    for out in outputs:
        cur = out.hypothesis if isinstance(out, IncrementalOutput) else str(out)
        total += levenshtein(prev, cur)
        prev = cur
    return total / len(outputs)

