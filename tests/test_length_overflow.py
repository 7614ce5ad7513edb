"""A beta whose length penalty overflows a float.

Both searches reject it with a ValidationError that names beta, at the first
length they use whose penalty overflows: the step where the loop references
first compute that power.  Until then, and where no candidate of nonzero
probability is that long, they give the references' results bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctc import (
    EOS,
    Alphabet,
    BeamConfig,
    S2SConfig,
    TableScorer,
    ValidationError,
    beam_init,
    beam_step,
    s2s_decode,
    train_ngram,
)

from reference_beam import reference_beam_step
from reference_s2s import reference_s2s_decode

AB = Alphabet("ab")
AB_LM = train_ngram(["ab ba", "aabb", "ba"], AB.symbols, order=2)
ROWS = {  # one-hot rows leave every extension, or every stay, at zero probability
    "a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0], "blank": [0.0, 0.0, 1.0],
    "uniform": [1 / 3] * 3, "peaky": [0.8, 0.1, 0.1],
}


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(sorted(ROWS)), max_size=16), st.integers(1, 4),
       st.booleans(), st.sampled_from([300.0, 646.0, 1000.0]))
def test_beam_step_overflows_where_the_reference_does(kinds, width, fused, beta):
    config = BeamConfig(width=width, alpha=0.5 if fused else 0.0, beta=beta)
    lm = AB_LM if fused else None
    ours = ref = beam_init(AB, config, lm)
    for kind in kinds:
        row = np.array(ROWS[kind])
        try:
            ref = reference_beam_step(ref, row, config, lm)
        except OverflowError:
            with pytest.raises(ValidationError, match=f"^beta {beta!r} overflows the length "
                                                      r"penalty at length \d+$"):
                beam_step(ours, row, config, lm)
            return
        except ValidationError as exc:  # a collapse
            with pytest.raises(ValidationError, match=str(exc)):
                beam_step(ours, row, config, lm)
            return
        ours = beam_step(ours, row, config, lm)
        assert ours == ref


def test_blank_rows_after_a_long_prefix_do_not_overflow():
    # 3 ** 1000 overflows: after "ab" a one-hot blank row extends nothing,
    # so it uses no length-3 power, and the next "a" row does
    config = BeamConfig(width=2, alpha=0.0, beta=1000.0)
    beam = beam_init(AB, config)
    for kind in ("a", "blank", "b", "blank", "blank"):
        beam = beam_step(beam, ROWS[kind], config)
    assert beam.best.prefix == "ab"
    with pytest.raises(ValidationError, match="at length 3$"):
        beam_step(beam, ROWS["a"], config)


def chain(target: str, peak: float) -> TableScorer:
    """``peak`` on the next character of ``target`` (the end after it) and
    the rest spread evenly."""
    tokens = [*AB.symbols, EOS]
    rest = (1.0 - peak) / (len(tokens) - 1)
    return TableScorer(AB.symbols, {
        target[:i]: {t: peak if t == (target[i:i + 1] or EOS) else rest for t in tokens}
        for i in range(len(target) + 1)})


def s2s_outcome(decode, scorer, config, lm):
    try:
        text, score = decode(scorer, config, lm)
    except ValidationError as exc:
        return str(exc)
    return text, score.hex()


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="ab", max_size=12), st.sampled_from([0.5, 0.9, 1.0]),
       st.integers(1, 15), st.integers(1, 4), st.booleans(), st.floats(400.0, 5000.0))
def test_s2s_decode_overflows_where_the_reference_does(target, peak, max_length, width,
                                                       fused, beta):
    config = S2SConfig(width=width, alpha=0.1 if fused else 0.0, beta=beta,
                       max_length=max_length)
    lm = AB_LM if fused else None
    scorer = chain(target, peak)
    assert (s2s_outcome(s2s_decode, scorer, config, lm)
            == s2s_outcome(reference_s2s_decode, scorer, config, lm))
