"""Models built in code from dicts save files that load back.

``NgramLm`` and ``TableScorer`` take the same entries from a dict as their
readers take from a file.  For any dict, the constructor either raises
ValidationError, or the model it builds saves a file that loads, scores
every state the same bit for bit, and saves again byte-identically; and the
saved text does not follow later changes to the dict."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctc import (
    EOS,
    NgramLm,
    TableScorer,
    ValidationError,
    load_ngram,
    load_table_scorer,
    save_ngram,
    save_table_scorer,
)

ALPHABETS = st.sampled_from(["ab", "cab ", "hi'"])
FOREIGN = "#"  # in no alphabet above

# Counts and probabilities of the types a caller may hold them in.  A model
# is drawn clean, from the valid values and characters only, or with faults
# mixed in, which the constructor mostly rejects.
COUNTS = st.sampled_from([1, 2, 7, True, np.int64(3), np.int32(1), np.uint8(2)]) | st.integers(
    1, 10**20)
BAD_COUNTS = st.sampled_from([0, -1, False, 0.5, 2.0, float("inf"), float("nan"),
                              np.float64(1.0), np.float32(2.0), np.int64(0)])
# the values of one row, which sum to 1
ROWS = st.sampled_from([
    (1,), (True,), (1.0,), (np.int64(1),), (np.float16(1.0),), (0.5, 0.5),
    (np.float64(0.5), np.float32(0.5)), (0.25, 0.75), (0, 1), (False, True), (0.0, np.int64(1)),
    (-0.0, 1.0), (0.25, 0.25, 0.5), (np.float32(0.25), 0.25, np.float16(0.5)), (0.1, 0.2, 0.7),
])
BAD_ROWS = st.sampled_from([(), (0.5,), (1.5, -0.5), (float("nan"),), (2,), (0.25, 0.25)])


def hexes(row):
    return [x.hex() for x in row.tolist()]


def rows_along(model, tokens):
    """The rows of ``model`` at its initial state and after each token of
    ``tokens``, the states reached by ``advance``."""
    state = model.initial_state()
    rows = [hexes(model.next_log_probs(state))]
    for tok in tokens:
        state = model.advance(state, tok)
        rows.append(hexes(model.next_log_probs(state)))
    return rows


def saved(save, model) -> str:
    buf = io.StringIO()
    save(model, buf)
    return buf.getvalue()


def characters(symbols, clean):
    """Alphabet characters, and in a model with faults also a foreign
    character and EOS."""
    return st.sampled_from([*symbols] if clean else [*symbols, FOREIGN, EOS])


def tokens(symbols, clean):
    """Alphabet characters and EOS, and in a model with faults also a foreign
    character."""
    return st.sampled_from([*symbols, EOS] if clean else [*symbols, EOS, FOREIGN])


@st.composite
def ngram_dicts(draw):
    symbols = draw(ALPHABETS)
    order = draw(st.integers(1, 3))
    clean = draw(st.booleans())
    chars = characters(symbols, clean)
    contexts = draw(st.lists(st.lists(chars, max_size=order - 1).map(tuple), max_size=5,
                             unique=True))
    contexts = [(), *[ctx for ctx in contexts if ctx]]
    values = COUNTS if clean else COUNTS | BAD_COUNTS
    counts = {ctx: draw(st.dictionaries(tokens(symbols, clean), values, min_size=1,
                                        max_size=4))
              for ctx in contexts}
    return symbols, order, counts


@st.composite
def table_dicts(draw):
    symbols = draw(ALPHABETS)
    clean = draw(st.booleans())
    chars = characters(symbols, clean)
    prefixes = draw(st.lists(st.lists(chars, max_size=4).map("".join), max_size=5,
                             unique=True))
    table = {}
    for prefix in prefixes:
        values = draw(ROWS if clean else ROWS | BAD_ROWS)
        keys = draw(st.lists(tokens(symbols, clean), min_size=len(values),
                             max_size=len(values), unique=True))
        table[prefix] = dict(zip(keys, values))
    return symbols, table


def check_round_trip(model, keys, walks, save, load, source):
    """save -> load succeeds, the loaded model scores every key and walk as
    ``model`` does, save(load(save(model))) == save(model), and changing
    ``source`` after construction leaves the saved text as it was."""
    text = saved(save, model)
    loaded = load(io.StringIO(text))
    for walk in [*keys, *walks]:
        assert rows_along(loaded, walk) == rows_along(model, walk)
    assert saved(save, loaded) == text
    for dist in source.values():
        dist.clear()
    source.clear()
    assert saved(save, model) == text


class TestBuiltModelsLoadBack:
    @settings(max_examples=300, deadline=None)
    @given(ngram_dicts(), st.data())
    def test_ngram(self, drawn, data):
        symbols, order, counts = drawn
        try:
            lm = NgramLm(symbols, order, 1.0, counts)
        except ValidationError:
            return
        walks = data.draw(st.lists(st.lists(st.sampled_from([*symbols, EOS]), max_size=8),
                                   max_size=4))
        check_round_trip(lm, list(counts), walks, save_ngram, load_ngram, counts)

    @settings(max_examples=300, deadline=None)
    @given(table_dicts(), st.data())
    def test_table_scorer(self, drawn, data):
        symbols, table = drawn
        try:
            scorer = TableScorer(symbols, table)
        except ValidationError:
            return
        walks = data.draw(st.lists(st.lists(st.sampled_from(symbols), max_size=6),
                                   max_size=4))
        check_round_trip(scorer, list(table), walks, save_table_scorer, load_table_scorer,
                         table)


class TestSeparatorSymbols:
    """A tab, carriage return or newline in the alphabet would break the line
    and field structure of the saved file, so both dict constructors reject
    it, as ``Alphabet`` does."""

    @pytest.mark.parametrize("separator", ["\t", "\r", "\n"])
    @pytest.mark.parametrize("build", [
        lambda symbols: NgramLm(symbols, 2, 1.0, {(): {"a": 1, "b": 2}}),
        lambda symbols: TableScorer(symbols, {"": {"a": 0.5, "b": 0.5}}),
    ], ids=["ngram", "table-scorer"])
    def test_rejected(self, build, separator):
        with pytest.raises(ValidationError) as exc:
            build(f"a{separator}b")
        assert str(exc.value) == "tab/newline are not valid alphabet characters"
        build("ab")  # the same model over a clean alphabet builds
