"""The column readers and prebuilt tables of NgramLm and TableScorer against
the line-by-line reference in reference_formats.py: every row the same bit
for bit, save -> load -> save byte-identical, and every malformed file
rejected with the same exception, message and line."""

import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamctc import (
    EOS,
    NgramLm,
    ParseError,
    TableScorer,
    ValidationError,
    load_ngram,
    load_table_scorer,
    save_ngram,
    save_table_scorer,
)
from streamctc.cli import DEFAULT_ALPHABET

from reference_formats import (
    ReferenceNgramLm,
    ReferenceTableScorer,
    reference_load_ngram,
    reference_load_table_scorer,
    reference_saved_ngram,
    reference_saved_table_scorer,
)

ALPHABETS = st.sampled_from(["ab", "cab ", "hi'", DEFAULT_ALPHABET])
# past 2**53 the float sums of counts round, so totals are summed exactly
COUNTS = st.integers(1, 50) | st.integers(1, 10**6) | st.sampled_from(
    [2**53 - 1, 2**53 + 1, 2**60 + 1, 10**20, 10**300])
OUTSIDE = "#"  # in no alphabet above


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


@st.composite
def nglm_texts(draw):
    symbols = draw(ALPHABETS)
    order = draw(st.integers(1, 4))
    k = draw(st.sampled_from([1.0, 0.5, 1e-3]) | st.floats(1e-6, 1e6))
    contexts = [""]
    if order > 1:
        contexts += draw(st.lists(st.text(symbols, min_size=1, max_size=order - 1),
                                  unique=True, max_size=8))
    lines = [f"{ctx}\t{tok}\t{draw(COUNTS)}"
             for ctx in contexts
             for tok in draw(st.lists(st.sampled_from([*symbols, EOS]), min_size=1,
                                      max_size=8, unique=True))]
    lines = draw(st.permutations(lines))
    return "".join([f"NGLM v1 {order} {k!r} {symbols}\n"] + [f"{line}\n" for line in lines])


@st.composite
def s2sm_texts(draw):
    symbols = draw(ALPHABETS)
    lines = []
    for prefix in draw(st.lists(st.text(symbols, max_size=6), unique=True, max_size=6)):
        tokens = draw(st.lists(st.sampled_from([*symbols, EOS]), min_size=1, max_size=8,
                               unique=True))
        weights = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                min_size=len(tokens), max_size=len(tokens)))
        weights[0] += 1.0
        total = sum(weights)
        lines += [f"{prefix}\t{tok}\t{w / total!r}" for tok, w in zip(tokens, weights)]
    lines = draw(st.permutations(lines))
    return "".join([f"S2SM v1 {symbols}\n"] + [f"{line}\n" for line in lines])


def saved(save, model) -> str:
    buf = io.StringIO()
    save(model, buf)
    return buf.getvalue()


class TestValidModels:
    @settings(max_examples=150, deadline=None)
    @given(nglm_texts(),
           st.lists(st.lists(st.sampled_from([*DEFAULT_ALPHABET, EOS]), max_size=4), max_size=10))
    def test_ngram_rows_match_the_reference(self, text, walks):
        lm = load_ngram(io.StringIO(text))
        ref = reference_load_ngram(io.StringIO(text))
        built = NgramLm(ref.symbols, ref.order, ref.k, ref._counts)
        # every stored context, reached by advance from the initial state
        for ctx in ref._counts:
            expected = hexes(ref.next_log_probs(ctx))
            assert rows_along(lm, ctx)[-1] == expected
            assert rows_along(built, ctx)[-1] == expected
        # then walks whose states back off to one
        for walk in walks:
            walk = [tok for tok in walk if tok == EOS or tok in ref.symbols]
            expected = rows_along(ref, walk)
            assert rows_along(lm, walk) == expected
            assert rows_along(built, walk) == expected
        first = saved(save_ngram, lm)
        assert first == reference_saved_ngram(ref)
        assert saved(save_ngram, built) == first
        assert saved(save_ngram, load_ngram(io.StringIO(first))) == first

    @settings(max_examples=150, deadline=None)
    @given(s2sm_texts())
    def test_table_rows_match_the_reference(self, text):
        scorer = load_table_scorer(io.StringIO(text))
        ref = reference_load_table_scorer(io.StringIO(text))
        built = TableScorer(ref.symbols, ref._table)
        for prefix in [*ref._table, "never stored"]:
            expected = hexes(ref.next_log_probs(prefix))
            assert hexes(scorer.next_log_probs(prefix)) == expected
            assert hexes(built.next_log_probs(prefix)) == expected
        first = saved(save_table_scorer, scorer)
        assert first == reference_saved_table_scorer(ref)
        assert saved(save_table_scorer, built) == first
        assert saved(save_table_scorer, load_table_scorer(io.StringIO(first))) == first

    def test_dict_constructors_match_the_reference(self):
        counts = {(): {"a": 3, EOS: 2**60 + 1}, ("a",): {"b": 1}}
        lm = NgramLm("ab", 2, 0.25, counts)
        ref = ReferenceNgramLm("ab", 2, 0.25, counts)
        for walk in ["", "a", "b", "ab", "ba", "aab", ["a", EOS], ["b", EOS, "a"]]:
            assert rows_along(lm, walk) == rows_along(ref, walk)
        assert saved(save_ngram, lm) == reference_saved_ngram(ref)
        # the reader rejects a context outside the alphabet and a count that
        # is not an int, so the constructor does too
        with pytest.raises(ValidationError):
            NgramLm("ab", 2, 0.25, {**counts, ("z",): {"a": 0.5}})
        table = {"": {"a": 0.25, "b": 0.75}, "ab": {EOS: 1.0, "a": 0.0}}
        scorer = TableScorer("ab", table)
        ref_scorer = ReferenceTableScorer("ab", table)
        for prefix in ["", "ab", "b"]:
            assert hexes(scorer.next_log_probs(prefix)) == hexes(ref_scorer.next_log_probs(prefix))
        assert saved(save_table_scorer, scorer) == reference_saved_table_scorer(ref_scorer)


class TestAutomaton:
    @settings(max_examples=300, deadline=None)
    @given(nglm_texts(), st.data())
    def test_states_follow_the_tuple_model(self, text, data):
        """NgramLm's int states against the reference's tuple states: the same
        row after every token of random walks over the alphabet and EOS, on
        context sets that need be neither suffix- nor prefix-closed; and the
        batched rows and successors equal the scalar ones."""
        lm = load_ngram(io.StringIO(text))
        ref = reference_load_ngram(io.StringIO(text))
        tokens = st.sampled_from([*ref.symbols, EOS])
        walks = data.draw(st.lists(st.lists(tokens, max_size=12), min_size=1, max_size=6))
        for walk in walks:
            assert rows_along(lm, walk) == rows_along(ref, walk)
        states = [lm.initial_state()] * len(walks)
        for step in range(max(map(len, walks))):
            cols = [lm.index_of(walk[step]) if step < len(walk) else 0 for walk in walks]
            after = lm.advance_many(states, cols).tolist()
            assert after == [lm.advance(s, lm._tokens[c]) for s, c in zip(states, cols)]
            states = after
            rows = lm.next_log_probs_many(states)
            assert [hexes(r) for r in rows] == [hexes(lm.next_log_probs(s)) for s in states]


def outcome(load, text):
    """("ok", rows) or (exception type, message, line); the rows are those
    of the body's keys, in file order."""
    try:
        model = load(io.StringIO(text))
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    keys = dict.fromkeys(line.split("\t")[0] for line in text.split("\n")[1:] if line)
    if hasattr(model, "order"):
        return "ok", [rows_along(model, ctx)[-1] for ctx in keys]
    return "ok", [hexes(model.next_log_probs(key)) for key in keys]


KINDS = ["fields", "truncate", "cut", "outside", "eos_in_context", "token", "value",
         "duplicate", "blank", "crlf", "empty", "no_body", "long_context", "balanced",
         "alphabet"]
NGLM_KINDS = [*KINDS, "order_k"]


@st.composite
def mutated(draw, texts, bad_values, kinds=KINDS):
    """A valid file with one fault of the kinds a hand-edited or cut file
    has, at a drawn line."""
    text = draw(texts)
    header, *body = text.split("\n")[:-1]
    kind = draw(st.sampled_from(kinds))
    symbols = header.split(" ", 4 if header.startswith("NGLM") else 2)[-1]
    if kind == "empty":
        return ""
    if kind == "alphabet":
        # a repeated character, a tab, a "\r" or nothing: each a fault of line 1
        bad = draw(st.sampled_from([symbols + symbols[0], f"{symbols}\t", f"\r{symbols}", ""]))
        return header[: len(header) - len(symbols)] + bad + text[len(header):]
    if kind == "no_body":
        return header + "\n"
    if kind == "cut":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "order_k":
        # an NGLM order below 1 or a k outside (0, inf), or either one no
        # number, each a fault of line 1, with a bad body line after it or none
        fields = header.split(" ", 4)
        at = draw(st.sampled_from([2, 3]))
        fields[at] = draw(st.sampled_from(
            ["0", "-1", "-0", "x", "2.5", ""] if at == 2
            else ["0", "-0.0", "-1", "inf", "-inf", "nan", "1e400", "x", ""]))
        header = " ".join(fields)
        kind = draw(st.sampled_from(["fields", "value", "none"]))
    i = draw(st.integers(0, len(body) - 1)) if body else 0
    if not body:
        body = [""]
    ctx, tok, value = body[i].split("\t") if body[i] else ("", "a", "1")
    if kind == "fields":
        body[i] = draw(st.sampled_from([f"{ctx}\t{tok}", f"{ctx}\t{tok}\t{value}\t{value}",
                                        f"{ctx}{tok}{value}"]))
    elif kind == "truncate":
        body[i] = body[i][: draw(st.integers(0, max(len(body[i]) - 1, 0)))]
    elif kind == "outside":
        at = draw(st.integers(0, len(ctx)))
        body[i] = f"{ctx[:at]}{OUTSIDE}{ctx[at:]}\t{tok}\t{value}"
    elif kind == "eos_in_context":
        body[i] = f"{ctx}{EOS}\t{tok}\t{value}"
    elif kind == "token":
        body[i] = f"{ctx}\t{draw(st.sampled_from([OUTSIDE, 'ab', '', '</S>']))}\t{value}"
    elif kind == "value":
        body[i] = f"{ctx}\t{tok}\t{draw(bad_values)}"
    elif kind == "long_context":
        # four characters make a context too long for every NGLM order drawn
        body[i] = f"{draw(st.text(symbols, min_size=4, max_size=4))}{ctx}\t{tok}\t{value}"
    elif kind == "duplicate":
        body.insert(draw(st.integers(0, len(body))), body[i])
    elif kind == "blank":
        body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(["", "\r", " "])))
    elif kind == "balanced":
        # one line loses a tab and another gains one, so the body still has
        # 3 x lines fields; in either order, among blank and "\r" lines, with
        # or without a final newline
        if len(body) < 2:
            body.append(f"{ctx}\t{tok}\t{value}")
        if draw(st.booleans()):
            # the line end between two lines moves one field over, so the
            # fields read in order are those of the valid file
            a = draw(st.integers(0, len(body) - 2))
            fields = f"{body[a]}\t{body[a + 1]}".split("\t")
            cut = draw(st.sampled_from([2, 4]))
            body[a], body[a + 1] = "\t".join(fields[:cut]), "\t".join(fields[cut:])
        else:
            j = draw(st.integers(0, len(body) - 2))
            j += j >= i
            c, t, v = body[j].split("\t")
            body[i] = draw(st.sampled_from([f"{ctx}{tok}\t{value}", f"{ctx}\t{tok}{value}"]))
            body[j] = draw(st.sampled_from([f"{c}\t{t}\t{v}\t{v}", f"{c}\t\t{t}\t{v}",
                                            f"\t{c}\t{t}\t{v}"]))
        for _ in range(draw(st.integers(0, 2))):
            body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(["", "\r"])))
        return "\n".join([header, *body]) + draw(st.sampled_from(["\n", ""]))
    return "\n".join([header, *body]) + "\n"


BAD_COUNTS = st.sampled_from(["x", "1.5", "0", "-3", "", " ", "nan", "1e3"])
# a value in [0, 1] breaks its row's sum; the others are out of range
BAD_PROBABILITIES = st.sampled_from(["nan", "inf", "-inf", "-0.25", "1.5", "x", "", "0.123"])


@st.composite
def lone_crs(draw, texts):
    """A drawn file in which any body line ends become a lone "\\r", and a
    "\\r" may go in elsewhere: read from a path, a lone "\\r" ends a line."""
    header, newline, body = draw(texts).partition("\n")
    lines = body.split("\n")
    ends = draw(st.lists(st.sampled_from(["\n", "\r"]), min_size=len(lines) - 1,
                         max_size=len(lines) - 1))
    text = header + newline + "".join(map(str.__add__, lines, ends)) + lines[-1]
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(["", "\r"])) + text[at:]


class TestMalformedFiles:
    @settings(max_examples=400, deadline=None)
    @given(mutated(nglm_texts(), BAD_COUNTS, NGLM_KINDS))
    def test_ngram_faults_match_the_reference(self, text):
        expected = outcome(reference_load_ngram, text)
        if expected[0] is ValidationError:
            # a model the constructor rejects is a parse error of the file
            expected = (ParseError, expected[1], None)
        assert outcome(load_ngram, text) == expected

    @settings(max_examples=400, deadline=None)
    @given(mutated(s2sm_texts(), BAD_PROBABILITIES))
    def test_table_faults_match_the_reference(self, text):
        assert outcome(load_table_scorer, text) == outcome(reference_load_table_scorer, text)

    @settings(max_examples=200, deadline=None)
    @given(st.booleans(), st.data())
    def test_files_read_from_a_path_match_the_reference(self, ngram, data):
        # the faults that move fields across line ends, with some line ends
        # a lone "\r"
        kinds = ["balanced", "fields", "blank", "value"]
        if ngram:
            load, reference = load_ngram, reference_load_ngram
            texts = mutated(nglm_texts(), BAD_COUNTS, [*kinds, "order_k"])
        else:
            load, reference = load_table_scorer, reference_load_table_scorer
            texts = mutated(s2sm_texts(), BAD_PROBABILITIES, kinds)
        text = data.draw(lone_crs(texts))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            expected = outcome(lambda _: reference(path), text)
            if expected[0] is ValidationError:
                expected = (ParseError, expected[1], None)
            assert outcome(lambda _: load(path), text) == expected
