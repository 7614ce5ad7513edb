"""CTC prefix beam search with language-model shallow fusion.

A beam holds up to W distinct transcript prefixes; each prefix keeps two
log-probabilities, one for paths ending in blank and one for paths ending
in the final character.  Per frame every prefix may

  * absorb a blank (mass moves to the blank bucket, prefix unchanged),
  * repeat its final character with no blank in between (non-blank bucket,
    prefix unchanged, no LM involvement), or
  * extend by a visible character c, fused with the LM as p_LM(c|prefix)**alpha.
    Extending by the character the prefix already ends in consumes only the
    blank bucket: a repeated character needs a blank between its frames.

Contributions to the same extended prefix from different sources add up.
Pruning keeps the W prefixes with the highest length-normalized score
log p / max(1, |prefix|)**beta, breaking ties lexicographically, and drops
prefixes whose total probability is zero.

A beam is a set of arrays, one entry per hypothesis: both buckets and their
sum, the final character, the length, the LM state and accumulated LM
log-probability, the row holding the prefix less its last character (or
-1), and the prefix itself as a pointer node.  A node is ``(parent node,
chunk)`` for every full chunk of ``_CHUNK`` characters, plus a tail string
of the rest, so hypotheses share their common history and the memory is
bounded by W plus the transcript.  Each row also keeps its parent tail: the
tail of the prefix less its last character, or None for the empty prefix.

A step is a fixed number of numpy operations over these arrays and the
W x |A| extension grid, whose cost does not grow with the transcript, plus
:func:`log_add`, one call per pair, on the merged pairs and on every
hypothesis's two buckets.  numpy's ``exp`` and ``log1p`` differ from
``math``'s in the last bit, and a vector form that keeps ``math``'s bits
takes about twice as long at W=8 and about as long at W=100.  The parent
rows give the merges: s + c is the hypothesis whose parent is s, and
absorbs s's extension by c.  They are carried through the cut: an
extension's parent is the hypothesis it extends, and a hypothesis that
stays keeps its parent, when that survives.  Only a parent that had left
the beam and comes back as an extension is looked up: an extension whose
tail is the stay's parent tail, checked on the nodes.
:func:`ranked_cut`, shared with the seq2seq search in ``s2s.py``, keeps
the W best by (-score, prefix) as a set with the best first: it partitions
the scores in numpy and spells prefixes only for the entries that tie
exactly at the W-th score when not all of them fit, or that tie for the
best, and then only the chunks where they part.  Only the W survivors
advance the LM, in one batched call.  Prefix strings are spelled for
outputs: :attr:`Beam.best` is row 0, and :attr:`Beam.hypotheses` gives
the hypotheses in (-score, prefix) order, sorted when first read.

``beam_step`` is pure: it writes nothing to the input beam, so independent
decodes can share beams, and the streaming decoder's beam after frame t is
exactly the offline beam over the same rows.  It rejects emission rows that
are not finite, in [0, 1] and summing to 1, and LM rows holding NaN or a
log-probability above 0, whatever route they came by.  Only the package's
readers skip the row check, by handing it a private frame: a row they have
checked, already logged.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from math import exp, isfinite, log1p
from typing import Iterable

import numpy as np

from .ctc import NEG_INF, Alphabet, EmissionMatrix, check_rows
from .errors import ValidationError
from .lm import CharLm, UniformLm, check_log_rows

_CHUNK = 64  # prefix characters per shared node
_COLLAPSED = "beam collapsed: the emission row assigns no mass to any reachable prefix"


def log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) for scalars, tolerating -inf."""
    if a < b:
        a, b = b, a
    if b == NEG_INF:
        return a
    return a + log1p(exp(b - a))


def _log_add_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`log_add` on every pair of two arrays, so bit for bit."""
    return np.fromiter(map(log_add, a.tolist(), b.tolist()), dtype=np.float64, count=a.size)


def normalized_score(log_prob: float, length: int, beta: float) -> float:
    """log p / max(1, length)**beta; the empty prefix divides by 1."""
    return log_prob / max(1, length) ** beta


@functools.lru_cache(maxsize=16)
def _length_powers(beta: float, size: int) -> np.ndarray:
    """``max(1, k) ** beta`` for k < ``size``, each Python's ``**`` as
    :func:`normalized_score` takes it (numpy's power differs from it in the
    last bit for some k).  Read-only: every step with that beta shares it."""
    table = np.fromiter((max(1, k) ** beta for k in range(size)), dtype=np.float64, count=size)
    table.flags.writeable = False
    return table


def _prefix_order(ks: np.ndarray, prefixes_of) -> list[int]:
    """The positions in ``ks`` of its entries ordered by (prefix, k).  ``ks``
    ascends or is in that order already, so a stable sort by prefix alone
    keeps k as the tie-break."""
    keys = prefixes_of(ks.tolist())
    return sorted(range(len(keys)), key=keys.__getitem__)


def ranked_cut(scores: np.ndarray, width: int, prefixes_of) -> np.ndarray:
    """The entries k of the ``width`` best ``scores`` by (-score, prefix, k):
    the best of them first, the rest in no fixed order.  Prefixes decide
    only two things, through ``prefixes_of(ks)`` (keys that order as the
    prefixes of the entries ``ks`` do, not necessarily the prefixes
    themselves): which entries equal to the width-th best score are kept,
    when not all of them fit, and which entry is first, when more than one
    ties for the best score."""
    if scores.size > width:
        kth = np.partition(scores, -width)[-width]
        kept = (scores >= kth).nonzero()[0]
        if kept.size > width:  # the entries equal to the width-th score do not all fit
            at = scores[kept] == kth
            above, tied = kept[~at], kept[at]
            tied = tied[_prefix_order(tied, prefixes_of)[:width - above.size]]
            kept = np.concatenate((above, tied))
    else:
        kept = np.arange(scores.size)
    ranked = scores[kept]
    top = (ranked == ranked.max()).nonzero()[0]
    first = top[0] if top.size == 1 else top[_prefix_order(kept[top], prefixes_of)[0]]
    if first:
        kept[0], kept[first] = kept[first], kept[0]
    return kept


@dataclass(frozen=True)
class BeamConfig:
    width: int = 100
    alpha: float = 0.5
    beta: float = 0.1

    def __post_init__(self):
        if self.width < 1:
            raise ValidationError("beam width must be >= 1")
        if not (isfinite(self.alpha) and isfinite(self.beta)):
            raise ValidationError("alpha and beta must be finite")
        if self.alpha < 0:
            raise ValidationError("alpha must be >= 0")
        if self.beta < 0:
            raise ValidationError("beta must be >= 0")


@dataclass(frozen=True)
class Hypothesis:
    prefix: str
    log_pb: float        # paths ending in blank
    log_pnb: float       # paths ending in the final character
    lm_state: object     # LM state advanced once per prefix character
    lm_logprob: float    # accumulated sum of log p_LM over the prefix

    @property
    def log_prob(self) -> float:
        return log_add(self.log_pb, self.log_pnb)


def _spell(node, tail: str) -> str:
    """The prefix of a hypothesis from its node chain and tail."""
    parts = [tail]
    while node is not None:
        node, chunk = node
        parts.append(chunk)
    parts.reverse()
    return "".join(parts)


def _spell_apart(beam: "Beam", rows: list[int]) -> list[str]:
    """The prefixes of the hypotheses ``rows`` less the chunks that all of
    them share: they order as the whole prefixes do, and spelling them walks
    only the chunks where they part."""
    nodes, tails = beam._node[rows].tolist(), beam._tail[rows].tolist()
    if nodes.count(nodes[0]) == len(nodes):  # one history: the tails decide
        return tails
    parts = [[tail] for tail in tails]
    depths = (beam._length[rows] // _CHUNK).tolist()
    low = min(depths)
    for i, depth in enumerate(depths):
        for _ in range(depth - low):
            nodes[i], chunk = nodes[i]
            parts[i].append(chunk)
    while any(node is not nodes[0] for node in nodes):  # all at one depth now
        for i, part in enumerate(parts):
            nodes[i], chunk = nodes[i]
            part.append(chunk)
    return ["".join(reversed(part)) for part in parts]


@functools.lru_cache(maxsize=16)
def _symbol_objects(symbols: str) -> np.ndarray:
    """The symbols as a read-only object array."""
    array = np.fromiter(symbols, dtype=object, count=len(symbols))
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=16)
def _uniform_lm(symbols: str) -> UniformLm:
    return UniformLm(symbols)


class Beam:
    """Hypotheses for one frame, with distinct prefixes, the best first.

    ``Beam(alphabet, hypotheses, frame_index)`` builds a beam from
    :class:`Hypothesis` values, keeps their order and rejects a prefix given
    twice.  :func:`beam_step` builds its beams from arrays, with the best
    hypothesis by (-pruning score, prefix) in row 0 and the rest in no fixed
    order, and keeps each row's pruning score.  :attr:`hypotheses` and
    :attr:`best` are views built on demand; :attr:`hypotheses` gives a
    stepped beam's hypotheses in (-pruning score, prefix) order.
    """

    __slots__ = ("alphabet", "frame_index", "_pb", "_pnb", "_total", "_lm_logprob",
                 "_last", "_length", "_up", "_state", "_node", "_tail", "_up_tail",
                 "_view", "_scores")

    def __init__(self, alphabet: Alphabet, hypotheses: Iterable[Hypothesis],
                 frame_index: int = 0):
        hyps = tuple(hypotheses)
        index = alphabet._index
        nodes, tails, up_tails, lasts = [], [], [], []
        shared = {}  # (id of parent node, chunk) -> node, so prefixes share history
        row_of = {}
        for hyp in hyps:
            prefix = hyp.prefix
            alphabet.validate_text(prefix)
            if prefix in row_of:
                raise ValidationError(f"beam holds the prefix {prefix!r} twice")
            row_of[prefix] = len(row_of)
            lasts.append(index[prefix[-1]] if prefix else len(alphabet.symbols))
            node = None
            cut = len(prefix) - len(prefix) % _CHUNK
            for start in range(0, cut, _CHUNK):
                chunk = prefix[start:start + _CHUNK]
                node = shared.setdefault((id(node), chunk), (node, chunk))
            nodes.append(node)
            tails.append(prefix[cut:])
            end = len(prefix) - 1  # the parent's length
            up_tails.append(prefix[end - end % _CHUNK:end] if prefix else None)
        up = [row_of.get(prefix[:-1], -1) if prefix else -1 for prefix in row_of]

        def floats(values):
            return np.array(list(values), dtype=np.float64)

        self._set(alphabet, frame_index, floats(h.log_pb for h in hyps),
                  floats(h.log_pnb for h in hyps), floats(h.log_prob for h in hyps),
                  floats(h.lm_logprob for h in hyps), np.array(lasts, dtype=np.intp),
                  np.array([len(h.prefix) for h in hyps], dtype=np.intp),
                  np.array(up, dtype=np.intp), _state_array([h.lm_state for h in hyps]),
                  *(np.fromiter(column, dtype=object, count=len(hyps))
                    for column in (nodes, tails, up_tails)))
        self._view = hyps

    def _set(self, alphabet, frame_index, pb, pnb, total, lm_logprob, last, length,
             up, state, node, tail, up_tail) -> "Beam":
        self.alphabet = alphabet
        self.frame_index = frame_index
        self._pb, self._pnb, self._total, self._lm_logprob = pb, pnb, total, lm_logprob
        self._last, self._length, self._up = last, length, up
        self._state, self._node, self._tail, self._up_tail = state, node, tail, up_tail
        self._view = self._scores = None
        return self

    @property
    def hypotheses(self) -> Sequence[Hypothesis]:
        if self._view is None:
            self._view = _HypothesisView(self)
        return self._view

    @property
    def best(self) -> Hypothesis:
        return self._hypothesis(0)

    def _prefix(self, row: int) -> str:
        return _spell(self._node[row], self._tail[row])

    def _hypothesis(self, row: int) -> Hypothesis:
        return Hypothesis(self._prefix(row), float(self._pb[row]), float(self._pnb[row]),
                          self._state[row:row + 1].tolist()[0],
                          float(self._lm_logprob[row]))

    def _score(self, row: int, beta: float) -> float:
        return normalized_score(float(self._total[row]), int(self._length[row]), beta)

    def __len__(self) -> int:
        return self._pb.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Beam):
            return NotImplemented
        return ((self.alphabet, self.frame_index, tuple(self.hypotheses))
                == (other.alphabet, other.frame_index, tuple(other.hypotheses)))

    def __hash__(self) -> int:
        return hash((self.alphabet, self.frame_index, tuple(self.hypotheses)))

    def __repr__(self) -> str:
        return (f"Beam(alphabet={self.alphabet!r}, hypotheses={tuple(self.hypotheses)!r}, "
                f"frame_index={self.frame_index!r})")


class _HypothesisView(Sequence):
    """The hypotheses of a beam, spelled out when first read, and ordered by
    (-score, prefix) when the beam keeps its rows' scores."""

    __slots__ = ("_beam", "_items")

    def __init__(self, beam: Beam):
        self._beam = beam
        self._items = None

    def __len__(self) -> int:
        return len(self._beam)

    def __getitem__(self, i):
        if self._items is None:
            beam = self._beam
            items = list(map(beam._hypothesis, range(len(beam))))
            if beam._scores is not None:
                keys = list(zip((-s for s in beam._scores.tolist()), (h.prefix for h in items)))
                items = [items[r] for r in sorted(range(len(items)), key=keys.__getitem__)]
            self._items = tuple(items)
        return self._items[i]


def _state_array(states: list) -> np.ndarray:
    """LM states as an array: ints as an int array, anything else as objects."""
    if all(type(s) is int for s in states):
        return np.array(states, dtype=np.intp)
    return np.fromiter(states, dtype=object, count=len(states))


def beam_init(alphabet: Alphabet, config: BeamConfig, lm: CharLm | None = None) -> Beam:
    """Single empty-prefix hypothesis with all mass in the blank bucket."""
    lm = lm if lm is not None else _uniform_lm(alphabet.symbols)
    return Beam(alphabet, (Hypothesis("", 0.0, NEG_INF, lm.initial_state(), 0.0),), 0)


class _Frame:
    """An emission row that a reader of the package has checked, as
    :func:`beam_step` reads it: the log row with the blank column at -inf,
    and the blank's log-probability."""

    __slots__ = ("log_row", "blank")

    def __init__(self, log_row: np.ndarray, blank: float):
        self.log_row, self.blank = log_row, blank


def _log_frame(row: np.ndarray) -> _Frame:
    """The frame of one checked emission row."""
    with np.errstate(divide="ignore"):
        log_row = np.log(row)
    blank = float(log_row[-1])
    # Column m stands for the empty prefix's missing final character: -inf,
    # so the extension grid needs no mask.
    log_row[-1] = NEG_INF
    return _Frame(log_row, blank)


def _log_frames(rows: np.ndarray) -> list[_Frame]:
    """The frames of ``rows``, a 2-D block of checked emission rows, with
    one ``np.log`` over the block: it gives each row's own log bit for bit."""
    with np.errstate(divide="ignore"):
        log_rows = np.log(rows)
    blanks = log_rows[:, -1].tolist()
    log_rows[:, -1] = NEG_INF
    return list(map(_Frame, log_rows, blanks))


def beam_step(beam: Beam, frame, config: BeamConfig, lm: CharLm | None = None) -> Beam:
    """Advance the beam by one emission row and prune back to the width.

    The row must have one entry per symbol and the blank, be finite, lie in
    [0, 1] and sum to 1.  A frame that the package's readers made from a row
    they checked (:func:`_log_frame`, :func:`_log_frames`) is taken as it
    is."""
    alphabet = beam.alphabet
    symbols = alphabet.symbols
    lm = lm if lm is not None else _uniform_lm(symbols)
    if type(frame) is not _Frame:
        row = np.asarray(frame, dtype=np.float64)
        if row.shape != (alphabet.size,):
            raise ValidationError(
                f"emission row has shape {row.shape}, expected ({alphabet.size},)"
            )
        check_rows(row)
        frame = _log_frame(row)
    n, m = len(beam), len(symbols)
    if not n:
        raise ValidationError(_COLLAPSED)
    char_lp, blank_lp = frame.log_row, frame.blank
    pb, pnb, total, last, length = beam._pb, beam._pnb, beam._total, beam._last, beam._length

    # LM rows in alphabet order, end of sentence in column m
    lm_lp = lm.next_log_probs_many(beam._state)
    lm_cols = None
    if lm.symbols != symbols:
        lm_cols = np.array([lm.index_of(c) for c in symbols] + [len(lm.symbols)])
        lm_lp = lm_lp[:, lm_cols]
    check_log_rows(lm_lp, "LM")

    # Candidate k of the (n, m + 2) grid is hypothesis k // (m + 2)
    # extended by character k % (m + 2), or kept as it is in column m + 1.
    # p(s + c) = (p_char(c) + base) + alpha * log p_LM(c | s), where the base
    # is the total mass, or only the blank bucket when c repeats the last.
    grid = np.empty((n, m + 2))
    ext = grid[:, :m + 1]
    np.add(char_lp, total[:, None], out=ext)
    repeat = char_lp[last]
    rows = np.arange(n)
    ext[rows, last] = repeat + pb
    if config.alpha:
        ext += config.alpha * lm_lp
    stay_pb = blank_lp + total
    stay_pnb = repeat + pnb
    js = (beam._up >= 0).nonzero()[0]
    parents = beam._up[js]
    if js.size:  # s + c is already the hypothesis s': merge it into s'
        cols = last[js]
        stay_pnb[js] = _log_add_many(stay_pnb[js], ext[parents, cols])
        ext[parents, cols] = NEG_INF
    grid[:, m + 1] = stay_total = _log_add_many(stay_pb, stay_pnb)

    # one table per beta and power-of-two size class above length + 1
    powers = _length_powers(config.beta, 1 << max(6, (int(length.max()) + 1).bit_length()))
    scores = grid / powers[length + 1][:, None]
    scores[:, m + 1] = stay_total / powers[length]
    scores = scores.ravel()
    alive = int(np.count_nonzero(scores > NEG_INF))
    if not alive:  # zero-probability prefixes are dropped
        raise ValidationError(_COLLAPSED)

    def prefixes_of(ks: list[int]) -> list[str]:
        """Keys that order as the prefixes of candidates ``ks`` do; tied
        candidates are mostly extensions of a few hypotheses."""
        rows = list(dict.fromkeys(k // (m + 2) for k in ks))
        head = dict(zip(rows, _spell_apart(beam, rows)))
        return [head[k // (m + 2)] + (symbols[k % (m + 2)] if k % (m + 2) < m else "")
                for k in ks]

    ks = ranked_cut(scores, min(config.width, alive), prefixes_of)

    src, col = np.divmod(ks, m + 2)
    x = (col < m).nonzero()[0]  # the extensions among the survivors
    sx, cx = src[x], col[x]
    out_total = grid.ravel()[ks]
    out_pb, out_pnb = stay_pb[src], stay_pnb[src]
    out_pb[x] = NEG_INF
    out_pnb[x] = out_total[x]
    out_lm = beam._lm_logprob[src]
    out_lm[x] += lm_lp[sx, cx]
    out_last, out_length = last[src], length[src]
    out_last[x] = cx
    out_length[x] += 1
    state, node, tail = beam._state[src], beam._node[src], beam._tail[src]
    up_tail = beam._up_tail[src]
    if x.size:
        state[x] = lm.advance_many(state[x], cx if lm_cols is None else lm_cols[cx])
        up_tail[x] = tail[x]  # an extension's parent is its source
        grown = list(map(operator.add, tail[x], _symbol_objects(symbols)[cx]))
        if _CHUNK in map(len, grown):  # a full chunk becomes a node
            for f, text in enumerate(grown):
                if len(text) == _CHUNK:
                    node[x[f]] = (node[x[f]], text)
                    grown[f] = ""
        tail[x] = np.fromiter(grown, dtype=object, count=len(grown))

    # Each row's parent row.  Every extension is new to the beam (merged ones
    # were cut), so its parent is its source's stay; a stay's is the stay of its
    # source's parent, if kept, or else an extension whose tail is the stay's
    # parent tail and whose nodes are the parent's.
    # candidate -> new row, or -1, over one row past the grid: index -1 reads -1
    at = np.empty((n + 1) * (m + 2), dtype=np.intp)
    at.fill(-1)
    at[ks] = np.arange(ks.size)
    parent_src = beam._up[src]
    parent_src[x] = sx
    up = at[m + 1::m + 2][parent_src]  # the new rows of the parents' stays
    lone = (parent_src < 0).nonzero()[0]
    ext_tails, lone_tails = tail[x].tolist(), up_tail[lone]
    if not set(ext_tails).isdisjoint(lone_tails.tolist()):
        for i, i_tail in zip(x.tolist(), ext_tails):
            for j in lone[lone_tails == i_tail].tolist():
                j_node = node[j] if tail[j] else node[j][0]  # the parent's node
                if j_node is node[i] or j_node == node[i]:
                    up[j] = i
    out = Beam.__new__(Beam)._set(
        alphabet, beam.frame_index + 1, out_pb, out_pnb, out_total, out_lm, out_last,
        out_length, up, state, node, tail, up_tail)
    out._scores = scores[ks]
    return out


def beam_decode_rows(
    alphabet: Alphabet, rows: Iterable, config: BeamConfig | None = None,
    lm: CharLm | None = None,
) -> tuple[str, float]:
    """Run the full beam search over ``rows``, taken one at a time, and return
    the best transcript and its length-normalized log score.  No rows decode
    to ("", 0.0)."""
    config = config if config is not None else BeamConfig()
    lm = lm if lm is not None else _uniform_lm(alphabet.symbols)
    beam = beam_init(alphabet, config, lm)
    for row in rows:
        beam = beam_step(beam, row, config, lm)
    return beam._prefix(0), beam._score(0, config.beta)


def beam_decode(
    em: EmissionMatrix, config: BeamConfig | None = None, lm: CharLm | None = None
) -> tuple[str, float]:
    """:func:`beam_decode_rows` over the rows of ``em``."""
    return beam_decode_rows(em.alphabet, em.probs, config, lm)
