"""Command-line front end: offline decoding, streaming over a line protocol,
LM training, oracle checks, metrics, simulation, and receptive-field math.

Exit codes: 0 ok, 2 usage, 3 parse failure, 4 validation or I/O failure.
Set STREAMCTC_LOG=debug (or info/warning) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys

from . import __version__
from .beam import BeamConfig, _log_frame, _log_frames, beam_decode_rows
from .ctc import Alphabet, enumerate_transcript_probabilities, greedy_decode
from .errors import CapacityError, ParseError, ValidationError
from .formats import opened, utf8_checked
from .lm import load_ngram, save_ngram, train_ngram
from .metrics import confusion_matrix, corpus_error_rates
from .s2s import S2SConfig, load_table_scorer, s2s_decode
from .simulate import (
    SimConfig,
    _emission_blocks,
    _row_lines,
    load_emissions,
    parse_emission_row,
    parse_emissions_header,
    save_emissions,
    simulate,
)
from .streaming import StreamingDecoder, receptive_field

log = logging.getLogger("streamctc")

# json.dumps's own string encoder, bound at import: the benchmark's tracer
# swaps ``json`` for a namespace that holds only ``dumps``
_encode = json.encoder.encode_basestring_ascii

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4

FORMAT_VERSIONS = "CTCEM v1, NGLM v1, S2SM v1"

#: Lowercase letters, apostrophe, and the word separator; 28 visible
#: characters, so emission rows have 29 entries.
DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz' "


def _add_fusion_flags(p: argparse.ArgumentParser, width: int, alpha: float, beta: float):
    p.add_argument("--lm", metavar="FILE", help="NGLM v1 language model for shallow fusion")
    p.add_argument("--beam-width", type=int, default=width, metavar="W")
    p.add_argument("--alpha", type=float, default=alpha, help="LM weight")
    p.add_argument("--beta", type=float, default=beta, help="length-penalty exponent")


def _search(args, parser: argparse.ArgumentParser, config_type=BeamConfig, **fields):
    """The config and the LM of a search command, from the shared flags.
    The usage is checked first (fusion, alpha > 0, needs an LM), then the
    config, and only then is the LM read."""
    if args.alpha > 0 and not args.lm:
        parser.error("--alpha > 0 requires --lm (or pass --alpha 0)")
    config = config_type(width=args.beam_width, alpha=args.alpha, beta=args.beta, **fields)
    if not args.lm:
        return config, None
    lm = load_ngram(args.lm)
    log.debug("loaded LM: order=%d k=%r |symbols|=%d", lm.order, lm.k, len(lm.symbols))
    return config, lm


def _write_record(record: dict) -> None:
    """Write a stream record to standard output as one line, byte for byte
    ``json.dumps(record)`` and a newline, flushed so the reader has it at
    once.  The line is built here so that each distinct string of a record
    is encoded once: ``committed`` is ``hypothesis`` at lag 0 and on the
    final record, and the transcript is the one part that grows."""
    fields = []
    encoded = []  # (string, JSON form) of the strings of this record
    for key, value in record.items():
        cls = value.__class__
        if cls is str:
            for seen, text in encoded:
                if seen == value:
                    break
            else:
                text = _encode(value)
                encoded.append((value, text))
        elif cls is int or (cls is float and math.isfinite(value)):
            text = repr(value)
        elif value is True:
            text = "true"
        else:
            text = json.dumps(value)
        fields.append(f"{_encode(key)}: {text}")
    out = sys.stdout
    out.write("{" + ", ".join(fields) + "}\n")
    out.flush()


def _cmd_decode(args, parser) -> int:
    if args.greedy:  # the search options are checked, but no LM is needed or read
        BeamConfig(width=args.beam_width, alpha=args.alpha, beta=args.beta)
        print(greedy_decode(load_emissions(args.emissions)))
        return EXIT_OK
    config, lm = _search(args, parser)
    # a checked block of rows at a time, logged at once and stepped row by
    # row, so memory is bounded by W plus one block, not by the file length
    with opened(args.emissions, "r") as fh:
        alphabet, frames, blocks = _emission_blocks(fh)
        log.info("decoding %d frames over %d symbols", frames, alphabet.size)
        logged = (frame for block in blocks for frame in _log_frames(block))
        text, score = beam_decode_rows(alphabet, logged, config, lm)
    print(f"{text}\t{score:.6f}")
    return EXIT_OK


def _stream_records(args, parser, stdin) -> int:
    if args.start_frame < 0:
        raise ValidationError("start frame must be >= 0")
    if args.lag < 0:  # as StreamingDecoder checks it, but before anything is read
        raise ValidationError("lag must be >= 0")
    config, lm = _search(args, parser)
    header = stdin.readline()
    if not header:
        raise ParseError("missing header line on standard input", line=1)
    alphabet, frames = parse_emissions_header(header)
    decoder = StreamingDecoder(alphabet, config, lag=args.lag, lm=lm)
    # a record's frame is the rows read so far, those skipped by --start-frame
    # included; a stream may end early
    rows_read = 0
    for rows_read, (lineno, line) in enumerate(_row_lines(stdin), start=1):
        if rows_read > frames:
            raise ParseError(f"header declares {frames} frames but row {rows_read} follows",
                             line=lineno)
        if rows_read <= args.start_frame:
            continue
        out = decoder.push(_log_frame(parse_emission_row(line, alphabet.size, lineno)))
        _write_record({"frame": rows_read, "committed": out.committed,
                       "hypothesis": out.hypothesis, "completion": out.completion,
                       "score": round(out.score, 6)})
    text = decoder.flush()
    _, score = decoder.best_committed()
    _write_record({"frame": rows_read, "committed": text, "hypothesis": text,
                   "completion": "", "score": round(score, 6), "final": True})
    return EXIT_OK


def _cmd_stream(args, parser) -> int:
    if hasattr(sys.stdin, "reconfigure"):  # decoded as under a UTF-8 locale, under every one
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
    try:
        return _stream_records(args, parser, sys.stdin)
    except BrokenPipeError:  # no reader is left for a record
        raise
    except (ParseError, ValidationError, CapacityError, OSError) as exc:
        _write_record({"error": str(exc)})
        raise


def _alphabet(symbols: str) -> str:
    """``--alphabet``, which argv decodes with ``surrogateescape``; a byte in
    it that is not UTF-8 is a ValidationError worded as in a file's line."""
    try:
        return utf8_checked(symbols, None)
    except ParseError as exc:
        raise ValidationError(str(exc)) from None


def _cmd_lm_train(args, parser) -> int:
    symbols = _alphabet(args.alphabet)  # before the corpus is read
    with opened(args.corpus, "r") as fh:
        lines = (utf8_checked(line, lineno) for lineno, line in enumerate(fh, start=1))
        lm = train_ngram(lines, symbols, order=args.order, k=args.k)
    save_ngram(lm, args.output)
    log.info("trained order-%d model with %d contexts", lm.order, len(lm._entries[0]))
    return EXIT_OK


def _cmd_metrics(args, parser) -> int:
    pairs = []
    skipped = 0
    with opened(args.pairs, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = utf8_checked(raw, lineno).rstrip("\r\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(f"expected 'ref<TAB>hyp', got {len(fields)} fields",
                                 line=lineno)
            ref, hyp = fields
            if not ref.strip():
                skipped += 1
                continue
            pairs.append((ref, hyp))
    if not pairs:
        raise ValidationError("no scorable pairs (every reference was empty)")
    word_rate, char_rate = corpus_error_rates(pairs)
    print(f"WER {word_rate:.4f}")
    print(f"CER {char_rate:.4f}")
    print(f"skipped {skipped}")
    if args.confusion:
        matrix = confusion_matrix(pairs)
        for i, ref_char in enumerate(matrix.symbols):
            for j, hyp_char in enumerate(matrix.symbols):
                if matrix.counts[i, j]:
                    print(f"{ref_char}\t{hyp_char}\t{matrix.rates[i, j]:.4f}")
    return EXIT_OK


def _cmd_oracle(args, parser) -> int:
    if args.top < 1:
        raise ValidationError("top must be >= 1")
    em = load_emissions(args.emissions)
    dist = enumerate_transcript_probabilities(em)
    ranked = sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))
    for text, prob in ranked[: args.top]:
        print(f"{prob:.10g}\t{text}")
    return EXIT_OK


def _cmd_simulate(args, parser) -> int:
    alphabet = Alphabet(_alphabet(args.alphabet))
    config = SimConfig(
        peak_prob=args.peak,
        frames_per_char=args.frames_per_char,
        noise_seed=args.seed,
        blank_fill=not args.no_blank_fill,
    )
    em = simulate(args.text, alphabet, config)
    log.info("simulated %d frames for %r", em.num_frames, args.text)
    if args.output:
        save_emissions(em, args.output)
    else:
        save_emissions(em, sys.stdout)
    return EXIT_OK


def _cmd_rf(args, parser) -> int:
    stacks: list[tuple[int, int]] = []  # (filter width, layer count) per token
    for token in args.widths:
        token = token.lower()
        try:
            if "x" in token:
                width_str, count_str = token.split("x", 1)
                count = int(count_str)
                if count < 1:
                    raise ValueError(count)
                stacks.append((int(width_str), count))
            else:
                stacks.append((int(token), 1))
        except ValueError:
            parser.error(f"bad width token {token!r}; use an integer or KxLAYERS")
    future = sum(count * receptive_field([width])[1] for width, count in stacks)
    print(f"r={future} R={2 * future + 1}")
    return EXIT_OK


def _cmd_s2s_decode(args, parser) -> int:
    config, lm = _search(args, parser, S2SConfig, max_length=args.max_length)
    text, score = s2s_decode(load_table_scorer(args.scorer), config, lm)
    print(f"{text}\t{score:.6f}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once: parsing keeps no state
    from one call to the next, and no option has a mutable default."""
    parser = argparse.ArgumentParser(
        prog="streamctc",
        description="Streaming CTC decoding toolkit",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"streamctc {__version__} (formats: {FORMAT_VERSIONS})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="offline beam decode of a CTCEM file")
    p.add_argument("emissions", help="CTCEM v1 file")
    p.add_argument("--greedy", action="store_true",
                   help="collapse the per-frame argmax path instead of beam search")
    _add_fusion_flags(p, width=100, alpha=0.5, beta=0.1)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("stream", help="decode emission rows from stdin, one record per frame")
    p.add_argument("--lag", "-r", type=int, default=22,
                   help="frames to buffer before committing (default 22)")
    p.add_argument("--start-frame", type=int, default=0, metavar="N",
                   help="discard the first N rows and decode from a fresh state")
    _add_fusion_flags(p, width=100, alpha=0.5, beta=0.1)
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("lm-train", help="train an add-k smoothed character n-gram model")
    p.add_argument("corpus", help="UTF-8 text, one sentence per line")
    p.add_argument("--output", "-o", required=True, help="NGLM v1 output file")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--k", type=float, default=1.0, help="add-k smoothing constant")
    p.add_argument("--alphabet", default=DEFAULT_ALPHABET)
    p.set_defaults(func=_cmd_lm_train)

    p = sub.add_parser("metrics", help="WER/CER over a 'ref<TAB>hyp' pairs file")
    p.add_argument("pairs")
    p.add_argument("--confusion", action="store_true",
                   help="also print nonzero substitution-confusion entries")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("oracle", help="top transcripts by exact path-enumeration probability")
    p.add_argument("emissions", help="CTCEM v1 file (small: the oracle enumerates paths)")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("simulate", help="write synthetic emissions for a ground-truth text")
    p.add_argument("text")
    p.add_argument("--output", "-o", help="CTCEM v1 output file (default: stdout)")
    p.add_argument("--alphabet", default=DEFAULT_ALPHABET)
    p.add_argument("--peak", type=float, default=0.9)
    p.add_argument("--frames-per-char", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-blank-fill", action="store_true",
                   help="only insert blank frames where repeats force them")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("rf", help="receptive field of a temporal convolution stack")
    p.add_argument("widths", nargs="+",
                   help="filter widths, either one per layer or KxLAYERS (e.g. 5x11)")
    p.set_defaults(func=_cmd_rf)

    p = sub.add_parser("s2s-decode", help="beam decode an S2SM v1 mock scorer")
    p.add_argument("scorer", help="S2SM v1 file")
    p.add_argument("--max-length", type=int, default=100)
    _add_fusion_flags(p, width=15, alpha=0.1, beta=0.7)
    p.set_defaults(func=_cmd_s2s_decode)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("STREAMCTC_LOG", "").strip().upper()
    if level_name:
        level = getattr(logging, level_name, logging.INFO)
        logging.basicConfig(level=level, stream=sys.stderr,
                            format="%(name)s %(levelname)s %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ParseError as exc:
        print(f"streamctc: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; suppress the
        # interpreter's shutdown flush complaint as well
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except (ValidationError, CapacityError, OSError) as exc:
        print(f"streamctc: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
