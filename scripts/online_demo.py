#!/usr/bin/env python3
"""Frame-by-frame streaming decode of a simulated utterance.

Trains a small character LM on a toy corpus, simulates peaky emissions for a
sentence, and streams them through the online decoder, whose commits trail
its lookahead by the lag, printing the evolving hypothesis with the LM's
word completion in brackets.  Ends with the flushed transcript, the
equivalent offline decode, and the display churn.  Exits 1 when the
flushed stream differs from the offline decode.
"""

import argparse

from streamctc import (
    Alphabet,
    BeamConfig,
    SimConfig,
    StreamingDecoder,
    beam_decode,
    changes_per_frame,
    simulate,
    train_ngram,
    wer,
)

CORPUS = [
    "the cat sat on the mat",
    "a dog ran to the park",
    "the cats ate the food",
    "we did a different thing",
    "she is at the top of the hill",
    "he ran home to an old cabin",
    "the dog sat at home all day",
    "they went to the park to eat",
]

ALPHABET = Alphabet("abcdefghijklmnopqrstuvwxyz' ")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sentence", default="the cat ran to the park")
    parser.add_argument("--lag", type=int, default=5)
    parser.add_argument("--beam-width", type=int, default=32)
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--beta", type=float, default=0.1)
    parser.add_argument("--peak", type=float, default=0.85)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    lm = train_ngram(CORPUS, ALPHABET.symbols, order=4, k=0.1)
    em = simulate(
        args.sentence,
        ALPHABET,
        SimConfig(peak_prob=args.peak, frames_per_char=2.5, noise_seed=args.seed),
    )
    config = BeamConfig(width=args.beam_width, alpha=args.alpha, beta=args.beta)
    decoder = StreamingDecoder(ALPHABET, config, lag=args.lag, lm=lm)

    print(f"ground truth : {args.sentence!r}  ({em.num_frames} frames, lag {args.lag})")
    print(f"{'frame':>5}  decoded string")
    outputs = []
    last_display = None
    for row in em.probs:
        out = decoder.push(row)
        outputs.append(out)
        display = f"{out.hypothesis}[{out.completion}]"
        if display != last_display:
            print(f"{out.frame_index:>5}  {display}")
            last_display = display
    final = decoder.flush()
    offline, _ = beam_decode(em, config, lm)
    print(f"{'final':>5}  {final}")
    print()
    print(f"offline decode matches stream : {final == offline}")
    print(f"word error rate vs ground truth: {wer(args.sentence, final):.2f}")
    print(f"changes per frame              : {changes_per_frame(outputs):.2f}")
    return 0 if final == offline else 1


if __name__ == "__main__":
    raise SystemExit(main())
