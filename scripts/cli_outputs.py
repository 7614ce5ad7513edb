#!/usr/bin/env python3
"""Byte-identity of CLI outputs between a parent revision and this tree.

    python3 scripts/cli_outputs.py --parent HEAD~1

Each side writes the seed-1 benchmark inputs with its own
``streambench/inputs.py`` and package.  Once they are found identical, the
script adds malformed inputs made from them to both sides, and each side
runs 49 jobs on the valid inputs as ``python -m streamctc`` with the 3-gram
LM: ``decode`` and ``stream --lag 22`` of the first 16 stream-default
utterances, ``s2s-decode`` of the first 16 s2s-batch tables, and
``stream --lag 0 --beam-width 8`` of the first stream-long utterance; then
11 jobs that each end on one error route or on a field at the edge of what
``float()`` reads; then a ``decode`` and an ``s2s-decode`` with an LM whose
header lists the alphabet reversed, so both searches gather the LM's
columns into their own order; then 4 ``decode`` jobs on the 97-row
``utt001.em`` whose line 70, inside the second block of rows that
``decode`` parses and checks together, holds a bad float, a row summing
to 0.5 or a byte that is not UTF-8, or is the first of two blank lines;
then 3 ``stream`` jobs on the first utterance: with a blank line between
every two rows, with ``--start-frame 5``, and with its last row coming
again after two blank lines, so the error names a line that counts them;
then 5 jobs on bytes that are not UTF-8: a ``stream`` of the row that
``decode not-utf8`` reads, a ``stream --alpha 0`` whose header alphabet
holds one, a ``decode`` of a file with a bad float on line 3 and one on
line 10, inside the first 8 KB, a ``decode`` with an LM whose line 3 holds
a bad count and a later line one, and a ``decode`` of a row ending in a
truncated sequence before its line end; last, 2 ``stream --alpha 0`` jobs,
at lag 0 and lag 22, on a hand-written utterance whose alphabet holds
``"``, ``\\`` and non-ASCII characters, so that its records escape them.
That makes 76 jobs.  The script
exits 1 naming the first input file, or the first job whose stdout,
stderr or exit code differs, and 0 when all are byte-identical.  Every job
runs in a new process with its own random hash seed, so ``--parent HEAD``
checks that the outputs do not depend on it.  The change is this
checkout's working tree; the parent is the committed files of
``--parent``, unpacked into a temporary directory (``TMPDIR`` chooses
where) by ``bench_pairs.unpack``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import unpack

ROOT = Path(__file__).resolve().parent.parent
PER_KIND = 16
LM = ("--lm", "lm.nglm")
# run in the inputs directory, with a side's ``inputs`` module and package
WRITE_INPUTS = """\
from inputs import make_inputs
make_inputs(1, "utterances", ".")
make_inputs(1, "tables", ".")
long = make_inputs(1, "long", ".").utterances[0]
with open("long.em", "w", encoding="utf-8", newline="\\n") as fh:
    fh.writelines(long.lines)
"""


def jobs() -> list[tuple[str, list[str], str | None]]:
    """(name, argv, stdin file or None) of every job, with paths relative to
    the inputs directory."""
    out = []
    for i in range(PER_KIND):
        out.append((f"decode utt{i:03d}", ["decode", f"utt{i:03d}.em", *LM], None))
    for i in range(PER_KIND):
        out.append((f"stream utt{i:03d}", ["stream", "--lag", "22", *LM], f"utt{i:03d}.em"))
    for i in range(PER_KIND):
        out.append((f"s2s-decode t{i:03d}", ["s2s-decode", f"t{i:03d}.s2sm", *LM], None))
    out.append(("stream long", ["stream", "--lag", "0", "--beam-width", "8", *LM], "long.em"))
    return out


def fault_jobs() -> list[tuple[str, list[str], str | None]]:
    """The jobs on the inputs of :func:`fault_inputs`: one per error route,
    then three on fields that ``float()`` reads as NaN, rejects as empty,
    or reads although they hold an underscore, then two with the reversed
    LM, then four with line 70 of a 97-row utterance spoiled, then three
    streams whose rows are numbered past blank lines or skipped, then five
    with a byte that is not UTF-8: in a row read by ``stream``, in the
    alphabet of a stream's header, on a line after an earlier fault in a
    CTCEM file and in an LM, and as a truncated sequence before a line
    end."""
    return [
        ("decode bad-float", ["decode", "bad-float.em", *LM], None),
        ("decode bad-sum", ["decode", "bad-sum.em", *LM], None),
        ("stream extra-row", ["stream", "--lag", "22", *LM], "extra-row.em"),
        ("stream empty", ["stream", "--lag", "22", *LM], "empty.em"),
        ("decode not-utf8", ["decode", "not-utf8.em", *LM], None),
        ("decode missing-lm", ["decode", "utt000.em", "--lm", "missing.nglm"], None),
        ("decode crlf-lm", ["decode", "utt000.em", "--lm", "crlf.nglm"], None),
        ("s2s-decode bad-prob", ["s2s-decode", "bad-prob.s2sm", *LM], None),
        ("decode nan-field", ["decode", "nan-field.em", *LM], None),
        ("stream empty-field", ["stream", "--lag", "22", *LM], "empty-field.em"),
        ("decode underscore-field", ["decode", "underscore-field.em", *LM], None),
        ("decode reversed-lm", ["decode", "utt000.em", "--lm", "reversed.nglm"], None),
        ("s2s-decode reversed-lm", ["s2s-decode", "t000.s2sm", "--lm", "reversed.nglm"], None),
        *((f"decode line70-{fault}", ["decode", f"line70-{fault}.em", *LM], None)
          for fault in ("bad-float", "bad-sum", "not-utf8", "blank")),
        ("stream blank-lines", ["stream", "--lag", "22", *LM], "blank-lines.em"),
        ("stream start-frame", ["stream", "--lag", "22", "--start-frame", "5", *LM],
         "utt000.em"),
        ("stream blank-extra-row", ["stream", "--lag", "22", *LM], "blank-extra-row.em"),
        ("stream not-utf8", ["stream", "--lag", "22", *LM], "not-utf8.em"),
        ("stream header-not-utf8", ["stream", "--lag", "22", "--alpha", "0"],
         "header-not-utf8.em"),
        ("decode byte-after-fault", ["decode", "byte-after-fault.em", *LM], None),
        ("decode lm-byte-after-fault", ["decode", "utt000.em", "--lm", "byte-after-fault.nglm"],
         None),
        ("decode truncated-utf8", ["decode", "truncated-utf8.em", *LM], None),
    ]


#: the alphabet of :func:`escaped_utterance`, then its blank marker
ESCAPED_COLUMNS = 'a"\\é中-'
#: the column each row of :func:`escaped_utterance` peaks on
ESCAPED_PATH = '"-aa\\-é-中中-"-a\\-\\é--中a-"é-a-\\"-中-é\\a--"a-é中-\\-aa-"-'


def escaped_utterance() -> bytes:
    """A CTCEM utterance whose records must escape a quote, a backslash
    and non-ASCII characters: row n holds 0.6 on the column of character n
    of :data:`ESCAPED_PATH` and 0.08 on each of the others."""
    rows = [" ".join("0.6" if c == peak else "0.08" for c in ESCAPED_COLUMNS) + "\n"
            for peak in ESCAPED_PATH]
    header = f"CTCEM v1 {len(rows)} {len(ESCAPED_COLUMNS)} {ESCAPED_COLUMNS}\n"
    return (header + "".join(rows)).encode()


def escaped_jobs() -> list[tuple[str, list[str], str | None]]:
    """``stream --alpha 0`` of :func:`escaped_utterance`, at lag 0 and 22."""
    return [(f"stream escaped-lag{lag}", ["stream", "--lag", str(lag), "--alpha", "0"],
             "escaped.em") for lag in (0, 22)]


def all_jobs() -> list[tuple[str, list[str], str | None]]:
    """Every job, in the order they run."""
    return jobs() + fault_jobs() + escaped_jobs()


def fault_inputs(inputs: Path) -> dict[str, bytes]:
    """Malformed files, by name, made from the seed-1 inputs in ``inputs``:
    the third emission row of ``utt000.em`` starts with a word, 0.5, a
    byte that is not UTF-8, ``nan`` or ``0_1``, or its second field is
    empty, or its last row comes twice; the LM has CRLF line ends, or
    its header lists the alphabet reversed over the same body; the first
    entry of ``t000.s2sm`` is 1.5; line 70 of ``utt001.em`` starts with a
    word or a byte that is not UTF-8, or sums to 0.5, or two blank lines
    come before it; ``utt000.em`` has a blank line between every two rows,
    or its last row comes again after two blank lines, or the first
    character of its header alphabet is a byte that is not UTF-8, or its
    third row ends in the truncated sequence ``\\xc3``; line 3 of
    ``utt001.em`` holds a bad float and line 10, in the same 8 KB, a byte
    that is not UTF-8; line 3 of the LM holds a bad count and its last line
    a byte that is not UTF-8."""
    header, *rows = (inputs / "utt000.em").read_bytes().splitlines(keepends=True)
    rest = rows[2][rows[2].index(b" "):]
    first, _, *others = rows[2].split(b" ")

    def em(third: bytes) -> bytes:
        return b"".join([header, *rows[:2], third + rest, *rows[3:]])

    header97, *rows97 = (inputs / "utt001.em").read_bytes().splitlines(keepends=True)
    row70 = rows97[68]  # line 70
    rest3 = rows97[1][rows97[1].index(b" "):]  # line 3 less its first field

    def line70(*lines: bytes) -> bytes:
        return b"".join([header97, *rows97[:68], *lines, *rows97[69:]])

    s2s_header, entry, *entries = (inputs / "t000.s2sm").read_bytes().splitlines(keepends=True)
    lm_header, lm_body = (inputs / "lm.nglm").read_bytes().split(b"\n", 1)
    lm_fields = lm_header.split(b" ", 4)
    lm_lines = (inputs / "lm.nglm").read_bytes().splitlines(keepends=True)
    count3 = lm_lines[2].rindex(b"\t")  # the count field of line 3
    em_fields = header.split(b" ", 4)
    return {
        "bad-float.em": em(b"x"),
        "bad-sum.em": em(b"0.5"),
        "not-utf8.em": em(b"\xff"),
        "extra-row.em": b"".join([header, *rows, rows[-1]]),
        "empty.em": b"",
        "crlf.nglm": (inputs / "lm.nglm").read_bytes().replace(b"\n", b"\r\n"),
        "bad-prob.s2sm": b"".join([s2s_header, entry[:entry.rindex(b"\t")], b"\t1.5\n",
                                   *entries]),
        "nan-field.em": em(b"nan"),
        "empty-field.em": b"".join([header, *rows[:2], b" ".join([first, b"", *others]),
                                    *rows[3:]]),
        "underscore-field.em": em(b"0_1"),
        "reversed.nglm": b" ".join([*lm_fields[:4], lm_fields[4].decode()[::-1].encode()])
                         + b"\n" + lm_body,
        "line70-bad-float.em": line70(b"x" + row70[row70.index(b" "):]),
        "line70-bad-sum.em": line70(b" ".join([b"0.5"] + [b"0.0"] * row70.count(b" ")) + b"\n"),
        "line70-not-utf8.em": line70(b"\xff" + row70[row70.index(b" "):]),
        "line70-blank.em": line70(b"\n", b"\n", row70),
        "blank-lines.em": header + b"\n".join(rows),
        "blank-extra-row.em": b"".join([header, *rows, b"\n", b"\n", rows[-1]]),
        "header-not-utf8.em": b"".join([b" ".join([*em_fields[:4], b"\xff" + em_fields[4][1:]]),
                                        *rows]),
        "truncated-utf8.em": b"".join([header, *rows[:2], rows[2][:-1] + b"\xc3\n", *rows[3:]]),
        "byte-after-fault.em": b"".join([header97, rows97[0], b"x" + rest3, *rows97[2:8],
                                         b"\xff" + rows97[8], *rows97[9:]]),
        "byte-after-fault.nglm": b"".join([*lm_lines[:2], lm_lines[2][:count3], b"\tx\n",
                                           *lm_lines[3:-1], b"\xff" + lm_lines[-1]]),
    }


def side_env(checkout: Path) -> dict[str, str]:
    """The environment that runs ``checkout``'s package and ``inputs`` module,
    each process with its own random hash seed."""
    return {**os.environ, "PYTHONHASHSEED": "random", "PYTHONPATH": os.pathsep.join(
        [str(checkout / "src"), str(checkout / "streambench")])}


def run_jobs(checkout: Path, workdir: Path) -> list[tuple[bytes, bytes, int]]:
    """(stdout, stderr, exit code) of every job, run in ``workdir`` with
    ``checkout``'s code."""
    env, results = side_env(checkout), []
    for name, argv, stdin in all_jobs():
        with open(workdir / stdin, "rb") if stdin else open(os.devnull, "rb") as fh:
            proc = subprocess.run([sys.executable, "-m", "streamctc", *argv], cwd=workdir,
                                  env=env, stdin=fh, capture_output=True)
        results.append((proc.stdout, proc.stderr, proc.returncode))
    return results


def first_difference(parent: Path, change: Path) -> str | None:
    """The name of the first input file that one side lacks or that differs."""
    names = sorted({p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()})
    for name in names:
        if not (parent / name).is_file() or not (change / name).is_file():
            return name
        if (parent / name).read_bytes() != (change / name).read_bytes():
            return name
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", metavar="REV", required=True,
                   help="git revision whose committed files are the parent")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        revision = unpack(args.parent, tmp / "parent")
        sides = {"parent": tmp / "parent", "change": ROOT}
        for side, checkout in sides.items():
            (tmp / f"inputs-{side}").mkdir()
            subprocess.run([sys.executable, "-c", WRITE_INPUTS], cwd=tmp / f"inputs-{side}",
                           env=side_env(checkout), check=True)
        differs = first_difference(tmp / "inputs-parent", tmp / "inputs-change")
        if differs:
            print(f"input {differs} differs at {revision[:12]} and here", file=sys.stderr)
            return 1
        added = {**fault_inputs(tmp / "inputs-change"), "escaped.em": escaped_utterance()}
        outputs = {}
        for side, checkout in sides.items():
            for name, data in added.items():
                (tmp / f"inputs-{side}" / name).write_bytes(data)
            outputs[side] = run_jobs(checkout, tmp / f"inputs-{side}")
        for (name, _, _), old, new in zip(all_jobs(), outputs["parent"], outputs["change"]):
            for part, a, b in zip(("stdout", "stderr", "exit code"), old, new):
                if a != b:
                    print(f"job {name!r}: {part} differs at {revision[:12]} and here",
                          file=sys.stderr)
                    return 1
    print(f"{len(all_jobs())} jobs byte-identical at {revision[:12]} and here")
    return 0


if __name__ == "__main__":
    sys.exit(main())
