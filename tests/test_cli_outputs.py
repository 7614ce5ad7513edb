"""scripts/cli_outputs.py: the job list and the input comparison."""

import io
import sys
from collections import Counter
from pathlib import Path

from streamctc import load_emissions

# the script imports bench_pairs from its own directory, as it does when run
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import cli_outputs  # noqa: E402


def test_49_jobs_of_four_kinds():
    jobs = cli_outputs.jobs()
    assert len(jobs) == 49
    assert len({name for name, _, _ in jobs}) == 49
    kinds = Counter((argv[0], stdin is not None) for _, argv, stdin in jobs)
    assert kinds == {("decode", False): 16, ("stream", True): 17, ("s2s-decode", False): 16}
    assert jobs[-1][1][:5] == ["stream", "--lag", "0", "--beam-width", "8"]
    assert all(argv[-2:] == ["--lm", "lm.nglm"] for _, argv, _ in jobs)
    names = [name for name, _, _ in cli_outputs.all_jobs()]
    assert len(names) == len(set(names)) == 76


def test_fault_jobs_read_the_fault_inputs(tmp_path):
    row = b"0.25 0.25 0.5\n"
    header = b"CTCEM v1 4 3 ab-\n"
    (tmp_path / "utt000.em").write_bytes(header + row * 4)
    rows97 = [f"0.25 0.25 0.{i:02d}5\n".encode() for i in range(97)]  # line 70: 0.685
    (tmp_path / "utt001.em").write_bytes(b"CTCEM v1 97 3 ab-\n" + b"".join(rows97))

    def line70(*lines):
        return b"CTCEM v1 97 3 ab-\n" + b"".join([*rows97[:68], *lines, *rows97[69:]])

    (tmp_path / "lm.nglm").write_bytes(b"NGLM v1 2 1.0 ab\n\ta\t1\n\tb\t1\na\ta\t1\n")
    (tmp_path / "t000.s2sm").write_bytes(b"S2SM v1 ab\n\ta\t0.5\n\tb\t0.5\n")
    faults = cli_outputs.fault_inputs(tmp_path)
    assert faults == {
        "bad-float.em": header + row * 2 + b"x 0.25 0.5\n" + row,
        "bad-sum.em": header + row * 2 + b"0.5 0.25 0.5\n" + row,
        "not-utf8.em": header + row * 2 + b"\xff 0.25 0.5\n" + row,
        "extra-row.em": header + row * 5,
        "empty.em": b"",
        "crlf.nglm": b"NGLM v1 2 1.0 ab\r\n\ta\t1\r\n\tb\t1\r\na\ta\t1\r\n",
        "bad-prob.s2sm": b"S2SM v1 ab\n\ta\t1.5\n\tb\t0.5\n",
        "nan-field.em": header + row * 2 + b"nan 0.25 0.5\n" + row,
        "empty-field.em": header + row * 2 + b"0.25  0.5\n" + row,
        "underscore-field.em": header + row * 2 + b"0_1 0.25 0.5\n" + row,
        "reversed.nglm": b"NGLM v1 2 1.0 ba\n\ta\t1\n\tb\t1\na\ta\t1\n",
        "line70-bad-float.em": line70(b"x 0.25 0.685\n"),
        "line70-bad-sum.em": line70(b"0.5 0.0 0.0\n"),
        "line70-not-utf8.em": line70(b"\xff 0.25 0.685\n"),
        "line70-blank.em": line70(b"\n", b"\n", b"0.25 0.25 0.685\n"),
        "blank-lines.em": header + (row + b"\n") * 3 + row,
        "blank-extra-row.em": header + row * 4 + b"\n\n" + row,
        "header-not-utf8.em": b"CTCEM v1 4 3 \xffb-\n" + row * 4,
        "truncated-utf8.em": header + row * 2 + b"0.25 0.25 0.5\xc3\n" + row,
        "byte-after-fault.em": b"CTCEM v1 97 3 ab-\n" + b"".join(
            [rows97[0], b"x 0.25 0.015\n", *rows97[2:8], b"\xff" + rows97[8], *rows97[9:]]),
        "byte-after-fault.nglm": b"NGLM v1 2 1.0 ab\n\ta\t1\n\tb\tx\n\xffa\ta\t1\n",
    }
    read = {arg for _, argv, stdin in cli_outputs.fault_jobs() for arg in [*argv, stdin]
            if arg and "." in arg}
    assert read == {*faults, "utt000.em", "t000.s2sm", "lm.nglm", "missing.nglm"}


def test_escaped_jobs_stream_an_alphabet_that_records_escape():
    em = load_emissions(io.StringIO(cli_outputs.escaped_utterance().decode("utf-8")))
    assert em.alphabet.symbols == 'a"\\é中'
    assert em.num_frames == len(cli_outputs.ESCAPED_PATH)
    assert [argv for _, argv, _ in cli_outputs.escaped_jobs()] == [
        ["stream", "--lag", lag, "--alpha", "0"] for lag in ("0", "22")]
    assert {stdin for _, _, stdin in cli_outputs.escaped_jobs()} == {"escaped.em"}


def test_first_difference_names_a_changed_or_missing_file(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
        (side / "a.em").write_bytes(b"same\n")
        (side / "c.em").write_bytes(b"same\n")
    assert cli_outputs.first_difference(parent, change) is None
    (change / "c.em").write_bytes(b"other\n")
    assert cli_outputs.first_difference(parent, change) == "c.em"
    (parent / "b.em").write_bytes(b"only in the parent\n")
    assert cli_outputs.first_difference(parent, change) == "b.em"
