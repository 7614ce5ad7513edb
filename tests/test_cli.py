"""CLI surface: subcommands, record protocol, exit codes, pipe composition."""

import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from streamctc import cli
from streamctc import (
    Alphabet,
    EmissionMatrix,
    ParseError,
    SimConfig,
    ValidationError,
    load_emissions,
    save_emissions,
    simulate,
)


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def demo_em(tmp_path):
    ab = Alphabet("hi ")
    em = simulate("hi", ab, SimConfig(peak_prob=1.0, noise_seed=3))
    path = tmp_path / "demo.em"
    save_emissions(em, path)
    return path


@pytest.fixture
def demo_lm(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("hi hi\nhih i\n", encoding="utf-8")
    out = tmp_path / "model.nglm"
    assert cli.main(["lm-train", str(corpus), "-o", str(out),
                     "--order", "2", "--alphabet", "hi "]) == 0
    return out


class TestDecode:
    def test_certainty_file(self, capsys, demo_em):
        code, out, _ = run(capsys, ["decode", str(demo_em), "--alpha", "0"])
        assert code == 0
        assert out.split("\t")[0] == "hi"

    def test_greedy_flag(self, capsys, demo_em):
        code, out, _ = run(capsys, ["decode", str(demo_em), "--greedy"])
        assert code == 0
        assert out.strip() == "hi"

    def test_with_lm(self, capsys, demo_em, demo_lm):
        code, out, _ = run(capsys, ["decode", str(demo_em), "--lm", str(demo_lm)])
        assert code == 0
        assert out.split("\t")[0] == "hi"

    def test_alpha_without_lm_is_usage_error(self, demo_em, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decode", str(demo_em)])  # default alpha 0.5
        assert exc.value.code == 2

    # k = inf gave NaN LM rows and a transcript with exit 0; the count past
    # the float range raised OverflowError out of main
    @pytest.mark.parametrize("lm_text", ["NGLM v1 2 inf hi \n\th\t1\n",
                                         f"NGLM v1 2 1.0 hi \n\th\t1{'0' * 400}\n"],
                             ids=["k-inf", "count-1e400"])
    @pytest.mark.parametrize("command", ["decode", "stream"])
    def test_lm_past_the_float_range_is_parse_exit(self, capsys, monkeypatch, tmp_path,
                                                   demo_em, lm_text, command):
        lm = tmp_path / "bad.nglm"
        lm.write_text(lm_text, encoding="utf-8")
        if command == "decode":
            code, out, err = run(capsys, ["decode", str(demo_em), "--lm", str(lm)])
        else:
            code, out, err = run(capsys, ["stream", "--lm", str(lm)],
                                 stdin_text=demo_em.read_text(encoding="utf-8"),
                                 monkeypatch=monkeypatch)
            assert "error" in json.loads(out.splitlines()[-1])
        assert code == 3
        assert "parse error" in err

    def test_missing_file_is_validation_exit(self, capsys):
        code, _, err = run(capsys, ["decode", "no-such-file.em", "--alpha", "0"])
        assert code == 4
        assert "no-such-file" in err


    def test_memory_bounded_by_width(self, capsys, tmp_path):
        """Rows are parsed and decoded one at a time, so ten times the frames
        must not take ten times the memory."""
        ab = Alphabet(cli.DEFAULT_ALPHABET)
        em = simulate("the cat sat on the mat " * 60, ab, SimConfig(noise_seed=1))
        paths = {}
        for frames in (400, 4000):
            paths[frames] = tmp_path / f"u{frames}.em"
            save_emissions(EmissionMatrix(ab, em.probs[:frames]), paths[frames])
        argv = ["--alpha", "0", "--beam-width", "8"]
        # warm up on the longer file, so the caches a longer transcript
        # fills are not charged to either measurement
        run(capsys, ["decode", str(paths[4000]), *argv])
        peaks = {}
        for frames, path in paths.items():
            tracemalloc.start()
            try:
                assert cli.main(["decode", str(path), *argv]) == 0
                peaks[frames] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[4000] <= 1.5 * peaks[400], peaks

    @pytest.mark.parametrize("rows", [1, 3])
    def test_row_count_mismatch_is_parse_exit(self, capsys, tmp_path, rows):
        path = tmp_path / "short.em"
        path.write_text("CTCEM v1 2 3 ab-\n" + "0.2 0.3 0.5\n" * rows, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_emissions(path)
        assert str(exc.value) == f"header declares 2 frames but the file holds {rows} rows"
        code, out, err = run(capsys, ["decode", str(path), "--alpha", "0"])
        assert (code, out) == (3, "")
        assert err == f"streamctc: parse error: {exc.value}\n"

    @pytest.mark.parametrize("bad,code", [
        ("nan 0.5 0.5", 4), ("0.2 0.3 0.6", 4), ("0.2 x 0.8", 3), ("0.5 0.5", 3),
    ])
    def test_bad_row_names_its_line(self, capsys, tmp_path, bad, code):
        path = tmp_path / "bad.em"
        path.write_text(f"CTCEM v1 3 3 ab-\n0.2 0.3 0.5\n\n{bad}\n", encoding="utf-8")
        with pytest.raises((ParseError, ValidationError)) as exc:
            load_emissions(path)
        assert str(exc.value).startswith("line 4: ")
        prefix = "parse error: " if code == 3 else ""
        got, out, err = run(capsys, ["decode", str(path), "--alpha", "0"])
        assert (got, out) == (code, "")
        assert err == f"streamctc: {prefix}{exc.value}\n"

    @pytest.mark.parametrize("header,message", [
        ("CTCEM v1 x 3 ab-", "bad frame/width counts in header: "
                             "invalid literal for int() with base 10: 'x'"),
        ("CTCEM v1 -1 3 ab-", "negative frame count -1"),
        ("CTCEM v1 0 1 -", "header alphabet field needs at least one visible "
                           "character and the blank marker"),
        ("CTCEM v1 1 4 aab-", "alphabet characters must be distinct"),
        ("CTCEM v1 1 4 a\tb-", "tab/newline are not valid alphabet characters"),
        ("CTCEM v1 1 3 ab-\r", "tab/newline are not valid alphabet characters"),
        ("CTCEM v1 1 3 ab\t", "tab/newline are not valid alphabet characters"),
    ], ids=["frames-not-int", "negative-frames", "no-visible-character", "repeated-character",
            "tab", "crlf", "tab-as-blank-marker"])
    def test_bad_header_is_parse_exit(self, capsys, monkeypatch, tmp_path, header, message):
        path = tmp_path / "bad.em"
        path.write_text(f"{header}\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_emissions(path)
        assert (exc.value.line, str(exc.value)) == (1, f"line 1: {message}")
        code, out, err = run(capsys, ["decode", str(path), "--alpha", "0"])
        assert (code, out) == (3, "")
        assert err == f"streamctc: parse error: line 1: {message}\n"
        code, out, _ = run(capsys, ["stream", "--alpha", "0"],
                           stdin_text=f"{header}\n", monkeypatch=monkeypatch)
        assert code == 3
        assert [json.loads(line) for line in out.splitlines()] == [
            {"error": f"line 1: {message}"}]

    def test_missing_lm_is_usage_error_before_reading(self, capsys):
        # the LM is checked before the file is opened
        with pytest.raises(SystemExit) as exc:
            cli.main(["decode", "no-such-file.em"])
        assert exc.value.code == 2


class TestStream:
    def test_records_per_frame_and_final(self, capsys, demo_em, demo_lm, monkeypatch):
        body = demo_em.read_text(encoding="utf-8")
        code, out, _ = run(capsys, ["stream", "--lag", "2", "--lm", str(demo_lm)],
                           stdin_text=body, monkeypatch=monkeypatch)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        frames = load_emissions(demo_em).num_frames
        assert len(records) == frames + 1
        for i, record in enumerate(records[:-1], start=1):
            assert record["frame"] == i
            assert list(record) == ["frame", "committed", "hypothesis",
                                    "completion", "score"]
        assert records[-1]["final"] is True

    def test_final_record_matches_decode(self, capsys, demo_em, demo_lm, monkeypatch):
        body = demo_em.read_text(encoding="utf-8")
        code, out, _ = run(capsys, ["stream", "--lag", "5", "--lm", str(demo_lm)],
                           stdin_text=body, monkeypatch=monkeypatch)
        final = json.loads(out.splitlines()[-1])
        code2, out2, _ = run(capsys, ["decode", str(demo_em), "--lm", str(demo_lm)])
        text, score = out2.rstrip("\n").split("\t")
        assert final["hypothesis"] == text
        assert final["score"] == pytest.approx(float(score), abs=1e-6)

    def test_zero_lag_commits_every_frame(self, capsys, demo_em, monkeypatch):
        body = demo_em.read_text(encoding="utf-8")
        code, out, _ = run(capsys, ["stream", "--lag", "0", "--alpha", "0"],
                           stdin_text=body, monkeypatch=monkeypatch)
        assert code == 0
        for line in out.splitlines():
            record = json.loads(line)
            assert record["committed"] == record["hypothesis"]

    def test_start_frame_replays_from_middle(self, capsys, demo_em, monkeypatch):
        body = demo_em.read_text(encoding="utf-8")
        total = load_emissions(demo_em).num_frames
        skip = 4
        code, out, _ = run(capsys,
                           ["stream", "--lag", "0", "--alpha", "0",
                            "--start-frame", str(skip)],
                           stdin_text=body, monkeypatch=monkeypatch)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == total - skip + 1
        assert records[0]["frame"] == skip + 1  # absolute frame numbering

    @pytest.mark.parametrize("declared, sent, skip", [(3, 3, 7), (9, 2, 5)])
    def test_start_frame_past_the_rows_numbers_the_rows_read(self, capsys, monkeypatch,
                                                             declared, sent, skip):
        body = f"CTCEM v1 {declared} 3 ab-\n" + "0.2 0.3 0.5\n" * sent
        code, out, _ = run(capsys, ["stream", "--alpha", "0", "--lag", "0",
                                    "--start-frame", str(skip)],
                           stdin_text=body, monkeypatch=monkeypatch)
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [
            {"frame": sent, "committed": "", "hypothesis": "", "completion": "",
             "score": 0.0, "final": True}]

    def test_malformed_row_emits_error_record(self, capsys, monkeypatch):
        body = "CTCEM v1 1 2 a-\nnot a row\n"
        code, out, err = run(capsys, ["stream", "--lag", "0", "--alpha", "0"],
                             stdin_text=body, monkeypatch=monkeypatch)
        assert code == 3
        assert "error" in json.loads(out.splitlines()[-1])

    def test_non_stochastic_row_is_validation_exit(self, capsys, monkeypatch):
        body = "CTCEM v1 1 2 a-\n0.9 0.6\n"
        code, out, _ = run(capsys, ["stream", "--lag", "0", "--alpha", "0"],
                           stdin_text=body, monkeypatch=monkeypatch)
        assert code == 4
        assert "error" in json.loads(out.splitlines()[-1])

    @pytest.mark.parametrize("bad", ["nan 0.5 0.5", "inf 0 0", "-0.5 0.5 1.0"])
    def test_nonfinite_or_negative_row_is_validation_exit(self, capsys, monkeypatch, bad):
        body = f"CTCEM v1 2 3 ab-\n0.2 0.3 0.5\n{bad}\n"
        code, out, _ = run(capsys, ["stream", "--lag", "1", "--alpha", "0"],
                           stdin_text=body, monkeypatch=monkeypatch)
        assert code == 4
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 2 and "error" in records[-1]

    @pytest.mark.parametrize("start", [0, 1])
    def test_row_past_the_declared_frames_is_parse_exit(self, capsys, monkeypatch, start):
        # rows skipped by --start-frame count as read
        body = "CTCEM v1 2 3 ab-\n" + "0.2 0.3 0.5\n" * 3
        code, out, err = run(capsys, ["stream", "--lag", "0", "--alpha", "0",
                                      "--start-frame", str(start)],
                             stdin_text=body, monkeypatch=monkeypatch)
        assert code == 3
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 3 - start
        assert records[-1] == {"error": "line 4: header declares 2 frames but row 3 follows"}
        assert "line 4" in err

    def test_blank_lines_are_skipped_but_counted(self, capsys, monkeypatch):
        row = "0.2 0.3 0.5\n"
        argv = ["stream", "--lag", "0", "--alpha", "0"]
        _, plain, _ = run(capsys, argv, "CTCEM v1 2 3 ab-\n" + row * 2, monkeypatch)
        code, out, _ = run(capsys, argv, "CTCEM v1 2 3 ab-\n\n" + row + "\n\n" + row + "\n",
                           monkeypatch)
        assert (code, out) == (0, plain)
        # a fault after blank lines names the line it is on
        code, out, err = run(capsys, argv, "CTCEM v1 2 3 ab-\n\n" + row + "\n\n0.2 x 0.5\n",
                             monkeypatch)
        assert code == 3
        message = "line 6: bad float: could not convert string to float: 'x'"
        assert out.splitlines()[1:] == [json.dumps({"error": message})]
        code, out, err = run(capsys, argv, "CTCEM v1 2 3 ab-\n" + row * 2 + "\n\n" + row,
                             monkeypatch)
        assert code == 3
        message = "line 6: header declares 2 frames but row 3 follows"
        assert out.splitlines()[2:] == [json.dumps({"error": message})]
        assert err == f"streamctc: parse error: {message}\n"

    def test_fewer_rows_than_declared_end_the_stream(self, capsys, monkeypatch):
        # a live stream may stop early: its final record is still written
        body = "CTCEM v1 5 3 ab-\n" + "0.2 0.3 0.5\n" * 2
        code, out, _ = run(capsys, ["stream", "--lag", "0", "--alpha", "0"],
                           stdin_text=body, monkeypatch=monkeypatch)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 3 and records[-1]["final"] is True

    @pytest.mark.parametrize("flag, message", [("--lag", "lag must be >= 0"),
                                               ("--start-frame", "start frame must be >= 0")])
    def test_negative_lag_or_start_frame_is_validation_exit(self, capsys, monkeypatch, flag,
                                                            message):
        body = "CTCEM v1 2 3 ab-\n" + "0.2 0.3 0.5\n" * 2
        code, out, err = run(capsys, ["stream", "--alpha", "0", flag, "-1"],
                             stdin_text=body, monkeypatch=monkeypatch)
        assert code == 4
        assert out.splitlines() == [json.dumps({"error": message})]
        assert err == f"streamctc: {message}\n"

    def test_missing_header(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["stream", "--alpha", "0"], stdin_text="",
                           monkeypatch=monkeypatch)
        assert code == 3


class TestLmTrain:
    def test_writes_model(self, demo_lm):
        head = demo_lm.read_text(encoding="utf-8").splitlines()[0]
        assert head == "NGLM v1 2 1.0 hi "

    @pytest.mark.parametrize("separator", ["\t", "\r", "\n"])
    def test_separator_in_alphabet_is_validation_exit(self, capsys, tmp_path, separator):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("hi hi\n", encoding="utf-8")
        out = tmp_path / "model.nglm"
        code, _, err = run(capsys, ["lm-train", str(corpus), "-o", str(out),
                                    "--alphabet", f"h{separator}i "])
        assert code == 4
        assert err == "streamctc: tab/newline are not valid alphabet characters\n"
        assert not out.exists()


class TestMetrics:
    def test_identity_pairs(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("we did\twe did\nhome\thome\n", encoding="utf-8")
        code, out, _ = run(capsys, ["metrics", str(pairs)])
        assert code == 0
        assert "WER 0.0000" in out
        assert "CER 0.0000" in out
        assert "skipped 0" in out

    def test_aggregate_and_skipped(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(
            "home to an animal\thome you and animal\n"
            "\n"
            "\tstray hypothesis\n"
            "\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, ["metrics", str(pairs)])
        assert code == 0
        assert "WER 0.5000" in out
        assert "skipped 1" in out  # a blank line is no pair

    def test_every_reference_empty_is_validation_exit(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("\tstray\n\n \talso stray\n", encoding="utf-8")
        code, out, err = run(capsys, ["metrics", str(pairs)])
        assert (code, out) == (4, "")
        assert err == "streamctc: no scorable pairs (every reference was empty)\n"

    def test_confusion_flag(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("vf\tff\nvv\tfv\n", encoding="utf-8")
        code, out, _ = run(capsys, ["metrics", str(pairs), "--confusion"])
        assert code == 0
        assert "v\tf\t1.0000" in out

    def test_malformed_line(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("\nno tab here\n", encoding="utf-8")
        code, _, err = run(capsys, ["metrics", str(pairs)])
        assert code == 3
        assert err == ("streamctc: parse error: line 2: "
                       "expected 'ref<TAB>hyp', got 1 fields\n")


class TestOracle:
    def test_uniform_matrix(self, capsys, tmp_path):
        path = tmp_path / "uniform.em"
        path.write_text("CTCEM v1 2 2 a-\n0.5 0.5\n0.5 0.5\n", encoding="utf-8")
        code, out, _ = run(capsys, ["oracle", str(path)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0.75\ta"
        assert lines[1] == "0.25\t"

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_is_validation_exit(self, capsys, tmp_path, top):
        # checked before the file is read: this one does not exist
        code, out, err = run(capsys, ["oracle", str(tmp_path / "none.em"), "--top", top])
        assert (code, out, err) == (4, "", "streamctc: top must be >= 1\n")

    def test_capacity_guard(self, capsys, tmp_path):
        path = tmp_path / "big.em"
        rows = "0.25 0.25 0.25 0.25\n" * 15  # 4**15 paths, over the guard
        path.write_text("CTCEM v1 15 4 abc-\n" + rows, encoding="utf-8")
        code, _, err = run(capsys, ["oracle", str(path)])
        assert code == 4
        assert "guard" in err


class TestSimulateAndRf:
    def test_simulate_stdout_parses(self, capsys):
        code, out, _ = run(capsys, ["simulate", "ab", "--alphabet", "ab",
                                    "--peak", "0.9", "--seed", "5"])
        assert code == 0
        em = load_emissions(io.StringIO(out))
        assert em.alphabet.symbols == "ab"

    def test_simulate_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.em", tmp_path / "b.em"
        for target in (a, b):
            assert cli.main(["simulate", "hello there", "--seed", "9",
                             "-o", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rf_compact_form(self, capsys):
        code, out, _ = run(capsys, ["rf", "5x11"])
        assert code == 0
        assert out.strip() == "r=22 R=45"

    def test_rf_explicit_widths(self, capsys):
        code, out, _ = run(capsys, ["rf", "5", "5", "3"])
        assert code == 0
        assert out.strip() == "r=5 R=11"

    def test_rf_even_width_fails(self, capsys):
        code, _, err = run(capsys, ["rf", "4"])
        assert code == 4

    @pytest.mark.parametrize("token", ["five", "5xL", "x3", "5x0", "5x-1"])
    def test_rf_bad_width_token_is_usage_error(self, capsys, token):
        with pytest.raises(SystemExit) as exc:
            cli.main(["rf", "5", token])
        assert exc.value.code == 2
        assert f"bad width token {token.lower()!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_simulate_nonfinite_frames_per_char_is_validation_exit(self, capsys, value):
        code, out, err = run(capsys, ["simulate", "ab", f"--frames-per-char={value}"])
        assert (code, out, err) == (4, "", "streamctc: frames_per_char must be finite\n")


class TestS2SDecode:
    def test_mock_scorer(self, capsys, tmp_path):
        path = tmp_path / "scorer.s2sm"
        path.write_text(
            "S2SM v1 hi\n\th\t1.0\nh\ti\t1.0\nhi\t</s>\t1.0\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, ["s2s-decode", str(path), "--alpha", "0"])
        assert code == 0
        assert out.split("\t")[0] == "hi"


    def test_bad_max_length_is_validation_exit(self, capsys, tmp_path):
        path = tmp_path / "scorer.s2sm"
        path.write_text("S2SM v1 hi\n\th\t1.0\n", encoding="utf-8")
        code, out, err = run(capsys, ["s2s-decode", str(path), "--alpha", "0",
                                      "--max-length", "0"])
        assert (code, out) == (4, "")
        assert err == "streamctc: max_length must be >= 1\n"

    def test_missing_lm_is_usage_error_before_reading(self, capsys):
        # the LM is checked before the scorer file is opened, as in decode
        with pytest.raises(SystemExit) as exc:
            cli.main(["s2s-decode", "no-such-file.s2sm"])
        assert exc.value.code == 2


class TestNonFiniteWeights:
    """``--alpha`` and ``--beta`` of nan or inf are validation errors, not a
    numpy traceback (nan) or an empty transcript (inf)."""

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_decode(self, capsys, demo_em, demo_lm, flag, value):
        code, out, err = run(capsys, ["decode", str(demo_em), "--lm", str(demo_lm),
                                      f"{flag}={value}"])
        assert (code, out, err) == (4, "", "streamctc: alpha and beta must be finite\n")

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_stream(self, capsys, demo_em, demo_lm, monkeypatch, flag, value):
        code, out, err = run(capsys, ["stream", "--lm", str(demo_lm), f"{flag}={value}"],
                             demo_em.read_text(encoding="utf-8"), monkeypatch)
        assert (code, err) == (4, "streamctc: alpha and beta must be finite\n")
        assert out == json.dumps({"error": "alpha and beta must be finite"}) + "\n"

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_s2s_decode(self, capsys, tmp_path, demo_lm, flag, value):
        path = tmp_path / "scorer.s2sm"
        path.write_text("S2SM v1 hi \n\th\t1.0\nh\ti\t1.0\nhi\t</s>\t1.0\n",
                        encoding="utf-8")
        code, out, err = run(capsys, ["s2s-decode", str(path), "--lm", str(demo_lm),
                                      f"{flag}={value}"])
        assert (code, out, err) == (4, "", "streamctc: alpha and beta must be finite\n")


class TestLengthPenaltyOverflow:
    """A beta whose length penalty overflows a float is a validation error
    at the first length the search uses where it does, not a traceback."""

    @pytest.fixture
    def abab_em(self, tmp_path):
        path = tmp_path / "abab.em"
        save_emissions(simulate("abab", Alphabet("ab"), SimConfig(noise_seed=1)), path)
        return path

    MESSAGE = "beta 1000.0 overflows the length penalty at length 3"

    def test_decode(self, capsys, abab_em):
        code, out, err = run(capsys, ["decode", str(abab_em), "--alpha", "0",
                                      "--beta", "1000"])
        assert (code, out, err) == (4, "", f"streamctc: {self.MESSAGE}\n")

    def test_stream(self, capsys, abab_em, monkeypatch):
        code, out, err = run(capsys, ["stream", "--alpha", "0", "--beta", "1000"],
                             abab_em.read_text(encoding="utf-8"), monkeypatch)
        assert (code, err) == (4, f"streamctc: {self.MESSAGE}\n")
        assert out.splitlines()[-1] == json.dumps({"error": self.MESSAGE})

    def test_decode_of_two_rows_needs_no_long_power(self, capsys, tmp_path):
        # 63 ** 172 overflows, but two rows give a prefix of at most 2
        path = tmp_path / "two.em"
        path.write_text("CTCEM v1 2 3 ab-\n" + "0.2 0.3 0.5\n" * 2, encoding="utf-8")
        code, out, _ = run(capsys, ["decode", str(path), "--alpha", "0", "--beta", "172"])
        assert code == 0
        assert out.split("\t")[0] == "ab"

    def test_s2s_decode(self, capsys):
        path = Path(__file__).parent / "golden" / "sample.s2sm"
        code, out, err = run(capsys, ["s2s-decode", str(path), "--alpha", "0",
                                      "--beta", "1000"])
        assert (code, out) == (4, "")
        assert err == "streamctc: beta 1000.0 overflows the length penalty at length 8\n"


class TestOptionsBeforeFiles:
    """A search command reports a bad --alpha, --beta or --beam-width before
    it reads any file or stdin, so a missing or malformed LM does not hide
    it; the usage error of fusion without an LM comes before both."""

    @pytest.fixture(params=["missing-lm", "malformed-lm"])
    def lm(self, request, tmp_path):
        path = tmp_path / "lm.nglm"
        if request.param == "malformed-lm":
            path.write_text("NGLM v1 2 1.0 hi \n\th\tx\n", encoding="utf-8")
        return str(path)

    @staticmethod
    def call(capsys, monkeypatch, tmp_path, command, *options):
        """(exit code, stdout, stderr) of ``command``, its input file missing
        and its stdin unread, or SystemExit's code for a usage error."""
        stdin = io.StringIO("not a CTCEM header\n")
        monkeypatch.setattr("sys.stdin", stdin)
        argv = [command, *([] if command == "stream" else [str(tmp_path / "none")]), *options]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        assert stdin.tell() == 0
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("command", ["decode", "stream", "s2s-decode"])
    @pytest.mark.parametrize("option, message", [
        ("--alpha=nan", "alpha and beta must be finite"),
        ("--beta=inf", "alpha and beta must be finite"),
        ("--beam-width=0", "beam width must be >= 1"),
    ], ids=["alpha", "beta", "beam-width"])
    def test_bad_option_before_the_lm(self, capsys, monkeypatch, tmp_path, lm, command,
                                      option, message):
        code, out, err = self.call(capsys, monkeypatch, tmp_path, command, "--lm", lm, option)
        record = json.dumps({"error": message}) + "\n" if command == "stream" else ""
        assert (code, out, err) == (4, record, f"streamctc: {message}\n")

    @pytest.mark.parametrize("command", ["decode", "stream", "s2s-decode"])
    def test_usage_error_comes_first(self, capsys, monkeypatch, tmp_path, command):
        code, out, err = self.call(capsys, monkeypatch, tmp_path, command,
                                   "--alpha=0.5", "--beta=nan", "--beam-width=0")
        assert (code, out) == (2, "")
        assert "--alpha > 0 requires --lm" in err

    def test_start_frame_before_the_lm(self, capsys, monkeypatch, tmp_path, lm):
        code, out, err = self.call(capsys, monkeypatch, tmp_path, "stream", "--lm", lm,
                                   "--start-frame=-1")
        message = "start frame must be >= 0"
        assert (code, out, err) == (4, json.dumps({"error": message}) + "\n",
                                    f"streamctc: {message}\n")

    def test_lag_before_the_lm(self, capsys, monkeypatch, tmp_path, lm):
        code, out, err = self.call(capsys, monkeypatch, tmp_path, "stream", "--lm", lm,
                                   "--lag=-1")
        message = "lag must be >= 0"
        assert (code, out, err) == (4, json.dumps({"error": message}) + "\n",
                                    f"streamctc: {message}\n")

    @pytest.mark.parametrize("option, message", [
        ("--alpha=nan", "alpha and beta must be finite"),
        ("--beta=inf", "alpha and beta must be finite"),
        ("--beam-width=0", "beam width must be >= 1"),
        ("--alpha=-1", "alpha must be >= 0"),
    ], ids=["alpha", "beta", "beam-width", "negative-alpha"])
    def test_greedy_decode_checks_the_search_options(self, capsys, monkeypatch, tmp_path,
                                                     option, message):
        # as the beam route does, before the file is read; no LM is needed
        code, out, err = self.call(capsys, monkeypatch, tmp_path, "decode", "--greedy", option)
        assert (code, out, err) == (4, "", f"streamctc: {message}\n")


class TestPipeComposition:
    def test_simulate_stream_decode_agree(self, capsys, monkeypatch, tmp_path):
        rng = random.Random(77)
        letters = "abcdefg"
        for case in range(50):
            words = [
                "".join(rng.choice(letters) for _ in range(1 + rng.randrange(4)))
                for _ in range(1 + rng.randrange(2))
            ]
            sentence = " ".join(words)
            em_path = tmp_path / f"case{case}.em"
            assert cli.main(["simulate", sentence, "--alphabet", letters + " ",
                             "--peak", "0.92", "--seed", str(case),
                             "-o", str(em_path)]) == 0
            body = em_path.read_text(encoding="utf-8")
            code, out, _ = run(capsys,
                               ["stream", "--lag", "3", "--alpha", "0",
                                "--beam-width", "16"],
                               stdin_text=body, monkeypatch=monkeypatch)
            assert code == 0
            final = json.loads(out.splitlines()[-1])
            code, out, _ = run(capsys, ["decode", str(em_path), "--alpha", "0",
                                        "--beam-width", "16"])
            text, score = out.rstrip("\n").split("\t")
            assert final["hypothesis"] == text
            assert final["score"] == pytest.approx(float(score), abs=1e-6)


class TestParserReuse:
    def test_calls_in_sequence_parse_as_a_fresh_parser(self, capsys, monkeypatch, tmp_path,
                                                       demo_em):
        # main parses with one cached parser: no default or argument of one
        # call may reach the next
        scorer = tmp_path / "scorer.s2sm"
        scorer.write_text("S2SM v1 hi\n\th\t1.0\nh\ti\t1.0\nhi\t</s>\t1.0\n",
                          encoding="utf-8")
        body = demo_em.read_text(encoding="utf-8")
        calls = [
            ["decode", str(demo_em), "--beam-width", "3", "--alpha", "0"],
            ["decode", str(demo_em), "--alpha", "0"],
            ["decode", str(demo_em), "--greedy"],
            ["stream", "--lag", "1", "--start-frame", "2", "--alpha", "0", "--beam-width", "2"],
            ["stream", "--alpha", "0"],
            ["s2s-decode", str(scorer), "--alpha", "0", "--beta", "0", "--max-length", "2"],
            ["s2s-decode", str(scorer), "--alpha", "0"],
            ["decode", str(demo_em), "--alpha", "0"],
        ]
        reused = [run(capsys, argv, body, monkeypatch) for argv in calls]
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        for argv in calls:
            fresh = cli.build_parser.__wrapped__()
            assert vars(parser.parse_args(argv)) == vars(fresh.parse_args(argv))
        for argv, got in zip(calls, reused):
            cli.build_parser.cache_clear()
            assert run(capsys, argv, body, monkeypatch) == got


def spoil(path: Path, line: int) -> str:
    """A copy of ``path`` with a byte that is not UTF-8 at the start of
    ``line``."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = b"\xff" + lines[line - 1]
    bad = path.with_name(f"bad-{path.name}")
    bad.write_bytes(b"".join(lines))
    return str(bad)


class TestFileFaults:
    """Every fault of a named file has its exit code: bytes that are not
    UTF-8 are a parse failure (3) that names their line, and a path that
    cannot be opened exits 4."""

    @pytest.fixture
    def files(self, tmp_path, demo_em, demo_lm):
        texts = {"s2s": "S2SM v1 hi \n\th\t1.0\nh\ti\t1.0\nhi\t</s>\t1.0\n",
                 "corpus": "hi\nhi hi\nih\n",
                 "pairs": "hi\thi\nhi hi\thi\nih\tih\n"}
        paths = {"em": demo_em, "lm": demo_lm, "dir": tmp_path, "out": tmp_path / "out"}
        for name, text in texts.items():
            paths[name] = tmp_path / name
            paths[name].write_text(text, encoding="utf-8")
        return paths

    @pytest.mark.parametrize("route", ["decode", "oracle", "lm", "s2s-decode", "lm-train",
                                       "metrics"])
    def test_non_utf8_input_is_parse_exit_naming_its_line(self, capsys, files, route):
        argv = {
            "decode": ["decode", spoil(files["em"], 3), "--alpha", "0"],
            "oracle": ["oracle", spoil(files["em"], 3)],
            "lm": ["decode", str(files["em"]), "--lm", spoil(files["lm"], 3)],
            "s2s-decode": ["s2s-decode", spoil(files["s2s"], 3), "--alpha", "0"],
            "lm-train": ["lm-train", spoil(files["corpus"], 3), "-o", str(files["out"])],
            "metrics": ["metrics", spoil(files["pairs"], 3)],
        }[route]
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err == "streamctc: parse error: line 3: not UTF-8 text: invalid start byte\n"

    @pytest.mark.parametrize("argv", [
        ["decode", "{dir}", "--alpha", "0"],
        ["decode", "{em}", "--lm", "{dir}"],
        ["oracle", "{dir}"],
        ["s2s-decode", "{dir}", "--alpha", "0"],
        ["lm-train", "{dir}", "-o", "{out}"],
        ["metrics", "{dir}"],
        ["lm-train", "{corpus}", "-o", "{dir}"],
        ["simulate", "hi", "--alphabet", "hi ", "-o", "{dir}"],
    ], ids=["decode", "lm", "oracle", "s2s-decode", "lm-train", "metrics", "lm-train-output",
            "simulate-output"])
    def test_directory_is_validation_exit(self, capsys, files, argv):
        code, out, err = run(capsys, [arg.format(**files) for arg in argv])
        assert (code, out) == (4, "")
        assert err.startswith("streamctc: [Errno 21] Is a directory: ")

    @pytest.mark.parametrize("lm, message", [
        ("{dir}/none.nglm", "[Errno 2] No such file or directory: "),
        ("{dir}", "[Errno 21] Is a directory: "),
    ], ids=["missing", "directory"])
    def test_stream_lm_that_cannot_be_opened_writes_an_error_record(
            self, capsys, monkeypatch, files, lm, message):
        lm = lm.format(**files)
        code, out, err = run(capsys, ["stream", "--lm", lm],
                             files["em"].read_text(encoding="utf-8"), monkeypatch)
        message += repr(lm)
        assert (code, out, err) == (4, json.dumps({"error": message}) + "\n",
                                    f"streamctc: {message}\n")

    def test_closed_pipe_exits_ok(self):
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "streamctc", "simulate", "hi " * 1000, "--alphabet", "hi "],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)})
        proc.stdout.close()  # as `| head -c 0` would
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""


    @pytest.mark.parametrize("route", ["decode", "lm", "s2s-decode"])
    def test_crlf_header_is_parse_exit(self, capsys, files, route):
        # "\r" would be an alphabet character, which no format allows
        name, argv = {"decode": ("em", ["decode", "{crlf}", "--alpha", "0"]),
                      "lm": ("lm", ["decode", "{em}", "--lm", "{crlf}"]),
                      "s2s-decode": ("s2s", ["s2s-decode", "{crlf}", "--alpha", "0"])}[route]
        crlf = files["dir"] / f"crlf-{name}"
        crlf.write_bytes(files[name].read_bytes().replace(b"\n", b"\r\n"))
        code, out, err = run(capsys, [arg.format(crlf=crlf, **files) for arg in argv])
        assert (code, out) == (3, "")
        message = "tab/newline are not valid alphabet characters"
        assert err == f"streamctc: parse error: line 1: {message}\n"

    @pytest.mark.parametrize("route", ["stream", "decode", "lm", "s2s-decode"])
    def test_header_alphabet_that_is_not_utf8_is_parse_exit(self, capsys, monkeypatch,
                                                            files, route):
        # a byte that is not UTF-8 in an alphabet fails no other header check
        em = b"CTCEM v1 1 4 ab\xff-\n0.25 0.25 0.25 0.25\n"
        data = {"stream": em, "decode": em, "lm": b"NGLM v1 2 1.0 hi\xff\n\th\t1\n",
                "s2s-decode": b"S2SM v1 hi\xff\n\th\t1.0\n"}[route]
        path = files["dir"] / "header-not-utf8"
        path.write_bytes(data)
        argv = {"stream": ["stream", "--alpha", "0"],
                "decode": ["decode", str(path), "--alpha", "0"],
                "lm": ["decode", str(files["em"]), "--lm", str(path)],
                "s2s-decode": ["s2s-decode", str(path), "--alpha", "0"]}[route]
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        code, out, err = run(capsys, argv)
        message = "line 1: not UTF-8 text: invalid start byte"
        record = json.dumps({"error": message}) + "\n" if route == "stream" else ""
        assert (code, out, err) == (3, record, f"streamctc: parse error: {message}\n")

    @pytest.mark.parametrize("encoding", [{"PYTHONIOENCODING": "utf-8:strict"},
                                          {"PYTHONIOENCODING": "latin-1"},
                                          {"LC_ALL": "C.UTF-8"}, {"LC_ALL": "C"}],
                             ids=["strict", "latin-1", "C.UTF-8", "C"])
    def test_stream_stdin_that_is_not_utf8_is_parse_exit(self, encoding):
        # the stream reads stdin as UTF-8 whatever the locale: records for the
        # good rows, then the error record of the bad one
        src = Path(cli.__file__).resolve().parents[1]
        env = {key: value for key, value in os.environ.items()
               if key not in ("PYTHONIOENCODING", "LC_ALL", "LC_CTYPE", "LANG")}
        env.update(PYTHONPATH=str(src), **encoding)
        proc = subprocess.run(
            [sys.executable, "-m", "streamctc", "stream", "--alpha", "0"],
            input=b"CTCEM v1 2 3 ab-\n0.5 0.25 0.25\n\xff 0.5 0.25\n",
            capture_output=True, env=env, timeout=60)
        message = "line 3: not UTF-8 text: invalid start byte"
        assert proc.returncode == 3
        records = [json.loads(line) for line in proc.stdout.decode().splitlines()]
        assert records[0]["hypothesis"] == "a"
        assert records[1:] == [{"error": message}]
        assert proc.stderr.decode() == f"streamctc: parse error: {message}\n"


class TestVersion:
    def test_version_lists_formats(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for fmt in ("CTCEM v1", "NGLM v1", "S2SM v1"):
            assert fmt in out
