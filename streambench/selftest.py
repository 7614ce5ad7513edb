"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest streambench/selftest.py -q

Not named ``test_*.py``, so the package's test suite does not collect it.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from client import StreamChecker, StreamSession, call_cli, char_edits  # noqa: E402
from gauge import TICK_MS, TICKS, Gauge  # noqa: E402
from inputs import Sizes, make_inputs  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from streamctc import edit_distance  # noqa: E402

TINY = Sizes(vocab_words=30, corpus_sentences=200, sentence_words=(2, 3), utterance_chars=10,
             utterances=3, long_chars=40, long_utterances=2, tables=3)


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_prints_with_its_unit(name, trace):
    env, result = run.benchmark(name, seed=3, seconds=0.3, trace=trace, sizes=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert env["seed"] == 3 and env["nproc"] >= 1
    if not trace:
        assert {k: m["unit"] for k, m in env["unbounded"].items()} == run.UNBOUNDED
    json.dumps(result)


def test_inputs_repeat_for_a_seed(tmp_path):
    files = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        inputs = make_inputs(5, "tables", str(tmp_path / sub), TINY)
        files.append([inputs.lm_path] + [t.path for t in inputs.tables])
    for x, y in zip(*files):
        assert Path(x).read_bytes() == Path(y).read_bytes()


def _stream_lines(tmp_path):
    """Records of one real ``stream`` call and the ``decode`` line for it."""
    inputs = make_inputs(7, "utterances", str(tmp_path), TINY)
    utt = inputs.utterances[0]
    lines: list[str] = []
    recorder = type("Recorder", (), {"feed": lambda self, line: lines.append(line)})()
    session = StreamSession(utt.lines, float("inf"), recorder)
    argv = ["stream", "--lag", "3", "--beam-width", "4", "--lm", inputs.lm_path]
    assert call_cli(argv, session, session).exit_code == 0
    decoded = call_cli(["decode", utt.path, "--beam-width", "4", "--lm", inputs.lm_path])
    return lines, decoded.stdout.rstrip("\n"), session.rows_sent


def _failures(lines, decode_line, rows) -> int:
    checker = StreamChecker()
    for line in lines:
        checker.feed(line)
    return checker.finish(rows, decode_line)


def test_checker_counts_a_corrupted_final_record(tmp_path):
    lines, decode_line, rows = _stream_lines(tmp_path)
    assert _failures(lines, decode_line, rows) == 0

    final = json.loads(lines[-1])
    for field, value in [("committed", final["committed"] + "x"),
                         ("hypothesis", final["hypothesis"] + "x"),
                         ("score", final["score"] - 1e-6),
                         ("frame", final["frame"] + 1)]:
        corrupted = lines[:-1] + [json.dumps({**final, field: value}) + "\n"]
        assert _failures(corrupted, decode_line, rows) == 1, field
    assert _failures(lines[:-1] + ["{not json\n"], decode_line, rows) == 1
    assert _failures(lines[:-1], decode_line, rows) == 1


def test_checker_counts_missing_and_out_of_sequence_records(tmp_path):
    lines, decode_line, rows = _stream_lines(tmp_path)
    assert _failures(lines[1:], decode_line, rows) >= 1
    swapped = [lines[1], lines[0], *lines[2:]]
    assert _failures(swapped, decode_line, rows) == 2


def test_gauge_scales_a_span_by_the_readings_around_it():
    gauge = Gauge()
    gauge.at, gauge.tick_s = [1.0, 2.0, 3.0, 4.0], [0.001, 0.002, 0.004, 0.008]
    # between two readings: the one before and the one after
    assert gauge.factor(2.5, 2.6) == pytest.approx(TICK_MS / 3.0)
    # over readings: those within, plus one on each side
    assert gauge.factor(1.5, 3.5) == pytest.approx(TICK_MS / 3.75)
    assert gauge.factor(0.0, 0.5) == pytest.approx(TICK_MS / 1.0)
    assert gauge.factor(5.0, 6.0) == pytest.approx(TICK_MS / 8.0)
    assert Gauge().factor(0.0, 1.0) == 1.0


def test_gauge_readings_are_left_out_of_latencies(tmp_path):
    inputs = make_inputs(7, "utterances", str(tmp_path), TINY)
    gauge = Gauge()
    session = StreamSession(inputs.utterances[0].lines, float("inf"), StreamChecker(), gauge)
    call = call_cli(["stream", "--lag", "3", "--lm", inputs.lm_path], session, session)
    assert call.exit_code == 0 and len(session.latencies) == session.rows_sent
    assert gauge.tick_s  # the first reading is always due
    reading_s = sum(gauge.tick_s) * TICKS
    assert call.busy_s <= call.wall_s - reading_s * 0.9


def test_char_edits_equals_edit_distance():
    rng = random.Random(0)
    for _ in range(300):
        a = "".join(rng.choice("ab c") for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice("ab c") for _ in range(rng.randint(0, 12)))
        assert char_edits(a, b) == edit_distance(a, b).distance, (a, b)


def test_run_prints_the_result_last(tmp_path):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "s2s-batch",
                          "--seed", "1", "--seconds", "0.2", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"] and set(last["metrics"]) == set(run.END_TO_END)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "s2s-batch",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0 and out.stdout == ""
