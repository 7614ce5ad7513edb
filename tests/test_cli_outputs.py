"""scripts/cli_outputs.py: the job list and the input comparison."""

import sys
from collections import Counter
from pathlib import Path

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
