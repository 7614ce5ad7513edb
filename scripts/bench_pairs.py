#!/usr/bin/env python3
"""Alternating parent/change pairs of the streambench workloads, summed up
in one ``BENCH_<n>.json``.

    python3 scripts/bench_pairs.py --parent HEAD~1 --out BENCH_7.json
    python3 scripts/bench_pairs.py --parent main --workloads s2s-batch --pairs 5

Each pair runs ``streambench/run.py --trace 0`` once on the parent and once
on the change, one after the other, each for the ``run_seconds`` of
``BENCHMARK.json``; the pairs alternate which side goes first, so a slow or
fast phase of the machine falls on both sides alike.  The change is this
checkout's working tree.  The parent is the committed files of ``--parent``,
unpacked by ``git archive`` into a temporary directory (``TMPDIR`` chooses
where).

For every end-to-end metric of ``BENCHMARK.json``, and for the raw
(unscaled) times the run prints beside them, the output gives each side's
median and quartiles, the change's median over the parent's, and the pairs
the change won, plus the seeds and the Python and numpy versions the runs
reported.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unpack(rev: str, dest: Path) -> str:
    """Unpack the committed files of git revision ``rev`` into ``dest`` with
    ``git archive``; the revision's full commit id."""
    revision = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                              cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", revision], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return revision


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(environment line, result line) of one benchmark run in ``checkout``."""
    out = subprocess.run(
        [sys.executable, "streambench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    env, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(env), json.loads(result)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summary(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per metric: each side's quartiles, the ratio of the medians and the
    pairs in which the change did better than the parent."""
    metrics = {}
    for name, direction in better.items():
        sides = {side: [r[name]["value"] for r in runs[side]] for side in runs}
        wins = sum((c < p) if direction == "lower" else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
        metrics[name] = {
            "unit": runs["change"][0][name]["unit"], "better": direction,
            "parent": parent, "change": change,
            "change_over_parent": change["median"] / parent["median"] if parent["median"] else None,
            "wins": wins, "pairs": len(sides["change"]),
        }
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", metavar="REV", required=True,
                   help="git revision whose committed files are the parent")
    p.add_argument("--workloads", nargs="+", metavar="W",
                   help="default: every workload in BENCHMARK.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="the seed of every run")
    p.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    raw = {f"raw_{name}": direction for name, direction in better.items()}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    with tempfile.TemporaryDirectory() as parent:
        report = {"parent": unpack(args.parent, Path(parent)), "change": "working tree",
                  "pairs": args.pairs, "seconds": seconds, "seeds": [args.seed] * args.pairs,
                  "workloads": {}}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = [("parent", Path(parent)), ("change", ROOT)]
                for name, checkout in order if i % 2 == 0 else order[::-1]:
                    env, result = run_once(checkout, workload, args.seed, seconds)
                    runs[name].append({**result["metrics"], **env["unbounded"],
                                       "failed": result["failed"]})
                    report.update(python=env["python"], numpy=env["numpy"], nproc=env["nproc"])
                print(workload, i + 1, "of", args.pairs, file=sys.stderr)
            report["workloads"][workload] = {
                "metrics": summary(runs, better),
                "raw": summary(runs, {k: v for k, v in raw.items() if k in runs["change"][0]}),
                "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
            }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
