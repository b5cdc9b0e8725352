#!/usr/bin/env python3
"""Append benchmark ledger entries to ``BENCH_<workload>.json``.

Runs the repository benchmark, ``perfbench/run.py --trace 0``, once per
seed in each given source tree and appends one entry per tree to the
ledger at the repository root: the tree's git SHA (and whether its
``src/`` differs from that commit), the environment fingerprint
perfbench prints, and each end-to-end metric's median, interquartile
range and per-seed values.

With several trees each seed runs once in every tree, back to back, and
the tree that goes first alternates from seed to seed (A B, B A, ...):
each seed gives one before/after pair taken on the same machine, and
slow drift of a shared machine falls on every tree alike.

Usage, from the repository root::

    python3 scripts/bench_ledger.py --workload ingest_replay --seconds 12 \\
        --seeds 1 2 3 4 5 --tree parent=/path/to/parent-checkout --tree change=.

Exits 1 if any run fails its output check (the entry still records it).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench run in *tree*: its result line and its detail line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"perfbench failed in {tree} (exit {proc.returncode}): {proc.stderr[-2000:]}")
    detail = json.loads(lines[-2]) if len(lines) > 1 else {}
    return json.loads(lines[-1]), detail


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True, check=False).stdout.strip()


def summarize(values: list[float]) -> dict:
    """Median, interquartile range (inclusive quartiles) and the values."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "iqr": q3 - q1, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tree", action="append", metavar="LABEL=PATH",
                        help="a labelled source tree to measure (repeatable; default: this repository)")
    args = parser.parse_args(argv)

    trees = [spec.split("=", 1) for spec in args.tree or [f"HEAD={ROOT}"]]
    runs: dict[str, list[tuple[dict, dict]]] = {label: [] for label, _ in trees}
    for i, seed in enumerate(args.seeds):
        for label, path in trees[:: -1 if i % 2 else 1]:
            result, detail = run_once(Path(path).resolve(), args.workload, seed, args.seconds)
            runs[label].append((result, detail))
            throughput = result["metrics"].get("throughput_per_s", {}).get("value")
            print(f"seed {seed} {label}: correct={result['correct']} throughput_per_s={throughput}",
                  file=sys.stderr)

    ledger_path = ROOT / f"BENCH_{args.workload}.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {
        "workload": args.workload, "entries": []}
    all_correct = True
    for label, path in trees:
        tree = Path(path).resolve()
        results = [result for result, _ in runs[label]]
        correct = all(result["correct"] for result in results)
        all_correct &= correct
        names = results[0]["metrics"].keys() if correct else ()
        ledger["entries"].append({
            "label": label,
            "git_sha": git(tree, "rev-parse", "HEAD"),
            "src_differs_from_sha": bool(git(tree, "status", "--porcelain", "--", "src")),
            "fingerprint": next((d["fingerprint"] for _, d in runs[label] if "fingerprint" in d), None),
            "seeds": args.seeds,
            "seconds": args.seconds,
            "paired_with": [other for other, _ in trees if other != label],
            "correct": correct,
            "metrics": {
                name: dict(unit=results[0]["metrics"][name]["unit"],
                           **summarize([r["metrics"][name]["value"] for r in results]))
                for name in names
            },
        })
    ledger_path.write_text(json.dumps(ledger, indent=2) + "\n")
    print(f"appended {len(trees)} entr{'y' if len(trees) == 1 else 'ies'} to {ledger_path.name}",
          file=sys.stderr)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
