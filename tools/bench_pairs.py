"""Run ``perfbench/run.py`` in two checkouts as alternating pairs and summarise.

Usage::

    python3 tools/bench_pairs.py --parent OLD --change NEW --workload decompose_n12 \\
        --pairs 10 --seconds 25 --seed 7 --out BENCH_label.json

``OLD`` and ``NEW`` are two checkouts of the repository.  For each workload
(``--workload`` may be repeated) the script runs one fresh
``python3 perfbench/run.py --trace 0`` process per side and pair, the parent
first in odd pairs and the change first in even ones, so a slow drift of the
machine falls on both sides alike.  It writes every run's result line and
machine info, and per workload and gated metric the medians and quartiles of
both sides and the number of pairs the change won.  The gated metrics and
their directions come from ``BENCHMARK.json`` next to this script.  A run
that exits nonzero is recorded with its exit code and the last lines of its
stderr, its pair is left out of the summary, the remaining runs still go
ahead, and the script exits 1 once the file is written.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
STDERR_LINES = 20  # of a failed run, kept in its entry


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``perfbench/run.py`` process; its machine info and result line, or how it failed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        return {"exit_code": done.returncode,
                "stderr_tail": done.stderr.splitlines()[-STDERR_LINES:]}
    report_line, result_line = done.stdout.strip().splitlines()[-2:]
    return {"machine": json.loads(report_line)["report"]["machine"],
            "result": json.loads(result_line)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Medians, quartiles and change wins of each metric over alternating pairs.

    ``runs`` holds one dict per run with ``pair``, ``side`` and ``result``, or
    ``exit_code`` for a run that failed; only pairs with both results count.
    ``better`` maps each metric to "higher" or "lower".  A pair counts as a
    win when the change's value is strictly better than the parent's.
    """
    values = {side: {name: {} for name in better} for side in SIDES}
    failed = dict.fromkeys(SIDES, 0)
    for run in runs:
        if "exit_code" in run:
            continue
        result = run["result"]
        failed[run["side"]] += result["failed"]
        for name in better:
            values[run["side"]][name][run["pair"]] = result["metrics"][name]["value"]
    metrics = {}
    for name, direction in better.items():
        parent, change = values["parent"][name], values["change"][name]
        pairs = sorted(parent.keys() & change.keys())
        if not pairs:
            continue
        sign = 1.0 if direction == "higher" else -1.0
        entry = {"better": direction, "pairs": len(pairs),
                 "change_wins": sum(sign * (change[p] - parent[p]) > 0 for p in pairs)}
        for side, by_pair in (("parent", parent), ("change", change)):
            q1, mid, q3 = np.percentile([by_pair[p] for p in pairs], [25, 50, 75])
            entry[side] = {"median": float(mid), "q1": float(q1), "q3": float(q3)}
        entry["change_over_parent"] = entry["change"]["median"] / entry["parent"]["median"]
        metrics[name] = entry
    return {"failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    workloads = {}
    for workload in args.workload:
        runs = []
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                run = run_once(checkouts[side], workload, args.seconds, args.seed)
                runs.append({"pair": pair, "side": side, **run})
                outcome = (f"exit code {run['exit_code']}" if "exit_code" in run
                           else json.dumps(run["result"]["metrics"]))
                print(f"{workload} pair {pair} {side}: {outcome}", file=sys.stderr)
        workloads[workload] = {"summary": summarize(runs, better), "runs": runs}
    out = {"command": f"perfbench/run.py --seconds {args.seconds} --seed {args.seed} --trace 0",
           "pairs": args.pairs, "order": "parent first in odd pairs, change first in even",
           "workloads": workloads}
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return int(any("exit_code" in run for w in workloads.values() for run in w["runs"]))


if __name__ == "__main__":
    sys.exit(main())
