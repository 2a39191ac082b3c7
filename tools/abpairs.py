"""Alternating A/B runs of the benchmark: a parent checkout against a change.

    python3 tools/abpairs.py --parent ../parent --change . --pairs 10 \
        --workloads query_large,query_wide_omega --seed 9000 --out BENCH.json
    python3 tools/abpairs.py --summarize BENCH.json

For each workload and each pair ``i`` it runs ``pctbench/run.py --workload W
--seed (seed + i) --seconds S --trace 0`` once in each checkout, the parent
first on even pairs and the change first on odd ones, so that a slow spell
of the machine does not always fall on one side.  Every run is written to
the ``--out`` JSON file as soon as it ends.  Per workload and end-to-end
metric the summary gives the median and quartiles of each side, the ratio
of the medians (change / parent), in how many pairs the change was better,
and whether every change run beat every parent run.  The run length ``S``
(``run_seconds``) and which direction of each metric is better are read
from the change checkout's ``BENCHMARK.json``, so both sides run as long
as the benchmark itself does.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(xs: list) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs: list, better: dict) -> list:
    """One row per (workload, metric) present on both sides of some pair.

    ``runs`` are records with ``workload``, ``pair``, ``side`` and
    ``metrics``; ``better`` maps a metric to ``"lower"`` or ``"higher"``.
    """
    rows = []
    workloads = sorted({r["workload"] for r in runs})
    for w in workloads:
        pairs = {}
        for r in runs:
            if r["workload"] == w:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        complete = [p for _, p in sorted(pairs.items()) if set(p) == set(SIDES)]
        for metric in sorted(better):
            both = [(p["parent"][metric], p["change"][metric]) for p in complete
                    if metric in p["parent"] and metric in p["change"]]
            if not both:
                continue
            parent = [a for a, _ in both]
            change = [b for _, b in both]
            lower = better[metric] == "lower"
            wins = sum(1 for a, b in both if (b < a if lower else b > a))
            separated = max(change) < min(parent) if lower else min(change) > max(parent)
            pq, cq = quartiles(parent), quartiles(change)
            rows.append({"workload": w, "metric": metric, "better": better[metric],
                         "pairs": len(both), "parent": pq, "change": cq,
                         "ratio": cq[1] / pq[1] if pq[1] else None,
                         "parent_iqr_frac": (pq[2] - pq[0]) / pq[1] if pq[1] else None,
                         "wins": wins, "separated": separated})
    return rows


def format_row(row: dict) -> str:
    def q(t):
        return f"{t[1]:.4g} [{t[0]:.4g}, {t[2]:.4g}]"
    ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
    return (f"{row['workload']:<17} {row['metric']:<19} {q(row['parent'])} -> "
            f"{q(row['change'])}  ratio {ratio}  wins {row['wins']}/{row['pairs']}"
            f"  all-beat {'yes' if row['separated'] else 'no'}")


def spec_of(checkout: Path) -> tuple:
    """(``run_seconds``, metric -> better direction) of a checkout's benchmark."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["run_seconds"], {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "pctbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed "
                         f"(exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics, "wall_s": wall}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path, default=Path("."))
    ap.add_argument("--workloads", default="verify_suites,query_large,query_wide_omega")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=9000, help="seed of pair 0")
    ap.add_argument("--out", type=Path, help="JSON file of every run")
    ap.add_argument("--summarize", type=Path, help="print the summary of a JSON file and exit")
    args = ap.parse_args(argv)

    if args.summarize:
        data = json.loads(args.summarize.read_text(encoding="utf-8"))
        for row in summarize(data["runs"], data["better"]):
            print(format_row(row))
        return 0
    if args.parent is None or args.out is None:
        ap.error("--parent and --out are needed to run pairs")

    seconds, better = spec_of(args.change)
    data = {"command": "pctbench/run.py --trace 0", "seconds": seconds,
            "better": better, "runs": []}
    for workload in args.workloads.split(","):
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for k, side in enumerate(order):
                checkout = args.parent if side == "parent" else args.change
                record = run_once(checkout, workload, seed, seconds)
                data["runs"].append({"workload": workload, "pair": i, "seed": seed,
                                     "side": side, "position": k, **record})
                args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
                print(f"{workload} pair {i} seed {seed} {side}: "
                      f"correct={record['correct']} wall={record['wall_s']:.0f}s", flush=True)
    for row in summarize(data["runs"], better):
        print(format_row(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
