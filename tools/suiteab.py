"""In-process A/B of two source trees of ``pct`` on the verification suites.

    python3 tools/suiteab.py BASE_SRC CHANGE_SRC [--seeds N] [--repeats R]

``BASE_SRC`` and ``CHANGE_SRC`` are ``src`` directories, each holding a
``pct`` package.  Both load side by side in this process through
``tools/docab.py``'s ``load_sides``, so they see the same machine at the
same moment.  Every case of every suite of ``oracle.SUITES`` over seeds
``0..N-1`` (default 100, the seeds ``pct verify`` checks by default and
the benchmark's ``verify_suites`` runs) runs once per side to warm up and
then ``R`` times per side (default 3), the two sides taking turns to go
first.  Every run of a case must give the same ``as_json_dict()`` on both
trees, or the script stops with exit 1.

A case is timed by its best run, as in the benchmark.  For each suite, and
for all of them together, the script prints the sum of each side's best
case times in milliseconds, the ratio of the sums (change / base), on how
many cases the change was faster, each side's cases per second by the
benchmark's formula for ``verify_cases_per_s``: the number of cases over
the sum of their best times, and each side's p50 by the formula for
``verify_case_p50_ms``: the median of the best case times, in
milliseconds.  Two benchmark runs are two processes, whose noise
differs; both sides here share it.

Standard library only, besides the two trees.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("base", "change")


def _docab():
    spec = importlib.util.spec_from_file_location("docab", Path(__file__).with_name("docab.py"))
    docab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(docab)
    return docab


def load_oracles(srcs: dict, into: Path) -> dict:
    """``{side: its oracle module}``, each tree loaded as ``pct_<side>``."""
    clis = _docab().load_sides(srcs, into)
    return {side: importlib.import_module(cli.__package__ + ".oracle")
            for side, cli in clis.items()}


def _timed(check, seed: int) -> tuple:
    """(seconds, record) of one suite case."""
    start = time.perf_counter()
    result = check(seed)
    return time.perf_counter() - start, result.as_json_dict()


def compare(oracles: dict, n_seeds: int, repeats: int) -> dict:
    """``{suite: {side: [best seconds of each seed]}}``; every run of a case
    must give the base's first record."""
    best = {}
    for name in oracles["base"].SUITES:
        row = best[name] = {side: [] for side in SIDES}
        for seed in range(n_seeds):
            spent = {side: [] for side in SIDES}
            want = None
            for i in range(repeats + 1):     # the first pass warms up
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    seconds, record = _timed(oracles[side].SUITES[name], seed)
                    if want is None:
                        want = record
                    elif record != want:
                        raise SystemExit(f"{name} seed {seed} differs between the trees:\n"
                                         f"{want}\n{record}")
                    if i:
                        spent[side].append(seconds)
            for side in SIDES:
                row[side].append(min(spent[side]))
    return best


def table(best: dict) -> list:
    lines = [f"{'suite':<15}{'cases':>6}{'base ms':>10}{'change ms':>11}{'ratio':>8}"
             f"{'won':>10}{'base/s':>9}{'change/s':>10}{'base p50':>10}{'change p50':>12}"]
    every = {side: [s for row in best.values() for s in row[side]] for side in SIDES}
    for name, row in [*best.items(), ("all", every)]:
        base, change = sum(row["base"]), sum(row["change"])
        n = len(row["base"])
        won = sum(c < b for b, c in zip(row["base"], row["change"]))
        p50 = {side: statistics.median(row[side]) * 1e3 for side in SIDES}
        lines.append(f"{name:<15}{n:>6}{base * 1e3:10.3f}{change * 1e3:11.3f}"
                     f"{change / base:8.3f}{f'{won}/{n}':>10}{n / base:9.1f}{n / change:10.1f}"
                     f"{p50['base']:10.3f}{p50['change']:12.3f}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="the base tree's src directory")
    p.add_argument("change", help="the changed tree's src directory")
    p.add_argument("--seeds", type=int, default=100, help="seeds per suite, from 0")
    p.add_argument("--repeats", type=int, default=3, help="timed runs per case and side")
    args = p.parse_args(argv)
    if args.seeds < 1 or args.repeats < 1:
        p.error("--seeds and --repeats must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        oracles = load_oracles({"base": args.base, "change": args.change}, Path(tmp))
        for line in table(compare(oracles, args.seeds, args.repeats)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
