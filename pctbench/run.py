"""Benchmark of the `pct` checker: one workload per run, closed loop, one client.

    python3 pctbench/run.py --workload query_large --seed 3 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before it
print every metric by name with its unit.  Every run does a fixed amount of
work; ``--seconds`` is the time that work is sized for, and a run starts no
new repeat once its timed part has taken three times as long.  Workloads,
metrics and the expected effect of each layer on them are described in
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import worker

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("verify_suites", "query_large", "query_wide_omega")
# fresh set-up processes per run, split between before and after the timed
# part so that one spell of machine noise cannot move them all
SETUP_REPEATS = 9
# query_large makes QUERY_REPEATS rounds of three fresh query processes on
# each of QUERY_DOCS full-size documents, and times each query by its best round
QUERY_DOCS = 2
QUERY_REPEATS = 2
# what run.py keeps of each query record
QUERY_FIELDS = ("kind", "doc", "main_s", "seq_s", "wall_s", "traced")
MAX_SECONDS = 120
# every child is killed once the run has taken this long
HARD_LIMIT_S = 170.0
KINDS = ("sat", "refine", "compose")
# traced function whose span must be reached, per workload
KEY_SPANS = {"verify_suites": "oracle.materialize",
             "query_large": "traces.slot_values",
             "query_wide_omega": "probabilistic.product_dist"}
# root spans whose time each share metric divides up
SHARE_ROOTS = {"sat_s": "query.sat", "refine_s": "query.refine",
               "verify_cases_per_s": "verify.case"}
OVERHEAD_METRICS = ("sat_s", "refine_s", "compose_s", "query_wall_s",
                    "verify_cases_per_s", "verify_case_p50_ms")

END_TO_END_UNITS = {
    "setup_s": "s", "sat_s": "s", "refine_s": "s", "compose_s": "s", "query_wall_s": "s",
    "verify_cases_per_s": "1/s", "verify_case_p50_ms": "ms", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# --- arguments ------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise BenchError(message)


def _int_in(low, high, what):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{what} must be in [{low}, {high}], got {value}")
        return value
    return parse


def parse_args(argv):
    p = _Parser(prog="pctbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=_int_in(0, 2**31 - 1, "seed"))
    p.add_argument("--seconds", required=True, type=_int_in(1, MAX_SECONDS, "seconds"))
    p.add_argument("--trace", type=_int_in(0, 1, "trace"), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="query document size; small is for the benchmark's own tests")
    return p.parse_args(argv)


# --- children -------------------------------------------------------------------------

class Runner:
    """Starts worker processes one at a time and returns their JSON results."""

    def __init__(self, started: float):
        self.started = started
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        # the oracle's set iteration order, and so how soon its all() checks
        # stop, follows the string hash; a fixed hash seed makes runs repeat
        self.env["PYTHONHASHSEED"] = "0"
        self.pct_dir = (ROOT / "src" / "pct").resolve()

    def run(self, *args) -> tuple:
        """(result dict, wall seconds) of one worker call."""
        budget = HARD_LIMIT_S - (time.perf_counter() - self.started)
        if budget <= 1:
            raise BenchError(f"out of time before worker {args[0]}")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *map(str, args)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=budget)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args[0]} did not finish within the run's time limit") from None
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise BenchError(f"worker {args[0]} exited {proc.returncode}: {tail[0]}")
        result = json.loads(lines[-1])
        if Path(result["pct_file"]).resolve().parent != self.pct_dir:
            raise BenchError(f"worker imported pct from {result['pct_file']}, not from src/")
        return result, wall


# --- workloads --------------------------------------------------------------------------

def measure_setup(runner, args, repeats: int) -> list:
    """Wall seconds of ``repeats`` fresh set-up processes."""
    return [runner.run("setup", args.workload, args.seed, args.size)[1] for _ in range(repeats)]


def run_verify_suites(runner, args, work: Path) -> dict:
    res, _ = runner.run("suites", args.workload, args.seed, args.seconds, args.trace,
                        args.size, work / "spans-suites.json")
    return {"queries": res["queries"], "cases": res["cases"], "gate": [],
            "peak_rss_mb": res["rss_mb"], "traces": [res["trace"]] if args.trace else [],
            "timed_cases": (res["cases"], ("suite", "seed"), "case_s"),
            "notes": [f"verify passes: {res['passes']} (six suites over the fixed seed range), "
                      f"{res['verify_s']:.2f} s"]}


def run_queries(runner, args, work: Path) -> dict:
    """query_large: rounds of sat, refine and compose, each query a fresh
    process, QUERY_REPEATS times on each of QUERY_DOCS documents in turn (one
    round traced and one untraced per document when traced).  Each (document,
    query) is a verification case: its result is checked against golden.json,
    so the verify metrics here time checked queries, process start included."""
    check, _ = runner.run("crosscheck", args.workload, args.seed)
    traces_out, ops, round_rss = [], [], []
    n_rounds = 2 * QUERY_DOCS if args.trace else QUERY_REPEATS * QUERY_DOCS
    with worker.Docs(args.workload, args.seed, args.size, QUERY_DOCS) as docs:
        start = time.perf_counter()
        i = 0
        while i < n_rounds and not (i >= QUERY_DOCS and worker.past_limit(start, args.seconds)):
            k, traced = worker.paired(i, args.trace == 1)

            def query(argv):
                rec, wall = runner.run("query", int(traced),
                                       work / f"spans-{i}-{argv[0]}.json", *argv)
                if traced:
                    traces_out.append(rec.pop("trace"))
                return {**rec, "wall_s": wall}

            records = docs.sequence(k, query, traced)
            if not traced:
                round_rss.append(max(rec["rss_mb"] for rec in records))
            ops += [{**{f: rec[f] for f in QUERY_FIELDS},
                     "error": docs.check(rec, with_oracle=False)} for rec in records]
            i += 1
    # the largest process of a round depends on the document, so the median
    # over rounds does not grow with the number of rounds
    return {"queries": ops, "cases": [], "gate": check["checks"],
            "peak_rss_mb": statistics.median(round_rss), "traces": traces_out,
            "timed_cases": (ops, ("doc", "kind"), "wall_s"),
            "notes": [f"query rounds: {i} of {n_rounds} (sat, refine, compose each), "
                      f"{time.perf_counter() - start:.2f} s",
                      f"oracle cross-check: {len(check['checks'])} small-document queries"]}


def run_warm_queries(runner, args, work: Path) -> dict:
    """query_wide_omega: the oracle gate on small documents, then the three
    queries in one warm worker (see worker.mode_warm).  Each (document, query)
    is a verification case timed by its best repeat."""
    check, _ = runner.run("crosscheck", args.workload, args.seed)
    res, _ = runner.run("warm", args.workload, args.seed, args.seconds, args.trace,
                        args.size, work / "spans-warm.json")
    queries = res["queries"]
    return {"queries": queries, "cases": [], "gate": check["checks"],
            "peak_rss_mb": res["rss_mb"], "traces": [res["trace"]] if args.trace else [],
            "timed_cases": (queries, ("doc", "kind"), "main_s"),
            "notes": [f"query sequences: {res['sequences']} of {res['planned']} over "
                      f"{worker.WARM_DOCS} documents, {res['elapsed_s']:.2f} s",
                      f"oracle cross-check: {len(check['checks'])} small-document queries"]}


# --- metrics ------------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else None


def best_per_key(records: list, key: tuple, field: str) -> list:
    """The best (lowest) value of ``field`` for each value of ``key``.  The
    workloads repeat their inputs across the run, and the best repeat is the
    one least disturbed by other processes on the machine."""
    best = {}
    for r in records:
        k = tuple(r[f] for f in key)
        best[k] = min(r[field], best.get(k, r[field]))
    return list(best.values())


def end_to_end(data: dict, traced: bool) -> dict:
    """End-to-end values over the untraced (or the traced) operations."""
    out = {}
    queries = [q for q in data["queries"] if q["traced"] == traced]
    for kind in KINDS:
        same = [q for q in queries if q["kind"] == kind]
        out[f"{kind}_s"] = _median(best_per_key(same, ("doc",), "main_s"))
    # one sequence = one (sat, refine, compose) on one document
    compose = [q for q in queries if q["kind"] == KINDS[-1]]
    out["query_wall_s"] = _median(best_per_key(compose, ("doc",), "seq_s"))
    records, key, field = data["timed_cases"]
    cases = best_per_key([r for r in records if r["traced"] == traced], key, field)
    out["verify_cases_per_s"] = len(cases) / sum(cases) if cases else None
    p50 = _median(cases)
    out["verify_case_p50_ms"] = p50 * 1000 if p50 is not None else None
    return out


def merge_traces(summaries: list) -> dict:
    funcs, roots = {}, {}
    merged = {"funcs": funcs, "roots": roots, "bytes_out": 0, "spans": 0,
              "absent": set(), "consistent": True}
    for s in summaries:
        for name, f in s["funcs"].items():
            acc = funcs.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += f["calls"]
            acc["self_s"] += f["self_s"]
        for name, r in s["roots"].items():
            acc = roots.setdefault(name, {"count": 0, "wall_s": 0.0, "modules": {}})
            acc["count"] += r["count"]
            acc["wall_s"] += r["wall_s"]
            for mod, t in r["modules"].items():
                acc["modules"][mod] = acc["modules"].get(mod, 0.0) + t
        merged["bytes_out"] += s["bytes_out"]
        merged["spans"] += s["spans"]
        merged["absent"].update(s["absent"])
        merged["consistent"] &= s["consistent"]
    return merged


def trace_errors(trace: dict, workload: str) -> list:
    """Why a traced run's per-layer numbers cannot be trusted, if they cannot."""
    errors = []
    key = KEY_SPANS[workload]
    if key not in trace["absent"] and trace["funcs"].get(key, {}).get("calls", 0) == 0:
        errors.append(f"traced function {key} was never reached (a stale import binding?)")
    if not trace["consistent"]:
        errors.append("self times under a root span exceed its wall time")
    return errors


def per_layer_names() -> list:
    """Every per-layer metric with its unit, in the order BENCHMARK.json lists them."""
    out = []
    for name in spans.traced_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out.append((f"{spans.BYTES_OUT}.bytes_out", "bytes"))
    out += [(f"{mod}.self_s", "s") for mod in spans.TRACED]
    for metric in SHARE_ROOTS:
        out += [(f"share.{metric}.{mod}", "frac") for mod in (*spans.TRACED, spans.UNTRACED)]
    out += [(f"overhead.{m}", END_TO_END_UNITS[m]) for m in OVERHEAD_METRICS]
    out += [("trace.spans", "count"), ("trace.absent", "count")]
    return out


def per_layer(trace: dict, untraced: dict, traced: dict) -> dict:
    values = {}
    for name in spans.traced_names():
        f = trace["funcs"].get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = f["calls"]
        values[f"{name}.self_s"] = f["self_s"]
    values[f"{spans.BYTES_OUT}.bytes_out"] = trace["bytes_out"]
    for mod in spans.TRACED:
        values[f"{mod}.self_s"] = sum(f["self_s"] for n, f in trace["funcs"].items()
                                      if n.split(".", 1)[0] == mod)
    for metric, root_name in SHARE_ROOTS.items():
        root = trace["roots"].get(root_name)
        for mod in (*spans.TRACED, spans.UNTRACED):
            values[f"share.{metric}.{mod}"] = (root["modules"].get(mod, 0.0) / root["wall_s"]
                                               if root and root["wall_s"] else 0.0)
    for m in OVERHEAD_METRICS:
        a, b = untraced.get(m), traced.get(m)
        values[f"overhead.{m}"] = b - a if a is not None and b is not None else 0.0
    values["trace.spans"] = trace["spans"]
    values["trace.absent"] = len(trace["absent"])
    return values


# --- main -------------------------------------------------------------------------------

def run(args) -> dict:
    started = time.perf_counter()
    if not (ROOT / "src" / "pct" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'pct'} is missing")
    runner = Runner(started)
    work = BENCH_DIR / "out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

    setups = measure_setup(runner, args, SETUP_REPEATS // 2 + 1)
    body = {"verify_suites": run_verify_suites, "query_large": run_queries,
            "query_wide_omega": run_warm_queries}[args.workload]
    data = body(runner, args, work)
    setups += measure_setup(runner, args, SETUP_REPEATS // 2)
    if not args.trace:
        work.rmdir()

    ops = data["queries"] + data["cases"] + data["gate"]
    errors = [op["error"] for op in ops if op["error"]]
    attempted = len(ops)
    untraced = end_to_end(data, traced=False)
    untraced["setup_s"] = statistics.median(setups)
    untraced["peak_rss_mb"] = data["peak_rss_mb"]
    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
             f"trace {args.trace}, size {args.size}", *data["notes"]]
    for kind in KINDS:
        n = sum(1 for q in data["queries"] if q["kind"] == kind and not q["traced"])
        lines.append(f"{kind} samples: {n}")
    records, key, _ = data["timed_cases"]
    n_cases = len({tuple(r[f] for f in key) for r in records if not r["traced"]})
    lines.append(f"verify case samples: {n_cases}")
    lines.append(f"failed_frac = {len(errors) / attempted:.6g} ({len(errors)} of {attempted})")
    lines += [f"error: {e}" for e in errors[:10]]

    correct = not errors
    if args.trace:
        trace = merge_traces(data["traces"])
        traced = end_to_end(data, traced=True)
        for reason in trace_errors(trace, args.workload):
            correct = False
            lines.append(f"error: {reason}")
        if trace["absent"]:
            lines.append(f"absent at this commit: {', '.join(sorted(trace['absent']))}")
        metrics = per_layer(trace, untraced, traced)
        units = dict(per_layer_names())
        summary_path = BENCH_DIR / "out" / f"trace-{work.name}.json"
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump({"untraced": untraced, "traced": traced, "metrics": metrics,
                       "absent": sorted(trace["absent"]), "roots": trace["roots"]}, fh, indent=1)
        lines.append(f"trace summary: {summary_path.relative_to(ROOT)}; spans in {work.relative_to(ROOT)}")
    else:
        metrics = untraced
        units = END_TO_END_UNITS
    for name, value in untraced.items():
        lines.append(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}"
                     if value is not None else f"{name} = n/a")
    if args.trace:
        for name in OVERHEAD_METRICS:
            lines.append(f"overhead.{name} = {metrics[f'overhead.{name}']:.6g} "
                         f"{END_TO_END_UNITS[name]} (traced minus untraced)")
    missing = [name for name in units if metrics.get(name) is None]
    if missing:
        raise BenchError(f"no samples for {', '.join(missing)}; raise --seconds")
    for line in lines:
        print(line)
    return {"correct": correct, "attempted": attempted, "failed": len(errors),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
