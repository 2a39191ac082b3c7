"""Child process of the benchmark: one fresh interpreter per call.

    python3 pctbench/worker.py setup <workload> <seed> <size>
    python3 pctbench/worker.py query <trace 0|1> <spans file> <pct argv...>
    python3 pctbench/worker.py crosscheck <workload> <seed>
    python3 pctbench/worker.py suites|warm <workload> <seed> <seconds> <trace 0|1> <size> <spans file>

Every mode prints one JSON object as its last line of standard output.  The
program under test is imported from the `src` directory that run.py
puts on PYTHONPATH; the CLI's own output is captured in memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import sys
import time
import traceback
from pathlib import Path

import docgen
import spans

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = BENCH_DIR / "golden.json"

# documents per family and size that have golden results; every run checks
# all small ones against the oracle
POOL = 16
# verify_suites makes VERIFY_PASSES passes over the seeds `pct verify` checks
# by default (fewer with --size small, for the benchmark's own tests)
VERIFY_SEEDS = 100
SMALL_VERIFY_SEEDS = 5
VERIFY_PASSES = 2
# passes over the small documents as timed queries on verify_suites
SUITE_QUERY_PASSES = 4
# full-size documents query_wide_omega repeats WARM_REPEATS times each in its
# warm process
WARM_DOCS = 3
WARM_REPEATS = 4
# a run stops starting new repeats once its timed part has taken this many
# times --seconds, so that a much slower commit still ends in time; the fixed
# counts above fit in --seconds at the commit that added the benchmark
SAFETY_FACTOR = 3

FAMILY = {"verify_suites": "large", "query_large": "large", "query_wide_omega": "wide"}


def doc_order(workload: str, seed: int) -> list:
    """The pool documents a run uses, in order; a function of the seed only."""
    return random.Random(f"pctbench-order:{workload}:{seed}").sample(range(POOL), POOL)


def verify_offset(seed: int) -> int:
    """Where in the fixed verification seed range a run starts."""
    return random.Random(f"pctbench-verify:{seed}").randrange(VERIFY_SEEDS)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- running one CLI query in this process ------------------------------------------

def run_cli(argv, tracer=None, root=None) -> dict:
    """Call pct.cli.main(argv) with output captured; time entry to return.

    When traced, the call is one root span, ``query.<kind>`` unless named."""
    from pct import cli
    out, err = io.StringIO(), io.StringIO()
    tb = None
    rc = None
    ctx = tracer.root(root or f"query.{argv[0]}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            with ctx:
                rc = cli.main(argv)
        except (Exception, SystemExit):  # whatever escapes the CLI counts as a failure
            tb = traceback.format_exc()
        main_s = time.perf_counter() - t0
    return {"kind": argv[0], "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "traceback": tb, "main_s": main_s}


_RATIONAL = r"(-?\d+(?:/\d+)?)"


def parse_result(kind: str, stdout: str) -> dict:
    """The exact values a query prints: rationals as strings, compose as a digest."""
    if kind == "sat":
        m = re.search(rf"^level = {_RATIONAL} ", stdout, re.M)
        return {"level": m.group(1)} if m else {}
    if kind == "refine":
        out = {}
        m = re.search(rf"^conditioning probability = {_RATIONAL} ", stdout, re.M)
        if m:
            out["p_g1"] = m.group(1)
        m = re.search(rf"^gamma = {_RATIONAL} ", stdout, re.M)
        if m:
            out["gamma"] = m.group(1)
        return out
    return {"sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}


def check_against(record: dict, expected: dict) -> str | None:
    """None when the query exited 0 with the expected values, else the reason."""
    if record["traceback"]:
        return "traceback: " + record["traceback"].strip().splitlines()[-1]
    if record["rc"] != 0:
        return f"exit code {record['rc']}: {record['stderr'].strip()[:200]}"
    got = parse_result(record["kind"], record["stdout"])
    if got != expected:
        return f"result {got} differs from golden {expected}"
    return None


def load_golden(family: str, size: str) -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)[f"{family}/{size}"]


# --- oracle cross-check on small documents ----------------------------------------------

def oracle_values(kind: str, text: str, record: dict) -> dict:
    """What the brute-force oracle says the query should print."""
    from pct import oracle, speclang
    doc = speclang.parse(text)
    if kind == "sat":
        level = oracle.oracle_sat_level(speclang.build_impl(doc, "m"),
                                        speclang.build_probcontract(doc, "spec_rel"))
        return {"level": str(level)}
    if kind == "refine":
        level, p_g1, degenerate = oracle.oracle_refine_level(
            speclang.build_probcontract(doc, "weak_rel"),
            speclang.build_probcontract(doc, "spec_rel"))
        out = {"p_g1": str(p_g1)}
        if not degenerate:
            out["gamma"] = str(level)
        return out
    # compose: the emitted document must denote the oracle's composed sets
    s1 = speclang.build_probcontract(doc, "stage1_rel")
    s2 = speclang.build_probcontract(doc, "stage2_rel")
    a, g, _ = oracle.oracle_compose_sets(s1.base, s2.base)
    composed = speclang.build_probcontract(speclang.parse(record["stdout"]), "pipe")
    same = (oracle.materialize(composed.base.assumption) == a
            and oracle.materialize(composed.base.guarantee) == g
            and composed.pports == s1.pports | s2.pports)
    return parse_result("compose", record["stdout"]) if same else {"sha256": "oracle mismatch"}


class Docs:
    """The first ``count`` pool documents of a run, on disk for the CLI while
    in use.  Their results are checked against golden.json and, when small,
    the oracle."""

    def __init__(self, workload: str, seed: int, size: str = "small", count: int = POOL):
        self.family = FAMILY[workload]
        self.golden = load_golden(self.family, size)
        work = BENCH_DIR / "out"
        work.mkdir(exist_ok=True)
        self.docs = []
        for doc_seed in doc_order(workload, seed)[:count]:
            path = work / f"{size}-{self.family}-{doc_seed}-{os.getpid()}.pct"
            self.docs.append((doc_seed, docgen.generate(self.family, size, doc_seed), path))

    def __len__(self):
        return len(self.docs)

    def __enter__(self):
        for _, text, path in self.docs:
            path.write_text(text, encoding="utf-8")
        return self

    def __exit__(self, *exc):
        for _, _, path in self.docs:
            path.unlink(missing_ok=True)
        return False

    def sequence(self, k: int, run_one, traced: bool) -> list:
        """sat, refine and compose on document k, each by ``run_one(argv)``;
        each record carries the wall time of the whole sequence."""
        doc_seed, _, path = self.docs[k % len(self.docs)]
        start = time.perf_counter()
        records = [run_one(argv) for argv in docgen.queries(str(path)).values()]
        seq_s = time.perf_counter() - start
        for rec in records:
            rec.update(doc=doc_seed, seq_s=seq_s, traced=traced)
        return records

    def in_process(self, k: int, tracer) -> list:
        """The sequence on document k through cli.main in this process."""
        return self.sequence(k, lambda argv: run_cli(argv, tracer), tracer is not None)

    def check(self, rec: dict, with_oracle: bool = True) -> str | None:
        """None when the record matches its golden value (and the oracle)."""
        want = self.golden[str(rec["doc"])][rec["kind"]]
        reason = check_against(rec, want)
        if reason is None and with_oracle:
            text = next(t for d, t, _ in self.docs if d == rec["doc"])
            if oracle_values(rec["kind"], text, rec) != want:
                reason = f"oracle disagrees with golden {want}"
        return reason


def _summary(rec: dict, **extra) -> dict:
    keep = ("kind", "doc", "main_s", "seq_s", "traced")
    return {**{k: rec[k] for k in keep}, **extra}


# --- modes ------------------------------------------------------------------------------

def paired(i: int, trace: bool) -> tuple:
    """(input index, traced) of the i-th unit of work.  A traced run does each
    input twice, traced and untraced in turn first, so the two can be compared
    without favouring the second (warmer) one."""
    if not trace:
        return i, False
    k = i // 2
    return k, (i % 2 == 1) != (k % 2 == 1)


class Alternating:
    """Installs or removes the tracer's wrappers as each unit of work needs."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.tracer = spans.Tracer()
        self.on = False

    def choose(self, i: int) -> tuple:
        """(input index, tracer or None) of unit i."""
        k, want = paired(i, self.trace)
        if want and not self.on:
            self.tracer.install()
        elif not want and self.on:
            self.tracer.uninstall()
        self.on = want
        return k, (self.tracer if want else None)

    def stop(self) -> None:
        """Remove the wrappers, before the untimed checks."""
        if self.on:
            self.tracer.uninstall()
            self.on = False

    def units(self, untraced: int, traced: int) -> int:
        """How many units the run makes: ``untraced`` when not tracing, else
        ``traced`` inputs, each done once traced and once untraced."""
        return 2 * traced if self.trace else untraced

    def finish(self, out: dict, spans_path: str) -> dict:
        if self.trace:
            out["trace"] = self.tracer.summary()
            self.tracer.dump(spans_path)
        return out


def past_limit(start: float, seconds: float) -> bool:
    return time.perf_counter() - start > SAFETY_FACTOR * seconds


def mode_setup(workload: str, seed: int, size: str) -> dict:
    import pct  # noqa: F401  (import time is part of set-up)
    family = FAMILY[workload]
    for doc_seed in doc_order(workload, seed):
        docgen.generate(family, "small", doc_seed)
        if workload != "verify_suites":
            docgen.generate(family, size, doc_seed)
    if workload == "verify_suites":
        warm_up()
    return {"ok": True}


def warm_up() -> None:
    """One case of every suite, so lazy imports and caches are ready."""
    from pct import oracle
    for fn in oracle.SUITES.values():
        fn(0)


def mode_query(trace: bool, spans_path: str, argv: list) -> dict:
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    rec = run_cli(argv, tracer)
    rec["rss_mb"] = rss_mb()
    if tracer:
        tracer.uninstall()
        rec["trace"] = tracer.summary()
        tracer.dump(spans_path)
    return rec


def mode_crosscheck(workload: str, seed: int) -> dict:
    """The oracle gate of the query workloads: every small document of the
    family, each query through the CLI, checked against golden.json and the
    oracle.  Untimed; the oracle cannot run at full size."""
    with Docs(workload, seed) as docs:
        checks = [_summary(rec, error=docs.check(rec))
                  for k in range(len(docs)) for rec in docs.in_process(k, None)]
    return {"checks": checks, "rss_mb": rss_mb()}


def run_case(fn, name: str, case_seed: int, tracer) -> dict:
    t0 = time.perf_counter()
    error = None
    try:
        with tracer.root("verify.case") if tracer else contextlib.nullcontext():
            res = fn(case_seed)
        if not (res.ok and res.oracle_ok):
            error = f"{name} seed {case_seed}: ok={res.ok} oracle_ok={res.oracle_ok}"
    except Exception:
        error = f"{name} seed {case_seed}: " + traceback.format_exc().strip().splitlines()[-1]
    return {"suite": name, "seed": case_seed, "case_s": time.perf_counter() - t0,
            "traced": tracer is not None, "error": error}


def mode_suites(workload: str, seed: int, seconds: float, trace: bool, size: str,
                spans_path: str) -> dict:
    """VERIFY_PASSES whole passes of all six suites over the fixed seed range
    in one warm process (one pass, each case traced and untraced, when
    traced).  Whole passes keep the set of cases the same from run to run;
    case costs differ by more than 10x between seeds.  Each case is timed by
    its best pass, as the small documents are by their best repeat: other
    processes on the machine slow some passes but rarely all.  The
    small-document queries are spread evenly over the verify rounds, so that
    a spell of machine noise cannot move all of them at once; they are
    checked after the timed part."""
    from pct import oracle
    warm_up()
    alt = Alternating(trace)
    n_seeds = VERIFY_SEEDS if size == "full" else SMALL_VERIFY_SEEDS
    offset = verify_offset(seed)
    per_pass = n_seeds * (2 if trace else 1)
    n_passes = 1 if trace else VERIFY_PASSES
    cases, records = [], []
    passes = 0
    with Docs(workload, seed) as docs:
        n_sequences = alt.units(SUITE_QUERY_PASSES * len(docs), SUITE_QUERY_PASSES // 2 * len(docs))
        done = 0

        def sequences_until(progress):
            # one query sequence per 1 / n_sequences of the verify rounds
            nonlocal done
            while done < n_sequences and done <= progress * n_sequences:
                k, tr = alt.choose(done)
                records.extend(docs.in_process(k, tr))
                done += 1

        start = time.perf_counter()
        while passes < n_passes and not (passes and past_limit(start, seconds)):
            for i in range(per_pass):
                k, tr = alt.choose(i)
                case_seed = (offset + k) % n_seeds
                cases += [run_case(fn, name, case_seed, tr) for name, fn in oracle.SUITES.items()]
                sequences_until((passes * per_pass + i + 1) / (n_passes * per_pass))
            passes += 1
        verify_s = time.perf_counter() - start
        sequences_until(float("inf"))
        alt.stop()
        checked = set()
        queries = []
        for rec in records:
            key = (rec["doc"], rec["kind"])
            queries.append(_summary(rec, error=docs.check(rec, with_oracle=key not in checked)))
            checked.add(key)
    return alt.finish({"queries": queries, "cases": cases, "passes": passes,
                       "rss_mb": rss_mb(), "verify_s": verify_s}, spans_path)


def mode_warm(workload: str, seed: int, seconds: float, trace: bool, size: str,
              spans_path: str) -> dict:
    """sat, refine and compose in one warm process, WARM_REPEATS times on
    each of WARM_DOCS documents in turn (once traced and once untraced when
    traced).  As in mode_suites, a document is timed by its best repeat.
    Results are checked against golden.json after the timed part."""
    alt = Alternating(trace)
    records = []
    with Docs(workload, seed, size, WARM_DOCS) as docs:
        n_sequences = alt.units(WARM_REPEATS * len(docs), len(docs))
        start = time.perf_counter()
        i = 0
        while i < n_sequences and not (i >= len(docs) and past_limit(start, seconds)):
            k, tr = alt.choose(i)
            records.extend(docs.in_process(k, tr))
            i += 1
        elapsed_s = time.perf_counter() - start
        alt.stop()
        queries = [_summary(rec, error=docs.check(rec, with_oracle=False)) for rec in records]
    return alt.finish({"queries": queries, "sequences": i, "planned": n_sequences,
                       "rss_mb": rss_mb(), "elapsed_s": elapsed_s}, spans_path)


def main(argv) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        result = mode_setup(args[0], int(args[1]), args[2])
    elif mode == "query":
        result = mode_query(args[0] == "1", args[1], args[2:])
    elif mode == "crosscheck":
        result = mode_crosscheck(args[0], int(args[1]))
    elif mode in ("suites", "warm"):
        body = mode_suites if mode == "suites" else mode_warm
        result = body(args[0], int(args[1]), float(args[2]), args[3] == "1", args[4], args[5])
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    import pct
    result["pct_file"] = pct.__file__
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
