"""Where a warm query spends its time, stage by stage.

    python3 tools/stages.py [--docs N] [--repeats R]

Runs ``pct sat``, ``refine`` and ``compose`` (the benchmark's queries,
``pctbench/docgen.py``) through ``cli.main`` in this process on each of the
64 pool documents (large and wide × full and small, seeds 0–15; the first
``N`` of each family and size with ``--docs``).  Each query runs once to
warm up and then ``R`` times (default 5).  Some functions of ``pct`` are
wrapped with a clock while the script runs, and each stage is the self time
of its functions, the time of wrapped functions they call left out:

    tokenize  speclang._tokenize and _line_starts (lexing, line starts)
    descent   speclang._Parser.document (recursive descent, node records)
    resolve   speclang._resolve (name, type and step checks of a document)
    build     speclang.build_impl, build_contract, build_probcontract,
              lookup_probcontract (denoting declarations as run sets)
    level     probabilistic.sat_level, refine_level, compose_prob
    print     speclang.print_document
    other     the rest of the query: argument reading, file reading,
              compose's round-trip comparison, printing results

A query parses once; ``compose`` parses its emitted document a second
time, and both parses count.  For each document, query and stage the
script keeps the lowest time over the repeats, and it prints, per query,
the median over the documents of each stage and of the whole query (the
best repeat), in milliseconds: first over all the documents, then one
table for each family and size, since a stage that is large on one
family can be small in the overall median.  The sum of the stage
medians need not be the median of the whole.

Standard library only, besides the program itself.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

STAGES = {
    "tokenize": ("speclang._tokenize", "speclang._line_starts"),
    "descent": ("speclang._Parser.document",),
    "resolve": ("speclang._resolve",),
    "build": ("speclang.build_impl", "speclang.build_contract",
              "speclang.build_probcontract", "speclang.lookup_probcontract"),
    "level": ("probabilistic.sat_level", "probabilistic.refine_level",
              "probabilistic.compose_prob"),
    "print": ("speclang.print_document",),
}
COLUMNS = (*STAGES, "other", "query")
QUERIES = ("sat", "refine", "compose")


class Clock:
    """Self time per stage of the wrapped functions: the time of a call,
    less the time of the wrapped calls it makes."""

    def __init__(self):
        self.self_s = dict.fromkeys(STAGES, 0.0)
        self.open = []      # time spent in wrapped callees, per open call

    def wrap(self, stage: str, fn):
        def timed(*args, **kwargs):
            self.open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                self.self_s[stage] += spent - self.open.pop()
                if self.open:
                    self.open[-1] += spent
        return timed


@contextlib.contextmanager
def clocked(clock: Clock):
    """Wrap every function of ``STAGES`` with ``clock`` for the block."""
    import pct
    saved = []
    for stage, names in STAGES.items():
        for dotted in names:
            module, *owners, name = dotted.split(".")
            owner = getattr(pct, module)
            for part in owners:
                owner = getattr(owner, part)
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, clock.wrap(stage, getattr(owner, name)))
    try:
        yield
    finally:
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)


def _docgen():
    spec = importlib.util.spec_from_file_location("docgen", ROOT / "pctbench" / "docgen.py")
    docgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(docgen)
    return docgen


def stage_times(docs: list, repeats: int) -> dict:
    """``{query: {column: [best ms per document]}}`` for ``docs``, a list of
    ``(family, size, seed)``."""
    from pct import cli
    docgen = _docgen()
    out = {q: {c: [] for c in COLUMNS} for q in QUERIES}
    with tempfile.TemporaryDirectory() as tmp:
        for family, size, seed in docs:
            path = Path(tmp, f"{family}_{size}_{seed}.pct")
            path.write_text(docgen.generate(family, size, seed), encoding="utf-8")
            for query, argv in docgen.queries(str(path)).items():
                best = {c: float("inf") for c in COLUMNS}
                for _ in range(repeats + 1):        # the first run warms up
                    clock = Clock()
                    with clocked(clock), contextlib.redirect_stdout(io.StringIO()):
                        start = time.perf_counter()
                        rc = cli.main(argv)
                        total = time.perf_counter() - start
                    if rc != 0:
                        raise SystemExit(f"{' '.join(argv)} exited {rc}")
                    spent = {**clock.self_s, "other": total - sum(clock.self_s.values()),
                             "query": total}
                    best = {c: min(best[c], spent[c]) for c in COLUMNS}
                for c in COLUMNS:
                    out[query][c].append(best[c] * 1e3)
    return out


def by_family(times: dict, docs: list) -> dict:
    """``{(family, size): times}``: ``times``, as ``stage_times`` gives it
    for ``docs``, split by the family and size of each document."""
    out = {}
    for key in dict.fromkeys(doc[:2] for doc in docs):
        picked = [i for i, doc in enumerate(docs) if doc[:2] == key]
        out[key] = {query: {c: [ms[i] for i in picked] for c, ms in columns.items()}
                    for query, columns in times.items()}
    return out


def table(times: dict, title: str) -> list:
    lines = [title, "query    " + "".join(f"{c:>10}" for c in COLUMNS)]
    for query, columns in times.items():
        lines.append(f"{query:<9}" + "".join(f"{statistics.median(columns[c]):10.3f}"
                                             for c in COLUMNS))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--docs", type=int, default=16, help="seeds per family and size (1-16)")
    p.add_argument("--repeats", type=int, default=5, help="timed runs per query")
    args = p.parse_args(argv)
    if not 1 <= args.docs <= 16 or args.repeats < 1:
        p.error("--docs must be 1-16 and --repeats at least 1")
    sys.path.insert(0, str(SRC))
    docs = [(family, size, seed) for family in ("large", "wide")
            for size in ("full", "small") for seed in range(args.docs)]
    times = stage_times(docs, args.repeats)
    lines = table(times, f"median warm ms over {len(docs)} documents")
    for (family, size), part in by_family(times, docs).items():
        lines += ["", *table(part, f"{family}/{size}: median warm ms over {args.docs} documents")]
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
