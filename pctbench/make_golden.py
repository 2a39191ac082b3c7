"""Regenerate golden.json: the exact result of every query on every pool document.

    PYTHONPATH=src python3 pctbench/make_golden.py

Run it only on a commit whose results are trusted; the benchmark compares
every later commit against these values.  Small documents are also checked
against the brute-force oracle here, and full-size refine queries must be
non-degenerate.
"""

from __future__ import annotations

import json
import os
import sys

import docgen
import worker


def main() -> int:
    work = worker.BENCH_DIR / "out"
    work.mkdir(exist_ok=True)
    golden = {}
    for (family, size) in docgen.SHAPES:
        table = golden[f"{family}/{size}"] = {}
        for doc_seed in range(worker.POOL):
            text = docgen.generate(family, size, doc_seed)
            path = work / f"golden-{family}-{size}-{doc_seed}-{os.getpid()}.pct"
            path.write_text(text, encoding="utf-8")
            try:
                entry = {}
                for kind, argv in docgen.queries(str(path)).items():
                    rec = worker.run_cli(argv)
                    if rec["rc"] != 0 or rec["traceback"]:
                        raise SystemExit(f"{family}/{size} seed {doc_seed} {kind}: "
                                         f"rc={rec['rc']} {rec['stderr']}{rec['traceback'] or ''}")
                    entry[kind] = worker.parse_result(kind, rec["stdout"])
                    if size == "small" and worker.oracle_values(kind, text, rec) != entry[kind]:
                        raise SystemExit(f"{family}/{size} seed {doc_seed} {kind}: oracle disagrees")
                    if size == "full" and kind == "refine" and "gamma" not in entry[kind]:
                        raise SystemExit(f"{family}/{size} seed {doc_seed}: degenerate refine")
            finally:
                path.unlink(missing_ok=True)
            table[str(doc_seed)] = entry
            print(family, size, doc_seed, entry, file=sys.stderr, flush=True)
    with open(worker.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
