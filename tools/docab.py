"""In-process A/B of two source trees of ``pct`` on the pool documents.

    python3 tools/docab.py BASE_SRC CHANGE_SRC [--docs N] [--repeats R]

``BASE_SRC`` and ``CHANGE_SRC`` are ``src`` directories, each holding a
``pct`` package.  Each tree's ``pct`` is copied into a temporary directory
as ``pct_base`` and ``pct_change``; ``pct`` imports itself relatively, so
both load side by side in this process and see the same machine at the
same moment.  On each of the 64 pool documents (``pctbench/docgen.py``:
large and wide × full and small, seeds 0–15; the first ``N`` seeds of each
with ``--docs``), in three port orders, the script runs ``pct sat``,
``refine`` and ``compose`` through each side's ``cli.main``:

    generated    the document as the generator writes it: the
                 probabilistic ports sort first
    omega-last   its ports renamed so that the probabilistic ones sort last
    interleaved  renamed so that they alternate with the others

Each query runs once per side to warm up, and both sides must then exit
with the same code and print the same stdout, or the script stops with
exit 1.  It then runs ``R`` times per side (default 5), the base first on
even repeats and the change first on odd ones.  For each family, order
and query the script prints the median over the documents of each side's
median time in milliseconds, the ratio of the sums of those medians
(change / base), on how many documents the change was faster, and the
document with the highest ratio.

Standard library only, besides the two trees.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import itertools
import re
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
FAMILIES = tuple((family, size) for family in ("large", "wide") for size in ("full", "small"))
ORDERS = ("generated", "omega-last", "interleaved")


def _renamed(text: str, layout: str) -> tuple:
    """(the document with its ports renamed, the old name of each new one).

    The generator names the probabilistic ports f0, f1, ..., which sort
    before the others.  The new names keep the order within each group and
    put the probabilistic ports first, last, or between the others."""
    names = sorted(set(re.findall(r"\b[fux]\d+\b", text)))
    omega = [n for n in names if n.startswith("f")]
    rest = [n for n in names if not n.startswith("f")]
    if layout == "first":
        order = omega + rest
    elif layout == "last":
        order = rest + omega
    else:
        order = [n for pair in itertools.zip_longest(rest, omega) for n in pair if n]
    new = {old: f"p{chr(ord('a') + i)}" for i, old in enumerate(order)}
    return re.sub(r"\b[fux]\d+\b", lambda m: new[m.group()], text), {v: k for k, v in new.items()}


def ordered(text: str, order: str) -> str:
    """The document ``text`` in one of ``ORDERS``."""
    if order == "generated":
        return text
    return _renamed(text, "last" if order == "omega-last" else "interleaved")[0]


def _docgen():
    spec = importlib.util.spec_from_file_location("docgen", ROOT / "pctbench" / "docgen.py")
    docgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(docgen)
    return docgen


def load_sides(srcs: dict, into: Path) -> dict:
    """``{side: its cli module}``: each tree's ``pct`` copied into ``into``
    as ``pct_<side>`` and imported from there."""
    for side, src in srcs.items():
        name = f"pct_{side}"
        for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
            del sys.modules[loaded]
        shutil.copytree(Path(src) / "pct", into / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(into))
    importlib.invalidate_caches()
    return {side: importlib.import_module(f"pct_{side}.cli") for side in srcs}


def _call(cli, argv: list) -> tuple:
    """(seconds, exit code, stdout) of one ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(argv)
        spent = time.perf_counter() - start
    return spent, rc, out.getvalue()


def compare(clis: dict, docs: list, repeats: int, tmp: Path) -> dict:
    """``{(family, order, query): {"seeds": [seed], side: [median s]}}``,
    one entry per document of ``docs``, a list of ``(family, order, seed,
    text)``; each query's two sides must give the same exit code and
    stdout."""
    argvs = _docgen().queries
    times = {}
    for family, order, seed, text in docs:
        path = tmp / f"{family.replace('/', '_')}_{order}_{seed}.pct"
        path.write_text(text, encoding="utf-8")
        for query, argv in argvs(str(path)).items():
            warm = {side: _call(cli, argv)[1:] for side, cli in clis.items()}
            if warm["base"] != warm["change"]:
                raise SystemExit(f"{family} {order} seed {seed}: {query} differs between "
                                 f"the trees:\n{warm['base']}\n{warm['change']}")
            spent = {side: [] for side in clis}
            for i in range(repeats):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    spent[side].append(_call(clis[side], argv)[0])
            row = times.setdefault((family, order, query), {"seeds": []})
            row["seeds"].append(seed)
            for side in SIDES:
                row.setdefault(side, []).append(statistics.median(spent[side]))
    return times


def table(times: dict) -> list:
    lines = ["family      order        query     base ms  change ms   ratio    won  worst"]
    for (family, order, query), row in times.items():
        base, change = row["base"], row["change"]
        won = sum(c < b for b, c in zip(base, change))
        worst = max(range(len(base)), key=lambda i: change[i] / base[i])
        lines.append(f"{family:<11} {order:<12} {query:<8}"
                     f"{statistics.median(base) * 1e3:9.3f}{statistics.median(change) * 1e3:11.3f}"
                     f"{sum(change) / sum(base):8.3f}{won:>4}/{len(base):<3}"
                     f"seed {row['seeds'][worst]} {change[worst] / base[worst]:.2f}")
    return lines


def pool(n_docs: int) -> list:
    """``(family, order, seed, text)`` of the first ``n_docs`` seeds of each
    family and size of the pool, in each of ``ORDERS``."""
    docgen = _docgen()
    return [(f"{family}/{size}", order, seed, ordered(docgen.generate(family, size, seed), order))
            for family, size in FAMILIES for order in ORDERS for seed in range(n_docs)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="the base tree's src directory")
    p.add_argument("change", help="the changed tree's src directory")
    p.add_argument("--docs", type=int, default=16, help="seeds per family and size (1-16)")
    p.add_argument("--repeats", type=int, default=5, help="timed runs per query and side")
    args = p.parse_args(argv)
    if not 1 <= args.docs <= 16 or args.repeats < 1:
        p.error("--docs must be 1-16 and --repeats at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        clis = load_sides({"base": args.base, "change": args.change}, Path(tmp))
        docs = Path(tmp, "docs")
        docs.mkdir()
        for line in table(compare(clis, pool(args.docs), args.repeats, docs)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
