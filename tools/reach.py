"""The functions of ``src/pct`` that no command enters.

    python3 tools/reach.py

Runs, in this process, ``pct verify --seeds 60``, ``pct example`` and, on
the benchmark's generated documents (``pctbench/docgen.py``, large and wide
× full and small, seeds 0–2), ``sat`` (also with ``--at-least``),
``refine``, ``compose`` (with and without ``--out``) and ``fmt``.  A
``sys.setprofile`` hook records every function of ``src/pct`` entered,
imports included; the script then prints ``file:line name`` for every
function defined there (lambdas and comprehensions left out) that none of
them entered.

Standard library only, besides the program itself.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pct"


def _functions(code):
    """The code objects of the functions defined in ``code``, nested ones
    included; lambdas and comprehensions are left out."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if not const.co_name.startswith("<"):
                yield const
            yield from _functions(const)


def unreached(argvs) -> list:
    """``(file, line, name)`` of every function of ``src/pct`` that no
    ``pct`` command in ``argvs`` enters, in file and line order."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.path.insert(0, str(SRC.parent))
    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        from pct import cli
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in argvs:
                cli.main(argv)
    finally:
        sys.setprofile(old)
        sys.path.remove(str(SRC.parent))
    entered = {(os.path.realpath(file), line) for file, line in entered}
    out = []
    for path in sorted(SRC.glob("*.py")):
        for code in _functions(compile(path.read_text("utf-8"), str(path), "exec")):
            if (str(path), code.co_firstlineno) not in entered:
                name = getattr(code, "co_qualname", code.co_name)
                out.append((str(path.relative_to(ROOT)), code.co_firstlineno, name))
    return sorted(out)


def main() -> int:
    spec = importlib.util.spec_from_file_location("docgen", ROOT / "pctbench" / "docgen.py")
    docgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(docgen)
    with tempfile.TemporaryDirectory() as tmp:
        argvs = [["verify", "--seeds", "60"], ["example"]]
        for family in ("large", "wide"):
            for size in ("full", "small"):
                for seed in range(3):
                    path = Path(tmp, f"{family}_{size}_{seed}.pct")
                    path.write_text(docgen.generate(family, size, seed), encoding="utf-8")
                    q = docgen.queries(str(path))
                    argvs += [q["sat"], q["sat"] + ["--at-least", "1"], q["refine"], q["compose"],
                              q["compose"] + ["--out", str(path.with_suffix(".out.pct"))],
                              ["fmt", str(path)]]
        for file, line, name in unreached(argvs):
            print(f"{file}:{line} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
