"""Seeded mutants of the bundled two_stage.pct.

What ``parse`` reports for each of the first ``N_GOLDEN`` mutants
(``ok``, or the diagnostic's class, line, column and message) is pinned in
tests/golden/diagnostics.txt; and ``sat``, ``refine``, ``compose`` and
``fmt`` end each of another 150 in exit code 0, 1 or 2 with at most one
``error:`` line, never a traceback.  A mutant deletes, inserts or replaces
one to three lexical pieces of the document (tokens, runs of whitespace,
comments), drawing insertions from the document's own pieces and from
characters the lexer refuses or treats specially.

    PYTHONPATH=src python tests/test_mutants.py > tests/golden/diagnostics.txt

writes the golden file from the parser as it is.
"""

import random
import re
import sys
from importlib import resources
from pathlib import Path

import pytest

from pct import cli, speclang
from pct.errors import SpecLangError

EXAMPLE = resources.files("pct.data").joinpath("two_stage.pct").read_text("utf-8")
GOLDEN = Path(__file__).resolve().parent / "golden" / "diagnostics.txt"
N_GOLDEN = 600

# tokens, whitespace runs and comments, split without the lexer under test
PIECES = re.findall(r"[ \t\r\n]+|#[^\n]*|[A-Za-z0-9_]+|==|.", EXAMPLE, re.S)
VOCABULARY = sorted(set(PIECES)) + [
    "é", "\t", "\r", "#", "٣", "@", ".", "0.5", "1/0", " 3 ", "==", "=", "/",
    "[", "]", ":", "{", "}", "(", ")", ";", ",", "\n", *sorted(speclang.KEYWORDS)]


def mutant(seed: int) -> str:
    rng = random.Random(f"mutant:{seed}")
    pieces = list(PIECES)
    for _ in range(rng.choice((1, 1, 2, 3))):
        i = rng.randrange(len(pieces))
        op = rng.randrange(3)
        if op == 0:
            del pieces[i]
        elif op == 1:
            pieces.insert(i, rng.choice(VOCABULARY))
        else:
            pieces[i] = rng.choice(VOCABULARY)
    return "".join(pieces)


def diagnostic(text: str) -> str:
    """``ok``, or ``Class line:col: message`` of what parsing ``text`` raises."""
    try:
        speclang.parse(text)
    except SpecLangError as exc:
        return f"{type(exc).__name__} {exc}"
    return "ok"


def test_parse_diagnostics_of_the_mutants_match_the_golden_file():
    want = GOLDEN.read_text("utf-8").splitlines()
    assert len(want) == N_GOLDEN
    got = [diagnostic(mutant(seed)) for seed in range(N_GOLDEN)]
    assert [(seed, g) for seed, (g, w) in enumerate(zip(got, want)) if g != w] == []


QUERIES = [
    ["sat", "{doc}", "--impl", "m1", "--contract", "stage1_rel"],
    ["refine", "{doc}", "--from", "pipeline_rel", "--to", "relaxed_rel"],
    ["compose", "{doc}", "--contracts", "stage1_rel,stage2_rel"],
    ["fmt", "{doc}"],
]


def test_every_query_ends_each_mutant_in_an_exit_code(tmp_path, capsys):
    path = tmp_path / "mutant.pct"
    for seed in range(N_GOLDEN, N_GOLDEN + 150):
        path.write_text(mutant(seed), encoding="utf-8")
        for query in QUERIES:
            argv = [a.format(doc=path) for a in query]
            rc = cli.main(argv)
            out, err = capsys.readouterr()
            assert rc in (0, 1, 2), (seed, argv)
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert len(errors) <= 1 and "Traceback" not in err, (seed, argv, err)
            assert (rc == 2) == bool(errors), (seed, argv, err)


if __name__ == "__main__":
    sys.stdout.writelines(diagnostic(mutant(seed)) + "\n" for seed in range(N_GOLDEN))
