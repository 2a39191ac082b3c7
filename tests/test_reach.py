"""tools/reach.py on one command: what it reports as never entered."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)


def test_fmt_of_the_example_enters_the_printer_and_not_uniform():
    example = ROOT / "src" / "pct" / "data" / "two_stage.pct"
    missed = {(file, name) for file, _, name in reach.unreached([["fmt", str(example)]])}
    assert ("src/pct/speclang.py", "print_document") not in missed
    assert ("src/pct/probabilistic.py", "uniform") in missed
    # fmt parses and prints a document; it verifies nothing
    assert ("src/pct/speclang.py", "parse") not in missed
    assert ("src/pct/oracle.py", "run_all") in missed


def test_only_a_command_line_outside_the_canonical_spelling_builds_argparse():
    example = str(ROOT / "src" / "pct" / "data" / "two_stage.pct")
    build = ("src/pct/cli.py", "build_parser")
    missed = {(file, name) for file, _, name in reach.unreached([["fmt", example]])}
    assert build in missed
    for argv in (["fmt"], ["--help"]):
        missed = {(file, name) for file, _, name in reach.unreached([argv])}
        assert build not in missed, argv
