"""tools/suiteab.py on two seeds of every suite, with the working tree on both
sides: every case is timed on both and gives the same record; a tree that
reports otherwise stops it."""

import importlib.util
import shutil
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("suiteab", ROOT / "tools" / "suiteab.py")
suiteab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(suiteab)

SRC = ROOT / "src"


def test_every_suite_case_is_timed_on_both_trees(tmp_path):
    oracles = suiteab.load_oracles({"base": SRC, "change": SRC}, tmp_path)
    assert [o.__name__ for o in oracles.values()] == ["pct_base.oracle", "pct_change.oracle"]
    best = suiteab.compare(oracles, 2, 2)
    assert list(best) == list(oracles["base"].SUITES)
    for row in best.values():
        assert all(len(row[side]) == 2 and min(row[side]) > 0 for side in suiteab.SIDES)
    lines = suiteab.table(best)
    assert len(lines) == 2 + len(best)
    assert lines[0].split() == ["suite", "cases", "base", "ms", "change", "ms", "ratio", "won",
                                "base/s", "change/s", "base", "p50", "change", "p50"]
    name, n, *_, base_rate, change_rate, base_p50, change_p50 = lines[-1].split()
    assert (name, n) == ("all", "12")
    # cases per second and p50 as the benchmark computes verify_cases_per_s and
    # verify_case_p50_ms: over the best time of each case
    every = {side: [s for row in best.values() for s in row[side]] for side in suiteab.SIDES}
    assert base_rate == f"{12 / sum(every['base']):.1f}"
    assert change_rate == f"{12 / sum(every['change']):.1f}"
    assert base_p50 == f"{statistics.median(every['base']) * 1e3:.3f}"
    assert change_p50 == f"{statistics.median(every['change']) * 1e3:.3f}"
    for line, (suite, row) in zip(lines[1:], best.items()):
        assert line.split()[0] == suite
        assert line.split()[-2:] == [f"{statistics.median(row[side]) * 1e3:.3f}"
                                     for side in suiteab.SIDES]


def test_a_tree_that_reports_otherwise_stops_the_comparison(tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(SRC / "pct", changed / "pct", ignore=shutil.ignore_patterns("__pycache__"))
    oracle = changed / "pct" / "oracle.py"
    text = oracle.read_text("utf-8")
    old = 'CaseResult("lemma2_sat", seed, ok, oracle_ok, {})'
    assert old in text
    oracle.write_text(text.replace(old, old.replace("{}", '{"extra": "1"}')), "utf-8")
    oracles = suiteab.load_oracles({"base": SRC, "change": changed}, tmp_path / "loaded")
    with pytest.raises(SystemExit, match="lemma2_sat seed 0 differs between the trees"):
        suiteab.compare(oracles, 1, 1)


@pytest.mark.parametrize("argv", [["--seeds", "0"], ["--repeats", "0"]])
def test_no_seeds_or_no_repeats_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        suiteab.main([str(SRC), str(SRC), *argv])
    assert stop.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
