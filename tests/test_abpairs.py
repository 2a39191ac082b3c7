"""The summary arithmetic of tools/abpairs.py on a fixed set of runs."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "abpairs.py"
spec = importlib.util.spec_from_file_location("abpairs", PATH)
abpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(abpairs)


def runs(workload, parent, change, metric):
    out = []
    for i, (a, b) in enumerate(zip(parent, change)):
        out.append({"workload": workload, "pair": i, "side": "parent", "metrics": {metric: a}})
        out.append({"workload": workload, "pair": i, "side": "change", "metrics": {metric: b}})
    return out


def test_quartiles_are_inclusive():
    assert abpairs.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert abpairs.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert abpairs.quartiles([1, 2, 3, 4]) == (1.75, 2.5, 3.25)


def test_summary_of_a_lower_is_better_metric():
    data = runs("w", [10, 12, 11, 13, 14], [6, 7, 12.5, 5, 8], "sat_s")
    # an unpaired run is left out
    data.append({"workload": "w", "pair": 9, "side": "parent", "metrics": {"sat_s": 1}})
    [row] = abpairs.summarize(data, {"sat_s": "lower", "rate": "higher"})
    assert row["pairs"] == 5
    assert row["parent"] == (11, 12, 13)
    assert row["change"] == (6, 7, 8)
    assert row["ratio"] == pytest.approx(7 / 12)
    assert row["parent_iqr_frac"] == pytest.approx(2 / 12)
    assert row["wins"] == 4                     # pair 2: 12.5 against 11
    assert row["separated"] is False            # 12.5 is above the parent's 10
    assert "wins 4/5" in abpairs.format_row(row)


def test_summary_of_a_higher_is_better_metric():
    [row] = abpairs.summarize(runs("w", [1, 2, 3], [4, 5, 6], "rate"), {"rate": "higher"})
    assert (row["wins"], row["separated"], row["ratio"]) == (3, True, 2.5)


def test_run_length_and_directions_come_from_the_benchmark(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 12,
        "end_to_end": [{"name": "sat_s", "better": "lower"},
                       {"name": "rate", "better": "higher"}]}), encoding="utf-8")
    assert abpairs.spec_of(tmp_path) == (12, {"sat_s": "lower", "rate": "higher"})
    with pytest.raises(SystemExit):
        abpairs.main(["--parent", str(tmp_path), "--out", str(tmp_path / "o.json"),
                      "--seconds", "5"])
