"""The summary arithmetic of tools/abpairs.py on a fixed set of runs, its
counts of incorrect runs and failed operations and its exit codes, and the
environment each benchmark run starts in."""

import importlib.util
import json
import subprocess
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
    # pair ratios 0.6, 7/12, 12.5/11, 5/13, 8/14, sorted
    ratios = sorted([6 / 10, 7 / 12, 12.5 / 11, 5 / 13, 8 / 14])
    assert row["pair_ratio"] == pytest.approx((ratios[1], ratios[2], ratios[3]))
    assert "wins 4/5" in abpairs.format_row(row)
    assert f"pair ratio {ratios[2]:.3f} [{ratios[1]:.3f}, {ratios[3]:.3f}]" in \
        abpairs.format_row(row)


def test_the_pair_ratio_is_not_the_ratio_of_the_medians():
    # each pair slows by its own factor; the medians of the sides hide it
    [row] = abpairs.summarize(runs("w", [1, 10, 100], [2, 5, 200], "sat_s"), {"sat_s": "lower"})
    assert row["ratio"] == 0.5
    assert row["pair_ratio"] == (1.25, 2.0, 2.0)
    # a pair whose parent reads 0 has no ratio
    [row] = abpairs.summarize(runs("w", [0, 2], [1, 3], "sat_s"), {"sat_s": "lower"})
    assert row["pair_ratio"] == (1.5, 1.5, 1.5)
    [row] = abpairs.summarize(runs("w", [0], [1], "sat_s"), {"sat_s": "lower"})
    assert row["pair_ratio"] is None and row["ratio"] is None
    assert "pair ratio n/a" in abpairs.format_row(row)


def test_summary_of_a_higher_is_better_metric():
    [row] = abpairs.summarize(runs("w", [1, 2, 3], [4, 5, 6], "rate"), {"rate": "higher"})
    assert (row["wins"], row["separated"], row["ratio"]) == (3, True, 2.5)


def test_run_length_and_directions_come_from_the_benchmark(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 12,
        "end_to_end": [{"name": "sat_s", "better": "lower"},
                       {"name": "rate", "better": "higher"}]}), encoding="utf-8")
    assert abpairs.spec_of(tmp_path) == (12, {"sat_s": "lower", "rate": "higher"})
    seconds = []

    def fake_run_once(checkout, workload, seed, run_seconds):
        seconds.append(run_seconds)
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"sat_s": 1.0},
                "wall_s": 0.0}

    monkeypatch.setattr(abpairs, "run_once", fake_run_once)
    out = tmp_path / "o.json"
    assert abpairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                         "--out", str(out), "--workloads", "w", "--pairs", "2"]) == 0
    assert seconds == [12] * 4
    assert json.loads(out.read_text(encoding="utf-8"))["seconds"] == 12
    capsys.readouterr()
    # the run length has no option of its own
    with pytest.raises(SystemExit) as stop:
        abpairs.main(["--parent", str(tmp_path), "--out", str(out), "--seconds", "5"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --seconds 5" in capsys.readouterr().err


def test_every_run_reads_bytecode_from_its_own_empty_directory(tmp_path, monkeypatch):
    # a checkout that holds bytecode, as an earlier run may have left it
    checkout = tmp_path / "checkout"
    (checkout / "src" / "pct" / "__pycache__").mkdir(parents=True)
    (checkout / "src" / "pct" / "__pycache__" / "cli.cpython-311.pyc").write_bytes(b"")
    seen = []

    def fake_run(argv, cwd, env, capture_output, text):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((cache, cache.is_dir() and not any(cache.iterdir()), cwd, env))
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"sat_s": {"value": 0.5}}}
        return subprocess.CompletedProcess(argv, 0, json.dumps(result) + "\n", "")

    monkeypatch.setattr(abpairs.subprocess, "run", fake_run)
    monkeypatch.setenv("PCT_CHILD_MARK", "kept")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    for _ in range(2):
        record = abpairs.run_once(checkout, "query_large", 1, 5)
        assert record["metrics"] == {"sat_s": 0.5}
    (first, empty1, cwd, env), (second, empty2, _, _) = seen
    assert empty1 and empty2 and first != second
    assert checkout not in first.parents and cwd == checkout
    assert env["PCT_CHILD_MARK"] == "kept"
    # the run fills its own directory, so only its first process compiles
    assert "PYTHONDONTWRITEBYTECODE" not in env
    # the directories are removed once their run has ended
    assert not first.exists() and not second.exists()


def _record(workload, pair, side, correct=True, failed=0):
    return {"workload": workload, "pair": pair, "side": side, "correct": correct,
            "failed": failed, "metrics": {"sat_s": 1.0}}


def test_health_counts_incorrect_runs_and_failed_operations():
    data = [_record("w", 0, "parent"), _record("w", 0, "change", correct=False, failed=2),
            _record("w", 1, "parent", failed=1), _record("w", 1, "change"),
            _record("v", 0, "parent"), _record("v", 0, "change")]
    assert abpairs.health(data) == [
        {"workload": "v", "side": "parent", "runs": 1, "incorrect": 0, "failed": 0},
        {"workload": "v", "side": "change", "runs": 1, "incorrect": 0, "failed": 0},
        {"workload": "w", "side": "parent", "runs": 2, "incorrect": 0, "failed": 1},
        {"workload": "w", "side": "change", "runs": 2, "incorrect": 1, "failed": 2}]


@pytest.mark.parametrize("bad", [0, 1])
def test_summarize_exits_1_when_a_run_is_incorrect(tmp_path, capsys, bad):
    # with bad = 1, the change run of pair 3 is incorrect
    runs_ = [_record("w", i, side, correct=not (bad and (i, side) == (3, "change")))
             for i in range(5) for side in abpairs.SIDES]
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"better": {"sat_s": "lower"}, "runs": runs_}), encoding="utf-8")
    assert abpairs.main(["--summarize", str(path)]) == bad
    out = capsys.readouterr().out
    assert f"w                 change runs 5  incorrect {bad}  failed operations 0" in out
    assert "w                 parent runs 5  incorrect 0  failed operations 0" in out


def test_running_pairs_exits_1_when_a_run_is_incorrect(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": "sat_s", "better": "lower"}]}),
        encoding="utf-8")

    def fake_run_once(checkout, workload, seed, seconds):
        return {"correct": seed != 9001 or checkout != tmp_path, "attempted": 1, "failed": 0,
                "metrics": {"sat_s": 0.5}, "wall_s": 0.0}

    monkeypatch.setattr(abpairs, "run_once", fake_run_once)
    argv = ["--parent", str(tmp_path / "p"), "--change", str(tmp_path), "--workloads", "w",
            "--pairs", "2", "--out", str(tmp_path / "o.json")]
    assert abpairs.main(argv) == 1
    saved = json.loads((tmp_path / "o.json").read_text(encoding="utf-8"))
    assert [r["correct"] for r in saved["runs"]] == [True, True, False, True]


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_fewer_than_one_pair_is_refused(tmp_path, monkeypatch, pairs):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": "sat_s", "better": "lower"}]}),
        encoding="utf-8")
    monkeypatch.setattr(abpairs, "run_once", None)
    with pytest.raises(SystemExit) as exc:
        abpairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                      "--pairs", pairs, "--out", str(tmp_path / "o.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "o.json").exists()
