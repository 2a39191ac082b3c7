"""CLI input validation: bad budgets, seed counts, suites and names end in one
diagnostic line and exit code 2, never a traceback or a pass over zero cases;
and the query subcommands do not load the oracle."""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from pct import cli


@pytest.mark.parametrize("argv", [
    ["--budget", "ports=x"],
    ["--budget", "colour=3"],
    ["--budget", "space=0"],
    ["--budget", "h=-1"],
    ["--budget", "ports=2,dom=0"],
    ["--seeds", "0"],
    ["--seeds", "-5"],
    ["--budget", "space=2"],
])
def test_verify_rejects_bad_input(argv, capsys):
    assert cli.main(["verify", "--suite", "lemma2_sat", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def test_verify_accepts_a_small_valid_budget(capsys):
    assert cli.main(["verify", "--suite", "lemma2_sat", "--seeds", "2",
                     "--budget", "ports=2,h=1,dom=2,space=64"]) == 0
    out, _ = capsys.readouterr()
    assert "lemma2_sat: 2/2" in out


@pytest.mark.parametrize("argv", [
    ["sat", "--impl", "m1", "--contract", "nope"],
    ["compose", "--contracts", "stage1_rel,nope"],
    ["refine", "--from", "nope", "--to", "relaxed_rel"],
])
def test_unknown_contract_name_is_one_diagnostic(argv, tmp_path, capsys):
    path = tmp_path / "two_stage.pct"
    path.write_text(resources.files("pct.data").joinpath("two_stage.pct").read_text("utf-8"))
    assert cli.main([argv[0], str(path), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "'nope'" in lines[0], err
    # the name comes from the command line, so there is no source location
    assert "1:1:" not in err


def test_verify_rejects_an_unknown_suite(capsys):
    assert cli.main(["verify", "--suite", "bogus", "--seeds", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unknown suite 'bogus'"), err


def test_queries_do_not_import_the_oracle(tmp_path):
    path = tmp_path / "two_stage.pct"
    path.write_text(resources.files("pct.data").joinpath("two_stage.pct").read_text("utf-8"))
    script = (
        "import sys\n"
        "from pct import cli\n"
        f"for argv in ([\"sat\", {str(path)!r}, \"--impl\", \"m1\", \"--contract\", \"stage1_rel\"],\n"
        f"             [\"refine\", {str(path)!r}, \"--from\", \"pipeline_rel\", \"--to\", \"relaxed_rel\"],\n"
        f"             [\"compose\", {str(path)!r}, \"--contracts\", \"stage1_rel,stage2_rel\"]):\n"
        "    cli.main(argv)\n"
        "print('pct.oracle' in sys.modules)\n")
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "False", proc.stdout
