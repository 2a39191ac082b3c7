"""CLI input validation: bad budgets, seed counts, suites, names, thresholds
and output paths end in one diagnostic line and exit code 2, never a
traceback, a pass over zero cases or a query's output;
the query subcommands do not load the oracle; every subcommand prints its
golden output on the bundled example, in a process that has already run
other queries and failed ones; ``compose`` emits a document that denotes
the oracle's composition when clauses are read at every step;
``verify --json-lines`` prints its golden case records; usage errors and
help texts match their golden transcript; and a command line in the
canonical spelling is read without argparse, into argparse's namespace."""

import contextlib
import functools
import importlib.util
import io
import os
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pct import cli, oracle, speclang

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def example(tmp_path):
    """A copy of the bundled two_stage.pct, as a path string."""
    path = tmp_path / "two_stage.pct"
    path.write_text(resources.files("pct.data").joinpath("two_stage.pct").read_text("utf-8"))
    return str(path)


def _run(argv, capsys):
    """(exit code, stdout, stderr) of one cli.main call in this process."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


QUERIES = {
    "example": ["example"],
    "sat": ["sat", "{doc}", "--impl", "m1", "--contract", "stage1_rel"],
    "refine": ["refine", "{doc}", "--from", "pipeline_rel", "--to", "relaxed_rel"],
    "compose": ["compose", "{doc}", "--contracts", "stage1_rel,stage2_rel"],
    "fmt": ["fmt", "{doc}"],
}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_golden_stdout_on_the_bundled_example(name, example, capsys):
    argv = [a.format(doc=example) for a in QUERIES[name]]
    want = (GOLDEN / f"{name}.txt").read_text("utf-8")
    assert _run(argv, capsys) == (0, want, "")


def test_verify_json_lines_match_the_golden_record(capsys):
    """Every case record of 40 seeds of every suite, byte for byte."""
    rc, out, err = _run(["verify", "--seeds", "40", "--json-lines"], capsys)
    assert rc == 0 and err.endswith("oracle-agreement: 100%\n"), err
    assert out == (GOLDEN / "verify.jsonl").read_text("utf-8")


def test_one_process_gives_the_same_answers_around_failed_calls(example, tmp_path, capsys):
    bad = tmp_path / "bad.pct"
    bad.write_text("horizon 1;\nport a : bool uncontrolled;@\n")
    sat = [a.format(doc=example) for a in QUERIES["sat"]]
    refine = [a.format(doc=example) for a in QUERIES["refine"]]
    first = _run(sat, capsys)
    assert first == (0, (GOLDEN / "sat.txt").read_text("utf-8"), "")

    rc, out, err = _run(sat[:-2], capsys)     # --contract left out
    assert (rc, out) == (2, "") and "the following arguments are required: --contract" in err
    rc, out, err = _run(sat + ["--bogus", "1"], capsys)
    assert (rc, out) == (2, "") and "unrecognized arguments: --bogus 1" in err
    assert _run(["sat", str(bad), "--impl", "m1", "--contract", "c"], capsys) == \
        (2, "", "error: 2:28: unexpected character '@'\n")
    assert _run(sat[:-1] + ["nope"], capsys) == \
        (2, "", "error: undefined contract 'nope'\n")
    assert _run(sat + ["--at-least", "1"], capsys) == \
        (1, first[1], "below threshold 1\n")

    assert _run(sat, capsys) == first
    assert _run(refine, capsys) == (0, (GOLDEN / "refine.txt").read_text("utf-8"), "")
    assert _run(sat, capsys) == first


# the usage errors and help texts of tests/golden/usage.txt; no file is read
USAGE_ARGVS = [
    [],
    ["bogus"],
    ["sat", "doc.pct"],
    ["sat", "doc.pct", "--impl", "m1", "--contract", "c", "--nope", "x"],
    ["sat", "doc.pct", "--impl"],
    ["verify", "--seeds", "x"],
    ["refine", "-h"],
    ["--help"],
]


def _transcript(argvs, capsys) -> str:
    """Each argv as a shell line, then its exit code, stdout and stderr."""
    return "\n".join(f"$ pct {shlex.join(argv)}\nexit {rc}\n--- stdout\n{out}--- stderr\n{err}"
                     for argv in argvs for rc, out, err in [_run(argv, capsys)])


def test_usage_errors_and_help_match_the_golden_transcript(capsys, monkeypatch):
    """Usage stderr, help stdout and exit codes are part of the interface.
    The wording is argparse's, recorded with Python 3.11 at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    assert _transcript(USAGE_ARGVS, capsys) == (GOLDEN / "usage.txt").read_text("utf-8")


@pytest.mark.parametrize("spelling", [
    ["--imp", "m1", "--contract", "stage1_rel"],
    ["--impl=m1", "--contract", "stage1_rel"],
    ["--impl", "m2", "--contract", "stage1_rel", "--impl", "m1"],
    ["--contract", "stage1_rel", "--impl", "m1"],
    ["--impl", "m1", "--contract", "stage1_rel", "{doc}"],
    ["--impl", "m1", "--contract", "stage1_rel", "--", "{doc}"],
], ids=["abbreviated", "equals", "repeated", "reordered", "file-last", "double-dash"])
def test_other_spellings_of_a_query_give_its_golden_output(spelling, example, capsys):
    argv = ["sat"] + [a.format(doc=example) for a in spelling]
    if "{doc}" not in spelling:
        argv.insert(1, example)
    assert _run(argv, capsys) == (0, (GOLDEN / "sat.txt").read_text("utf-8"), "")


def _benchmark_queries() -> list:
    """The argvs of the benchmark's three query kinds on one document."""
    spec = importlib.util.spec_from_file_location(
        "docgen", Path(__file__).resolve().parents[1] / "pctbench" / "docgen.py")
    docgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(docgen)
    return list(docgen.queries("doc.pct").values())


def test_queries_are_read_directly_and_usage_errors_by_argparse():
    queries = [[a.format(doc="doc.pct") for a in argv] for argv in QUERIES.values()]
    for argv in queries + _benchmark_queries() + [["verify", "--seeds", "40", "--json-lines"]]:
        assert cli._parse(argv) is not None, argv
    for argv in USAGE_ARGVS:
        assert cli._parse(argv) is None, argv


@functools.lru_cache(maxsize=1)
def _parser():
    return cli.build_parser()


def _argparse_vars(argv) -> dict:
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return vars(_parser().parse_args(argv))
    except SystemExit:
        pytest.fail(f"argparse refuses {argv}: {err.getvalue()}")


VALUES = ["x", "m1", "doc.pct", "5", "0", " 7", "1_0", "٣", "", "a=b", "-5", "-", "-x"]


@st.composite
def canonical_argvs(draw):
    """A subcommand, its positionals and some of its options (all required
    ones), each option once, in any order, with values argparse reads alike."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, _, positionals, options = cli.COMMANDS[name]
    plain = st.sampled_from([v for v in VALUES if not v.startswith("-")])
    groups = [[draw(plain)] for _ in positionals]
    for flag, kwargs in options.items():
        if kwargs.get("required") or draw(st.booleans()):
            if kwargs.get("action") == "store_true":
                groups.append([flag])
            elif kwargs.get("type") is int:
                groups.append([flag, str(draw(st.integers(0, 999)))])
            else:
                groups.append([flag, draw(plain)])
    return [name] + [word for group in draw(st.permutations(groups)) for word in group]


WORDS = sorted({flag for _, _, _, options in cli.COMMANDS.values() for flag in options}
               | {"--imp", "--contr", "--a", "--f", "--t", "--impl=m1", "--seeds=3", "--",
                  "-h", "--help", "--json", "-x"} | set(VALUES) | set(cli.COMMANDS))


@st.composite
def edited_argvs(draw):
    """A canonical argv with one to three words replaced, inserted or deleted."""
    argv = draw(canonical_argvs())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(argv)))
        argv[i:i + draw(st.integers(0, 1))] = draw(st.lists(st.sampled_from(WORDS), max_size=1))
    return argv


@settings(max_examples=300, deadline=None)
@given(canonical_argvs())
def test_the_canonical_spelling_is_read_directly_as_argparse_reads_it(argv):
    args = cli._parse(argv)
    assert args is not None and vars(args) == _argparse_vars(argv)


@settings(max_examples=500, deadline=None)
@given(edited_argvs())
def test_whatever_is_read_directly_argparse_reads_alike(argv):
    args = cli._parse(argv)
    if args is not None:
        assert vars(args) == _argparse_vars(argv)


def test_every_one_word_edit_of_a_full_command_line_is_read_as_argparse_reads_it():
    """Each subcommand with all its options; one word replaced, inserted
    or deleted at every place, with every word the edits above draw from."""
    for name, (_, _, positionals, options) in cli.COMMANDS.items():
        argv = [name, *("x" for _ in positionals)]
        for flag, kwargs in options.items():
            argv += [flag] if kwargs.get("action") == "store_true" else [flag, "5"]
        for i in range(1, len(argv) + 1):
            edits = [argv[:i] + argv[i + 1:]]
            for word in WORDS:
                edits += [argv[:i] + [word] + argv[i + 1:], argv[:i] + [word] + argv[i:]]
            for edited in edits:
                args = cli._parse(edited)
                if args is not None:
                    assert vars(args) == _argparse_vars(edited), edited


def test_the_module_run_as_a_script_reads_its_command_line(example):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "pct.cli", "refine", example,
                           "--from", "pipeline_rel", "--to", "relaxed_rel"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, (GOLDEN / "refine.txt").read_text("utf-8"), "")


# clauses without a temporal operator hold when they hold at every step
STEPWISE = """horizon 2;
port f : bool uncontrolled prob bernoulli(1/4);
port a : bool uncontrolled;
port b : bool controlled;
port c : bool controlled;
port d : bool controlled;
contract one { input a; output b; assume a; guarantee b; }
contract two { input b; output c; assume b; guarantee c; }
contract coin { input a, f; output d; assume always(a); guarantee d or f; }
probcontract coin_rel { contract coin; ports f; }
"""


@pytest.mark.parametrize("names", ["one,two", "two,coin_rel", "coin,one"])
def test_compose_of_clauses_read_at_every_step_denotes_the_composition(names, tmp_path, capsys):
    path = tmp_path / "stepwise.pct"
    path.write_text(STEPWISE)
    rc, out, err = _run(["compose", str(path), "--contracts", names], capsys)
    assert (rc, err) == (0, "")
    doc = speclang.parse(STEPWISE)
    c1, c2 = (speclang.lookup_probcontract(doc, name).base for name in names.split(","))
    want_a, want_g, sig = oracle.oracle_compose_sets(c1, c2)
    composed = speclang.lookup_probcontract(speclang.parse(out), "composite")
    assert composed.signature == sig
    assert oracle.materialize(composed.base.assumption) == want_a
    assert oracle.materialize(composed.base.guarantee) == want_g


def test_compose_wraps_only_the_clauses_that_are_read_at_every_step(tmp_path, capsys):
    path = tmp_path / "stepwise.pct"
    path.write_text(STEPWISE)
    _, out, _ = _run(["compose", str(path), "--contracts", "coin,one"], capsys)
    # coin's assumption is always(a) already; one's is the bare a
    assert "def composite_g = (d or f or not always(a)) and (b or not always(a));" in out
    assert "assume always(a) and a or not always(composite_g);" in out


def _one_error_line(err: str, start: str) -> bool:
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith(start) and err.endswith("\n")


@pytest.mark.parametrize("threshold", ["1/0", "nan", "inf", "NaN", "x"])
def test_a_bad_threshold_is_reported_before_the_query_runs(threshold, example, capsys):
    sat = [a.format(doc=example) for a in QUERIES["sat"]]
    assert _run(sat + ["--at-least", threshold], capsys) == \
        (2, "", f"error: not a rational number: {threshold!r}\n")
    # not even the document is read first
    sat[1] = example + ".missing"
    assert _run(sat + ["--at-least", threshold], capsys) == \
        (2, "", f"error: not a rational number: {threshold!r}\n")


@pytest.mark.parametrize("alias", ["and", "1x", "a b", ""])
def test_a_bad_compose_alias_is_reported_before_the_document_is_read(alias, example, capsys):
    compose = [a.format(doc=example + ".missing") for a in QUERIES["compose"]]
    assert _run(compose + ["--as", alias], capsys) == \
        (2, "", f"error: --as {alias!r}: a contract name is an identifier, not a keyword\n")


@pytest.mark.parametrize("target", ["missing directory", "a directory"])
def test_compose_reports_an_out_path_it_cannot_write(target, example, tmp_path, capsys):
    out = tmp_path / "missing" / "x.pct" if target == "missing directory" else tmp_path
    argv = [a.format(doc=example) for a in QUERIES["compose"]] + ["--out", str(out)]
    rc, stdout, err = _run(argv, capsys)
    assert (rc, stdout) == (2, "")
    assert _one_error_line(err, f"error: cannot write {out}: "), err


def test_compose_writes_its_out_path(example, tmp_path, capsys):
    out = tmp_path / "composed.pct"
    argv = [a.format(doc=example) for a in QUERIES["compose"]] + ["--out", str(out)]
    assert _run(argv, capsys) == (0, f"wrote {out}\n", "")
    assert out.read_text("utf-8") == (GOLDEN / "compose.txt").read_text("utf-8")


def test_fmt_write_reports_a_failed_write(example, capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(cli.Path, "write_text", refuse)
    rc, out, err = _run(["fmt", example, "--write"], capsys)
    assert (rc, out) == (2, "")
    assert _one_error_line(err, f"error: cannot write {example}: "), err
    assert "Permission denied" in err


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


def test_importing_the_cli_loads_neither_dataclasses_nor_json():
    """A fresh ``import pct.cli`` builds no dataclass, leaves ``json`` to
    ``verify --json-lines`` and ``argparse`` (with its ``gettext``) to a
    command line outside the canonical spelling: all are fixed costs of
    every pct process."""
    script = ("import sys\nimport pct.cli\n"
              "print(sorted({'argparse', 'dataclasses', 'gettext', 'json'} & set(sys.modules)))\n")
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]", proc.stdout
