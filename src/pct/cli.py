"""Command-line front end.

Subcommands: ``sat``, ``compose``, ``refine``, ``verify``, ``example``,
``fmt``.  Inputs and outputs are `.pct` documents; probabilities are
printed as exact rationals with an advisory decimal.  Exit codes: 0 on
success, 1 when a checked property or threshold fails, 2 on usage or
diagnostic errors.

``COMMANDS`` describes the command line once.  A command line in its
canonical spelling (see ``_parse``) is read directly; argparse, built from
the same table, reads every other spelling and writes every usage error
and help text, so a well-formed command line never imports it.
"""

from __future__ import annotations

import sys
import types
from fractions import Fraction
from pathlib import Path

from . import contracts, probabilistic, speclang
from .errors import PctError

EXAMPLE_RESOURCE = "two_stage.pct"


def _q(x: Fraction) -> str:
    return f"{x} ({float(x)})"


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise PctError(f"not a rational number: {text!r}") from exc


def _load(path: str) -> speclang.Document:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise PctError(f"cannot read {path}: {exc}") from exc
    return speclang.parse(text)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise PctError(f"cannot write {path}: {exc}") from exc


def cmd_sat(args) -> int:
    # a bad threshold is reported before any work is done
    threshold = None if args.at_least is None else _parse_rational(args.at_least)
    doc = _load(args.file)
    m = speclang.build_impl(doc, args.impl)
    pc = speclang.lookup_probcontract(doc, args.contract)
    report = probabilistic.sat_level(m, pc)
    print(f"level = {_q(report.level)}")
    if report.witness_bad is not None:
        hist = {name: list(vals) for name, vals in report.witness_bad}
        print(f"worst violating history: {hist}")
    if threshold is not None and report.level < threshold:
        print(f"below threshold {threshold}", file=sys.stderr)
        return 1
    return 0


def _contract_decl(doc, name) -> speclang.ContractDecl:
    """The declaration of a contract, or of a probabilistic contract's base."""
    pdecl = doc.probcontracts.get(name)
    return doc.contracts[pdecl.contract if pdecl else name]


def _fails_somewhere(e: speclang.Expr, sig, h: int, defs: dict) -> speclang.Expr:
    """An expression that holds at every step exactly where ``e`` fails at
    some step: ``not e`` when ``e`` is step-invariant, else ``not always(e)``
    (an expression is read at every step)."""
    if not speclang.step_invariant(e, sig, h, defs):
        e = speclang.Temporal((0, 0), "always", e)
    return speclang.Not((0, 0), e)


def _canonical_guarantee_expr(decl, sig, h: int, defs: dict) -> speclang.Expr:
    # guarantee in canonical form: G or not A
    return speclang.Or((0, 0), decl.guarantee, _fails_somewhere(decl.assume, sig, h, defs))


def cmd_compose(args) -> int:
    # a bad name is reported before any work is done, by the lexer's rule
    out_name = args.alias
    m = speclang._TOKEN_RE.fullmatch(out_name)
    if m is None or m.lastgroup != "IDENT" or out_name in speclang.KEYWORDS:
        raise PctError(f"--as {out_name!r}: a contract name is an identifier, not a keyword")
    doc = _load(args.file)
    names = [n.strip() for n in args.contracts.split(",") if n.strip()]
    if len(names) != 2:
        raise PctError("--contracts expects exactly two names, e.g. A,B")
    for taken in (doc.ports, doc.defs, doc.contracts, doc.impls, doc.probcontracts):
        if out_name in taken or f"{out_name}_base" in taken or f"{out_name}_g" in taken:
            raise PctError(f"name {out_name!r} (or a derived name) is already declared")

    pc_a, pc_b = (speclang.lookup_probcontract(doc, name) for name in names)
    decl_a, decl_b = (_contract_decl(doc, name) for name in names)
    composed = probabilistic.compose_prob(pc_a, pc_b)
    probabilistic_result = bool(composed.pports)

    sig, h = composed.base.signature, doc.horizon
    g_def = speclang.And((0, 0), _canonical_guarantee_expr(decl_a, sig, h, doc.defs),
                         _canonical_guarantee_expr(decl_b, sig, h, doc.defs))
    defs = dict(doc.defs)
    defs[f"{out_name}_g"] = g_def
    g_ref = speclang.NameRef((0, 0), f"{out_name}_g")
    assume = speclang.Or((0, 0), speclang.And((0, 0), decl_a.assume, decl_b.assume),
                         _fails_somewhere(g_ref, sig, h, defs))
    base_name = f"{out_name}_base" if probabilistic_result else out_name
    cdecl = speclang.ContractDecl(
        base_name,
        inputs=tuple(sorted(sig.uncontrolled)),
        outputs=tuple(sorted(sig.controlled)),
        assume=assume,
        guarantee=g_ref)

    ports = dict(doc.ports)
    cdict = dict(doc.contracts)
    cdict[base_name] = cdecl
    pdict = dict(doc.probcontracts)
    if probabilistic_result:
        pdict[out_name] = speclang.ProbContractDecl(
            out_name, base_name, tuple(sorted(composed.pports)))
    out_doc = speclang.Document(doc.horizon, ports, defs, cdict, dict(doc.impls), pdict)

    # the emitted document must denote exactly the composed object
    text = speclang.print_document(out_doc)
    reloaded = speclang.parse(text)
    if probabilistic_result:
        check = speclang.build_probcontract(reloaded, out_name)
        identical = (check.base == composed.base and check.dist == composed.dist
                     and check.pports == composed.pports)
    else:
        identical = speclang.build_contract(reloaded, out_name) == composed.base
    if not identical:
        raise PctError("internal error: emitted document does not round-trip")

    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_refine(args) -> int:
    doc = _load(args.file)
    pc1 = speclang.lookup_probcontract(doc, args.src)
    pc2 = speclang.lookup_probcontract(doc, args.dst)
    report = probabilistic.refine_level(pc1, pc2)
    print(f"conditioning probability = {_q(report.p_g1)}")
    if report.degenerate:
        print("degenerate: the conditioning event has probability 0", file=sys.stderr)
        return 1
    print(f"gamma = {_q(report.level)}")
    return 0


def cmd_verify(args) -> int:
    # imported here: the other subcommands do not need the oracle
    from . import oracle

    if args.seeds < 1:
        raise PctError(f"--seeds must be at least 1, got {args.seeds}")
    if args.suite is not None and args.suite not in oracle.SUITES:
        raise PctError(f"unknown suite {args.suite!r} "
                       f"(choose from {', '.join(sorted(oracle.SUITES))})")
    budget = oracle.Budget.parse(args.budget) if args.budget else oracle.Budget()
    suites = [args.suite] if args.suite else list(oracle.SUITES)
    results = {name: oracle.run_suite(name, range(args.seeds), budget)
               for name in suites}
    if args.json_lines:
        import json
        for cases in results.values():
            for case in cases:
                print(json.dumps(case.as_json_dict(), sort_keys=True))
    for line in oracle.summarize(results):
        print(line, file=sys.stderr if args.json_lines else sys.stdout)
    return 0 if oracle.all_passed(results) else 1


def example_document() -> speclang.Document:
    from importlib import resources
    text = resources.files("pct.data").joinpath(EXAMPLE_RESOURCE).read_text("utf-8")
    return speclang.parse(text)


def cmd_example(args) -> int:
    doc = example_document()
    m1 = speclang.build_impl(doc, "m1")
    m2 = speclang.build_impl(doc, "m2")
    r1 = speclang.build_probcontract(doc, "stage1_rel")
    r2 = speclang.build_probcontract(doc, "stage2_rel")
    alpha = probabilistic.sat_level(m1, r1).level
    beta = probabilistic.sat_level(m2, r2).level
    print(f"alpha = {_q(alpha)}")
    print(f"beta = {_q(beta)}")
    print(f"alpha*beta = {_q(alpha * beta)}")

    composed = probabilistic.compose_prob(r1, r2)
    m = contracts.compose_impl(m1, m2)
    level = probabilistic.sat_level(m, composed).level
    ok1 = level >= alpha * beta
    print(f"level(m1 x m2 vs stage1_rel || stage2_rel) = {_q(level)}"
          f"  [>= alpha*beta: {'ok' if ok1 else 'VIOLATED'}]")

    pipeline = speclang.build_probcontract(doc, "pipeline_rel")
    from . import traces
    contained = traces.included_in(composed.base.guarantee,
                                   pipeline.base.guarantee,
                                   pipeline.base.signature)
    print(f"computed composite guarantee within the declared pipeline guarantee: "
          f"{'yes' if contained else 'NO'}")

    relaxed = speclang.build_probcontract(doc, "relaxed_rel")
    report = probabilistic.refine_level(pipeline, relaxed)
    gamma = report.level
    print(f"gamma = {_q(gamma)}  [conditioning probability {_q(report.p_g1)}"
          f"{', degenerate' if report.degenerate else ''}]")
    print(f"alpha*beta*gamma = {_q(alpha * beta * gamma)}")

    level2 = probabilistic.sat_level(m, relaxed).level
    ok2 = level2 >= alpha * beta * gamma
    print(f"level(m1 x m2 vs relaxed_rel) = {_q(level2)}"
          f"  [>= alpha*beta*gamma: {'ok' if ok2 else 'VIOLATED'}]")
    return 0 if (ok1 and ok2 and contained) else 1


def cmd_fmt(args) -> int:
    doc = _load(args.file)
    text = speclang.print_document(doc)
    if args.write:
        _write(args.file, text)
    else:
        sys.stdout.write(text)
    return 0


# The command line, one entry per subcommand: its help, its function, its
# positionals and its options.  An option is its flag and the keyword
# arguments argparse gets for it; every one names its ``dest``.
COMMANDS = {
    "sat": ("satisfaction level of an implementation", cmd_sat, ("file",), {
        "--impl": {"dest": "impl", "required": True, "help": "implementation name"},
        "--contract": {"dest": "contract", "required": True,
                       "help": "(probabilistic) contract name"},
        "--at-least": {"dest": "at_least", "metavar": "Q",
                       "help": "exit 1 when the level is below this rational"},
    }),
    "compose": ("compose two contracts into a new document", cmd_compose, ("file",), {
        "--contracts": {"dest": "contracts", "required": True, "metavar": "A,B"},
        "--out": {"dest": "out", "help": "output path (default: stdout)"},
        "--as": {"dest": "alias", "default": "composite",
                 "help": "name of the composed contract (default: composite)"},
    }),
    "refine": ("refinement level between two contracts", cmd_refine, ("file",), {
        "--from": {"dest": "src", "required": True, "metavar": "C1"},
        "--to": {"dest": "dst", "required": True, "metavar": "C2"},
    }),
    "verify": ("run the randomized verification suites", cmd_verify, (), {
        "--seeds": {"dest": "seeds", "type": int, "default": 100},
        "--budget": {"dest": "budget", "help": "e.g. ports=3,h=2,dom=2,space=1024"},
        "--suite": {"dest": "suite", "help": "run one suite only"},
        "--json-lines": {"dest": "json_lines", "action": "store_true",
                         "help": "one JSON record per instance on stdout"},
    }),
    "example": ("run the bundled two-stage pipeline example", cmd_example, (), {}),
    "fmt": ("normalize a document", cmd_fmt, ("file",), {
        "--write": {"dest": "write", "action": "store_true",
                    "help": "rewrite the file in place"},
    }),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``COMMANDS``: it reads every spelling that
    ``_parse`` does not, and writes the usage errors and help texts."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="pct",
        description="Probabilistic assume/guarantee contracts over finite traces.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, positionals, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest in positionals:
            p.add_argument(dest)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _parse(argv):
    """The namespace of ``argv`` in its canonical spelling, else None.

    The canonical spelling is a subcommand, then its positionals and its
    options in any order: full option names, each at most once, its value
    the next word, every required one present.  No word may be ``--`` or
    ``--opt=value``, no value may start with ``-``, and an ``int`` value
    must convert.  On that spelling the namespace equals argparse's; every
    other ``argv``, ``-h`` included, is argparse's to read or refuse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, positionals, options = COMMANDS[argv[0]]
    args = {"command": argv[0], "func": func}
    for kwargs in options.values():
        switch = kwargs.get("action") == "store_true"
        args[kwargs["dest"]] = kwargs.get("default", False if switch else None)
    seen, values = set(), []
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            values.append(word)
            continue
        kwargs = options.get(word)
        if kwargs is None or word in seen:
            return None
        seen.add(word)
        if kwargs.get("action") == "store_true":
            args[kwargs["dest"]] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        try:
            args[kwargs["dest"]] = kwargs.get("type", str)(value)
        except ValueError:
            return None
    if len(values) != len(positionals) or any(
            kwargs.get("required") and flag not in seen for flag, kwargs in options.items()):
        return None
    args.update(zip(positionals, values))
    return types.SimpleNamespace(**args)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
