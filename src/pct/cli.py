"""Command-line front end.

Subcommands: ``sat``, ``compose``, ``refine``, ``verify``, ``example``,
``fmt``.  Inputs and outputs are `.pct` documents; probabilities are
printed as exact rationals with an advisory decimal.  Exit codes: 0 on
success, 1 when a checked property or threshold fails, 2 on usage or
diagnostic errors.
"""

from __future__ import annotations

import argparse
import sys
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
        hist = {name: list(vals) for name, vals in report.witness_bad.entries}
        print(f"worst violating history: {hist}")
    if threshold is not None and report.level < threshold:
        print(f"below threshold {threshold}", file=sys.stderr)
        return 1
    return 0


def _contract_decl(doc, name) -> speclang.ContractDecl:
    """The declaration of a contract, or of a probabilistic contract's base."""
    pdecl = doc.probcontracts.get(name)
    return doc.contracts[pdecl.contract if pdecl else name]


def _canonical_guarantee_expr(decl) -> speclang.Expr:
    # guarantee in canonical form: G or not A
    return speclang.Or((0, 0), decl.guarantee, speclang.Not((0, 0), decl.assume))


def cmd_compose(args) -> int:
    doc = _load(args.file)
    names = [n.strip() for n in args.contracts.split(",") if n.strip()]
    if len(names) != 2:
        raise PctError("--contracts expects exactly two names, e.g. A,B")
    out_name = args.alias
    for taken in (doc.ports, doc.defs, doc.contracts, doc.impls, doc.probcontracts):
        if out_name in taken or f"{out_name}_base" in taken or f"{out_name}_g" in taken:
            raise PctError(f"name {out_name!r} (or a derived name) is already declared")

    pc_a, pc_b = (speclang.lookup_probcontract(doc, name) for name in names)
    decl_a, decl_b = (_contract_decl(doc, name) for name in names)
    composed = probabilistic.compose_prob(pc_a, pc_b)
    probabilistic_result = bool(composed.pports)

    sig = composed.base.signature
    g_def = speclang.And((0, 0), _canonical_guarantee_expr(decl_a),
                         _canonical_guarantee_expr(decl_b))
    g_ref = speclang.NameRef((0, 0), f"{out_name}_g")
    assume = speclang.Or((0, 0),
                         speclang.And((0, 0), decl_a.assume, decl_b.assume),
                         speclang.Not((0, 0), g_ref))
    base_name = f"{out_name}_base" if probabilistic_result else out_name
    cdecl = speclang.ContractDecl(
        base_name,
        inputs=tuple(sorted(sig.uncontrolled)),
        outputs=tuple(sorted(sig.controlled)),
        assume=assume,
        guarantee=g_ref)

    ports = dict(doc.ports)
    defs = dict(doc.defs)
    defs[f"{out_name}_g"] = g_def
    cdict = dict(doc.contracts)
    cdict[base_name] = cdecl
    pdict = dict(doc.probcontracts)
    if probabilistic_result:
        pdict[out_name] = speclang.ProbContractDecl(
            out_name, base_name, tuple(sorted(composed.pports)))
    out_doc = speclang.Document(doc.horizon, ports, defs, cdict, dict(doc.impls), pdict)

    # the emitted document must denote exactly the composed object
    reloaded = speclang.parse(speclang.print_document(out_doc))
    if probabilistic_result:
        check = speclang.build_probcontract(reloaded, out_name)
        identical = (check.base == composed.base and check.dist == composed.dist
                     and check.pports == composed.pports)
    else:
        identical = speclang.build_contract(reloaded, out_name) == composed.base
    if not identical:
        raise PctError("internal error: emitted document does not round-trip")

    text = speclang.print_document(out_doc)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pct",
        description="Probabilistic assume/guarantee contracts over finite traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sat", help="satisfaction level of an implementation")
    p.add_argument("file")
    p.add_argument("--impl", required=True, help="implementation name")
    p.add_argument("--contract", required=True, help="(probabilistic) contract name")
    p.add_argument("--at-least", dest="at_least", metavar="Q",
                   help="exit 1 when the level is below this rational")
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("compose", help="compose two contracts into a new document")
    p.add_argument("file")
    p.add_argument("--contracts", required=True, metavar="A,B")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--as", dest="alias", default="composite",
                   help="name of the composed contract (default: composite)")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("refine", help="refinement level between two contracts")
    p.add_argument("file")
    p.add_argument("--from", dest="src", required=True, metavar="C1")
    p.add_argument("--to", dest="dst", required=True, metavar="C2")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("verify", help="run the randomized verification suites")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--budget", help="e.g. ports=3,h=2,dom=2,space=1024")
    p.add_argument("--suite", help="run one suite only")
    p.add_argument("--json-lines", dest="json_lines", action="store_true",
                   help="one JSON record per instance on stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("example", help="run the bundled two-stage pipeline example")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("fmt", help="normalize a document")
    p.add_argument("file")
    p.add_argument("--write", action="store_true", help="rewrite the file in place")
    p.set_defaults(func=cmd_fmt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
