"""Parser, printer, and denotation of the `.pct` format."""

import functools
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pct
from pct import (
    BOOL,
    DistributionError,
    ParseError,
    Port,
    ResolveError,
    SemanticError,
    Signature,
    SpecLangError,
    probabilistic,
    speclang,
    traces,
)
from pct.record import Record

XY = Signature.of(uncontrolled=(Port("x"),), controlled=(Port("y"),))


def test_parse_simple_contract():
    doc = pct.parse("""
        horizon 1;
        port x : bool uncontrolled;
        port y : bool controlled;
        contract C2 { assume true; guarantee always(y == x); }
    """)
    c = pct.build_contract(doc, "C2")
    assert c.assumption == pct.universe(c.signature, 1)
    assert len(c.guarantee) == 2
    assert len(pct.universe(c.signature, 1)) == 4


def test_empty_document():
    doc = pct.parse("")
    assert doc.is_empty
    assert speclang.print_document(doc) == ""


def test_undefined_name_diagnostic_carries_location():
    text = """horizon 1;
port y : bool controlled;
contract C { assume true; guarantee always(y == z); }
"""
    with pytest.raises(ResolveError) as exc:
        pct.parse(text)
    assert "z" in str(exc.value)
    assert exc.value.line == 3


def test_duplicate_names_rejected():
    with pytest.raises(SemanticError):
        pct.parse("horizon 1; port a : bool controlled; def a = true;")


def test_def_cycle_rejected():
    with pytest.raises(SemanticError):
        pct.parse("def f = g; def g = f;")


def test_horizon_declared_twice():
    with pytest.raises(SemanticError):
        pct.parse("horizon 1; horizon 2;")


def test_at_step_out_of_range():
    with pytest.raises(SemanticError):
        pct.parse("horizon 2; port a : bool uncontrolled; def d = at(2, a);")


def test_table_must_sum_to_one():
    with pytest.raises(SemanticError):
        pct.parse("horizon 1; port a : bool uncontrolled prob "
                  "table { [true]: 1/3; };")


def test_bernoulli_requires_bool():
    with pytest.raises(SemanticError):
        pct.parse("horizon 1; port m : {lo, hi} uncontrolled prob bernoulli(1/2);")


@pytest.mark.parametrize("text, line", [
    ("horizon 1;\nport n : {0, 1} uncontrolled prob bernoulli(1/3);", 2),
    ("horizon 1;\nport n : {0, 1} uncontrolled;\ndef d = n;", 3),
    ("horizon 1;\nport b : bool uncontrolled prob table { [0]: 1; };", 2),
    ("horizon 1;\nport k : {0, 1, 2} uncontrolled prob table { [true]: 1; };", 2),
], ids=["bernoulli-on-0-1", "bare-0-1-port", "int-in-bool-table", "bool-in-int-table"])
def test_bools_and_ints_never_match(text, line):
    # (0, 1) == (False, True) in Python, but the domains are different
    with pytest.raises(SemanticError) as exc:
        pct.parse(text)
    assert exc.value.line == line


def test_bernoulli_iid_requires_a_boolean_port():
    with pytest.raises(DistributionError):
        probabilistic.bernoulli_iid(Port("n", (0, 1)), Fraction(1, 3), 1)


def test_probcontract_needs_distributions():
    with pytest.raises(SemanticError):
        pct.parse("""horizon 1;
            port a : bool uncontrolled;
            contract C { assume true; guarantee a; }
            probcontract R { contract C; ports a; }
        """)


def test_keyword_cannot_name_port():
    with pytest.raises(ParseError):
        pct.parse("port always : bool controlled;")


def test_deep_nesting_is_a_diagnostic():
    text = "def d = " + "(" * 2000 + "true" + ")" * 2000 + ";"
    with pytest.raises(SpecLangError):
        pct.parse(text)
    with pytest.raises(SpecLangError):
        pct.parse("def d = " + "not " * 3000 + "true;")


def _deepest(text, monkeypatch):
    """The largest ``_Parser.depth`` reached while parsing an expression,
    with the limit lifted.

    The depth rises on entering ``expr``, ``unary`` and ``atom``; the
    deepest point of any expression is the entry to some atom.
    """
    parser = speclang._Parser(text)
    reached, atom = [], parser.atom
    parser.atom = lambda: reached.append(parser.depth + 1) or atom()
    with monkeypatch.context() as m:
        m.setattr(speclang, "MAX_NESTING", 10**6)
        parser.expr()
    return max(reached)


@pytest.mark.parametrize("nest", [lambda k: "not " * k + "a",
                                  lambda k: "always(" * 20 + "not " * k + "a" + ")" * 20],
                         ids=["not", "always-not"])
def test_nesting_limit_is_exact(nest, monkeypatch):
    # each "not" is one level, so some k reaches MAX_NESTING exactly
    limit = speclang.MAX_NESTING
    k = max(k for k in range(limit) if _deepest(nest(k), monkeypatch) <= limit)
    assert _deepest(nest(k), monkeypatch) == limit
    assert pct.parse_expr(nest(k)) is not None
    assert _deepest(nest(k + 1), monkeypatch) > limit
    with pytest.raises(ParseError, match="nested too deeply"):
        pct.parse_expr(nest(k + 1))


def test_a_bare_value_is_not_a_predicate():
    with pytest.raises(ParseError, match="a bare value is not a predicate"):
        pct.parse("horizon 1;\nport a : bool controlled;\nimpl m { behavior 3; }")


# --- denotation ---------------------------------------------------------------------

def test_denote_constants():
    assert pct.denote(pct.parse_expr("true"), XY, 2) == pct.universe(XY, 2)
    assert pct.denote(pct.parse_expr("false"), XY, 2).is_empty


def test_denote_never_single_history():
    sig = Signature.of(uncontrolled=(Port("f"),))
    e = pct.denote(pct.parse_expr("never(f)"), sig, 2)
    assert [r.history("f") for r in pct.runs(e)] == [(False, False)]


def test_denote_always_equality():
    e = pct.denote(pct.parse_expr("always(y == x)"), XY, 1)
    assert len(e) == 2


def test_denote_bare_step_expr_means_every_step():
    sig = Signature.of(uncontrolled=(Port("f"),))
    assert pct.denote(pct.parse_expr("not f"), sig, 2) == \
        pct.denote(pct.parse_expr("never(f)"), sig, 2)


def test_denote_eventually_and_at():
    sig = Signature.of(uncontrolled=(Port("f"),))
    ev = pct.denote(pct.parse_expr("eventually(f)"), sig, 2)
    assert len(ev) == 3
    at1 = pct.denote(pct.parse_expr("at(1, f)"), sig, 2)
    assert {r.history("f") for r in pct.runs(at1)} == {(False, True), (True, True)}


def test_denote_prev_with_init():
    sig = Signature.of(uncontrolled=(Port("f"),))
    # holds iff f is constant and starts False: prev chain anchored at init
    e = pct.denote(pct.parse_expr("f == prev(f, init=false)"), sig, 3)
    assert {r.history("f") for r in pct.runs(e)} == {(False, False, False)}


def test_denote_enum_comparison():
    m = Port("m", ("idle", "run", "fail"))
    sig = Signature.of(uncontrolled=(m,))
    e = pct.denote(pct.parse_expr("never(m == fail)"), sig, 2)
    assert len(e) == 4
    with pytest.raises(ResolveError):
        pct.denote(pct.parse_expr("m == bogus"), sig, 2)
    with pytest.raises(SemanticError):
        pct.denote(pct.parse_expr("m"), sig, 2)


def test_denote_cyclic_definitions():
    defs = {"f": pct.parse_expr("g and x"), "g": pct.parse_expr("not f")}
    with pytest.raises(SemanticError):
        pct.denote(pct.parse_expr("always(f)"), XY, 2, defs)


def test_names_outside_the_io_clause_are_undefined():
    doc = pct.parse("""horizon 1;
port a : bool uncontrolled;
port b : bool uncontrolled;
port y : bool controlled;
contract c { input a; output y; assume true; guarantee y == b; }
""")
    with pytest.raises(ResolveError) as exc:
        pct.build_contract(doc, "c")
    assert "'b'" in exc.value.message and exc.value.line == 5


def test_definition_chain_is_evaluated_once_per_step(monkeypatch):
    lines = ["horizon 2;", "port a : bool uncontrolled;", "port y : bool controlled;",
             "def d0 = a;"]
    lines += [f"def d{i} = d{i - 1} and d{i - 1};" for i in range(1, 17)]
    lines.append("contract c { assume d16; guarantee d16 implies y; }")
    calls = []
    slot_values = traces.slot_values
    monkeypatch.setattr(traces, "slot_values",
                        lambda *args: calls.append(args) or slot_values(*args))
    c = pct.build_contract(pct.parse("\n".join(lines)), "c")
    # a and y, once per step, for each of the two clauses
    assert len(calls) <= 8
    assert c.assumption == pct.denote(pct.parse_expr("a"), c.signature, 2)


@pytest.mark.parametrize("behavior", ["d899 implies y", "always(d899) implies y"])
def test_a_long_definition_chain_builds(behavior, monkeypatch):
    lines = ["horizon 2;", "port a : bool uncontrolled;", "port y : bool controlled;",
             "def d0 = a;"]
    lines += [f"def d{i} = d{i - 1} and a;" for i in range(1, 900)]
    lines.append(f"impl m {{ behavior {behavior}; }}")
    doc = pct.parse("\n".join(lines))
    calls = []
    slot_values = traces.slot_values
    monkeypatch.setattr(traces, "slot_values",
                        lambda *args: calls.append(args) or slot_values(*args))
    m = pct.build_impl(doc, "m")
    # each definition reads a once per step, and y is read once per step
    assert len(calls) <= 2 * (900 + 1)
    monkeypatch.undo()
    short = behavior.replace("d899", "a")
    assert m == pct.denote(pct.parse_expr(short), m.signature, 2)


def _counting(monkeypatch):
    """Counts of the conjunctions evaluated, of the step values the temporal
    operators combine, and of the slot values read."""
    counts = {"and": 0, "steps": 0, "slot_values": 0}
    conj, slot_values = speclang._CONNECTIVES[speclang.And], traces.slot_values

    def counted_and(a, b):
        counts["and"] += 1
        return conj(a, b)

    def counted_slot_values(*args):
        counts["slot_values"] += 1
        return slot_values(*args)

    def counted(combine):
        def combine_counted(steps):
            counts["steps"] += len(steps)
            return combine(steps)
        return combine_counted
    monkeypatch.setitem(speclang._CONNECTIVES, speclang.And, counted_and)
    for op, combine in list(speclang._TEMPORAL.items()):
        monkeypatch.setitem(speclang._TEMPORAL, op, counted(combine))
    monkeypatch.setattr(traces, "slot_values", counted_slot_values)
    return counts


@pytest.mark.parametrize("text,ands,steps,reads", [
    # the conjunction of two temporal nodes is invariant: one evaluation in all
    ("always(x) and always(y)", 1, 6, 6),
    # the body of at(k, ...) is evaluated at step k only, once
    ("at(1, x and y)", 1, 0, 2),
    ("not at(2, x) and eventually(x and y)", 1 + 3, 3, 1 + 6),
    # an invariant body has one value for the outer operator to take
    ("never(always(x) and eventually(y))", 1, 1 + 3 + 3, 6),
])
def test_step_invariant_nodes_are_evaluated_once(text, ands, steps, reads, monkeypatch):
    want = pct.denote(pct.parse_expr(text), XY, 3)
    counts = _counting(monkeypatch)
    got = pct.denote(pct.parse_expr(text), XY, 3)
    assert counts == {"and": ands, "steps": steps, "slot_values": reads}
    monkeypatch.undo()
    assert got == want


def per_step_mask(e, sig, h, defs):
    """The mask of ``e`` as the parent algorithm computes it: ``e`` is
    evaluated at every step separately, temporal operators and ``at``
    included, and each step's value is ANDed into a full-size mask of ones."""
    ports = {p.name: p for p in sig.ports}

    def position(value, port):
        return next(i for i, v in enumerate(port.domain)
                    if type(v) is type(value) and v == value)

    def read(op, t):
        """(port, digit array) for an operand that reads a port, else None."""
        if isinstance(op, speclang.PrevOperand):
            p = ports[op.name]
            return p, (np.int64(position(op.init, p)) if t == 0
                       else traces.slot_values(sig, h, op.name, t - 1))
        if isinstance(op, speclang.PortOperand) and op.name in ports:
            return ports[op.name], traces.slot_values(sig, h, op.name, t)
        return None

    def value(e, t):
        if isinstance(e, speclang.Lit):
            return np.bool_(e.value)
        if isinstance(e, speclang.NameRef):
            if e.name in defs:
                return value(defs[e.name], t)
            return traces.slot_values(sig, h, e.name, t) == 1
        if isinstance(e, speclang.Not):
            return ~value(e.body, t)
        if isinstance(e, speclang.And):
            return value(e.left, t) & value(e.right, t)
        if isinstance(e, speclang.Or):
            return value(e.left, t) | value(e.right, t)
        if isinstance(e, speclang.Implies):
            return ~value(e.left, t) | value(e.right, t)
        if isinstance(e, speclang.Temporal):
            steps = [value(e.body, u) for u in range(h)]
            if e.op == "always":
                return functools.reduce(np.logical_and, steps)
            any_step = functools.reduce(np.logical_or, steps)
            return any_step if e.op == "eventually" else ~any_step
        if isinstance(e, speclang.At):
            return value(e.body, e.step)
        left, right = read(e.left, t), read(e.right, t)
        if left and right:
            return left[1] == right[1]
        (port, digits), lit = (left, e.right) if left else (right, e.left)
        lit_value = lit.name if isinstance(lit, speclang.PortOperand) else lit.value
        return digits == position(lit_value, port)

    mask = np.ones(traces.space_of(sig, h).shape, dtype=bool)
    for t in range(h):
        mask &= value(e, t)
    return mask.reshape(-1)


def test_denote_matches_the_per_step_algorithm(docgen):
    compared = 0
    for seed in range(400):
        doc = pct.parse(docgen(seed).document())
        for name, decl in doc.contracts.items():
            try:
                c = pct.build_contract(doc, name)
            except SpecLangError:
                continue
            for clause, built in ((decl.assume, c.assumption), (decl.guarantee, c.guarantee)):
                want = per_step_mask(clause, c.signature, doc.horizon, doc.defs)
                assert np.array_equal(built.mask, want), (seed, name)
                compared += 1
        for name, decl in doc.impls.items():
            try:
                m = pct.build_impl(doc, name)
            except SpecLangError:
                continue
            assert np.array_equal(m.mask, per_step_mask(decl.behavior, m.signature,
                                                        doc.horizon, doc.defs)), (seed, name)
            compared += 1
    assert compared > 900


def test_denote_unknown_port():
    with pytest.raises(ResolveError):
        pct.denote(pct.parse_expr("always(q)"), XY, 1)


def test_denote_is_compositional(docgen):
    sig = Signature.of(uncontrolled=(Port("p0"), Port("p1", (0, 1, 2))),
                       controlled=(Port("p2"),))
    ports = {"p0": BOOL, "p1": (0, 1, 2), "p2": BOOL}
    for seed in range(40):
        g = docgen(seed)
        h = 2
        a_text = g.expr(ports, 2, h)
        b_text = g.expr(ports, 2, h)
        da = pct.denote(pct.parse_expr(a_text), sig, h)
        db = pct.denote(pct.parse_expr(b_text), sig, h)
        assert pct.denote(pct.parse_expr(f"({a_text}) and ({b_text})"), sig, h) == \
            pct.product(da, db)
        # bare "not phi" / "phi or psi" are per-step, so complement and
        # union only match the run-level operators under a temporal guard
        assert pct.denote(pct.parse_expr(f"not (always({a_text}))"), sig, h) == \
            pct.complement(da)
        assert pct.denote(pct.parse_expr(f"always(({a_text}) or ({b_text}))"), sig, h) == \
            pct.denote(pct.parse_expr(f"always(not (not ({a_text}) and not ({b_text})))"),
                       sig, h)


# --- printing and round-trips ----------------------------------------------------------

def test_print_parse_identity_on_random_documents(docgen):
    for seed in range(150):
        text = docgen(seed).document()
        doc = pct.parse(text)
        printed = speclang.print_document(doc)
        assert pct.parse(printed) == doc, f"seed {seed}"


def test_print_is_idempotent_on_text(docgen):
    for seed in range(40):
        text = docgen(seed).document()
        once = speclang.print_document(pct.parse(text))
        twice = speclang.print_document(pct.parse(once))
        assert once == twice


def test_differently_spaced_documents_print_identically():
    a = "horizon 1;\nport a : bool uncontrolled;\ndef d = not a;\n"
    b = "horizon    1;   port a:bool uncontrolled;\n\n\ndef d=not   a;"
    assert speclang.print_document(pct.parse(a)) == speclang.print_document(pct.parse(b))


def test_bool_and_int_domains_make_different_documents():
    ints = pct.parse("horizon 1; port a : {0, 1} uncontrolled;")
    bools = pct.parse("horizon 1; port a : {false, true} uncontrolled;")
    again = pct.parse("horizon 1;\nport a : {0, 1} uncontrolled;\n")
    assert ints != bools
    assert ints == again and hash(ints.ports["a"]) == hash(again.ports["a"])


BOOL_VALUES = """horizon 2;
port a : {false, true} uncontrolled prob table { [false, true]: 1/2; [true, true]: 1/2; };
port x : {false, true} controlled;
contract by_value { assume true; guarantee always(x == true); }
contract by_prev { assume true; guarantee always(x == prev(a, init=true)); }
"""


def test_a_printer_writing_1_for_true_fails_the_round_trip(monkeypatch):
    doc = pct.parse(BOOL_VALUES)
    assert pct.parse(speclang.print_document(doc)) == doc
    monkeypatch.setattr(speclang, "_fmt_value",
                        lambda v: str(int(v)) if type(v) is bool else str(v))
    printed = speclang.print_document(doc)
    assert "{0, 1}" in printed and "x == 1" in printed and "init=1" in printed
    again = pct.parse(printed)       # the 0/1 document is valid, just not the same
    assert again != doc
    assert again.ports["x"] != doc.ports["x"]                        # the domain
    assert again.ports["a"].dist != doc.ports["a"].dist              # the table histories
    assert again.contracts["by_value"] != doc.contracts["by_value"]  # the literal
    assert again.contracts["by_prev"] != doc.contracts["by_prev"]    # the prev init


def test_bundled_example_is_printer_normalized():
    from pct.cli import example_document
    from importlib import resources
    text = resources.files("pct.data").joinpath("two_stage.pct").read_text("utf-8")
    doc = pct.parse(text)
    normalized = speclang.print_document(doc)
    assert pct.parse(normalized) == doc
    assert speclang.print_document(pct.parse(normalized)) == normalized


def test_rationals_parse_exactly():
    doc = pct.parse("horizon 1; port a : bool uncontrolled prob bernoulli(0.25);")
    assert doc.ports["a"].dist.p == Fraction(1, 4)


def test_fuzz_parser_never_crashes(docgen):
    rng = random.Random("fuzz-smoke")
    corpus = [docgen(s).document() for s in range(10)]
    alphabet = "abcdef{}();:=,/#\n \t01[]" + "portdefcontract"
    ok = 0
    for i in range(3000):
        if rng.random() < 0.5 and corpus:
            base = list(rng.choice(corpus))
            for _ in range(rng.randint(1, 6)):
                op = rng.randrange(3)
                pos = rng.randrange(max(1, len(base)))
                if op == 0 and base:
                    del base[pos % len(base)]
                elif op == 1:
                    base.insert(pos, rng.choice(alphabet))
                else:
                    base[pos % len(base)] = rng.choice(alphabet)
            text = "".join(base)
        else:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        try:
            pct.parse(text)
            ok += 1
        except SpecLangError as exc:
            assert exc.line >= 1 and exc.col >= 1
    assert ok >= 0  # reaching here without another exception type is the point


# --- source positions ----------------------------------------------------------------

@pytest.mark.parametrize("text, line, col, message", [
    ("@horizon 1;\n", 1, 1, "unexpected character '@'"),
    ("é", 1, 1, "unexpected character 'é'"),
    ("horizon 1;\nport a : bool\t@ uncontrolled;\n", 2, 15, "unexpected character '@'"),
    ("\thorizon 1;\n\t\tport\t\ta : bool uncontrolled;\n\tdef d = a @;\n", 3, 12,
     "unexpected character '@'"),
    ("horizon 1;\r\n\r\nport a : bool uncontrolled;\r\ndef d = é;\r\n", 4, 9,
     "unexpected character 'é'"),
    ("horizon 1;\nport a : bool uncontrolled;\ndef d = a;@", 3, 11, "unexpected character '@'"),
    ("horizon 1; # a comment with @ and é\n# another\n@", 3, 1, "unexpected character '@'"),
    ("horizon 1;\r\n# é @ \t\r\né", 3, 1, "unexpected character 'é'"),
    ("# head\n\t# indented comment\n\t  horizon 1;\t@\n", 3, 15, "unexpected character '@'"),
    # a lone carriage return does not end a line
    ("horizon 1;\rport a : bool uncontrolled;\r@", 1, 40, "unexpected character '@'"),
    ("horizon 1;\nport a : bool uncontrolled", 2, 27, "expected ';', found 'end of input'"),
    ("horizon 1;\nport a : bool uncontrolled # no semicolon", 2, 42,
     "expected ';', found 'end of input'"),
    ("horizon 1;\n\tport\thorizon : bool uncontrolled;\n", 2, 7,
     "'horizon' is a keyword and cannot be used as a port name"),
], ids=["start", "start-e-acute", "middle-after-tab", "middle-after-tabs", "middle-crlf",
        "end-no-newline", "end-after-comment", "end-after-crlf-comment", "comment-then-tab",
        "lone-cr", "eof-no-newline", "eof-after-comment", "tab-keyword"])
def test_parse_errors_carry_line_and_column(text, line, col, message):
    with pytest.raises(ParseError) as exc:
        pct.parse(text)
    assert (exc.value.line, exc.value.col, exc.value.message) == (line, col, message)
    assert str(exc.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize("text, line, col, message", [
    ("horizon \u0663;\n", 1, 9, "unexpected character '\u0663'"),
    ("horizon 2;\nport a : {\u0660, 1} uncontrolled;\n", 2, 11, "unexpected character '\u0660'"),
    ("horizon 2;\nport a : bool uncontrolled prob bernoulli(\u0660.\u0665);\n", 2, 43,
     "unexpected character '\u0660'"),
    ("horizon 2;\nport a : bool uncontrolled prob bernoulli(0.\u0665);\n", 2, 44,
     "unexpected character '.'"),
], ids=["horizon", "domain", "bernoulli", "decimal-fraction"])
def test_numbers_are_ascii_digits_only(text, line, col, message):
    """``digit`` in docs/grammar.ebnf is 0-9: another script's decimal digit
    is no number."""
    with pytest.raises(ParseError) as exc:
        pct.parse(text)
    assert (exc.value.line, exc.value.col, exc.value.message) == (line, col, message)


@pytest.mark.parametrize("text, error, line, col", [
    ("horizon 1;\r\nport a : bool uncontrolled;\r\ncontract c {\r\n\tassume true;\r\n"
     "\tguarantee at(3, a);\r\n}\r\n", SemanticError, 5, 12),
    ("\t\thorizon 0;", SemanticError, 1, 11),
    ("# c\r\nhorizon 2;\r\nport a : bool uncontrolled;\r\n\r\n  def d =\tb;", ResolveError, 5, 11),
], ids=["crlf-step", "tab-horizon", "crlf-undefined"])
def test_later_diagnostics_carry_line_and_column(text, error, line, col):
    with pytest.raises(error) as exc:
        pct.parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_comments_may_hold_any_character():
    doc = pct.parse("# @ é \t $\nhorizon 1; # ü @\r\n# last line, no newline: é")
    assert doc.horizon == 1


def _located(node):
    """Every node under ``node`` that has a ``loc``, with that ``loc``."""
    if isinstance(node, dict):
        for v in node.values():
            yield from _located(v)
    elif isinstance(node, tuple):
        for v in node:
            yield from _located(v)
    elif isinstance(node, Record):
        for cls in reversed(type(node).__mro__):
            for name in cls.__dict__.get("__slots__", ()):
                value = getattr(node, name)
                if name == "loc":
                    yield node, value
                else:
                    yield from _located(value)


def test_node_locations_match_their_token_offsets(docgen, monkeypatch):
    """Parse each document twice: once as usual, and once with locations
    left as token offsets.  Each node's (line, col) must be what counting
    newlines before its offset gives."""
    checked = 0
    for seed in range(200):
        text = docgen(seed).document()
        if seed % 3 == 1:
            text = text.replace("\n", "\r\n")
        if seed % 3 == 2:
            text = text.replace("  ", "\t")
        doc = pct.parse(text)
        with monkeypatch.context() as m:
            m.setattr(speclang, "_line_col", lambda starts, offset: ("offset", offset))
            raw = pct.parse(text)
        starts = {t[speclang.OFFSET] for t in speclang._tokenize(text)}
        located, offsets = list(_located(doc)), list(_located(raw))
        assert [type(n) for n, _ in located] == [type(n) for n, _ in offsets]
        for (node, loc), (_, (_, pos)) in zip(located, offsets):
            assert pos in starts, (seed, node)
            want = (text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))
            assert loc == want, (seed, node, pos)
            checked += 1
    assert checked == 5198


# --- grammar -------------------------------------------------------------------------

def test_grammar_examples_parse_and_every_keyword_is_covered():
    text = (Path(__file__).resolve().parents[1] / "docs" / "grammar.ebnf").read_text("utf-8")
    examples = re.findall(r"\(\* example\n(.*?)\*\)", text, re.S)
    assert len(examples) >= 2
    for example in examples:
        doc = pct.parse(example)
        assert doc.contracts and pct.parse(speclang.print_document(doc)) == doc
    assert [k for k in sorted(speclang.KEYWORDS) if f'"{k}"' not in text] == []
    assert f"MAX_NESTING = {speclang.MAX_NESTING}" in text
