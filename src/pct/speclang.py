"""The `.pct` text format: parser, printer, and trace-expression semantics.

A document declares one horizon, ports (name, finite domain, default
role, optional per-port distribution), named predicate definitions, and
named contracts, implementations, and probabilistic contracts.  Trace
expressions combine per-step atoms (`p`, `p == v`, `p == q`,
`prev(p, init=v)`) with boolean connectives and the finite-horizon
temporal operators `always`, `never`, `eventually`, `at(t, ...)`.

An expression denotes a set of runs: the runs satisfying it at every
step (temporal operators quantify over steps themselves, so a guarded
expression is step-independent).  The grammar is documented in
docs/grammar.ebnf; parsing and printing are pure and round-trip:
``parse(print(doc))`` is structurally equal to ``doc``.
"""

from __future__ import annotations

import bisect
import functools
import re
from fractions import Fraction
from itertools import accumulate, chain
from typing import Optional

import numpy as np

from . import contracts as _contracts
from . import probabilistic as _prob
from . import traces
from .errors import (
    DistributionError,
    ParseError,
    ResolveError,
    SemanticError,
    SignatureError,
)
from .record import Record
from .traces import Assertion, Port, Signature

MAX_NESTING = 80

KEYWORDS = frozenset("""
    horizon port bool controlled uncontrolled prob bernoulli table
    def contract impl probcontract input output assume guarantee behavior
    ports and or not implies always never eventually at prev init true false
""".split())


# --- tokens -------------------------------------------------------------------

# One match per lexeme: the whitespace and comments before it, then the
# lexeme (a name or keyword, punctuation, or a number).  The lexeme is
# empty at the end of the text and before a character no lexeme starts
# with, the only places the skipped text can stop without one; so no
# match fails, and no skipped text is matched twice.
_TOKEN_RE = re.compile(r"""
    ([ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*)
    ([A-Za-z_][A-Za-z0-9_]*|[{}()\[\]:;,/]|==?|[0-9]+(?:\.[0-9]+)?|)
""", re.VERBOSE)

# ASCII classes: str.isdigit and str.isalpha also take other scripts' digits
# and letters, which are no lexeme's characters
_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME_CHARS = _NAME_START | _DIGITS


def _tokenize(text: str) -> tuple:
    """The lexemes of ``text`` and the offset of each: two lists, ending in
    the empty lexeme at offset ``len(text)`` (end of input).

    A lexeme's first character tells its kind: a digit starts an integer
    or a decimal (which has a '.'), a letter or '_' a name or a keyword
    (``KEYWORDS``), anything else is punctuation.  Offsets are summed from
    the lengths of the matched texts, so no match object is made.
    """
    pairs = _TOKEN_RE.findall(text)
    lexemes = [lexeme for _, lexeme in pairs]
    offsets = list(accumulate(map(len, chain.from_iterable(pairs))))[::2]
    end = lexemes.index("")
    if offsets[end] != len(text):
        raise ParseError(f"unexpected character {text[offsets[end]]!r}",
                         *_line_col(_line_starts(text), offsets[end]))
    del lexemes[end + 1:], offsets[end + 1:]
    return lexemes, offsets


def _is_name(lexeme: str) -> bool:
    """Whether a lexeme is an identifier, not a keyword."""
    return lexeme[:1] in _NAME_START and lexeme not in KEYWORDS


def _is_int(lexeme: str) -> bool:
    """Whether a lexeme is an integer, not a decimal."""
    return lexeme[:1] in _DIGITS and "." not in lexeme


def is_name(text: str) -> bool:
    """Whether ``text`` is a name a document can declare: one identifier
    lexeme, not a keyword."""
    return _is_name(text) and _NAME_CHARS.issuperset(text)


def _line_starts(text: str) -> list:
    """The offset at which each line of ``text`` starts."""
    # a line starts one past the newline that ends the line before it
    lengths = map(len, text.split("\n")[:-1])
    return list(accumulate((n + 1 for n in lengths), initial=0))


def _line_col(starts: list, offset: int) -> tuple:
    """1-based (line, column) of an offset, given the line starts; a tab is
    one column."""
    line = bisect.bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


# --- expression AST -----------------------------------------------------------

# Nodes are records (``record.Record``): equal when their fields other
# than ``loc`` are equal, whatever their source locations.  Port values
# (domains, literals, ``prev`` inits, table histories) compare with their
# types, as ``Port`` does, so that ``true`` and ``1`` never match.

def _typed(values: tuple) -> tuple:
    return tuple((type(v), v) for v in values)


class Expr(Record):
    __slots__ = ("loc",)

    def __init__(self, loc: tuple = (0, 0)):
        _set_loc(self, loc)


class Lit(Expr):
    __slots__ = ("value",)

    def __init__(self, loc: tuple = (0, 0), value: bool = True):
        _set_loc(self, loc)
        _set_lit_value(self, value)


class NameRef(Expr):
    """Bare identifier: a boolean port or a definition reference."""
    __slots__ = ("name",)

    def __init__(self, loc: tuple = (0, 0), name: str = ""):
        _set_loc(self, loc)
        _set_ref_name(self, name)


class Not(Expr):
    __slots__ = ("body",)

    def __init__(self, loc: tuple = (0, 0), body: Expr = None):
        _set_loc(self, loc)
        _set_not_body(self, body)


class _Binary(Expr):
    """A node over a ``left`` and a ``right`` operand."""
    __slots__ = ("left", "right")

    def __init__(self, loc: tuple = (0, 0), left=None, right=None):
        _set_loc(self, loc)
        _set_left(self, left)
        _set_right(self, right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Temporal(Expr):
    __slots__ = ("op", "body")

    def __init__(self, loc: tuple = (0, 0), op: str = "always", body: Expr = None):
        # op: always | never | eventually
        _set_loc(self, loc)
        _set_temporal_op(self, op)
        _set_temporal_body(self, body)


class At(Expr):
    __slots__ = ("step", "body")

    def __init__(self, loc: tuple = (0, 0), step: int = 0, body: Expr = None):
        _set_loc(self, loc)
        _set_at_step(self, step)
        _set_at_body(self, body)


class Operand(Record):
    __slots__ = ("loc",)

    def __init__(self, loc: tuple = (0, 0)):
        _set_operand_loc(self, loc)


class PortOperand(Operand):
    __slots__ = ("name",)

    def __init__(self, loc: tuple = (0, 0), name: str = ""):
        _set_operand_loc(self, loc)
        _set_port_name(self, name)


class ValueOperand(Operand):
    """Literal value: bool, int, or an enum identifier (kept as text)."""
    __slots__ = ("value",)

    def __init__(self, loc: tuple = (0, 0), value=None):
        _set_operand_loc(self, loc)
        _set_operand_value(self, value)

    def _values(self) -> tuple:
        return _typed((self.value,))


class PrevOperand(Operand):
    __slots__ = ("name", "init")

    def __init__(self, loc: tuple = (0, 0), name: str = "", init=None):
        _set_operand_loc(self, loc)
        _set_prev_name(self, name)
        _set_prev_init(self, init)

    def _values(self) -> tuple:
        return (self.name, *_typed((self.init,)))


class Cmp(_Binary):
    """``left == right`` over two operands."""
    __slots__ = ()


# A parse builds a node for about every other token, so the nodes set their
# fields through the slots' own descriptors: a third faster than
# ``setfield``, which goes through ``object.__setattr__``'s checks.
_set_loc, _set_operand_loc = Expr.loc.__set__, Operand.loc.__set__
_set_lit_value, _set_ref_name, _set_not_body = (
    Lit.value.__set__, NameRef.name.__set__, Not.body.__set__)
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__
_set_temporal_op, _set_temporal_body = Temporal.op.__set__, Temporal.body.__set__
_set_at_step, _set_at_body = At.step.__set__, At.body.__set__
_set_port_name, _set_operand_value = PortOperand.name.__set__, ValueOperand.value.__set__
_set_prev_name, _set_prev_init = PrevOperand.name.__set__, PrevOperand.init.__set__


# --- document AST ---------------------------------------------------------------

class BernoulliDecl(Record):
    __slots__ = ("p", "loc")

    def __init__(self, p: Fraction = Fraction(0), loc: tuple = (0, 0)):
        self._assign(p, loc)


class TableDecl(Record):
    __slots__ = ("entries", "loc")

    def __init__(self, entries: tuple = (), loc: tuple = (0, 0)):
        # entries: ((history tuple, Fraction), ...)
        self._assign(entries, loc)

    def _values(self) -> tuple:
        return tuple((_typed(hist), w) for hist, w in self.entries)


class PortDecl(Record):
    __slots__ = ("name", "domain", "role", "dist", "loc")

    def __init__(self, name: str, domain: tuple, role: str, dist=None, loc: tuple = (0, 0)):
        # domain () means bool; role is the default role, controlled or
        # uncontrolled; dist is a BernoulliDecl, a TableDecl or None
        self._assign(name, domain, role, dist, loc)

    def _values(self) -> tuple:
        return self.name, _typed(self.domain), self.role, self.dist

    def port(self) -> Port:
        return Port(self.name, self.domain or traces.BOOL)


class ContractDecl(Record):
    __slots__ = ("name", "inputs", "outputs", "assume", "guarantee", "loc")

    def __init__(self, name: str, inputs: Optional[tuple], outputs: Optional[tuple],
                 assume: Expr = None, guarantee: Expr = None, loc: tuple = (0, 0)):
        # inputs and outputs None: default to the document's roles
        self._assign(name, inputs, outputs, assume, guarantee, loc)


class ImplDecl(Record):
    __slots__ = ("name", "inputs", "outputs", "behavior", "loc")

    def __init__(self, name: str, inputs: Optional[tuple], outputs: Optional[tuple],
                 behavior: Expr = None, loc: tuple = (0, 0)):
        self._assign(name, inputs, outputs, behavior, loc)


class ProbContractDecl(Record):
    __slots__ = ("name", "contract", "ports", "loc")

    def __init__(self, name: str, contract: str, ports: tuple = (), loc: tuple = (0, 0)):
        self._assign(name, contract, ports, loc)


class Document(Record):
    __slots__ = ("horizon", "ports", "defs", "contracts", "impls", "probcontracts")

    def __init__(self, horizon: Optional[int] = None, ports: dict = None, defs: dict = None,
                 contracts: dict = None, impls: dict = None, probcontracts: dict = None):
        self._assign(horizon, *({} if d is None else d
                                for d in (ports, defs, contracts, impls, probcontracts)))

    @property
    def is_empty(self) -> bool:
        return (self.horizon is None and not self.ports and not self.defs
                and not self.contracts and not self.impls and not self.probcontracts)


# --- parser -------------------------------------------------------------------

_TEMPORAL_OPS = frozenset(("always", "never", "eventually"))


class _Parser:
    """Recursive descent over the lexemes of one text.

    A token is tested by its text: keywords and punctuation are texts no
    other token has, and any other token's first character tells its kind
    (``_is_name``, ``_is_int``).  The end of input is the empty lexeme.  A
    node's ``loc`` is ``_line_col`` of the offset of its operator (``not``,
    ``and``, ``or``, ``implies``) or else of its first token; a
    diagnostic's is that of the token the parser stopped at.

    ``expr`` reads the ``implies``, ``or``, ``and`` and ``not`` levels of
    an expression in one loop and calls ``atom`` for each operand.
    ``depth`` counts the levels of docs/grammar.ebnf's "Nesting" paragraph:
    one for each expr (each ``implies`` opens one), each unary (one per
    ``not``, and one for the operand) and each atom an atom lies in.
    """

    def __init__(self, text: str):
        self.lexemes, self.offsets = _tokenize(text)
        self.starts = _line_starts(text)
        self.i = 0
        self.depth = 0

    def loc(self, i: int) -> tuple:
        """(line, col) of the token at index ``i``."""
        return _line_col(self.starts, self.offsets[i])

    def error(self, message) -> ParseError:
        return ParseError(message, *self.loc(self.i))

    def found(self) -> str:
        return repr(self.lexemes[self.i] or "end of input")

    def expect(self, lexeme: str) -> None:
        if self.lexemes[self.i] != lexeme:
            raise self.error(f"expected {lexeme!r}, found {self.found()}")
        self.i += 1

    def integer(self) -> int:
        t = self.lexemes[self.i]
        if not _is_int(t):
            raise self.error(f"expected 'int', found {self.found()}")
        self.i += 1
        return int(t)

    def name(self, what: str) -> str:
        t = self.lexemes[self.i]
        if t in KEYWORDS:
            raise self.error(f"{t!r} is a keyword and cannot be used as a {what}")
        if t[:1] not in _NAME_START:
            raise self.error(f"expected {what}, found {self.found()}")
        self.i += 1
        return t

    def comma_list(self, item) -> list:
        """``item (, item)*``."""
        items = [item()]
        while self.lexemes[self.i] == ",":
            self.i += 1
            items.append(item())
        return items

    def port_names(self) -> list:
        return self.comma_list(lambda: self.name("port name"))

    # document --------------------------------------------------------------

    def document(self) -> Document:
        lexemes = self.lexemes
        horizon = None
        ports, defs, cdecls, idecls, pdecls = {}, {}, {}, {}, {}
        declared = set()

        def declare(name, loc):
            if name in declared:
                raise SemanticError(f"duplicate name {name!r}", *loc)
            declared.add(name)

        while True:
            i = self.i
            t = lexemes[i]
            if t == "port":
                d = self.port_decl()
                declare(d.name, d.loc)
                ports[d.name] = d
            elif t == "def":
                self.i = i + 1
                loc = self.loc(self.i)
                name = self.name("definition name")
                declare(name, loc)
                self.expect("=")
                defs[name] = self.expr()
                self.expect(";")
            elif t == "contract":
                d = self.contract_decl()
                declare(d.name, d.loc)
                cdecls[d.name] = d
            elif t == "impl":
                d = self.impl_decl()
                declare(d.name, d.loc)
                idecls[d.name] = d
            elif t == "probcontract":
                d = self.probcontract_decl()
                declare(d.name, d.loc)
                pdecls[d.name] = d
            elif t == "horizon":
                if horizon is not None:
                    raise SemanticError("horizon declared twice", *self.loc(i))
                self.i = i + 1
                at_num = self.i
                horizon = self.integer()
                if horizon < 1:
                    raise SemanticError("horizon must be at least 1", *self.loc(at_num))
                self.expect(";")
            elif t:
                raise self.error(f"expected a declaration, found {self.found()}")
            else:
                break

        return Document(horizon, ports, defs, cdecls, idecls, pdecls)

    def port_decl(self) -> PortDecl:
        loc = self.loc(self.i)
        self.i += 1
        at_name = self.i
        name = self.name("port name")
        self.expect(":")
        t = self.lexemes[self.i]
        if t == "bool":
            self.i += 1
            domain = ()
        elif t == "{":
            self.i += 1
            values = self.comma_list(self.value)
            self.expect("}")
            if len(set(values)) != len(values):
                raise SemanticError(f"duplicate values in domain of {name!r}",
                                    *self.loc(at_name))
            domain = tuple(values)
        else:
            raise self.error("expected 'bool' or a '{...}' value list")
        role = self.lexemes[self.i]
        if role != "controlled" and role != "uncontrolled":
            raise self.error("expected 'controlled' or 'uncontrolled'")
        self.i += 1
        dist = None
        if self.lexemes[self.i] == "prob":
            self.i += 1
            dist = self.dist_decl()
        self.expect(";")
        return PortDecl(name, domain, role, dist, loc)

    def value(self):
        t = self.lexemes[self.i]
        if t == "true":
            v = True
        elif t == "false":
            v = False
        elif _is_int(t):
            v = int(t)
        elif _is_name(t):
            v = t
        else:
            raise self.error(f"expected a value, found {self.found()}")
        self.i += 1
        return v

    def rational(self) -> Fraction:
        t = self.lexemes[self.i]
        if t[:1] not in _DIGITS:
            raise self.error(f"expected a probability, found {self.found()}")
        self.i += 1
        if "." in t:
            return Fraction(t)
        if self.lexemes[self.i] != "/":
            return Fraction(int(t))
        self.i += 1
        at_den = self.i
        den = self.integer()
        if den == 0:
            raise SemanticError("zero denominator", *self.loc(at_den))
        return Fraction(int(t), den)

    def dist_decl(self):
        loc = self.loc(self.i)
        t = self.lexemes[self.i]
        if t == "bernoulli":
            self.i += 1
            self.expect("(")
            p = self.rational()
            self.expect(")")
            if not 0 <= p <= 1:
                raise SemanticError(f"probability {p} outside [0, 1]", *loc)
            return BernoulliDecl(p, loc)
        if t == "table":
            self.i += 1
            self.expect("{")
            entries = []
            while self.lexemes[self.i] != "}":
                hist = self.history_literal()
                self.expect(":")
                w = self.rational()
                self.expect(";")
                entries.append((hist, w))
            self.i += 1
            return TableDecl(tuple(entries), loc)
        raise self.error("expected 'bernoulli' or 'table'")

    def history_literal(self) -> tuple:
        self.expect("[")
        values = self.comma_list(self.value)
        self.expect("]")
        return tuple(values)

    def io_clause(self):
        # stored sorted so parse(print(doc)) is structurally stable
        inputs, outputs = None, None
        while True:
            kw = self.lexemes[self.i]
            if kw != "input" and kw != "output":
                return inputs, outputs
            self.i += 1
            names = tuple(self.port_names())
            self.expect(";")
            if kw == "input":
                inputs = tuple(sorted((inputs or ()) + names))
            else:
                outputs = tuple(sorted((outputs or ()) + names))

    def contract_decl(self) -> ContractDecl:
        loc = self.loc(self.i)
        self.i += 1
        name = self.name("contract name")
        self.expect("{")
        inputs, outputs = self.io_clause()
        self.expect("assume")
        assume = self.expr()
        self.expect(";")
        self.expect("guarantee")
        guarantee = self.expr()
        self.expect(";")
        self.expect("}")
        return ContractDecl(name, inputs, outputs, assume, guarantee, loc)

    def impl_decl(self) -> ImplDecl:
        loc = self.loc(self.i)
        self.i += 1
        name = self.name("implementation name")
        self.expect("{")
        inputs, outputs = self.io_clause()
        self.expect("behavior")
        behavior = self.expr()
        self.expect(";")
        self.expect("}")
        return ImplDecl(name, inputs, outputs, behavior, loc)

    def probcontract_decl(self) -> ProbContractDecl:
        loc = self.loc(self.i)
        self.i += 1
        name = self.name("probabilistic contract name")
        self.expect("{")
        self.expect("contract")
        base = self.name("contract name")
        self.expect(";")
        ports = ()
        if self.lexemes[self.i] == "ports":
            self.i += 1
            ports = tuple(sorted(self.port_names()))
            self.expect(";")
        self.expect("}")
        return ProbContractDecl(name, base, ports, loc)

    # expressions -------------------------------------------------------------

    def expr(self) -> Expr:
        """``implies`` (to the right) over ``or`` over ``and`` (to the left)
        over ``not`` over atoms, read in one loop."""
        lexemes, offsets, starts = self.lexemes, self.offsets, self.starts
        entry = self.depth
        depth = entry + 1
        if depth > MAX_NESTING:
            raise self.error("expression nested too deeply")
        implies = None      # (loc, left side) of each open `implies`
        disj = conj = or_loc = and_loc = None
        while True:
            # a unary: one level for each `not` and one for the operand
            level = depth + 1
            if level > MAX_NESTING:
                raise self.error("expression nested too deeply")
            if lexemes[self.i] == "not":
                nots = []
                while lexemes[self.i] == "not":
                    nots.append(_line_col(starts, offsets[self.i]))
                    self.i += 1
                    level += 1
                    if level > MAX_NESTING:
                        raise self.error("expression nested too deeply")
                self.depth = level
                x = self.atom()
                while nots:
                    x = Not(nots.pop(), x)
            else:
                self.depth = level
                x = self.atom()
            conj = x if and_loc is None else And(and_loc, conj, x)
            i = self.i
            t = lexemes[i]
            if t == "and":
                and_loc = _line_col(starts, offsets[i])
                self.i = i + 1
                continue
            disj = conj if or_loc is None else Or(or_loc, disj, conj)
            and_loc = None
            if t == "or":
                or_loc = _line_col(starts, offsets[i])
                self.i = i + 1
                continue
            if t != "implies":
                break
            # the right side is an expr of its own
            or_loc = None
            if implies is None:
                implies = []
            implies.append((_line_col(starts, offsets[i]), disj))
            self.i = i + 1
            depth += 1
            if depth > MAX_NESTING:
                raise self.error("expression nested too deeply")
        while implies:
            loc, left = implies.pop()
            disj = Implies(loc, left, disj)
        self.depth = entry
        return disj

    def atom(self) -> Expr:
        depth = self.depth + 1
        if depth > MAX_NESTING:
            raise self.error("expression nested too deeply")
        self.depth = depth
        lexemes, i = self.lexemes, self.i
        t = lexemes[i]
        loc = _line_col(self.starts, self.offsets[i])
        if t[:1] in _NAME_START and t not in KEYWORDS and lexemes[i + 1] != "==":
            # a bare name (_is_name, inlined): the commonest atom
            self.i = i + 1
            node = NameRef(loc, t)
        elif t == "(":
            self.i = i + 1
            node = self.expr()
            self.expect(")")
        elif t in _TEMPORAL_OPS:
            self.i = i + 1
            self.expect("(")
            node = Temporal(loc, t, self.expr())
            self.expect(")")
        elif t == "at":
            self.i = i + 1
            self.expect("(")
            step = self.integer()
            self.expect(",")
            body = self.expr()
            self.expect(")")
            node = At(loc, step, body)
        else:
            left = self.operand(loc, "an expression")
            if lexemes[self.i] == "==":
                self.i += 1
                node = Cmp(loc, left, self.operand(self.loc(self.i), "a value or port"))
            # a bare operand must be usable as a step predicate
            elif isinstance(left, PrevOperand):
                node = Cmp(loc, left, ValueOperand(loc, True))
            elif isinstance(left, ValueOperand) and isinstance(left.value, bool):
                node = Lit(loc, left.value)
            else:
                raise ParseError("a bare value is not a predicate", *loc)
        self.depth = depth - 1
        return node

    def operand(self, loc: tuple, what: str):
        t = self.lexemes[self.i]
        if t == "prev":
            self.i += 1
            self.expect("(")
            name = self.name("port name")
            self.expect(",")
            self.expect("init")
            self.expect("=")
            init = self.value()
            self.expect(")")
            return PrevOperand(loc, name, init)
        if _is_name(t):
            self.i += 1
            return PortOperand(loc, t)
        if t == "true" or t == "false" or _is_int(t):
            return ValueOperand(loc, self.value())
        raise self.error(f"expected {what}, found {self.found()}")


def parse(text: str) -> Document:
    """Parse a document; raises a located SpecLangError subclass on any problem."""
    doc = _Parser(text).document()
    _resolve(doc)
    return doc


def parse_expr(text: str) -> Expr:
    """Parse a single trace expression (no trailing input allowed)."""
    p = _Parser(text)
    e = p.expr()
    if p.lexemes[p.i]:
        raise p.error(f"expected 'eof', found {p.found()}")
    return e


# --- resolution ---------------------------------------------------------------

def _resolve(doc: Document) -> None:
    """Document-wide name and type checks; raises located diagnostics.

    Definitions, contracts and implementations are compiled against the
    signature of every declared port, and the step functions are dropped.
    """
    ports = [decl.port() for decl in doc.ports.values()]
    for port, decl in zip(ports, doc.ports.values()):
        if decl.dist is not None:
            _check_dist_decl(port, decl.dist, doc.horizon)
    compiler = _Compiler(Signature.of(uncontrolled=ports), doc.horizon, doc.defs)
    for name in doc.defs:
        compiler.definition(name)
    for decl in doc.contracts.values():
        _check_io(decl, doc)
        compiler.compile(decl.assume)
        compiler.compile(decl.guarantee)
    for decl in doc.impls.values():
        _check_io(decl, doc)
        compiler.compile(decl.behavior)
    for decl in doc.probcontracts.values():
        if decl.contract not in doc.contracts:
            raise ResolveError(f"undefined contract {decl.contract!r}", *decl.loc)
        for pname in decl.ports:
            if pname not in doc.ports:
                raise ResolveError(f"undefined port {pname!r}", *decl.loc)
            if doc.ports[pname].dist is None:
                raise SemanticError(
                    f"port {pname!r} has no declared distribution", *decl.loc)
        if len(set(decl.ports)) != len(decl.ports):
            raise SemanticError("repeated probabilistic port", *decl.loc)


def _check_dist_decl(port: Port, d, horizon: Optional[int]) -> None:
    if isinstance(d, BernoulliDecl):
        if not port.is_boolean:
            raise SemanticError(
                f"bernoulli distribution needs a boolean port, {port.name!r} is not", *d.loc)
        return
    total = Fraction(0)
    for hist, w in d.entries:
        if horizon is not None and len(hist) != horizon:
            raise SemanticError(
                f"history {list(hist)} has length {len(hist)}, horizon is {horizon}", *d.loc)
        for v in hist:
            if traces.domain_index(port.domain, v) is None:
                raise SemanticError(
                    f"value {v!r} not in domain of port {port.name!r}", *d.loc)
        if w < 0:
            raise SemanticError("negative probability", *d.loc)
        total += w
    if total != 1:
        raise SemanticError(f"table weights sum to {total}, not 1", *d.loc)


def _check_io(decl, doc: Document) -> None:
    seen = set()
    for group in (decl.inputs, decl.outputs):
        for pname in group or ():
            if pname not in doc.ports:
                raise ResolveError(f"undefined port {pname!r}", *decl.loc)
            if pname in seen:
                raise SemanticError(f"port {pname!r} listed twice", *decl.loc)
            seen.add(pname)


# --- compiling expressions ----------------------------------------------------

# a implies b is b or not a, which on booleans is b >= a: one pass, no temporary
_CONNECTIVES = {And: np.logical_and, Or: np.logical_or,
                Implies: lambda a, b: np.greater_equal(b, a)}

_TEMPORAL = {
    "always": lambda steps: functools.reduce(np.logical_and, steps),
    "never": lambda steps: ~functools.reduce(np.logical_or, steps),
    "eventually": lambda steps: functools.reduce(np.logical_or, steps),
}


class _Once:
    """The step function of a step-invariant node: one value at every step,
    computed on first use and then returned as the same object."""

    invariant = True

    def __init__(self, fn):
        self.fn, self.done, self.value = fn, False, None

    def __call__(self, t):
        if not self.done:
            self.value, self.done = self.fn(), True
        return self.value


def _invariant(step) -> bool:
    return getattr(step, "invariant", False)


def _reading(ports: tuple, step):
    """A comparison's step function: step-invariant when every port it
    reads has one value."""
    return _Once(lambda: step(0)) if all(len(p.domain) == 1 for p in ports) else step


class _Definition:
    """A definition's step function, evaluated once per step.

    On first use it is evaluated at every step, after every definition it
    reaches that is not yet evaluated, deepest first.  A reference inside
    a body then only reads stored values, so a chain of definitions of
    any length nests no calls.  It is step-invariant when its body is.
    """

    def __init__(self, body, h: Optional[int], refs: list):
        self.body, self.h, self.refs = body, h, refs
        self.invariant = _invariant(body)
        self.values = None

    def __call__(self, t):
        if self.values is None:
            stack = [self]
            while stack:
                d = stack[-1]
                pending = [r for r in d.refs if r.values is None]
                if pending:
                    stack += pending
                    continue
                stack.pop()
                if d.values is None:
                    d.values = [d.body(u) for u in range(d.h)]
        return self.values[t]


class _Compiler:
    """Checks expressions against one signature and compiles them.

    ``compile(e)`` returns a step function: step ``t`` to a boolean array
    on the axis view of ``traces.slot_values``, or a numpy scalar where no
    port is read.  Every name, type and step check happens here; the step
    functions check nothing.  A definition is compiled once and evaluated
    once per step.  A step-invariant node (a temporal operator, ``at``, a
    literal, a comparison of ports of one value, or a negation or
    connective of invariant operands) is evaluated once in all and gives
    the same object at every step.  With ``h`` None (a document without a
    horizon) step bounds go unchecked and the step functions must not be
    called.
    """

    def __init__(self, sig: Signature, h: Optional[int], defs: dict):
        self.sig = sig
        self.h = h
        self.defs = defs or {}
        self.ports = {p.name: p for p in sig.ports}
        self._compiled = {}

    def definition(self, name: str):
        """The step function of a definition, evaluated once per step.

        The definitions it reaches are compiled first, deepest first, so a
        long chain of definitions does not nest compile calls.  Each body is
        walked once for its references (``references``).
        """
        if name in self._compiled:
            return self._compiled[name]
        refs = self.references(name)
        path, on_path = [(name, refs, refs[:])], {name}
        while path:
            current, refs, pending = path[-1]
            if not pending:
                path.pop()
                on_path.discard(current)
                reached = dict.fromkeys(r.name for r in refs)
                self._compiled[current] = _Definition(
                    self.compile(self.defs[current]), self.h,
                    [self._compiled[n] for n in reached])
                continue
            ref = pending.pop()
            if ref.name in on_path:
                raise SemanticError(f"definition cycle through {ref.name!r}", *ref.loc)
            if ref.name not in self._compiled:
                refs = self.references(ref.name)
                path.append((ref.name, refs, refs[:]))
                on_path.add(ref.name)
        return self._compiled[name]

    def references(self, name: str) -> list:
        """The bare names in a definition's body that refer to definitions,
        right operands before left ones."""
        refs, stack, defs = [], [self.defs[name]], self.defs
        while stack:
            e = stack.pop()
            t = type(e)
            if t is NameRef:
                if e.name in defs:
                    refs.append(e)
            elif t is Not or t is Temporal or t is At:
                stack.append(e.body)
            elif t is not Cmp and t is not Lit:
                stack += (e.left, e.right)
        return refs

    def compile(self, e: Expr):
        """Checks ``e`` and returns its step function."""
        return _RULES[type(e)](self, e)

    def literal(self, e: Lit):
        value = np.bool_(e.value)
        return _Once(lambda: value)

    def name(self, e: NameRef):
        if e.name in self.defs:
            return self.definition(e.name)
        p = self.ports.get(e.name)
        if p is None:
            raise ResolveError(f"undefined name {e.name!r}", *e.loc)
        if not p.is_boolean:
            raise SemanticError(
                f"port {e.name!r} is not boolean; compare it against a value", *e.loc)
        sig, h, name = self.sig, self.h, e.name
        return lambda t: traces.slot_values(sig, h, name, t) == 1

    def negation(self, e: Not):
        body = self.compile(e.body)
        if _invariant(body):
            return _Once(lambda: ~body(0))
        return lambda t: ~body(t)

    def connective(self, e):
        left, right, op = self.compile(e.left), self.compile(e.right), _CONNECTIVES[type(e)]
        if _invariant(left) and _invariant(right):
            return _Once(lambda: traces.combine(op, left(0), right(0)))
        return lambda t: traces.combine(op, left(t), right(t))

    def temporal(self, e: Temporal):
        body, combine, h = self.compile(e.body), _TEMPORAL[e.op], self.h
        # an invariant body has one value, which the operator need not repeat
        steps = 1 if _invariant(body) else h
        return _Once(lambda: combine([body(u) for u in range(steps)]))

    def at(self, e: At):
        if self.h is not None and not 0 <= e.step < self.h:
            raise SemanticError(f"step {e.step} outside horizon 0..{self.h - 1}", *e.loc)
        body, step = self.compile(e.body), e.step
        return body if _invariant(body) else _Once(lambda: body(step))

    def operand(self, op):
        """``(port, step function of its domain position)`` for an operand
        that reads a port, else None: a literal, or an identifier that names
        no port and so must be a value of the other side's domain."""
        if isinstance(op, ValueOperand):
            return None
        p = self.ports.get(op.name)
        sig, h, name = self.sig, self.h, op.name
        if isinstance(op, PortOperand):
            return None if p is None else (p, lambda t: traces.slot_values(sig, h, name, t))
        if p is None:
            raise ResolveError(f"undefined port {name!r}", *op.loc)
        first = traces.domain_index(p.domain, op.init)
        if first is None:
            raise SemanticError(
                f"init value {op.init!r} not in domain of port {name!r}", *op.loc)
        first = np.int64(first)
        return p, lambda t: first if t == 0 else traces.slot_values(sig, h, name, t - 1)

    def comparison(self, e: Cmp):
        left, right = self.operand(e.left), self.operand(e.right)
        if left and right:
            (pl, read_left), (pr, read_right) = left, right
            if not traces.same_domain(pl.domain, pr.domain):
                raise SemanticError(
                    f"ports {pl.name!r} and {pr.name!r} have different domains", *e.loc)
            return _reading((pl, pr), lambda t: read_left(t) == read_right(t))
        if not (left or right):
            for op in (e.left, e.right):
                if isinstance(op, PortOperand):
                    raise ResolveError(f"undefined name {op.name!r}", *op.loc)
            raise SemanticError("comparison needs at least one port", *e.loc)
        (p, read), lit = (left, e.right) if left else (right, e.left)
        value = lit.name if isinstance(lit, PortOperand) else lit.value
        index = traces.domain_index(p.domain, value)
        if index is None:
            if isinstance(lit, PortOperand):
                raise ResolveError(f"undefined name {value!r}", *lit.loc)
            raise SemanticError(f"value {value!r} not in domain of port {p.name!r}", *lit.loc)
        return _reading((p,), lambda t: read(t) == index)


_RULES = {Lit: _Compiler.literal, NameRef: _Compiler.name, Not: _Compiler.negation,
          And: _Compiler.connective, Or: _Compiler.connective,
          Implies: _Compiler.connective, Temporal: _Compiler.temporal, At: _Compiler.at,
          Cmp: _Compiler.comparison}


def step_invariant(e: Expr, sig: Signature, h, defs: dict = None) -> bool:
    """Whether ``e`` has one value at every step, as the compiler decides
    it: a literal, a temporal operator, ``at``, a comparison of ports of one
    value, or a negation or connective of such.  ``e`` is checked against
    ``sig`` but not evaluated."""
    return _invariant(_Compiler(sig, traces._hlen(h), defs).compile(e))


def denote(e: Expr, sig: Signature, h, defs: dict = None) -> Assertion:
    """The runs over ``sig`` satisfying ``e`` at every step.

    An ``and`` holds at every step exactly when each side does, so each
    conjunct of ``e``'s top-level ``and`` tree is its own factor of the
    assertion, where the assertion keeps its factors apart
    (``traces.kept_apart``).
    """
    hh = traces._hlen(h)
    # the compiler is this call's own, and nothing writes to its values
    compiler = _Compiler(sig, hh, defs)
    parts = _conjuncts(e) if traces.kept_apart(traces.space_of(sig, hh)) else (e,)
    return traces.from_step_predicate(sig, hh, *map(compiler.compile, parts))


def _conjuncts(e: Expr) -> list:
    """The operands of ``e``'s top-level ``and`` tree, left to right."""
    out, stack = [], [e]
    while stack:
        x = stack.pop()
        if type(x) is And:
            stack += (x.right, x.left)
        else:
            out.append(x)
    return out


# --- building core objects ------------------------------------------------------

def _doc_horizon(doc: Document) -> int:
    if doc.horizon is None:
        raise SemanticError("document declares no horizon")
    return doc.horizon


def signature_of(doc: Document, decl) -> Signature:
    """The signature of a contract or implementation declaration.

    With no input/output clause, every declared port participates under
    its default document role.
    """
    if decl.inputs is None and decl.outputs is None:
        ins = tuple(n for n, d in doc.ports.items() if d.role == "uncontrolled")
        outs = tuple(n for n, d in doc.ports.items() if d.role == "controlled")
    else:
        ins = decl.inputs or ()
        outs = decl.outputs or ()
    return Signature.of(
        controlled=tuple(doc.ports[n].port() for n in outs),
        uncontrolled=tuple(doc.ports[n].port() for n in ins))


def build_contract(doc: Document, name: str) -> _contracts.Contract:
    decl = doc.contracts.get(name)
    if decl is None:
        raise ResolveError(f"undefined contract {name!r}")
    h = _doc_horizon(doc)
    sig = signature_of(doc, decl)
    return _contracts.contract(denote(decl.assume, sig, h, doc.defs),
                               denote(decl.guarantee, sig, h, doc.defs))


def build_impl(doc: Document, name: str) -> Assertion:
    decl = doc.impls.get(name)
    if decl is None:
        raise ResolveError(f"undefined implementation {name!r}")
    h = _doc_horizon(doc)
    sig = signature_of(doc, decl)
    return denote(decl.behavior, sig, h, doc.defs)


def build_port_distribution(doc: Document, name: str) -> _prob.Distribution:
    decl = doc.ports[name]
    h = _doc_horizon(doc)
    port = decl.port()
    d = decl.dist
    if d is None:
        raise SemanticError(f"port {name!r} has no declared distribution", *decl.loc)
    if isinstance(d, BernoulliDecl):
        return _prob.bernoulli_iid(port, d.p, h)
    table = {}
    for hist, w in d.entries:
        omega = ((name, tuple(hist)),)
        table[omega] = table.get(omega, Fraction(0)) + w
    return _prob.from_table((port,), h, table)


def build_probcontract(doc: Document, name: str) -> _prob.ProbContract:
    decl = doc.probcontracts.get(name)
    if decl is None:
        raise ResolveError(f"undefined probabilistic contract {name!r}")
    base = build_contract(doc, decl.contract)
    h = _doc_horizon(doc)
    dist = _prob.point_mass_empty(h)
    for pname in decl.ports:
        dist = _prob.product_dist(dist, build_port_distribution(doc, pname))
    try:
        return _prob.ProbContract(base, decl.ports, dist)
    except (SignatureError, DistributionError) as exc:
        raise SemanticError(str(exc), *decl.loc) from exc


def lookup_probcontract(doc: Document, name: str) -> _prob.ProbContract:
    """The probabilistic contract named ``name``; a plain contract of that
    name is taken as probability-free."""
    if name in doc.probcontracts:
        return build_probcontract(doc, name)
    if name in doc.contracts:
        c = build_contract(doc, name)
        return _prob.ProbContract(c, (), _prob.point_mass_empty(c.horizon))
    raise ResolveError(f"undefined contract {name!r}")


# --- printing -------------------------------------------------------------------

_PREC = {Implies: 1, Or: 2, And: 3, Not: 4}


def _fmt_value(v) -> str:
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


def _fmt_operand(op) -> str:
    if isinstance(op, PrevOperand):
        return f"prev({op.name}, init={_fmt_value(op.init)})"
    if isinstance(op, PortOperand):
        return op.name
    return _fmt_value(op.value)


def format_expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, Lit):
        return "true" if e.value else "false"
    if isinstance(e, NameRef):
        return e.name
    if isinstance(e, Temporal):
        return f"{e.op}({format_expr(e.body)})"
    if isinstance(e, At):
        return f"at({e.step}, {format_expr(e.body)})"
    if isinstance(e, Cmp):
        return f"{_fmt_operand(e.left)} == {_fmt_operand(e.right)}"
    if isinstance(e, Not):
        s = f"not {format_expr(e.body, _PREC[Not])}"
        prec = _PREC[Not]
    elif isinstance(e, And):
        s = f"{format_expr(e.left, _PREC[And])} and {format_expr(e.right, _PREC[And] + 1)}"
        prec = _PREC[And]
    elif isinstance(e, Or):
        s = f"{format_expr(e.left, _PREC[Or])} or {format_expr(e.right, _PREC[Or] + 1)}"
        prec = _PREC[Or]
    elif isinstance(e, Implies):
        s = f"{format_expr(e.left, _PREC[Implies] + 1)} implies {format_expr(e.right, _PREC[Implies])}"
        prec = _PREC[Implies]
    else:
        raise AssertionError(f"unhandled node {e!r}")
    return f"({s})" if prec < parent_prec else s


def _fmt_dist(d) -> str:
    if isinstance(d, BernoulliDecl):
        return f"bernoulli({d.p})"
    parts = []
    for hist, w in d.entries:
        parts.append(f"[{', '.join(_fmt_value(v) for v in hist)}]: {w};")
    return "table { " + " ".join(parts) + " }"


def print_document(doc: Document) -> str:
    """Deterministic text form: categories in order, names sorted."""
    out = []
    if doc.horizon is not None:
        out.append(f"horizon {doc.horizon};")
        out.append("")
    for name in sorted(doc.ports):
        d = doc.ports[name]
        dom = "bool" if not d.domain else "{" + ", ".join(_fmt_value(v) for v in d.domain) + "}"
        dist = f" prob {_fmt_dist(d.dist)}" if d.dist is not None else ""
        out.append(f"port {name} : {dom} {d.role}{dist};")
    if doc.ports:
        out.append("")
    for name in sorted(doc.defs):
        out.append(f"def {name} = {format_expr(doc.defs[name])};")
    if doc.defs:
        out.append("")
    for name in sorted(doc.contracts):
        d = doc.contracts[name]
        out.append(f"contract {name} {{")
        out.extend(_fmt_io(d))
        out.append(f"  assume {format_expr(d.assume)};")
        out.append(f"  guarantee {format_expr(d.guarantee)};")
        out.append("}")
        out.append("")
    for name in sorted(doc.impls):
        d = doc.impls[name]
        out.append(f"impl {name} {{")
        out.extend(_fmt_io(d))
        out.append(f"  behavior {format_expr(d.behavior)};")
        out.append("}")
        out.append("")
    for name in sorted(doc.probcontracts):
        d = doc.probcontracts[name]
        out.append(f"probcontract {name} {{")
        out.append(f"  contract {d.contract};")
        if d.ports:
            out.append(f"  ports {', '.join(d.ports)};")
        out.append("}")
        out.append("")
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n" if out else ""


def _fmt_io(d) -> list:
    return [f"  {kw} {', '.join(sorted(names))};"
            for kw, names in (("input", d.inputs), ("output", d.outputs)) if names]
