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
import operator
import re
from fractions import Fraction
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
from .record import Record, setfield
from .traces import Assertion, Port, Signature

MAX_NESTING = 80

KEYWORDS = frozenset("""
    horizon port bool controlled uncontrolled prob bernoulli table
    def contract impl probcontract input output assume guarantee behavior
    ports and or not implies always never eventually at prev init true false
""".split())


# --- tokens -------------------------------------------------------------------

# One match per lexeme.  Whitespace and comments between tokens are one
# ``skip`` match; any character no other group takes is ``bad``.
_TOKEN_RE = re.compile(r"""
      (?P<skip>(?:[ \t\r\n]+|\#[^\n]*)+)
    | (?P<DECIMAL>[0-9]+\.[0-9]+)
    | (?P<INT>[0-9]+)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<PUNCT>==|[{}()\[\]:;,=/])
    | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

_NEWLINE_RE = re.compile("\n")


def _tokenize(text: str) -> list:
    """The tokens of ``text`` as ``(kind, text, offset)`` tuples, ending in EOF.

    ``kind`` is IDENT, KEYWORD, INT, DECIMAL, PUNCT or EOF; ``offset`` is
    the index of the token's first character in ``text``.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        lexeme = m.group()
        if kind == "IDENT" and lexeme in KEYWORDS:
            kind = "KEYWORD"
        elif kind == "bad":
            raise ParseError(f"unexpected character {lexeme!r}",
                             *_line_col(_line_starts(text), m.start()))
        tokens.append((kind, lexeme, m.start()))
    tokens.append(("EOF", "", len(text)))
    return tokens


KIND, TEXT, OFFSET = 0, 1, 2    # the fields of a token


def _line_starts(text: str) -> list:
    """The offset at which each line of ``text`` starts."""
    return [0, *(m.end() for m in _NEWLINE_RE.finditer(text))]


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
        setfield(self, "loc", loc)


class Lit(Expr):
    __slots__ = ("value",)

    def __init__(self, loc: tuple = (0, 0), value: bool = True):
        setfield(self, "loc", loc)
        setfield(self, "value", value)


class NameRef(Expr):
    """Bare identifier: a boolean port or a definition reference."""
    __slots__ = ("name",)

    def __init__(self, loc: tuple = (0, 0), name: str = ""):
        setfield(self, "loc", loc)
        setfield(self, "name", name)


class Not(Expr):
    __slots__ = ("body",)

    def __init__(self, loc: tuple = (0, 0), body: Expr = None):
        setfield(self, "loc", loc)
        setfield(self, "body", body)


class _Binary(Expr):
    """A node over a ``left`` and a ``right`` operand."""
    __slots__ = ("left", "right")

    def __init__(self, loc: tuple = (0, 0), left=None, right=None):
        setfield(self, "loc", loc)
        setfield(self, "left", left)
        setfield(self, "right", right)


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
        setfield(self, "loc", loc)
        setfield(self, "op", op)
        setfield(self, "body", body)


class At(Expr):
    __slots__ = ("step", "body")

    def __init__(self, loc: tuple = (0, 0), step: int = 0, body: Expr = None):
        setfield(self, "loc", loc)
        setfield(self, "step", step)
        setfield(self, "body", body)


class Operand(Record):
    __slots__ = ("loc",)

    def __init__(self, loc: tuple = (0, 0)):
        setfield(self, "loc", loc)


class PortOperand(Operand):
    __slots__ = ("name",)

    def __init__(self, loc: tuple = (0, 0), name: str = ""):
        setfield(self, "loc", loc)
        setfield(self, "name", name)


class ValueOperand(Operand):
    """Literal value: bool, int, or an enum identifier (kept as text)."""
    __slots__ = ("value",)

    def __init__(self, loc: tuple = (0, 0), value=None):
        setfield(self, "loc", loc)
        setfield(self, "value", value)

    def _values(self) -> tuple:
        return _typed((self.value,))


class PrevOperand(Operand):
    __slots__ = ("name", "init")

    def __init__(self, loc: tuple = (0, 0), name: str = "", init=None):
        setfield(self, "loc", loc)
        setfield(self, "name", name)
        setfield(self, "init", init)

    def _values(self) -> tuple:
        return (self.name, *_typed((self.init,)))


class Cmp(_Binary):
    """``left == right`` over two operands."""
    __slots__ = ()


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

class _Parser:
    """Recursive descent over the tokens of one text.

    Line and column are computed from the text's line starts, only for a
    diagnostic or a node's ``loc``.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.starts = None
        self.i = 0
        self.tok = self.tokens[0]
        self.depth = 0

    def where(self, tok) -> tuple:
        """(line, col) of a token."""
        if self.starts is None:
            self.starts = _line_starts(self.text)
        return _line_col(self.starts, tok[OFFSET])

    def loc(self) -> tuple:
        return self.where(self.tok)

    def error(self, message):
        raise ParseError(message, *self.loc())

    def found(self) -> str:
        return repr(self.tok[TEXT] or "end of input")

    def advance(self) -> tuple:
        t = self.tok
        if t[KIND] != "EOF":
            self.i += 1
            self.tok = self.tokens[self.i]
        return t

    def at(self, kind, text=None) -> bool:
        t = self.tok
        return t[KIND] == kind and (text is None or t[TEXT] == text)

    def at_kw(self, *words) -> bool:
        t = self.tok
        return t[KIND] == "KEYWORD" and t[TEXT] in words

    def expect(self, kind, text=None) -> tuple:
        if not self.at(kind, text):
            want = text or kind.lower()
            raise self.error(f"expected {want!r}, found {self.found()}")
        return self.advance()

    def expect_kw(self, word) -> tuple:
        if not self.at_kw(word):
            raise self.error(f"expected {word!r}, found {self.found()}")
        return self.advance()

    def ident(self, what="name") -> tuple:
        kind, text, _ = self.tok
        if kind == "KEYWORD":
            raise self.error(f"{text!r} is a keyword and cannot be used as a {what}")
        if kind != "IDENT":
            raise self.error(f"expected {what}, found {self.found()}")
        return self.advance()

    def comma_list(self, item) -> list:
        """``item (, item)*``."""
        items = [item()]
        while self.at("PUNCT", ","):
            self.advance()
            items.append(item())
        return items

    def port_names(self) -> list:
        return self.comma_list(lambda: self.ident("port name")[TEXT])

    # document --------------------------------------------------------------

    def document(self) -> Document:
        horizon = None
        ports, defs, cdecls, idecls, pdecls = {}, {}, {}, {}, {}

        def declare(name, loc):
            if name in ports or name in defs or name in cdecls or name in idecls \
                    or name in pdecls:
                raise SemanticError(f"duplicate name {name!r}", *loc)

        while not self.at("EOF"):
            if self.at_kw("horizon"):
                t = self.advance()
                if horizon is not None:
                    raise SemanticError("horizon declared twice", *self.where(t))
                num = self.expect("INT")
                horizon = int(num[TEXT])
                if horizon < 1:
                    raise SemanticError("horizon must be at least 1", *self.where(num))
                self.expect("PUNCT", ";")
            elif self.at_kw("port"):
                d = self.port_decl()
                declare(d.name, d.loc)
                ports[d.name] = d
            elif self.at_kw("def"):
                self.advance()
                name = self.ident("definition name")
                declare(name[TEXT], self.where(name))
                self.expect("PUNCT", "=")
                body = self.expr()
                self.expect("PUNCT", ";")
                defs[name[TEXT]] = body
            elif self.at_kw("contract"):
                d = self.contract_decl()
                declare(d.name, d.loc)
                cdecls[d.name] = d
            elif self.at_kw("impl"):
                d = self.impl_decl()
                declare(d.name, d.loc)
                idecls[d.name] = d
            elif self.at_kw("probcontract"):
                d = self.probcontract_decl()
                declare(d.name, d.loc)
                pdecls[d.name] = d
            else:
                raise self.error(
                    f"expected a declaration, found {self.found()}")

        doc = Document(horizon, ports, defs, cdecls, idecls, pdecls)
        _resolve(doc)
        return doc

    def port_decl(self) -> PortDecl:
        kw = self.expect_kw("port")
        name = self.ident("port name")
        self.expect("PUNCT", ":")
        if self.at_kw("bool"):
            self.advance()
            domain = ()
        elif self.at("PUNCT", "{"):
            self.advance()
            values = self.comma_list(self.value_token)
            self.expect("PUNCT", "}")
            if len(set(values)) != len(values):
                raise SemanticError(f"duplicate values in domain of {name[TEXT]!r}",
                                    *self.where(name))
            domain = tuple(values)
        else:
            raise self.error("expected 'bool' or a '{...}' value list")
        if self.at_kw("controlled", "uncontrolled"):
            role = self.advance()[TEXT]
        else:
            raise self.error("expected 'controlled' or 'uncontrolled'")
        dist = None
        if self.at_kw("prob"):
            self.advance()
            dist = self.dist_decl()
        self.expect("PUNCT", ";")
        return PortDecl(name[TEXT], domain, role, dist, self.where(kw))

    def value_token(self):
        t = self.tok
        if self.at_kw("true"):
            self.advance()
            return True
        if self.at_kw("false"):
            self.advance()
            return False
        if t[KIND] == "INT":
            self.advance()
            return int(t[TEXT])
        if t[KIND] == "IDENT":
            self.advance()
            return t[TEXT]
        raise self.error(f"expected a value, found {self.found()}")

    def rational(self) -> Fraction:
        t = self.tok
        if t[KIND] == "DECIMAL":
            self.advance()
            return Fraction(t[TEXT])
        if t[KIND] == "INT":
            self.advance()
            num = int(t[TEXT])
            if self.at("PUNCT", "/"):
                self.advance()
                den = self.expect("INT")
                if int(den[TEXT]) == 0:
                    raise SemanticError("zero denominator", *self.where(den))
                return Fraction(num, int(den[TEXT]))
            return Fraction(num)
        raise self.error(f"expected a probability, found {self.found()}")

    def dist_decl(self):
        loc = self.loc()
        if self.at_kw("bernoulli"):
            self.advance()
            self.expect("PUNCT", "(")
            p = self.rational()
            self.expect("PUNCT", ")")
            if not 0 <= p <= 1:
                raise SemanticError(f"probability {p} outside [0, 1]", *loc)
            return BernoulliDecl(p, loc)
        if self.at_kw("table"):
            self.advance()
            self.expect("PUNCT", "{")
            entries = []
            while not self.at("PUNCT", "}"):
                hist = self.history_literal()
                self.expect("PUNCT", ":")
                w = self.rational()
                self.expect("PUNCT", ";")
                entries.append((hist, w))
            self.expect("PUNCT", "}")
            return TableDecl(tuple(entries), loc)
        raise self.error("expected 'bernoulli' or 'table'")

    def history_literal(self) -> tuple:
        self.expect("PUNCT", "[")
        values = self.comma_list(self.value_token)
        self.expect("PUNCT", "]")
        return tuple(values)

    def io_clause(self):
        # stored sorted so parse(print(doc)) is structurally stable
        inputs, outputs = None, None
        while self.at_kw("input", "output"):
            kw = self.advance()
            names = self.port_names()
            self.expect("PUNCT", ";")
            if kw[TEXT] == "input":
                inputs = tuple(sorted((inputs or ()) + tuple(names)))
            else:
                outputs = tuple(sorted((outputs or ()) + tuple(names)))
        return inputs, outputs

    def contract_decl(self) -> ContractDecl:
        kw = self.expect_kw("contract")
        name = self.ident("contract name")
        self.expect("PUNCT", "{")
        inputs, outputs = self.io_clause()
        self.expect_kw("assume")
        assume = self.expr()
        self.expect("PUNCT", ";")
        self.expect_kw("guarantee")
        guarantee = self.expr()
        self.expect("PUNCT", ";")
        self.expect("PUNCT", "}")
        return ContractDecl(name[TEXT], inputs, outputs, assume, guarantee, self.where(kw))

    def impl_decl(self) -> ImplDecl:
        kw = self.expect_kw("impl")
        name = self.ident("implementation name")
        self.expect("PUNCT", "{")
        inputs, outputs = self.io_clause()
        self.expect_kw("behavior")
        behavior = self.expr()
        self.expect("PUNCT", ";")
        self.expect("PUNCT", "}")
        return ImplDecl(name[TEXT], inputs, outputs, behavior, self.where(kw))

    def probcontract_decl(self) -> ProbContractDecl:
        kw = self.expect_kw("probcontract")
        name = self.ident("probabilistic contract name")
        self.expect("PUNCT", "{")
        self.expect_kw("contract")
        base = self.ident("contract name")
        self.expect("PUNCT", ";")
        ports = ()
        if self.at_kw("ports"):
            self.advance()
            ports = tuple(sorted(self.port_names()))
            self.expect("PUNCT", ";")
        self.expect("PUNCT", "}")
        return ProbContractDecl(name[TEXT], base[TEXT], ports, self.where(kw))

    # expressions -------------------------------------------------------------

    def expr(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("expression nested too deeply")
        try:
            left = self.or_expr()
            if self.at_kw("implies"):
                loc = self.loc()
                self.advance()
                right = self.expr()
                return Implies(loc, left, right)
            return left
        finally:
            self.depth -= 1

    def or_expr(self) -> Expr:
        left = self.and_expr()
        while self.at_kw("or"):
            loc = self.loc()
            self.advance()
            left = Or(loc, left, self.and_expr())
        return left

    def and_expr(self) -> Expr:
        left = self.unary()
        while self.at_kw("and"):
            loc = self.loc()
            self.advance()
            left = And(loc, left, self.unary())
        return left

    def unary(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("expression nested too deeply")
        try:
            if self.at_kw("not"):
                loc = self.loc()
                self.advance()
                return Not(loc, self.unary())
            return self.atom()
        finally:
            self.depth -= 1

    def atom(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("expression nested too deeply")
        try:
            loc = self.loc()
            if self.at_kw("always", "never", "eventually"):
                op = self.advance()[TEXT]
                self.expect("PUNCT", "(")
                body = self.expr()
                self.expect("PUNCT", ")")
                return Temporal(loc, op, body)
            if self.at_kw("at"):
                self.advance()
                self.expect("PUNCT", "(")
                step = self.expect("INT")
                self.expect("PUNCT", ",")
                body = self.expr()
                self.expect("PUNCT", ")")
                return At(loc, int(step[TEXT]), body)
            if self.at("PUNCT", "("):
                self.advance()
                body = self.expr()
                self.expect("PUNCT", ")")
                return body
            operand = self.operand(comparison_only=False)
            if self.at("PUNCT", "=="):
                self.advance()
                right = self.operand(comparison_only=True)
                return Cmp(loc, operand, right)
            # a bare operand must be usable as a step predicate
            if isinstance(operand, PortOperand):
                return NameRef(loc, operand.name)
            if isinstance(operand, PrevOperand):
                return Cmp(loc, operand, ValueOperand(loc, True))
            if isinstance(operand, ValueOperand) and isinstance(operand.value, bool):
                return Lit(loc, operand.value)
            raise ParseError("a bare value is not a predicate", *loc)
        finally:
            self.depth -= 1

    def operand(self, comparison_only: bool):
        loc = self.loc()
        if self.at_kw("prev"):
            self.advance()
            self.expect("PUNCT", "(")
            name = self.ident("port name")
            self.expect("PUNCT", ",")
            self.expect_kw("init")
            self.expect("PUNCT", "=")
            init = self.value_token()
            self.expect("PUNCT", ")")
            return PrevOperand(loc, name[TEXT], init)
        if self.tok[KIND] == "IDENT":
            return PortOperand(loc, self.advance()[TEXT])
        if self.at_kw("true", "false") or self.tok[KIND] == "INT":
            return ValueOperand(loc, self.value_token())
        raise self.error(
            f"expected {'a value or port' if comparison_only else 'an expression'}, "
            f"found {self.found()}")


def parse(text: str) -> Document:
    """Parse a document; raises a located SpecLangError subclass on any problem."""
    return _Parser(text).document()


def parse_expr(text: str) -> Expr:
    """Parse a single trace expression (no trailing input allowed)."""
    p = _Parser(text)
    e = p.expr()
    p.expect("EOF")
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


def _position(value, dom: tuple) -> Optional[int]:
    """Index of ``value`` in ``dom``, matching type as well as value; None if absent."""
    for i, v in enumerate(dom):
        if type(v) is type(value) and v == value:
            return i
    return None


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
            if _position(v, port.domain) is None:
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

_CONNECTIVES = {And: operator.and_, Or: operator.or_, Implies: lambda a, b: ~a | b}

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
    literal, or a negation or connective of invariant operands) is
    evaluated once in all and gives the same object at every step.  With
    ``h`` None (a document without a horizon) step bounds go unchecked and
    the step functions must not be called.
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
        long chain of definitions does not nest compile calls.
        """
        if name in self._compiled:
            return self._compiled[name]
        path, on_path = [(name, self.references(name))], {name}
        while path:
            current, refs = path[-1]
            if not refs:
                path.pop()
                on_path.discard(current)
                reached = dict.fromkeys(r.name for r in self.references(current))
                self._compiled[current] = _Definition(
                    self.compile(self.defs[current]), self.h,
                    [self._compiled[n] for n in reached])
                continue
            ref = refs.pop()
            if ref.name in on_path:
                raise SemanticError(f"definition cycle through {ref.name!r}", *ref.loc)
            if ref.name not in self._compiled:
                path.append((ref.name, self.references(ref.name)))
                on_path.add(ref.name)
        return self._compiled[name]

    def references(self, name: str) -> list:
        """The bare names in a definition's body that refer to definitions."""
        refs, stack = [], [self.defs[name]]
        while stack:
            e = stack.pop()
            if isinstance(e, NameRef):
                if e.name in self.defs:
                    refs.append(e)
            else:
                fields = (getattr(e, n) for n in e._fields)
                stack += [v for v in fields if isinstance(v, Expr)]
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
            return _Once(lambda: op(left(0), right(0)))
        return lambda t: op(left(t), right(t))

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
        first = _position(op.init, p.domain)
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
            return lambda t: read_left(t) == read_right(t)
        if not (left or right):
            for op in (e.left, e.right):
                if isinstance(op, PortOperand):
                    raise ResolveError(f"undefined name {op.name!r}", *op.loc)
            raise SemanticError("comparison needs at least one port", *e.loc)
        (p, read), lit = (left, e.right) if left else (right, e.left)
        value = lit.name if isinstance(lit, PortOperand) else lit.value
        index = _position(value, p.domain)
        if index is None:
            if isinstance(lit, PortOperand):
                raise ResolveError(f"undefined name {value!r}", *lit.loc)
            raise SemanticError(f"value {value!r} not in domain of port {p.name!r}", *lit.loc)
        return lambda t: read(t) == index


_RULES = {Lit: _Compiler.literal, NameRef: _Compiler.name, Not: _Compiler.negation,
          And: _Compiler.connective, Or: _Compiler.connective,
          Implies: _Compiler.connective, Temporal: _Compiler.temporal, At: _Compiler.at,
          Cmp: _Compiler.comparison}


def denote(e: Expr, sig: Signature, h, defs: dict = None) -> Assertion:
    """The runs over ``sig`` satisfying ``e`` at every step."""
    hh = traces._hlen(h)
    step = _Compiler(sig, hh, defs).compile(e)
    # the compiler is this call's own, and nothing writes to its values
    return traces.from_step_predicate(sig, hh, lambda t, _values_of: step(t), owned=True)


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
        omega = traces.Run.of({name: hist})
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
        return _prob.prob_contract(base, decl.ports, dist)
    except (SignatureError, DistributionError) as exc:
        raise SemanticError(str(exc), *decl.loc) from exc


def lookup_probcontract(doc: Document, name: str) -> _prob.ProbContract:
    """The probabilistic contract named ``name``; a plain contract of that
    name is taken as probability-free."""
    if name in doc.probcontracts:
        return build_probcontract(doc, name)
    if name in doc.contracts:
        return _prob.from_contract(build_contract(doc, name))
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
