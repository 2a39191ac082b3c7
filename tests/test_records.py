"""The records of every layer (``pct.record.Record``): construction by
position and by keyword with the same defaults, equality and hashing, no
assignment after construction, and a readable repr."""

from fractions import Fraction

import numpy as np
import pytest

from pct import BOOL, Assertion, Port, Run, Signature, contracts, oracle, probabilistic, traces
from pct import speclang as sl
from pct.record import Record

A, X = Port("a"), Port("x")
SIG = Signature.of(controlled=(X,), uncontrolled=(A,))


def _mask(bits):
    return np.array(bits, dtype=bool)


def _assertion(bits, sig=SIG):
    return Assertion(sig, 1, _mask(bits))


def _contract(g_bits=(1, 1, 0, 1)):
    return contracts.contract(_assertion((1, 1, 1, 1)), _assertion(g_bits))


def _dist(p=Fraction(1, 2)):
    return probabilistic.bernoulli_iid(A, p, 1)


def _pc(p=Fraction(1, 2)):
    return probabilistic.prob_contract(_contract(), {"a"}, _dist(p))


LOC, LOC2 = (3, 4), (9, 9)

# (positional, keyword, a different value): three constructors of one class;
# the first two must build equal records
CASES = {
    "Port": (lambda: Port("a", (0, 1)), lambda: Port(domain=(0, 1), name="a"),
             lambda: Port("a", (False, True))),
    "Run": (lambda: Run((("a", (True,)),)), lambda: Run(entries=(("a", (True,)),)),
            lambda: Run((("a", (False,)),))),
    "Signature": (lambda: Signature((A, X), frozenset("x"), frozenset("a")),
                  lambda: Signature(uncontrolled=frozenset("a"), controlled=frozenset("x"),
                                    ports=(A, X)),
                  lambda: Signature((A, X), frozenset("a"), frozenset("x"))),
    "_Space": (lambda: traces._Space((A,), 1, (2,), (1,), 2, (("a", 0),), (2,)),
               lambda: traces._Space(ports=(A,), horizon=1, radices=(2,), strides=(1,), size=2,
                                     axes=(("a", 0),), shape=(2,)),
               lambda: traces._Space((X,), 1, (2,), (1,), 2, (("x", 0),), (2,))),
    "Assertion": (lambda: _assertion((1, 0, 0, 1)),
                  lambda: Assertion(mask=_mask((1, 0, 0, 1)), horizon=1, signature=SIG),
                  lambda: _assertion((1, 0, 1, 1))),
    "Contract": (lambda: contracts.Contract(SIG, _assertion((1,) * 4), _assertion((1, 0, 1, 0))),
                 lambda: contracts.Contract(guarantee=_assertion((1, 0, 1, 0)), signature=SIG,
                                            assumption=_assertion((1,) * 4), canonical=False),
                 lambda: contracts.Contract(SIG, _assertion((1,) * 4), _assertion((1, 1, 1, 0)))),
    "Distribution": (lambda: probabilistic.Distribution((A,), 1, (Fraction(1, 4), Fraction(3, 4))),
                     lambda: probabilistic.Distribution(weights=(Fraction(1, 4), Fraction(3, 4)),
                                                        horizon=1, ports=(A,)),
                     lambda: probabilistic.Distribution((A,), 1, (Fraction(3, 4), Fraction(1, 4)))),
    "ProbContract": (lambda: probabilistic.ProbContract(_contract(), frozenset("a"), _dist()),
                     lambda: probabilistic.ProbContract(dist=_dist(), pports=frozenset("a"),
                                                        base=_contract()),
                     lambda: probabilistic.ProbContract(_contract(), frozenset("a"),
                                                        _dist(Fraction(1, 3)))),
    "SatReport": (lambda: probabilistic.SatReport(Fraction(1, 2)),
                  lambda: probabilistic.SatReport(level=Fraction(1, 2), witness_bad=None),
                  lambda: probabilistic.SatReport(Fraction(1, 2), Run((("a", (True,)),)))),
    "RefineReport": (lambda: probabilistic.RefineReport(Fraction(1, 2), Fraction(1)),
                     lambda: probabilistic.RefineReport(p_g1=Fraction(1), level=Fraction(1, 2),
                                                        degenerate=False),
                     lambda: probabilistic.RefineReport(Fraction(0), Fraction(0), True)),
    "Budget": (lambda: oracle.Budget(), lambda: oracle.Budget(max_space=4096, max_domain=3),
               lambda: oracle.Budget(2, 2, 2, 4096)),
    "ComposeInstance": (lambda: oracle.ComposeInstance(_assertion((1,) * 4), _pc(), None, None, 7),
                        lambda: oracle.ComposeInstance(m1=_assertion((1,) * 4), pc1=_pc(),
                                                       m2=None, pc2=None, seed=7),
                        lambda: oracle.ComposeInstance(_assertion((1,) * 4), _pc(), None, None, 8)),
    "RefineInstance": (lambda: oracle.RefineInstance(_assertion((1,) * 4), _pc(), _pc(), 7),
                       lambda: oracle.RefineInstance(seed=7, pc2=_pc(), pc1=_pc(),
                                                     m=_assertion((1,) * 4)),
                       lambda: oracle.RefineInstance(_assertion((1,) * 4), _pc(),
                                                     _pc(Fraction(1, 3)), 7)),
    "CaseResult": (lambda: oracle.CaseResult("lemma1", 3, True, True),
                   lambda: oracle.CaseResult(oracle_ok=True, ok=True, seed=3, suite="lemma1",
                                             detail={}),
                   lambda: oracle.CaseResult("lemma1", 3, True, True, {"level": "1/2"})),
    "Expr": (lambda: sl.Expr(LOC), lambda: sl.Expr(loc=LOC2), None),
    "Lit": (lambda: sl.Lit(LOC), lambda: sl.Lit(value=True), lambda: sl.Lit(LOC, False)),
    "NameRef": (lambda: sl.NameRef(LOC, "d"), lambda: sl.NameRef(name="d"),
                lambda: sl.NameRef(LOC, "e")),
    "Not": (lambda: sl.Not(LOC, sl.Lit()), lambda: sl.Not(body=sl.Lit(LOC2)),
            lambda: sl.Not(LOC, sl.Lit(LOC, False))),
    "And": (lambda: sl.And(LOC, sl.Lit(), sl.NameRef(LOC, "d")),
            lambda: sl.And(right=sl.NameRef(name="d"), left=sl.Lit(), loc=LOC2),
            lambda: sl.And(LOC, sl.NameRef(LOC, "d"), sl.Lit())),
    "Or": (lambda: sl.Or(LOC, sl.Lit(), sl.Lit()), lambda: sl.Or(left=sl.Lit(), right=sl.Lit()),
           lambda: sl.And(LOC, sl.Lit(), sl.Lit())),
    "Implies": (lambda: sl.Implies(LOC, sl.Lit(), sl.Lit()),
                lambda: sl.Implies(left=sl.Lit(), right=sl.Lit()),
                lambda: sl.Or(LOC, sl.Lit(), sl.Lit())),
    "Temporal": (lambda: sl.Temporal(LOC, "always", sl.Lit()), lambda: sl.Temporal(body=sl.Lit()),
                 lambda: sl.Temporal(LOC, "never", sl.Lit())),
    "At": (lambda: sl.At(LOC, 0, sl.Lit()), lambda: sl.At(body=sl.Lit(), step=0),
           lambda: sl.At(LOC, 1, sl.Lit())),
    "Operand": (lambda: sl.Operand(LOC), lambda: sl.Operand(), None),
    "PortOperand": (lambda: sl.PortOperand(LOC, "a"), lambda: sl.PortOperand(name="a"),
                    lambda: sl.PortOperand(LOC, "b")),
    "ValueOperand": (lambda: sl.ValueOperand(LOC, 1), lambda: sl.ValueOperand(value=1),
                     lambda: sl.ValueOperand(LOC, 2)),
    "PrevOperand": (lambda: sl.PrevOperand(LOC, "a", False),
                    lambda: sl.PrevOperand(init=False, name="a"),
                    lambda: sl.PrevOperand(LOC, "a", True)),
    "Cmp": (lambda: sl.Cmp(LOC, sl.PortOperand(LOC, "a"), sl.ValueOperand(LOC, 1)),
            lambda: sl.Cmp(left=sl.PortOperand(name="a"), right=sl.ValueOperand(value=1)),
            lambda: sl.Cmp(LOC, sl.PortOperand(LOC, "a"), sl.ValueOperand(LOC, 2))),
    "BernoulliDecl": (lambda: sl.BernoulliDecl(Fraction(1, 2), LOC),
                      lambda: sl.BernoulliDecl(p=Fraction(1, 2)),
                      lambda: sl.BernoulliDecl(Fraction(1, 3), LOC)),
    "TableDecl": (lambda: sl.TableDecl(((("x",), Fraction(1)),), LOC),
                  lambda: sl.TableDecl(entries=((("x",), Fraction(1)),)),
                  lambda: sl.TableDecl(((("y",), Fraction(1)),), LOC)),
    "PortDecl": (lambda: sl.PortDecl("a", (), "uncontrolled", None, LOC),
                 lambda: sl.PortDecl(role="uncontrolled", domain=(), name="a"),
                 lambda: sl.PortDecl("a", (), "controlled", None, LOC)),
    "ContractDecl": (lambda: sl.ContractDecl("c", None, ("x",), sl.Lit(), sl.Lit(), LOC),
                     lambda: sl.ContractDecl(name="c", inputs=None, outputs=("x",),
                                             assume=sl.Lit(), guarantee=sl.Lit()),
                     lambda: sl.ContractDecl("c", (), ("x",), sl.Lit(), sl.Lit(), LOC)),
    "ImplDecl": (lambda: sl.ImplDecl("m", ("a",), None, sl.Lit(), LOC),
                 lambda: sl.ImplDecl(behavior=sl.Lit(), name="m", inputs=("a",), outputs=None),
                 lambda: sl.ImplDecl("m", ("a",), None, sl.Lit(LOC, False), LOC)),
    "ProbContractDecl": (lambda: sl.ProbContractDecl("r", "c", ("a",), LOC),
                         lambda: sl.ProbContractDecl(ports=("a",), contract="c", name="r"),
                         lambda: sl.ProbContractDecl("r", "c", (), LOC)),
    "Document": (lambda: sl.Document(2, {}, {"d": sl.Lit(LOC)}, {}, {}, {}),
                 lambda: sl.Document(defs={"d": sl.Lit()}, horizon=2),
                 lambda: sl.Document(2)),
}

# equal by value but compared by identity
BY_IDENTITY = {"Factor"}
# compared by value but not hashable: they hold arrays or dicts
UNHASHABLE = {"Assertion", "Contract", "ProbContract", "ComposeInstance", "RefineInstance",
              "CaseResult", "Document"}


def _record_classes():
    from pct import record
    seen, todo = {}, [record.Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("pct."):
                seen[sub.__name__] = sub
                todo.append(sub)
    return seen


def test_every_record_class_is_covered():
    names = set(_record_classes()) - {"_Binary"}
    assert names == set(CASES) | BY_IDENTITY
    assert len(names) == 36


@pytest.mark.parametrize("name", sorted(CASES))
def test_positional_and_keyword_construction_agree(name):
    make, make_kw, _ = CASES[name]
    assert make() == make_kw() and make_kw() == make()
    assert not make() != make_kw()


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_and_hash(name):
    make, make_kw, make_other = CASES[name]
    a, b = make(), make_kw()
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    if make_other is not None:
        assert a != make_other() and make_other() != a
        assert not a == make_other()
    assert a != object() and a != None  # noqa: E711


@pytest.mark.parametrize("name", sorted(CASES))
def test_assignment_and_deletion_raise(name):
    r = CASES[name][0]()
    assert not hasattr(r, "__dict__")
    slots = [n for cls in type(r).__mro__ for n in cls.__dict__.get("__slots__", ())]
    for field in slots + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(r, field, None)
        with pytest.raises(AttributeError):
            delattr(r, field)


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_names_the_public_fields(name):
    r = CASES[name][0]()
    text = repr(r)
    assert text.startswith(f"{type(r).__qualname__}(") and text.endswith(")")
    for field in type(r)._fields:
        assert f"{field}={getattr(r, field)!r}" in text
    assert "_key" not in text and "_weights" not in text


def test_field_order_and_repr_examples():
    assert sl.Lit._fields == ("loc", "value")
    assert sl.And._fields == sl.Cmp._fields == ("loc", "left", "right")
    assert sl.PortDecl._fields == ("name", "domain", "role", "dist", "loc")
    assert Assertion._fields == ("signature", "horizon")
    assert repr(sl.Lit((1, 2))) == "Lit(loc=(1, 2), value=True)"
    assert repr(Port("a")) == "Port(name='a', domain=(False, True))"
    assert repr(probabilistic.SatReport(Fraction(1, 2))) == \
        "SatReport(level=Fraction(1, 2), witness_bad=None)"
    assert repr(_assertion((1, 0, 0, 1))) == f"Assertion(signature={SIG!r}, horizon=1)"
    assert repr(oracle.Budget()) == \
        "Budget(max_ports_per_side=3, max_horizon=3, max_domain=3, max_space=4096)"


def test_defaults():
    assert Port("a").domain == BOOL
    assert probabilistic.SatReport(Fraction(1)).witness_bad is None
    assert probabilistic.RefineReport(Fraction(1), Fraction(1)).degenerate is False
    assert contracts.Contract(SIG, _assertion((1,) * 4), _assertion((1,) * 4)).canonical is False
    b = oracle.Budget()
    assert (b.max_ports_per_side, b.max_horizon, b.max_domain, b.max_space) == (3, 3, 3, 4096)
    r1, r2 = oracle.CaseResult("s", 0, True, True), oracle.CaseResult("s", 0, True, True)
    assert r1.detail == {} and r1.detail is not r2.detail
    d1, d2 = sl.Document(), sl.Document()
    assert d1.is_empty and d1.horizon is None and d1.ports is not d2.ports
    assert sl.Lit().loc == (0, 0) and sl.Lit().value is True
    assert (sl.Temporal().op, sl.Temporal().body) == ("always", None)
    assert (sl.At().step, sl.NameRef().name, sl.ValueOperand().value) == (0, "", None)
    assert (sl.PrevOperand().name, sl.PrevOperand().init) == ("", None)
    assert sl.BernoulliDecl().p == 0 and sl.TableDecl().entries == ()
    assert sl.PortDecl("a", (), "controlled").dist is None
    assert sl.ProbContractDecl("r", "c").ports == ()
    c = sl.ContractDecl("c", None, None)
    assert (c.assume, c.guarantee, c.loc) == (None, None, (0, 0))
    assert sl.ImplDecl("m", None, None).behavior is None


def test_nodes_differing_only_in_location_are_equal():
    a = sl.parse_expr("always(a == 1) and not b")
    b = sl.parse_expr("\n\n  always( a==1 )  and\tnot b")
    assert a == b and hash(a) == hash(b) and a.loc != b.loc
    assert a != sl.parse_expr("always(a == 2) and not b")


def test_ports_keep_bool_and_int_domains_apart():
    assert Port("a", (0, 1)) != Port("a", (False, True))
    assert Port("a", (0, 1)) == Port("a", [0, 1]) and Port("a", [0, 1]).domain == (0, 1)
    assert hash(Port("a", (0, 1))) == hash(Port("a", (0, 1)))


def test_factors_compare_by_identity():
    f = _dist().factors[0]
    g = probabilistic.Factor(f.ports, f.num.copy(), f.den)
    assert f == f and f != g and len({f, g}) == 2
    with pytest.raises(AttributeError):
        f.den = 3
    assert repr(g).startswith("Factor(ports=(Port(name='a', domain=(False, True)),), num=")


def test_checks_run_on_construction():
    with pytest.raises(Exception, match="non-empty"):
        Port("")
    with pytest.raises(Exception, match="overlap"):
        Signature((A,), frozenset("a"), frozenset("a"))
    with pytest.raises(Exception, match="boolean vector"):
        Assertion(SIG, 1, _mask((1, 0)))
    with pytest.raises(Exception, match="positive integer"):
        oracle.Budget(max_horizon=0)
    with pytest.raises(Exception, match="canonical base"):
        probabilistic.ProbContract(
            contracts.Contract(SIG, _assertion((1, 0, 1, 0)), _assertion((1, 0, 1, 0))),
            frozenset("a"), _dist())
    f = _dist().factors[0]
    assert not f.num.flags.writeable and not _assertion((1, 0, 0, 1)).mask.flags.writeable


def test_every_record_class_declares_its_slots():
    for cls in _record_classes().values():
        assert issubclass(cls, Record) and "__slots__" in cls.__dict__, cls
