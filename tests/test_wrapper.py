"""The wrapper construction: detaching a probabilistic port so a peer may drive it."""

from fractions import Fraction

import numpy as np
import pytest

import pct
from pct import (
    Port,
    ProbPortControlledError,
    Signature,
    SignatureError,
    probabilistic as prob,
    traces,
)
from conftest import run_of, weight_of

X = Port("x")
W = Port("w")
U = Port("u")


def consumer(h=1, p=Fraction(1, 4)):
    """A contract reading probabilistic x and driving w."""
    sig = Signature.of(controlled=(W,), uncontrolled=(X,))
    g = pct.denote(pct.parse_expr("always(w == x)"), sig, h)
    base = pct.contract(pct.universe(sig, h), g)
    return prob.prob_contract(base, {"x"}, pct.bernoulli_iid(X, p, h))


def producer(h=1):
    """A contract driving x from input u."""
    sig = Signature.of(controlled=(X,), uncontrolled=(U,))
    g = pct.denote(pct.parse_expr("always(x == u)"), sig, h)
    return prob.from_contract(pct.contract(pct.universe(sig, h), g))


def test_direct_composition_refused():
    with pytest.raises(ProbPortControlledError):
        prob.compose_prob(producer(), consumer())


def test_wrap_requires_probabilistic_port():
    with pytest.raises(SignatureError):
        prob.wrap("w", consumer())


def test_wrap_refuses_name_collisions():
    pc = consumer()
    sig = Signature.of(controlled=(W,), uncontrolled=(X, Port("x_p")))
    base = pct.contract(pct.universe(sig, 1), pct.universe(sig, 1))
    clash = prob.prob_contract(base, {"x"}, pct.bernoulli_iid(X, Fraction(1, 4), 1))
    with pytest.raises(SignatureError):
        prob.wrap("x", clash)
    prob.wrap("x", pc)  # clean signature wraps fine


def test_wrapper_guarantee_size():
    _, wrapper = prob.wrap("x", consumer(h=1))
    assert len(wrapper.guarantee) == 8
    assert len(pct.universe(wrapper.signature, 1)) == 16
    assert wrapper.canonical


def test_wrapper_selects_per_step():
    pc2, wrapper = prob.wrap("x", consumer(h=2))
    # s = (p, c): step 0 copies x_p, step 1 copies x_c
    take = pct.from_runs(
        wrapper.signature.restricted({"x_s"}), 2, [run_of({"x_s": ("p", "c")})])
    allowed = pct.product(wrapper.guarantee, pct.lift(take, wrapper.signature))
    for r in pct.runs(allowed):
        hist = dict(r)
        assert hist["x"][0] == hist["x_p"][0]
        assert hist["x"][1] == hist["x_c"][1]


def test_selector_stuck_at_p_projects_probabilistic_source():
    _, wrapper = prob.wrap("x", consumer(h=1))
    sel = pct.denote(pct.parse_expr("x_s == p"), wrapper.signature, 1)
    sub = wrapper.signature.restricted({"x", "x_p"})
    proj = pct.project(pct.product(wrapper.guarantee, sel), sub)
    assert proj == pct.denote(pct.parse_expr("always(x == x_p)"), sub, 1)


def test_wrap_moves_distribution_to_new_port():
    pc = consumer(p=Fraction(1, 5))
    pc2, _ = prob.wrap("x", pc)
    assert pc2.pports == {"x_p"}
    assert weight_of(pc2.dist, {"x_p": (True,)}) == Fraction(1, 5)
    # x stays in the signature, now plain uncontrolled
    assert pc2.base.signature.role("x") == "uncontrolled"
    assert pc2.base.signature.role("x_p") == "uncontrolled"


def test_wrap_preserves_correlations():
    other = Port("o")
    sig = Signature.of(controlled=(W,), uncontrolled=(X, other))
    base = pct.contract(pct.universe(sig, 1), pct.universe(sig, 1))
    corr = pct.from_table((other, X), 1, {
        run_of({"o": (False,), "x": (False,)}): Fraction(1, 2),
        run_of({"o": (True,), "x": (True,)}): Fraction(1, 2)})
    pc = prob.prob_contract(base, {"x", "o"}, corr)
    pc2, _ = prob.wrap("x", pc)
    assert weight_of(pc2.dist, {"o": (True,), "x_p": (True,)}) == Fraction(1, 2)
    assert weight_of(pc2.dist, {"o": (True,), "x_p": (False,)}) == 0


def test_wrapped_composition_end_to_end():
    pc1 = producer()
    pc2 = consumer()
    pc2w, wrapper = prob.wrap("x", pc2)
    step1 = prob.compose_prob(pc2w, prob.from_contract(wrapper))
    full = prob.compose_prob(step1, prob.rename_prob(pc1, "x", "x_c"))
    assert full.pports == {"x_p"}
    assert full.base.signature.controlled == {"w", "x", "x_c"}
    assert full.base.signature.uncontrolled == {"u", "x_p", "x_s"}
    # the product of the three component behaviors satisfies with level 1
    sig = full.base.signature
    m_sig = Signature.of(controlled=tuple(sig.port(n) for n in sorted(sig.controlled)),
                         uncontrolled=tuple(sig.port(n) for n in sorted(sig.uncontrolled)))
    behavior = pct.denote(
        pct.parse_expr("always(x_c == u) and always(w == x) and "
                       "((x_s == p) implies (x == x_p)) and "
                       "((x_s == c) implies (x == x_c))"),
        m_sig, 1)
    level = prob.sat_level(behavior, full).level
    assert level == 1
