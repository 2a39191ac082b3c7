"""Contract layer: the stored canonical form, satisfaction, composition,
refinement."""

import random

import numpy as np
import pytest

import pct
from pct import (
    Assertion,
    ControlledOverlapError,
    HorizonMismatchError,
    Port,
    RoleConflictError,
    Signature,
    SignatureError,
    contracts,
    oracle,
    traces,
)
from conftest import run_of

A = Port("a")
X = Port("x")
SIG = Signature.of(uncontrolled=(A,), controlled=(X,))
SIG_A = Signature.of(uncontrolled=(A,))


def rand_assertion(rng, sig, h, keep=0.6):
    size = traces.space_of(sig, h).size
    mask = np.array([rng.random() < keep for _ in range(size)], dtype=bool)
    return Assertion(sig, h, mask)


def rand_contract(rng, sig, h):
    return pct.contract(rand_assertion(rng, sig, h, 0.7),
                        rand_assertion(rng, sig, h, 0.6))


def test_canonicalize_top_assumption_unchanged():
    g = rand_assertion(random.Random(1), SIG, 1)
    assert pct.contract(pct.universe(SIG, 1), g).guarantee == g


def test_canonicalize_universe_guarantee_unchanged():
    c = pct.contract(rand_assertion(random.Random(2), SIG, 1), pct.universe(SIG, 1))
    assert c.guarantee == pct.universe(SIG, 1)


def test_canonicalize_fills_in_negated_assumption():
    e = pct.from_runs(SIG_A, 1, [run_of({"a": (True,)})])
    assert pct.contract(e, e).guarantee == pct.universe(SIG_A, 1)


def test_canonicalize_idempotent():
    rng = random.Random(3)
    for _ in range(25):
        c = rand_contract(rng, SIG, 2)
        assert contracts.Contract(c.signature, c.assumption, c.guarantee) == c


def test_every_contract_stores_its_guarantee_or_the_negated_assumption(docgen):
    """``Contract``, ``contract``, ``compose``, ``build_contract`` and the
    instance generators all give contracts with complement(A) within G,
    by the oracle's inclusion."""
    given = set()
    for seed in range(40):
        inst = oracle.gen_compose_instance(seed)
        a1, a2 = inst.pc1.base.assumption, inst.pc2.base.assumption
        # the implementations as guarantees: rarely within them as given
        given |= {oracle.oracle_included(pct.complement(a), m, m.signature)
                  for a, m in ((a1, inst.m1), (a2, inst.m2))}
        c1 = contracts.Contract(inst.m1.signature, a1, inst.m1)
        c2 = pct.contract(a2, inst.m2)
        refine = oracle.gen_refine_instance(seed)
        built = [c1, c2, inst.pc1.base, inst.pc2.base, pct.compose(c1, c2),
                 pct.compose(inst.pc1.base, inst.pc2.base), refine.pc1.base, refine.pc2.base,
                 *oracle.gen_refining_contracts(seed)[:2]]
        doc = pct.parse(docgen(seed).document())
        for name in doc.contracts:
            try:
                built.append(pct.build_contract(doc, name))
            except pct.SpecLangError:
                continue
        for c in built:
            assert oracle.oracle_included(pct.complement(c.assumption), c.guarantee,
                                          c.signature), seed
    assert given == {False, True}


def test_satisfies_trivial_cases():
    rng = random.Random(4)
    c_top = pct.contract(rand_assertion(rng, SIG, 1), pct.universe(SIG, 1))
    for _ in range(10):
        assert pct.satisfies(rand_assertion(rng, SIG, 1), c_top)
    c_any = rand_contract(rng, SIG, 1)
    assert pct.satisfies(pct.empty(SIG, 1), c_any)


def test_satisfies_guard_example():
    # guarantee: never(not a and x); M fixing a=T, x=T complies, a=F, x=T does not
    g = pct.denote(pct.parse_expr("never(not a and x)"), SIG, 1)
    c = pct.contract(pct.universe(SIG, 1), g)
    m_good = pct.from_runs(SIG, 1, [run_of({"a": (True,), "x": (True,)})])
    m_bad = pct.from_runs(SIG, 1, [run_of({"a": (False,), "x": (True,)})])
    assert pct.satisfies(m_good, c)
    assert not pct.satisfies(m_bad, c)


def test_satisfaction_formulas_always_agree():
    rng = random.Random(5)
    for _ in range(60):
        c = rand_contract(rng, SIG, 2)
        m = rand_assertion(rng, SIG, 2, keep=rng.uniform(0.1, 0.9))
        fs = pct.satisfaction_formulas(m, c)
        assert len(set(fs)) == 1
        assert fs[0] == pct.satisfies(m, c)


def test_satisfaction_invariant_under_canonicalization():
    rng = random.Random(6)
    for _ in range(40):
        a, g = rand_assertion(rng, SIG, 1, 0.7), rand_assertion(rng, SIG, 1, 0.6)
        c = pct.contract(a, g)
        m = rand_assertion(rng, SIG, 1, keep=0.4)
        # m&A within G as given, by the oracle
        assert pct.satisfies(m, c) == oracle.oracle_included(pct.product(m, a), g, SIG)
        assert pct.satisfies(m, c) == pct.included_in(m, c.guarantee, c.signature)
    # the stored guarantee, the largest implementation, itself satisfies
    assert pct.satisfies(c.guarantee, c)


def test_compose_unit_is_canonicalization():
    # the unit promises nothing and controls nothing, over the same ports
    rng = random.Random(7)
    c = rand_contract(rng, SIG, 1)
    free = Signature.of(uncontrolled=(A, X))
    unit = pct.contract(pct.universe(free, 1), pct.universe(free, 1))
    composed = pct.compose(c, unit)
    assert composed == c


def test_compose_disjoint_top_assumptions():
    b, y = Port("b"), Port("y")
    sig2 = Signature.of(uncontrolled=(b,), controlled=(y,))
    rng = random.Random(8)
    c1 = pct.contract(pct.universe(SIG, 1), rand_assertion(rng, SIG, 1))
    c2 = pct.contract(pct.universe(sig2, 1), rand_assertion(rng, sig2, 1))
    composed = pct.compose(c1, c2)
    assert composed.assumption == pct.universe(composed.signature, 1)


def test_compose_output_is_canonical():
    rng = random.Random(9)
    b, y = Port("b"), Port("y")
    sig2 = Signature.of(uncontrolled=(b, X), controlled=(y,))
    for _ in range(20):
        c1 = rand_contract(rng, SIG, 1)
        c2 = rand_contract(rng, sig2, 1)
        composed = pct.compose(c1, c2)
        assert pct.included_in(pct.complement(composed.assumption),
                               composed.guarantee, composed.signature)


def test_compose_controlled_overlap_refused():
    c = pct.contract(pct.universe(SIG, 1), pct.universe(SIG, 1))
    with pytest.raises(ControlledOverlapError):
        pct.compose(c, c)


def test_compose_peer_controlled_port_allowed():
    # x is an output of c1 and an input of c2
    y = Port("y")
    sig2 = Signature.of(uncontrolled=(X,), controlled=(y,))
    rng = random.Random(10)
    composed = pct.compose(rand_contract(rng, SIG, 1), rand_contract(rng, sig2, 1))
    assert composed.signature.controlled == {"x", "y"}
    assert composed.signature.uncontrolled == {"a"}


def test_compose_impl_merges_roles():
    m1 = pct.universe(SIG, 1)
    m2 = pct.universe(Signature.of(uncontrolled=(X,), controlled=(Port("y"),)), 1)
    with pytest.raises(RoleConflictError):
        pct.product(m1, m2)
    m = contracts.compose_impl(m1, m2)
    assert m.signature.controlled == {"x", "y"}


def test_refines_reflexive_and_extremes():
    rng = random.Random(11)
    c = rand_contract(rng, SIG, 1)
    assert pct.refines(c, c)
    g = rand_assertion(rng, SIG, 1)
    a = rand_assertion(rng, SIG, 1)
    strongest = pct.contract(pct.universe(SIG, 1), g)
    weakest = pct.contract(a, pct.universe(SIG, 1))
    assert pct.refines(strongest, weakest)


def test_refines_requires_subsignature():
    rng = random.Random(12)
    big = Signature.of(uncontrolled=(A, Port("b")), controlled=(X,))
    c_small = rand_contract(rng, SIG, 1)
    c_big = rand_contract(rng, big, 1)
    with pytest.raises(SignatureError):
        pct.refines(c_big, c_small)
    pct.refines(c_small, c_big)  # direction with included signature is fine


def test_refinement_preserves_satisfaction_randomized():
    from pct import oracle
    for seed in range(60):
        c1, c2, _ = oracle.gen_refining_contracts(seed)
        assert pct.refines(c1, c2)
        rng = random.Random(f"m:{seed}")
        m = rand_assertion(rng, c1.signature, c1.horizon, keep=0.5)
        m = Assertion(c1.signature, c1.horizon, m.mask & c1.guarantee.mask)
        assert pct.satisfies(m, c1)
        assert pct.satisfies(m, c2)


def _one_run_of(mask, c1, c2):
    """A run of ``mask`` (over c2's signature), restricted to c1's signature,
    as a mask over c1's run space; None when ``mask`` is empty."""
    hits = np.flatnonzero(mask)
    if not len(hits):
        return None
    one = np.zeros(mask.shape, dtype=bool)
    one[hits[len(hits) // 2]] = True
    return pct.project(Assertion(c2.signature, c2.horizon, one), c1.signature).mask


def _break_one_inclusion(c1, c2, which):
    """c1 changed so that an inclusion of ``refines(c1, c2)`` fails: a run of
    A2 is dropped from A1, or a run outside G2 is added to G1.  A run dropped
    from A1 joins the stored G1, so G1 may then leave G2 as well."""
    if which == "assumption":
        run = _one_run_of(c2.assumption.mask, c1, c2)
        if run is None:
            return None
        a = Assertion(c1.signature, c1.horizon, c1.assumption.mask & ~run)
        return contracts.Contract(c1.signature, a, c1.guarantee)
    run = _one_run_of(~c2.guarantee.mask, c1, c2)
    if run is None:
        return None
    g = Assertion(c1.signature, c1.horizon, c1.guarantee.mask | run)
    return contracts.Contract(c1.signature, c1.assumption, g)


def _refining_pairs(seed):
    """A refining pair, and the composition of two of them (as lemma2_compose)."""
    from pct import oracle
    c1, c2, h = oracle.gen_refining_contracts(seed, tag="l")
    c3, c4, _ = oracle.gen_refining_contracts(seed, tag="r", h=h)
    yield c1, c2
    if traces.universe_size(traces.merge_signature_controlled(c2.signature, c4.signature),
                            h) <= oracle.Budget().max_space:
        yield contracts.compose(c1, c3), contracts.compose(c2, c4)


@pytest.mark.parametrize("which", ["assumption", "guarantee"])
def test_refines_fails_when_one_inclusion_fails(which):
    from pct import oracle
    checked = 0
    for seed in range(60):
        for c1, c2 in _refining_pairs(seed):
            assert pct.refines(c1, c2)
            broken = _break_one_inclusion(c1, c2, which)
            if broken is None:
                continue
            sig = c2.signature
            inclusions = (oracle.oracle_included(c2.assumption, broken.assumption, sig),
                          oracle.oracle_included(broken.guarantee, c2.guarantee, sig))
            if which == "assumption":
                assert not inclusions[0]
            else:
                assert inclusions == (True, False)
            assert pct.refines(broken, c2) is False
            assert oracle.oracle_refines(broken, c2) is False
            checked += 1
    assert checked >= 80


@pytest.mark.parametrize("entry", ["Contract", "contract", "satisfies", "compose",
                                   "compose_impl", "refines"])
def test_every_entry_point_refuses_two_horizons_alike(entry):
    u1, u2 = pct.universe(SIG, 1), pct.universe(SIG, 2)
    c1 = pct.contract(u1, u1)
    c2 = pct.contract(pct.universe(SIG_A, 2), pct.universe(SIG_A, 2))
    calls = {
        "Contract": lambda: contracts.Contract(SIG, u1, u2),
        "contract": lambda: pct.contract(u1, u2),
        "satisfies": lambda: pct.satisfies(u1, c2),
        "compose": lambda: pct.compose(c1, c2),
        "compose_impl": lambda: pct.compose_impl(u1, pct.universe(SIG_A, 2)),
        "refines": lambda: pct.refines(c1, c2),
    }
    with pytest.raises(HorizonMismatchError, match="horizons differ: 1 vs 2"):
        calls[entry]()
