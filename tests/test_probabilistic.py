"""Distributions and exact satisfaction/refinement levels."""

import random
from fractions import Fraction

import numpy as np
import pytest

import pct
from pct import (
    Assertion,
    CapacityError,
    DistributionError,
    HorizonMismatchError,
    MarginalMismatchError,
    Port,
    PortRoleError,
    ProbPortControlledError,
    ProbPortOverlapError,
    Signature,
    probabilistic as prob,
    traces,
)
from conftest import allocation_peak, run_of, weight_of, weights

F1 = Port("f1")
F2 = Port("f2")
Q = Port("q")
Z = Port("z")


def frac(s):
    return Fraction(s)


# --- distributions ---------------------------------------------------------------

def test_bernoulli_point_mass_at_zero():
    d = pct.bernoulli_iid(F1, 0, 2)
    assert weight_of(d, {"f1": (False, False)}) == 1


def test_bernoulli_example_value():
    d = pct.bernoulli_iid(F1, frac("1/10"), 2)
    assert weight_of(d, {"f1": (False, False)}) == frac("81/100")
    assert weight_of(d, {"f1": (True, True)}) == frac("1/100")


def test_bernoulli_half_is_uniform():
    assert pct.bernoulli_iid(F1, frac("1/2"), 1) == pct.uniform((F1,), 1)


def test_bernoulli_refuses_a_space_above_the_cap_before_its_table():
    # the 2^25 step weights are never multiplied out
    with allocation_peak() as peak, pytest.raises(CapacityError):
        pct.bernoulli_iid(Port("f"), Fraction(1, 2), 25)
    assert peak[0] < 2**20


def test_bernoulli_validation():
    with pytest.raises(DistributionError):
        pct.bernoulli_iid(F1, frac("3/2"), 1)
    with pytest.raises(DistributionError):
        pct.bernoulli_iid(Port("m", (0, 1, 2)), frac("1/2"), 1)


def test_distribution_validation():
    with pytest.raises(DistributionError):
        prob.Distribution((F1,), 1, (frac("1/2"), frac("1/3")))
    with pytest.raises(DistributionError):
        prob.Distribution((F1,), 1, (frac("3/2"), frac("-1/2")))
    with pytest.raises(DistributionError):
        prob.Distribution((F2, F1), 1, (frac("1/4"),) * 4)


def test_product_of_point_masses():
    d1 = pct.from_table((F1,), 1, {run_of({"f1": (True,)}): 1})
    d2 = pct.from_table((F2,), 1, {run_of({"f2": (False,)}): 1})
    d = pct.product_dist(d1, d2)
    assert weight_of(d, {"f1": (True,), "f2": (False,)}) == 1


def test_uniform_takes_ports_in_any_order():
    assert pct.uniform((F2, F1), 1) == pct.uniform((F1, F2), 1)
    assert pct.uniform((F2, F1), 1).ports == (F1, F2)


def test_product_of_uniforms_is_uniform():
    assert pct.product_dist(pct.uniform((F1,), 1), pct.uniform((F2,), 1)) == \
        pct.uniform((F1, F2), 1)


def test_product_example_weights():
    d = pct.product_dist(pct.bernoulli_iid(F1, frac("1/10"), 2),
                         pct.bernoulli_iid(F2, frac("1/5"), 2))
    never = {"f1": (False, False), "f2": (False, False)}
    assert weight_of(d, never) == frac("81/100") * frac("16/25")


def test_product_errors():
    with pytest.raises(ProbPortOverlapError):
        pct.product_dist(pct.uniform((F1,), 1), pct.uniform((F1,), 1))
    with pytest.raises(HorizonMismatchError):
        pct.product_dist(pct.uniform((F1,), 1), pct.uniform((F2,), 2))


def test_marginal_identity_and_product_law():
    d1 = pct.bernoulli_iid(F1, frac("1/3"), 2)
    d2 = pct.bernoulli_iid(F2, frac("1/7"), 2)
    d = pct.product_dist(d1, d2)
    assert pct.marginal(d, d.names) == d
    assert pct.marginal(d, {"f1"}) == d1
    assert pct.marginal(pct.uniform((F1, F2), 1), {"f2"}) == pct.uniform((F2,), 1)
    with pytest.raises(DistributionError):
        pct.marginal(d1, {"f2"})


def test_marginal_of_correlated_table():
    # perfectly correlated pair: marginals are uniform
    d = pct.from_table((F1, F2), 1, {
        run_of({"f1": (False,), "f2": (False,)}): frac("1/2"),
        run_of({"f1": (True,), "f2": (True,)}): frac("1/2")})
    assert pct.marginal(d, {"f1"}) == pct.uniform((F1,), 1)


# --- satisfaction levels -----------------------------------------------------------

def _pc(sig, h, g_mask, pports, dist):
    g = Assertion(sig, h, g_mask)
    return prob.ProbContract(pct.contract(pct.universe(sig, h), g), pports, dist)


SIG_QZ = Signature.of(uncontrolled=(Q, Z))


def test_sat_level_trivial():
    h = 1
    dist = pct.uniform((Q,), h)
    c = _pc(SIG_QZ, h, np.ones(4, dtype=bool), {"q"}, dist)
    assert prob.sat_level(pct.universe(SIG_QZ, h), c).level == 1
    assert prob.sat_level(pct.empty(SIG_QZ, h), c).level == 1


def test_sat_level_counts_only_bad_histories():
    h = 1
    dist = pct.bernoulli_iid(Q, frac("1/4"), h)
    g = pct.denote(pct.parse_expr("never(q and z)"), SIG_QZ, h)
    c = _pc(SIG_QZ, h, g.mask, {"q"}, dist)
    m = pct.universe(SIG_QZ, h)
    report = prob.sat_level(m, c)
    # q=T admits the violating run (T,T); q=F never violates
    assert report.level == frac("3/4")
    assert report.witness_bad == run_of({"q": (True,)})


def _counted_numerators(monkeypatch) -> list:
    """Count the calls of ``Distribution.numerators``: the list they are appended to."""
    calls, numerators = [], prob.Distribution.numerators
    monkeypatch.setattr(prob.Distribution, "numerators",
                        lambda d: calls.append(d) or numerators(d))
    return calls


def test_sat_level_without_a_bad_history_is_one_without_the_joint_weights(monkeypatch):
    h = 2
    dist = pct.bernoulli_iid(Q, frac("1/3"), h)
    g = pct.denote(pct.parse_expr("always(q or not z)"), SIG_QZ, h)
    c = _pc(SIG_QZ, h, g.mask, {"q"}, dist)
    calls = _counted_numerators(monkeypatch)
    report = prob.sat_level(g, c)
    assert type(report.level) is Fraction and report.level == Fraction(1)
    assert report.witness_bad is None
    assert calls == []


def test_sat_level_with_every_history_bad_is_zero_with_the_heaviest_witness(monkeypatch):
    h = 2
    dist = pct.bernoulli_iid(Q, frac("1/3"), h)
    c = _pc(SIG_QZ, h, np.zeros(16, dtype=bool), {"q"}, dist)
    calls = _counted_numerators(monkeypatch)
    report = prob.sat_level(pct.universe(SIG_QZ, h), c)
    assert report.level == 0
    # q false at both steps weighs 4/9, the most of the four histories
    assert report.witness_bad == run_of({"q": (False, False)})
    assert calls == [dist]


def test_sat_level_preconditions():
    h = 1
    dist = pct.uniform((Q,), h)
    c = _pc(SIG_QZ, h, np.ones(4, dtype=bool), {"q"}, dist)
    extra = Signature.of(uncontrolled=(Q, Z, Port("other")))
    with pytest.raises(PortRoleError):
        prob.sat_level(pct.universe(extra, h), c)
    controlled = Signature.of(uncontrolled=(Q,), controlled=(Z,))
    with pytest.raises(PortRoleError):
        prob.sat_level(pct.universe(controlled, h), c)


def test_sat_level_antitone_in_impl_monotone_in_guarantee():
    rng = random.Random(20)
    h = 2
    size = traces.space_of(SIG_QZ, h).size
    dist = pct.bernoulli_iid(Q, frac("1/3"), h)
    for _ in range(25):
        g1 = np.array([rng.random() < 0.6 for _ in range(size)])
        g2 = g1 | np.array([rng.random() < 0.3 for _ in range(size)])
        m_small = np.array([rng.random() < 0.3 for _ in range(size)])
        m_big = m_small | np.array([rng.random() < 0.4 for _ in range(size)])
        c1 = _pc(SIG_QZ, h, g1, {"q"}, dist)
        c2 = _pc(SIG_QZ, h, g2, {"q"}, dist)
        small = Assertion(SIG_QZ, h, m_small)
        big = Assertion(SIG_QZ, h, m_big)
        assert prob.sat_level(small, c1).level >= prob.sat_level(big, c1).level
        assert prob.sat_level(big, c1).level <= prob.sat_level(big, c2).level


def test_sat_level_one_iff_boolean_satisfaction_on_support():
    rng = random.Random(21)
    h = 1
    size = traces.space_of(SIG_QZ, h).size
    # support excludes q=T
    dist = pct.from_table((Q,), h, {run_of({"q": (False,)}): 1})
    for _ in range(30):
        g = np.array([rng.random() < 0.5 for _ in range(size)])
        m = np.array([rng.random() < 0.5 for _ in range(size)])
        c = _pc(SIG_QZ, h, g, {"q"}, dist)
        level = prob.sat_level(Assertion(SIG_QZ, h, m), c).level
        support = pct.lift(pct.from_runs(Signature.of(uncontrolled=(Q,)), h,
                                         [(("q", (False,)),)]), SIG_QZ)
        bridged = pct.included_in(pct.product(Assertion(SIG_QZ, h, m), support),
                                  c.base.guarantee, SIG_QZ)
        assert (level == 1) == bridged


def test_sat_report_recomputable():
    h = 2
    dist = pct.bernoulli_iid(Q, frac("2/7"), h)
    g = pct.denote(pct.parse_expr("never(q)"), SIG_QZ, h)
    c = _pc(SIG_QZ, h, g.mask, {"q"}, dist)
    report = prob.sat_level(pct.universe(SIG_QZ, h), c)
    assert report.level == weight_of(dist, {"q": (False, False)})
    assert sum(weights(dist)) == 1


# --- composition -------------------------------------------------------------------

def test_compose_prob_unit_keeps_distribution():
    h = 1
    sig1 = Signature.of(uncontrolled=(Q,), controlled=(Port("x"),))
    pc1 = _pc(sig1, h, np.ones(4, dtype=bool), {"q"}, pct.uniform((Q,), h))
    plain = pct.contract(pct.universe(Signature.of(uncontrolled=(Z,)), h),
                         pct.universe(Signature.of(uncontrolled=(Z,)), h))
    unit = prob.ProbContract(plain, (), prob.point_mass_empty(h))
    composed = prob.compose_prob(pc1, unit)
    assert composed.dist == pc1.dist
    assert composed.pports == {"q"}


def test_compose_prob_overlap_errors():
    h = 1
    sig1 = Signature.of(uncontrolled=(Q,), controlled=(Port("x"),))
    sig2 = Signature.of(uncontrolled=(Q,), controlled=(Port("y"),))
    pc1 = _pc(sig1, h, np.ones(4, dtype=bool), {"q"}, pct.uniform((Q,), h))
    pc2 = _pc(sig2, h, np.ones(4, dtype=bool), {"q"}, pct.uniform((Q,), h))
    with pytest.raises(ProbPortOverlapError):
        prob.compose_prob(pc1, pc2)


def test_compose_prob_peer_controlled_port_refused():
    h = 1
    z = Port("zz")
    sig1 = Signature.of(uncontrolled=(z,), controlled=(Port("x"),))
    pc1 = _pc(sig1, h, np.ones(4, dtype=bool), {"zz"}, pct.uniform((z,), h))
    sig2 = Signature.of(uncontrolled=(Q,), controlled=(z,))
    pc2 = _pc(sig2, h, np.ones(4, dtype=bool), set(), prob.point_mass_empty(h))
    with pytest.raises(ProbPortControlledError):
        prob.compose_prob(pc1, pc2)


# --- refinement --------------------------------------------------------------------

def _uniform_pc(g_mask, pports=("q",), sig=SIG_QZ, h=1):
    ports = tuple(sig.port(n) for n in sorted(pports))
    return _pc(sig, h, g_mask, set(pports), pct.uniform(ports, h))


def test_refine_level_equal_guarantees_is_one():
    rng = random.Random(22)
    for _ in range(20):
        g = np.array([rng.random() < 0.7 for _ in range(4)])
        pc = _uniform_pc(g)
        report = prob.refine_level(pc, pc)
        if report.degenerate:
            continue
        assert report.level == 1


def test_refine_level_universe_target_is_one():
    g = np.array([True, False, True, True])
    pc1 = _uniform_pc(g)
    pc2 = _uniform_pc(np.ones(4, dtype=bool))
    report = prob.refine_level(pc1, pc2)
    assert not report.degenerate and report.level == 1


def test_refine_level_degenerate_flagged():
    # guarantee constrains the free port z in every fiber: no pinned history
    g = pct.denote(pct.parse_expr("never(z)"), SIG_QZ, 1)
    pc1 = _uniform_pc(g.mask)
    pc2 = _uniform_pc(np.ones(4, dtype=bool))
    report = prob.refine_level(pc1, pc2)
    assert report.degenerate and report.p_g1 == 0


def test_refine_level_marginal_mismatch():
    g = np.ones(4, dtype=bool)
    pc1 = _pc(SIG_QZ, 1, g, {"q"}, pct.bernoulli_iid(Q, frac("1/3"), 1))
    pc2 = _pc(SIG_QZ, 1, g, {"q"}, pct.bernoulli_iid(Q, frac("1/2"), 1))
    with pytest.raises(MarginalMismatchError):
        prob.refine_level(pc1, pc2)


def test_refine_level_known_value():
    # G1 pins q=F fibers only; G2 pins none of G1's beyond the q=F fiber
    g1 = pct.denote(pct.parse_expr("not q"), SIG_QZ, 1)
    g2_mask = g1.mask.copy()
    g2_mask[0] = False   # drop (q=F, z=F): the q=F fiber is no longer pinned by G2
    pc1 = _uniform_pc(g1.mask)
    pc2 = _uniform_pc(g2_mask)
    report = prob.refine_level(pc1, pc2)
    assert (report.level, report.p_g1, report.degenerate) == (0, frac("1/2"), False)


def test_refine_bound_counterexample_is_real():
    """The multiplicative refinement bound fails on this minimal instance.

    All refinement preconditions hold and the conditioning is not
    degenerate, yet sat_level(m, pc2) < sat_level(m, pc1) * gamma.  The
    independent oracle reproduces every quantity exactly, so this is a
    property of the definitions, not an implementation artifact.
    """
    from pct import oracle

    h = 1
    g1 = pct.from_runs(SIG_QZ, h, [
        (("q", (False,)), ("z", (False,))),
        (("q", (False,)), ("z", (True,))),
        (("q", (True,)), ("z", (False,)))])
    g2 = pct.from_runs(SIG_QZ, h, [
        (("q", (False,)), ("z", (False,))),
        (("q", (False,)), ("z", (True,))),
        (("q", (True,)), ("z", (True,)))])
    pc1 = _uniform_pc(g1.mask)
    pc2 = _uniform_pc(g2.mask)
    m = pct.from_runs(SIG_QZ, h, [
        (("q", (False,)), ("z", (False,))),
        (("q", (True,)), ("z", (False,)))])

    report = prob.refine_level(pc1, pc2)
    beta1 = prob.sat_level(m, pc1).level
    beta2 = prob.sat_level(m, pc2).level
    assert (report.level, report.p_g1) == (1, frac("1/2"))
    assert (beta1, beta2) == (1, frac("1/2"))
    assert beta2 < beta1 * report.level    # the bound is violated

    o_gamma, o_pg1, o_degen = oracle.oracle_refine_level(pc1, pc2)
    assert (o_gamma, o_pg1, o_degen) == (report.level, report.p_g1, False)
    assert oracle.oracle_sat_level(m, pc1) == beta1
    assert oracle.oracle_sat_level(m, pc2) == beta2


def test_refine_tightness_equality_when_target_inside_source():
    """With the refined guarantee inside the refining one and a universal
    implementation, the bound is attained with equality."""
    rng = random.Random(23)
    hits = 0
    for _ in range(40):
        g1 = np.array([rng.random() < 0.8 for _ in range(4)])
        g2 = g1 & np.array([rng.random() < 0.7 for _ in range(4)])
        pc1 = _uniform_pc(g1)
        pc2 = _uniform_pc(g2)
        report = prob.refine_level(pc1, pc2)
        if report.degenerate:
            continue
        beta1 = prob.sat_level(pct.universe(SIG_QZ, 1), pc1).level
        beta2 = prob.sat_level(pct.universe(SIG_QZ, 1), pc2).level
        assert beta2 == beta1 * report.level
        hits += 1
    assert hits > 5
