"""Budgets bound the instances the verification suites generate."""

import pytest

from pct import PctError, oracle, traces


def _instance_signatures(seed, budget):
    """(signature, horizon) of every object one seed's instances build."""
    out = []
    for disjoint in (False, True):
        inst = oracle.gen_compose_instance(seed, budget, disjoint)
        s1, s2 = inst.pc1.base.signature, inst.pc2.base.signature
        out += [(s, inst.pc1.horizon) for s in (s1, s2, traces.merge_signature_controlled(s1, s2))]
    inst = oracle.gen_refine_instance(seed, budget)
    out += [(pc.base.signature, pc.horizon) for pc in (inst.pc1, inst.pc2)]
    for tag in ("l", "r"):
        c1, c2, h = oracle.gen_refining_contracts(seed, budget, tag, h=1)
        out += [(c1.signature, h), (c2.signature, h)]
    return out


@pytest.mark.parametrize("budget", [
    oracle.Budget(max_domain=1),
    oracle.Budget(max_ports_per_side=2, max_domain=2, max_space=64),
    oracle.Budget(max_ports_per_side=1, max_space=324),
    oracle.Budget(max_space=2187),
])
def test_generated_instances_fit_the_budget(budget):
    for seed in range(25):
        for sig, h in _instance_signatures(seed, budget):
            assert traces.universe_size(sig, h) <= budget.max_space, seed
            assert all(len(p.domain) <= budget.max_domain for p in sig.ports), seed


def test_dom_1_gives_one_value_domains():
    budget = oracle.Budget(max_domain=1)
    ports = {p for seed in range(25) for sig, _ in _instance_signatures(seed, budget)
             for p in sig.ports}
    assert {len(p.domain) for p in ports} == {1}
    assert any(p.name.startswith("x") for p in ports)   # the refining pairs' extension


@pytest.mark.parametrize("kwargs", [{"max_space": 2}, {"max_space": 2186},
                                    {"max_ports_per_side": 5}])
def test_a_space_no_instance_fits_is_rejected(kwargs):
    with pytest.raises(PctError, match="space"):
        oracle.Budget(**kwargs)
