"""Differential tests of the axis view that every mask and weight operation
computes on, against explicit run sets and a from-scratch index formula."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import pct
from pct import BOOL, Assertion, Port, Run, Signature, oracle, probabilistic, traces
from pct.oracle import materialize, oracle_lift

TRI = (0, 1, 2)
ONE = ("only",)


def index_of(ports, h, values):
    """Little-endian mixed radix over (port, step), ports in name order."""
    idx, mult = 0, 1
    for p in sorted(ports, key=lambda q: q.name):
        for t in range(h):
            idx += p.domain.index(values[p.name][t]) * mult
            mult *= len(p.domain)
    return idx


def all_runs(ports, h):
    """Every run over the ports, in index order, as name -> history dicts."""
    ports = sorted(ports, key=lambda p: p.name)
    runs = [{}]
    for p in ports:
        hists = list(itertools.product(p.domain, repeat=h))
        runs = [{**r, p.name: hist} for hist in hists for r in runs]
    runs.sort(key=lambda r: index_of(ports, h, r))
    return runs


def entry_tuple(values):
    """A run as the oracle holds it: name-sorted (port, history) pairs."""
    return tuple(sorted(values.items()))


def random_mask(rng, sig, h):
    size = traces.space_of(sig, h).size
    return Assertion(sig, h, np.array([rng.random() < 0.5 for _ in range(size)], dtype=bool))


def cases():
    """(signature, horizon) pairs: {0,1,2} and one-value domains, h = 1..3,
    and the empty signature."""
    rng = random.Random(5)
    out = [(Signature.of(), h) for h in (1, 2, 3)]
    for h in (1, 2, 3):
        for _ in range(6):
            ports = [Port(name, rng.choice([BOOL, TRI, ONE]))
                     for name in rng.sample("abcde", rng.randint(1, 3))]
            ctrl = [p for p in ports if rng.random() < 0.5]
            sig = Signature.of(controlled=ctrl, uncontrolled=[p for p in ports if p not in ctrl])
            if traces.universe_size(sig, h) <= 729:
                out.append((sig, h))
    return out


CASES = cases()


def extended(sig, extra):
    return Signature.of(
        controlled=tuple(sig.port(n) for n in sorted(sig.controlled)),
        uncontrolled=tuple(sig.port(n) for n in sorted(sig.uncontrolled)) + tuple(extra))


def test_cases_cover_the_shapes_that_matter():
    assert any(not sig.ports for sig, _ in CASES)
    assert {h for _, h in CASES} == {1, 2, 3}
    assert any(p.domain == TRI for sig, _ in CASES for p in sig.ports)
    assert any(p.domain == ONE for sig, _ in CASES for p in sig.ports)


# --- masks ------------------------------------------------------------------------

@pytest.mark.parametrize("sig,h", CASES)
def test_lift_matches_explicit_extension(sig, h):
    rng = random.Random(str(sig) + str(h))
    e = random_mask(rng, sig, h)
    # "b0" sorts between existing names, "zz" after them, "a0" before most
    for extra in ([Port("zz", TRI)], [Port("b0", BOOL), Port("a0", TRI)], [Port("k0", ONE)]):
        big = extended(sig, [p for p in extra if p.name not in sig])
        if traces.universe_size(big, h) > 5000:
            continue
        got = pct.lift(e, big)
        assert materialize(got) == oracle_lift(materialize(e), sig, big, h)


@pytest.mark.parametrize("sig,h", CASES)
def test_project_matches_explicit_restriction(sig, h):
    rng = random.Random(str(sig) + str(h))
    e = random_mask(rng, sig, h)
    for k in range(len(sig.names) + 1):
        for keep in itertools.combinations(sig.names, k):
            small = sig.restricted(keep)
            want = frozenset(entry_tuple({n: v for n, v in r if n in keep})
                             for r in materialize(e))
            assert materialize(pct.project(e, small)) == want


@pytest.mark.parametrize("sig,h", [c for c in CASES if c[0].ports])
def test_renamed_matches_explicit_renaming(sig, h):
    rng = random.Random(str(sig) + str(h))
    e = random_mask(rng, sig, h)
    # move the first port past every other one, and the last before them
    first, last = sig.names[0], sig.names[-1]
    for old, new in ((first, "zz"), (last, "a0"), (first, first + "_")):
        got = pct.renamed(e, old, new)
        assert got.signature.role(new) == sig.role(old)
        assert materialize(got) == frozenset(
            entry_tuple({new if n == old else n: v for n, v in r}) for r in materialize(e))


@pytest.mark.parametrize("sig,h", CASES)
def test_product_union_and_inclusion_match_sets(sig, h):
    rng = random.Random(str(sig) + str(h))
    other = Signature.of(uncontrolled=(Port("b0", TRI) if h < 3 else Port("b0", BOOL),))
    if "b0" in sig or traces.universe_size(extended(sig, other.ports), h) > 5000:
        other = Signature.of()
    e1, e2 = random_mask(rng, sig, h), random_mask(rng, other, h)
    joint = traces.union_signature(sig, other)
    s1 = oracle_lift(materialize(e1), sig, joint, h)
    s2 = oracle_lift(materialize(e2), other, joint, h)
    assert materialize(pct.product(e1, e2)) == s1 & s2
    assert materialize(pct.union(e1, e2)) == s1 | s2
    assert pct.included_in(e1, e2, joint) == (s1 <= s2)
    assert pct.included_in(pct.product(e1, e2), e1, joint)


@pytest.mark.parametrize("sig,h", CASES)
def test_slot_values_are_the_index_digits(sig, h):
    space = traces.space_of(sig, h)
    runs = all_runs(sig.ports, h)
    for p in sig.ports:
        for t in range(h):
            sv = traces.slot_values(sig, h, p.name, t)
            assert not sv.flags.writeable
            assert sv.size == len(p.domain)
            flat = np.broadcast_to(sv, space.shape).reshape(-1)
            assert flat.tolist() == [p.domain.index(r[p.name][t]) for r in runs]


def test_slot_values_validates_port_and_step():
    sig = Signature.of(uncontrolled=(Port("a"),))
    with pytest.raises(pct.SignatureError):
        traces.slot_values(sig, 2, "b", 0)
    with pytest.raises(pct.PctError):
        traces.slot_values(sig, 2, "a", 2)


@pytest.mark.parametrize("sig,h", [c for c in CASES if len(c[0].ports) >= 2])
def test_from_step_predicate_matches_explicit_runs(sig, h):
    x, y = sig.ports[0], sig.ports[-1]

    def pred(t, val):
        return (val(x.name) + val(y.name) + t) % 2 == 0

    want = frozenset(
        entry_tuple(r) for r in all_runs(sig.ports, h)
        if all((x.domain.index(r[x.name][t]) + y.domain.index(r[y.name][t]) + t) % 2 == 0
               for t in range(h)))
    assert materialize(traces.from_step_predicate(sig, h, pred)) == want


def test_from_step_predicate_takes_a_repeated_step_value_once():
    sig = Signature.of(uncontrolled=(Port("a"), Port("b", TRI)))
    space = traces.space_of(sig, 3)
    value = np.random.default_rng(0).random(space.shape) < 0.5
    calls = []

    class Counted(np.ndarray):
        def __and__(self, other):
            calls.append(1)
            return super().__and__(other)

    step = value.view(Counted)
    e = traces.from_step_predicate(sig, 3, lambda t, val: step)
    assert calls == []
    assert e.mask.tolist() == value.reshape(-1).tolist()
    # the caller's array is not the mask: writing to it later changes nothing
    assert not np.shares_memory(e.mask, value)
    value[...] = ~value
    assert e.mask.tolist() == (~value).reshape(-1).tolist()


def test_owned_step_values_become_the_mask_without_a_copy():
    sig = Signature.of(uncontrolled=(Port("a"), Port("b", TRI)))
    value = np.random.default_rng(1).random(traces.space_of(sig, 3).shape) < 0.5
    e = traces.from_step_predicate(sig, 3, lambda t, val: value, owned=True)
    assert np.shares_memory(e.mask, value)
    assert e.mask.tolist() == value.reshape(-1).tolist()


# --- distributions -----------------------------------------------------------------

def random_dist(rng, ports, h):
    size = traces.space_of(Signature.of(uncontrolled=ports), h).size
    raw = [rng.randint(0, 3) for _ in range(size)]
    raw[0] += 1
    return probabilistic.Distribution(tuple(sorted(ports, key=lambda p: p.name)), h,
                                      tuple(Fraction(w, sum(raw)) for w in raw))


DIST_CASES = [((), (Port("a", TRI),), 2), ((Port("a", TRI),), (Port("b"),), 2),
              ((Port("b"), Port("d", TRI)), (Port("a"), Port("c")), 1),
              ((Port("c", TRI),), (Port("a"), Port("k", ONE)), 3), ((), (), 2)]


@pytest.mark.parametrize("left,right,h", DIST_CASES)
def test_product_dist_matches_index_loop(left, right, h):
    rng = random.Random(f"{left}{right}{h}")
    d1 = random_dist(rng, left, h) if left else probabilistic.point_mass_empty(h)
    d2 = random_dist(rng, right, h) if right else probabilistic.point_mass_empty(h)
    got = probabilistic.product_dist(d1, d2)
    want = [d1.weights[index_of(left, h, r)] * d2.weights[index_of(right, h, r)]
            for r in all_runs(left + right, h)]
    assert list(got.weights) == want
    assert all(type(w) is Fraction for w in got.weights)


@pytest.mark.parametrize("left,right,h", DIST_CASES)
def test_marginal_matches_index_loop(left, right, h):
    ports = left + right
    d = random_dist(random.Random(f"m{ports}{h}"), ports, h)
    for keep in (left, right, ports):
        want = [Fraction(0)] * traces.universe_size(Signature.of(uncontrolled=keep), h)
        for i, r in enumerate(all_runs(ports, h)):
            want[index_of(keep, h, r)] += d.weights[i]
        got = probabilistic.marginal(d, [p.name for p in keep])
        assert list(got.weights) == want
        assert all(type(w) is Fraction for w in got.weights)


@pytest.mark.parametrize("left,right,h", [c for c in DIST_CASES if c[0] + c[1]])
def test_renamed_dist_matches_index_loop(left, right, h):
    ports = left + right
    d = random_dist(random.Random(f"r{ports}{h}"), ports, h)
    names = sorted(p.name for p in ports)
    for old, new in ((names[0], "zz"), (names[-1], "a0")):
        got = probabilistic.renamed_dist(d, old, new)
        moved = [p.renamed(new) if p.name == old else p for p in ports]
        want = [Fraction(0)] * len(d.weights)
        for i, r in enumerate(all_runs(ports, h)):
            r2 = {new if n == old else n: v for n, v in r.items()}
            want[index_of(moved, h, r2)] = d.weights[i]
        assert list(got.weights) == want


def test_receptive_adds_the_first_run_of_each_uncovered_fiber():
    sig = Signature.of(controlled=(Port("c", TRI),), uncontrolled=(Port("p"), Port("z")))
    h = 2
    runs = all_runs(sig.ports, h)
    mask = np.array([r["p"] == (True, True) for r in runs], dtype=bool)
    out = oracle._receptive(mask, sig, h, {"p"})
    for hist in itertools.product(BOOL, repeat=h):
        fiber = [i for i, r in enumerate(runs) if r["p"] == hist]
        if hist == (True, True):
            assert out[fiber].tolist() == mask[fiber].tolist()
        else:
            assert out[fiber].tolist() == [True] + [False] * (len(fiber) - 1)


# --- distributions as products of factors --------------------------------------------
#
# Each law is given by its parts: a Bernoulli coin on one port, or an explicit
# joint table over one or two ports.  The reference weight of a joint history
# is the product of the parts' weights, computed per history with Fractions.

BIG = Fraction(1, 2**40)        # its denominator at h = 2 does not fit in int64
NEAR = Fraction(1, 2**31 - 1)   # int64 per factor; three of them overflow jointly


def coin(name, p):
    return ("coin", Port(name), p)


FACTOR_CASES = [
    # (parts, horizons); a table's weights are drawn per horizon
    ([coin("b", Fraction(1, 3)), ("table", (Port("m", TRI), Port("n")))], (1, 2)),
    ([coin("f", Fraction(2, 5)), ("table", (Port("k", ONE),))], (1, 2, 3)),
    ([("table", (Port("a"), Port("c", TRI))), coin("d", Fraction(1, 10))], (1, 2)),
    ([coin("e", BIG), coin("g", Fraction(1, 3))], (1, 2)),
    ([coin("p", NEAR), coin("q", NEAR), coin("r", NEAR)], (1,)),
]


def build(parts, h, seed):
    """(distribution, reference weight of a history) for the parts at h."""
    rng = random.Random(f"{seed}:{h}")
    dist, refs = probabilistic.point_mass_empty(h), []
    for part in parts:
        if part[0] == "coin":
            _, port, p = part
            d = probabilistic.bernoulli_iid(port, p, h)
            refs.append(lambda r, n=port.name, p=p: math.prod(p if v else 1 - p for v in r[n]))
        else:
            ports = part[1]
            size = traces.universe_size(Signature.of(uncontrolled=ports), h)
            raw = [rng.randint(0, 4) for _ in range(size)]
            raw[-1] += 1
            ws = [Fraction(w, sum(raw)) for w in raw]
            d = probabilistic.Distribution(ports, h, ws)
            refs.append(lambda r, ports=ports, ws=ws: ws[index_of(ports, h, r)])
        dist = probabilistic.product_dist(dist, d)
    return dist, lambda r: math.prod((ref(r) for ref in refs), start=Fraction(1))


def factor_cases():
    return [(parts, h, k) for k, (parts, hs) in enumerate(FACTOR_CASES) for h in hs]


@pytest.mark.parametrize("parts,h,k", factor_cases())
def test_factored_weights_match_the_per_history_product(parts, h, k):
    d, ref = build(parts, h, k)
    runs = all_runs(d.ports, h)
    assert list(d.weights) == [ref(r) for r in runs]
    assert all(type(w) is Fraction for w in d.weights)
    assert len(d.factors) == len(parts)
    assert d.numerators().tolist() == [w * d.denominator for w in d.weights]


def test_both_numerator_types_are_exercised():
    big, _ = build(FACTOR_CASES[3][0], 2, 3)
    assert {f.num.dtype for f in big.factors} == {np.dtype(object), np.dtype(np.int64)}
    near, _ = build(FACTOR_CASES[4][0], 1, 4)
    assert {f.num.dtype for f in near.factors} == {np.dtype(np.int64)}
    assert near.denominator > np.iinfo(np.int64).max
    assert near.numerators().dtype == object
    small, _ = build(FACTOR_CASES[0][0], 2, 0)
    assert small.numerators().dtype == np.int64


@pytest.mark.parametrize("parts,h,k", factor_cases())
def test_factored_marginals_match_the_per_history_sum(parts, h, k):
    d, ref = build(parts, h, k)
    runs = all_runs(d.ports, h)
    for n in range(len(d.ports) + 1):
        for keep in itertools.combinations(d.ports, n):
            want = [Fraction(0)] * traces.universe_size(Signature.of(uncontrolled=keep), h)
            for r in runs:
                want[index_of(keep, h, r)] += ref(r)
            got = probabilistic.marginal(d, [p.name for p in keep])
            assert list(got.weights) == want
            assert got == probabilistic.Distribution(keep, h, want)


@pytest.mark.parametrize("parts,h,k", factor_cases())
def test_factored_renaming_matches_the_per_history_table(parts, h, k):
    d, ref = build(parts, h, k)
    for old in (d.ports[0].name, d.ports[-1].name):
        for new in ("a0", "zz"):
            got = probabilistic.renamed_dist(d, old, new)
            moved = [p.renamed(new) if p.name == old else p for p in d.ports]
            want = [Fraction(0)] * len(d.weights)
            for r in all_runs(d.ports, h):
                want[index_of(moved, h, {new if n == old else n: v for n, v in r.items()})] = ref(r)
            assert list(got.weights) == want


@pytest.mark.parametrize("k", [2, 3])
def test_equality_compares_factors_or_joint_numerators(k):
    parts = FACTOR_CASES[k][0]
    ws = build(parts, 2, k)[0].weights
    d, _ = build(parts, 2, k)
    joint = probabilistic.Distribution(d.ports, 2, ws)
    other = probabilistic.Distribution(d.ports, 2, ws[::-1])
    assert len(joint.factors) == 1 and len(d.factors) == 2
    assert d == joint and joint == d
    assert other != d and d != other and other != joint
    # the factorizations differ, yet no per-history Fraction was made
    assert d._weights is None and joint._weights is None and other._weights is None


def _levels_by_history(m, g1, g2, dist, sig, h):
    """sat_level's level and witness for m against g2, and the masses of the
    histories pinning g1 and pinning both, by a loop over the histories."""
    runs = all_runs(sig.ports, h)
    level, witness, p_g1, p_both = Fraction(0), None, Fraction(0), Fraction(0)
    for omega, w in zip(all_runs(dist.ports, h), dist.weights):
        fiber = [i for i, r in enumerate(runs)
                 if all(r[n] == v for n, v in omega.items())]
        if all(g2[i] or not m[i] for i in fiber):
            level += w
        elif w and (witness is None or w > witness[1]):
            witness = (Run.of(omega), w)
        if all(g1[i] for i in fiber):
            p_g1 += w
            if all(g2[i] for i in fiber):
                p_both += w
    return level, witness and witness[0], p_g1, p_both


@pytest.mark.parametrize("parts,h,k", [c for c in factor_cases() if c[1] < 3])
def test_factored_levels_match_the_per_history_loop(parts, h, k):
    d, _ = build(parts, h, k)
    sig = Signature.of(controlled=(Port("y"),), uncontrolled=d.ports)
    rng = random.Random(f"levels:{k}:{h}")
    universe = pct.universe(sig, h)
    for keep in (0.5, 0.8, 0.95):
        g1, g2, m = (Assertion(sig, h, np.array([rng.random() < keep for _ in range(len(universe))]))
                     for _ in range(3))
        pc1 = probabilistic.prob_contract(pct.contract(universe, g1), d.names, d)
        pc2 = probabilistic.prob_contract(pct.contract(universe, g2), d.names, d)
        level, witness, p_g1, p_both = _levels_by_history(m.mask, g1.mask, g2.mask, d, sig, h)
        report = probabilistic.sat_level(m, pc2)
        assert (report.level, report.witness_bad) == (level, witness)
        refine = probabilistic.refine_level(pc1, pc2)
        assert (refine.p_g1, refine.degenerate) == (p_g1, p_g1 == 0)
        assert refine.level == (p_both / p_g1 if p_g1 else 0)
