"""Assertions held as conjunctions of factors, against the oracle and plain
NumPy: the elimination that reduces a conjunction one slot at a time, the
levels computed from factored implementations and contracts, and the
broadcast of operands with more axes than NumPy's own helper takes."""

import ast
import inspect
import math
import random

import numpy as np
import pytest

import pct
from pct import BOOL, Assertion, Port, Signature, contracts, oracle, probabilistic, traces
from conftest import bit_members
from test_views import LAYOUTS, TRI, all_runs, apart_shapes, kept_axes, random_dist, restricted


def random_factor(rng, shape, density, keep=0.5):
    """A bool array on the axes of ``shape`` that reads a random subset of them."""
    own = tuple(r if rng.random() < keep else 1 for r in shape)
    return np.random.default_rng(rng.randrange(2**32)).random(own) < density


# --- the elimination ------------------------------------------------------------------

@pytest.mark.parametrize("shape", apart_shapes())
def test_eliminate_matches_the_reduce_of_the_conjunction_in_every_layout(shape):
    rng = random.Random(f"eliminate:{shape}")
    looped = set()
    for layout in LAYOUTS:
        keep = kept_axes(len(shape), layout)
        dropped = tuple(i for i in range(len(shape)) if i not in keep)
        for _ in range(4):
            factors = [random_factor(rng, shape, 0.9) for _ in range(rng.randint(2, 4))]
            # neg: none, on any axes, or on kept axes only, where it meets
            # the others only at the end
            neg = rng.choice([None, random_factor(rng, shape, 0.3), random_factor(
                rng, tuple(r if i in keep else 1 for i, r in enumerate(shape)), 0.3)])
            arrays = factors + ([neg] if neg is not None else [])
            full = np.broadcast_shapes(*(x.shape for x in arrays))
            conj = np.logical_and.reduce([np.broadcast_to(x, full) for x in factors])
            if neg is not None:
                conj = conj & ~np.broadcast_to(neg, full)
            want = np.logical_or.reduce(conj, axis=dropped, keepdims=True)
            got = traces.eliminate(factors, keep, neg)
            assert all(x.ndim == len(shape) and all(x.shape[i] == 1 for i in dropped)
                       for x in got)
            assert np.array_equal(np.broadcast_to(traces.conjunction(got), want.shape), want)
            looped.add(math.prod(full) > traces._BLOCK)
    assert True in looped or math.prod(shape) <= traces._BLOCK


def test_eliminate_makes_no_array_larger_than_a_factor_of_a_chain(monkeypatch):
    # four factors of 6 axes each on a 20-axis view, each sharing its last
    # axis with the next; with Omega on axes 0 and 10 the shared axes 5 and
    # 15 are eliminated pairwise, so the conjunction (2^20) is never made
    shape = (2,) * 20
    factors = [np.random.default_rng(i).random(
        (1,) * (5 * i) + (2,) * min(6, 20 - 5 * i) + (1,) * max(0, 14 - 5 * i)) < 0.9
        for i in range(4)]
    keep = {0, 10}
    made = []
    combine = traces.combine
    monkeypatch.setattr(traces, "combine",
                        lambda ufunc, a, b: made.append(a.size * b.size) or combine(ufunc, a, b))
    got = traces.conjunction(traces.eliminate(factors, keep))
    full = np.logical_and.reduce([np.broadcast_to(x, shape) for x in factors])
    want = np.logical_or.reduce(full, axis=tuple(i for i in range(20) if i not in keep),
                                keepdims=True)
    assert np.array_equal(np.broadcast_to(got, want.shape), want)
    assert made and max(made) <= 2**6


# --- levels of factored implementations and contracts -------------------------------

def level_case(rng, h):
    """(signature, probabilistic ports, their law): one or two controlled
    ports and two or three uncontrolled ones, of which one or two follow
    a law, at most 1024 runs."""
    while True:
        k = rng.randint(1, 2)
        ports = [Port(n, rng.choice([BOOL, BOOL, TRI]))
                 for n in rng.sample("abcdefgh", k + rng.randint(2, 3))]
        unc = ports[k:]
        sig = Signature.of(controlled=ports[:k], uncontrolled=unc)
        if 32 <= traces.universe_size(sig, h) <= 1024:
            break
    prob = sorted(rng.sample(unc, rng.randint(1, min(2, len(unc)))), key=lambda p: p.name)
    dist = probabilistic.point_mass_empty(h)
    for p in prob:
        dist = probabilistic.product_dist(dist, random_dist(rng, (p,), h))
    return sig, frozenset(p.name for p in prob), dist


def factored(rng, sig, h, density):
    shape = traces.space_of(sig, h).shape
    return Assertion(sig, h, tuple(random_factor(rng, shape, density)
                                   for _ in range(rng.randint(2, 4))))


def whole(e):
    """The same set held as one full mask."""
    return Assertion(e.signature, e.horizon, e.mask.copy())


@pytest.fixture(params=["apart", "whole"])
def block(request, monkeypatch):
    # in spaces this small factors are combined at once; a block of one
    # element keeps them apart, as in a large space
    if request.param == "apart":
        monkeypatch.setattr(traces, "_BLOCK", 1)
    return request.param


@pytest.mark.parametrize("seed", range(24))
def test_sat_level_of_conjunctions_matches_the_oracle(seed, block):
    rng = random.Random(f"sat-factors:{seed}")
    h = rng.choice((1, 2))
    sig, pports, dist = level_case(rng, h)
    # the implementation may leave out inputs that are not probabilistic
    free = [p for p in sig.ports if p.name in sig.uncontrolled and p.name not in pports]
    left = {p.name for p in free if rng.random() < 0.5}
    sig_m = sig.restricted(n for n in sig.names if n not in left)
    m = factored(rng, sig_m, h, 0.8)
    c = pct.contract(factored(rng, sig, h, 0.85), factored(rng, sig, h, 0.9))
    pc = probabilistic.ProbContract(c, pports, dist)
    report = probabilistic.sat_level(m, pc)
    assert report.level == oracle.oracle_sat_level(m, pc)
    same = probabilistic.ProbContract(contracts.Contract(
        sig, whole(c.assumption), whole(c.guarantee)), pports, dist)
    assert probabilistic.sat_level(whole(m), same) == report


@pytest.mark.parametrize("seed", range(24))
def test_refine_level_of_conjunctions_matches_the_oracle(seed, block):
    rng = random.Random(f"refine-factors:{seed}")
    h = rng.choice((1, 2))
    sig2, pports2, dist2 = level_case(rng, h)
    pports1 = frozenset(rng.sample(sorted(pports2), rng.randint(1, len(pports2))))
    names1 = [n for n in sig2.names if n in pports1 or n in sig2.controlled or rng.random() < 0.5]
    sig1 = sig2.restricted(names1)
    pc1 = probabilistic.ProbContract(
        pct.contract(factored(rng, sig1, h, 0.8), factored(rng, sig1, h, 0.9)),
        pports1, probabilistic.marginal(dist2, pports1))
    pc2 = probabilistic.ProbContract(
        pct.contract(factored(rng, sig2, h, 0.8), factored(rng, sig2, h, 0.9)), pports2, dist2)
    report = probabilistic.refine_level(pc1, pc2)
    assert (report.level, report.p_g1, report.degenerate) == oracle.oracle_refine_level(pc1, pc2)


@pytest.mark.parametrize("seed", range(24))
def test_quantified_set_operations_on_conjunctions_match_the_oracle(seed, block):
    # project, is_empty, ==, included_in and satisfies take their any over
    # runs with eliminate; the oracle reads the runs of the masks
    rng = random.Random(f"set-factors:{seed}")
    h = rng.choice((1, 2))
    sig, _, _ = level_case(rng, h)
    e1, e2 = (factored(rng, sig, h, rng.choice((0.2, 0.8, 0.95))) for _ in range(2))
    size = traces.universe_size(sig, h)
    runs1, runs2 = (bit_members(oracle.materialize(e), size) for e in (e1, e2))
    assert e1.is_empty == (not runs1)
    assert (e1 == e2, e2 == e1) == (runs1 == runs2,) * 2
    assert e1 == whole(e1) and whole(e1) == e1
    assert pct.included_in(e1, e2, sig) == (runs1 <= runs2)
    assert pct.included_in(pct.product(e1, e2), e2, sig)
    runs = all_runs(sig.ports, h)
    for _ in range(3):
        keep = {n for n in sig.names if rng.random() < 0.5}
        small = sig.restricted(keep)
        want = frozenset(restricted(runs[i], sig.ports, h, keep) for i in runs1)
        got = oracle.materialize(pct.project(e1, small))
        assert bit_members(got, traces.universe_size(small, h)) == want
    c = pct.contract(factored(rng, sig, h, 0.5), factored(rng, sig, h, 0.9))
    assert contracts.satisfies(e1, c) == oracle.oracle_satisfies(e1, c)
    assert contracts.satisfies(pct.product(e1, c.guarantee), c)


def test_the_stored_guarantee_keeps_the_factors_the_assumption_does_not_cover(monkeypatch):
    monkeypatch.setattr(traces, "_BLOCK", 1)
    sig = Signature.of(controlled=(Port("x"), Port("y")), uncontrolled=(Port("a"), Port("b")))
    h = 2
    shape = traces.space_of(sig, h).shape
    rng = random.Random(3)

    def reading(*names):
        own = tuple(r if slot[0] in names else 1
                    for slot, r in zip(traces.space_of(sig, h).axes, shape))
        return np.random.default_rng(rng.randrange(2**32)).random(own) < 0.7

    a = Assertion(sig, h, reading("a"))
    g = Assertion(sig, h, (reading("x", "b"), reading("y", "b"), reading("x", "a")))
    c = contracts.Contract(sig, a, g)
    # the last factor reads no slot outside the first's and A's: the two go into one
    assert len(g.factors) == 3 and len(c.guarantee.factors) == 2
    assert np.array_equal(c.guarantee.mask, g.mask | ~a.mask)
    # where A reads every slot that G reads, the stored guarantee is one factor
    wide = Assertion(sig, h, reading("a", "b", "x", "y"))
    assert len(contracts.Contract(sig, wide, g).guarantee.factors) == 1


# --- the engine's helpers stay out of the oracle --------------------------------------

HELPERS = {"eliminate", "within", "conjunction", "lifted_factors", "_nested", "kept_apart",
           "joint_size"}


def test_the_oracle_names_none_of_the_factor_helpers():
    """Of a run set the oracle reads only the mask: it names no helper of
    the factored form, and reads ``factors`` only of a distribution, in its
    weight helper (``d.factors``)."""
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.Attribute):
            assert node.attr not in HELPERS, f"oracle reads {node.attr}"
            if node.attr == "factors":
                assert isinstance(node.value, ast.Name) and node.value.id == "d"
        elif isinstance(node, ast.Name):
            assert node.id not in HELPERS | {"factors"}, f"oracle names {node.id}"


# --- broadcasting past NumPy's 32 dimensions ------------------------------------------

def test_combine_broadcasts_operands_of_40_axes():
    # size 1 on most axes, so nothing large is allocated
    shape_a = tuple(2 if i % 6 == 0 else 1 for i in range(40))
    shape_b = tuple(2 if i % 6 == 3 else 1 for i in range(40))
    a = np.random.default_rng(40).random(shape_a) < 0.5
    b = np.random.default_rng(41).random(shape_b) < 0.5
    with pytest.raises(RuntimeError, match="32 dimensions"):
        np.broadcast_shapes(a.shape, b.shape)
    got = traces.combine(np.logical_and, a, b)
    assert got.shape == tuple(max(x, y) for x, y in zip(shape_a, shape_b))
    assert np.array_equal(got, a & b)
    # a shorter shape is padded in front, as NumPy broadcasts
    assert traces._joint((3, 1), (2, 1, 2)) == (2, 3, 2)
