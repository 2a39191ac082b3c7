"""Differential tests of the axis view that every mask and weight operation
computes on, against explicit run sets and a from-scratch index formula."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import pct
from pct import BOOL, Assertion, Port, Signature, contracts, oracle, probabilistic, traces
from pct.oracle import materialize, oracle_lift
from conftest import bit_members, run_of, weights

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


def restricted(values, ports, h, keep):
    """The index of a run, given as name -> history, restricted to the
    ports of ``ports`` named in ``keep``."""
    return index_of([p for p in ports if p.name in keep], h, values)


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
    runs = all_runs(sig.ports, h)
    for k in range(len(sig.names) + 1):
        for keep in itertools.combinations(sig.names, k):
            small = sig.restricted(keep)
            want = frozenset(restricted(runs[i], sig.ports, h, keep)
                             for i in bit_members(materialize(e), len(runs)))
            got = materialize(pct.project(e, small))
            assert bit_members(got, traces.universe_size(small, h)) == want


@pytest.mark.parametrize("sig,h", CASES)
def test_product_union_and_inclusion_match_sets(sig, h):
    rng = random.Random(str(sig) + str(h))
    other = Signature.of(uncontrolled=(Port("b0", TRI) if h < 3 else Port("b0", BOOL),))
    if "b0" in sig or traces.universe_size(extended(sig, other.ports), h) > 5000:
        other = Signature.of()
    e1, e2 = random_mask(rng, sig, h), random_mask(rng, other, h)
    joint = traces.union_signature(sig, other)
    size = traces.universe_size(joint, h)
    s1 = bit_members(oracle_lift(materialize(e1), sig, joint, h), size)
    s2 = bit_members(oracle_lift(materialize(e2), other, joint, h), size)
    assert bit_members(materialize(pct.product(e1, e2)), size) == s1 & s2
    assert bit_members(materialize(pct.union(e1, e2)), size) == s1 | s2
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

    def step(t):
        return (traces.slot_values(sig, h, x.name, t) + traces.slot_values(sig, h, y.name, t)
                + t) % 2 == 0

    want = frozenset(
        index_of(sig.ports, h, r) for r in all_runs(sig.ports, h)
        if all((x.domain.index(r[x.name][t]) + y.domain.index(r[y.name][t]) + t) % 2 == 0
               for t in range(h)))
    got = materialize(traces.from_step_predicate(sig, h, step))
    assert bit_members(got, traces.universe_size(sig, h)) == want


def test_from_step_predicate_takes_a_repeated_step_value_once():
    sig = Signature.of(uncontrolled=(Port("a"), Port("b", TRI)))
    space = traces.space_of(sig, 3)
    value = np.random.default_rng(0).random(space.shape) < 0.5
    calls = []

    class Counted(np.ndarray):
        def __and__(self, other):
            calls.append(1)
            return super().__and__(other)

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            calls.append(ufunc.__name__)
            inputs = tuple(x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    step = value.view(Counted)
    e = traces.from_step_predicate(sig, 3, lambda t: step)
    assert calls == []
    assert e.mask.tolist() == value.reshape(-1).tolist()


def test_owned_step_values_become_the_mask_without_a_copy():
    sig = Signature.of(uncontrolled=(Port("a"), Port("b", TRI)))
    value = np.random.default_rng(1).random(traces.space_of(sig, 3).shape) < 0.5
    e = traces.from_step_predicate(sig, 3, lambda t: value)
    assert np.shares_memory(e.mask, value)
    assert e.mask.tolist() == value.reshape(-1).tolist()


# --- the combine kernel -------------------------------------------------------------

KERNEL_UFUNCS = (np.logical_and, np.logical_or, np.greater, np.greater_equal, np.equal)


def random_operand(rng, shape, kind):
    """A boolean operand that broadcasts to ``shape``: 0-d, a numpy scalar,
    size 1 on every axis, full, or present on a random subset of the axes
    (an interleaved pattern); sometimes a transposed view."""
    if kind == "scalar":
        return np.bool_(rng.random() < 0.5)
    if kind == "0-d":
        return np.array(rng.random() < 0.5)
    if kind == "size-1":
        return np.array(rng.random() < 0.5).reshape((1,) * len(shape))
    keep = [True] * len(shape) if kind == "full" else [rng.random() < 0.5 for _ in shape]
    own = tuple(r if k else 1 for r, k in zip(shape, keep))
    x = np.random.default_rng(rng.randrange(2**32)).random(own) < 0.5
    lead = rng.randrange(len(own) + 1) if kind == "subset" else 0
    x = x.reshape(own[lead:]) if all(r == 1 for r in own[:lead]) else x
    if kind == "subset" and x.ndim > 1 and rng.random() < 0.2:
        # the same values through a non-contiguous view
        x = np.ascontiguousarray(x.swapaxes(0, -1)).swapaxes(0, -1)
    return x


def kernel_shapes():
    """Axis-view shapes of radix 2 and 3, under and over the block size."""
    rng = random.Random(22)
    out = [(2,), (3, 2), (2,) * 12, (2,) * 13, (3,) * 8, (2, 3) * 5 + (2,) * 3]
    while len(out) < 30:
        shape = tuple(rng.choice((2, 2, 3)) for _ in range(rng.randint(1, 16)))
        if math.prod(shape) <= 2**17:
            out.append(shape)
    return out


@pytest.mark.parametrize("shape", kernel_shapes())
def test_combine_matches_plain_broadcasting(shape):
    rng = random.Random(str(shape))
    kinds = ("scalar", "0-d", "size-1", "full", "subset", "subset", "subset")
    for _ in range(8):
        ops = [random_operand(rng, shape, rng.choice(kinds)) for _ in range(2)]
        full = np.broadcast_shapes(*map(np.shape, ops))
        for ufunc in KERNEL_UFUNCS:
            want = ufunc(*(np.broadcast_to(x, full) for x in ops))
            got = traces.combine(ufunc, *ops)
            assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == bool
            assert np.array_equal(got, want)
        x = np.asarray(ops[0])
        filled = traces._filled(x, shape)
        assert filled.flags.c_contiguous and filled.flags.writeable
        assert not np.shares_memory(filled, x)
        assert np.array_equal(filled, np.broadcast_to(x, shape))


# --- assertions held as views ----------------------------------------------------------
#
# Each set is built twice: held as a view that reads a random subset of the
# axes (an interleaved pattern, most of the time), and held as the same set
# filled to a full mask.  Every operation must give the same answer on both.

def held_both(rng, sig, h, keep=0.5, density=0.5):
    """(the set held as a view, the same set held as a full mask)."""
    shape = traces.space_of(sig, h).shape
    own = tuple(r if rng.random() < keep else 1 for r in shape)
    view = np.random.default_rng(rng.randrange(2**32)).random(own) < density
    full = np.broadcast_to(view, shape).reshape(-1).copy()
    return Assertion(sig, h, view), Assertion(sig, h, full)


def interleaved(shape):
    """True when a kept axis lies between two dropped ones, or the reverse."""
    kept = [r > 1 for r in shape]
    return any(kept[i] != kept[i + 1] != kept[i + 2] for i in range(len(kept) - 2))


def same(x, y):
    """Equal results of one operation on the two holdings."""
    if isinstance(x, Assertion):
        return (x.signature == y.signature and x.horizon == y.horizon
                and np.array_equal(x.mask, y.mask) and x == y and y == x)
    if isinstance(x, contracts.Contract):
        return (x.signature == y.signature
                and same(x.assumption, y.assumption) and same(x.guarantee, y.guarantee))
    return x == y


VIEW_CASES = [c for c in CASES if traces.universe_size(c[0], c[1]) <= 729]


def test_view_cases_cover_the_shapes_that_matter():
    shapes = [traces.space_of(sig, h).shape for sig, h in VIEW_CASES]
    assert () in shapes and any(len(s) == 1 for s in shapes)
    rng = random.Random(23)
    drawn = [held_both(rng, sig, h)[0].view.shape for sig, h in VIEW_CASES for _ in range(3)]
    assert any(interleaved(s) for s in drawn)


@pytest.mark.parametrize("sig,h", VIEW_CASES)
def test_assertion_operations_agree_on_views_and_full_masks(sig, h):
    rng = random.Random(f"views:{sig}:{h}")
    other = Signature.of(uncontrolled=(Port("b0", TRI if h < 3 else BOOL),))
    if "b0" in sig or traces.universe_size(extended(sig, other.ports), h) > 5000:
        other = Signature.of()
    joint = traces.union_signature(sig, other)
    for keep in (0.0, 0.5, 1.0):
        pair1, pair2 = held_both(rng, sig, h, keep), held_both(rng, other, h, keep)
        for e1 in pair1:
            assert same(pct.complement(e1), pct.complement(pair1[1]))
            assert (e1.is_empty, len(e1)) == (pair1[1].is_empty, len(pair1[1]))
            assert e1 == pair1[1] and pair1[1] == e1
            big = extended(sig, [p for p in (Port("zz", TRI), Port("a0")) if p.name not in sig])
            if traces.universe_size(big, h) <= 5000:
                assert same(pct.lift(e1, big), pct.lift(pair1[1], big))
            for k in range(len(sig.names) + 1):
                for names in itertools.combinations(sig.names, k):
                    small = sig.restricted(names)
                    assert same(pct.project(e1, small), pct.project(pair1[1], small))
            if sig.ports:
                flipped = Signature(sig.ports, sig.uncontrolled, sig.controlled)
                assert same(*(Assertion(flipped, h, traces.lifted_view(e, flipped))
                              for e in (e1, pair1[1])))
            for e2 in pair2:
                for op in (pct.product, pct.union):
                    assert same(op(e1, e2), op(pair1[1], pair2[1]))
                assert pct.included_in(e1, e2, joint) == pct.included_in(pair1[1], pair2[1], joint)
                assert pct.included_in(pct.product(e1, e2), e1, joint)


CONTRACT_PORTS = {"a": Port("a"), "b": Port("b", TRI), "c": Port("c"), "k": Port("k", ONE),
                  "p": Port("p"), "q": Port("q")}


def contract_sig(controlled, uncontrolled):
    return Signature.of(controlled=[CONTRACT_PORTS[n] for n in controlled],
                        uncontrolled=[CONTRACT_PORTS[n] for n in uncontrolled])


def held_contracts(rng, sig, h):
    """Contracts over ``sig`` whose assertions are held as views and as full
    masks: (view-held contract, full-held contract); the assumption is
    dense, so that most histories are constrained."""
    (av, af), (gv, gf) = held_both(rng, sig, h, density=0.8), held_both(rng, sig, h, density=0.7)
    return pct.contract(av, gv), pct.contract(af, gf)


@pytest.mark.parametrize("seed", range(12))
def test_contract_operations_agree_on_views_and_full_masks(seed):
    rng = random.Random(f"view-contracts:{seed}")
    h = 1 + seed % 2
    sig = contract_sig("bc", "akpq")
    sub = contract_sig("c", "apq")
    peer = contract_sig("a", "cq")
    coins = {n: probabilistic.bernoulli_iid(CONTRACT_PORTS[n], Fraction(1, 3 + i), h)
             for i, n in enumerate("pq")}
    dist = probabilistic.product_dist(coins["p"], coins["q"])
    cv, cf = held_contracts(rng, sig, h)
    sv, sf = held_contracts(rng, sub, h)
    pv, pf = held_contracts(rng, peer, h)
    mv, mf = held_both(rng, contract_sig("bc", "ap"), h, density=0.6)
    assert same(cv, cf)
    for c, m in ((cv, mf), (cf, mv), (cv, mv)):
        assert contracts.satisfies(m, c) == contracts.satisfies(mf, cf)
        assert contracts.satisfaction_formulas(m, c) == contracts.satisfaction_formulas(mf, cf)
    for c1, c2 in ((sv, cv), (sf, cv), (sv, cf)):
        assert contracts.refines(c1, c2) == contracts.refines(sf, cf)
    for c1, c2 in ((cv, pv), (cf, pv), (cv, pf)):
        assert same(contracts.compose(c1, c2), contracts.compose(cf, pf))
    assert same(contracts.compose_impl(mv, pv.guarantee), contracts.compose_impl(mf, pf.guarantee))

    pcs = {}
    for name, (c, s) in {"v": (cv, sv), "f": (cf, sf)}.items():
        pcs[name] = (probabilistic.ProbContract(c, "pq", dist),
                     probabilistic.ProbContract(s, "p", coins["p"]))
    want_sat = probabilistic.sat_level(mf, pcs["f"][0])
    want_refine = probabilistic.refine_level(pcs["f"][1], pcs["f"][0])
    for m, (pc, spc) in ((mv, pcs["f"]), (mf, pcs["v"]), (mv, pcs["v"])):
        assert probabilistic.sat_level(m, pc) == want_sat
        assert probabilistic.refine_level(spc, pc) == want_refine
    assert probabilistic.refine_level(pcs["v"][1], pcs["f"][0]) == want_refine
    assert probabilistic.refine_level(pcs["f"][1], pcs["v"][0]) == want_refine


def plain_within(fs, gs):
    """not any(f and not g) of the plain broadcast of the factors."""
    full = np.broadcast_shapes(*(x.shape for x in fs + gs))
    f = np.logical_and.reduce([np.broadcast_to(x, full) for x in fs])
    g = np.logical_and.reduce([np.broadcast_to(x, full) for x in gs])
    return not (f & ~g).any()


def check_within(rng, shape, monkeypatch):
    """``within`` of 1 to 3 random factors on each side, which read 60 % of
    the axes, against the plain broadcast: once with a block of one
    element, so that ``eliminate`` never makes a conjunction at once, and
    once with the block as it is."""
    cases = []
    for _ in range(6):
        fs, gs = ([np.random.default_rng(rng.randrange(2**32)).random(
            tuple(r if rng.random() < 0.6 else 1 for r in shape)) < density
            for _ in range(rng.randint(1, 3))] for density in (rng.choice((0.1, 0.9)), 0.97))
        # the last two hold: the conjunction of both sides lies within either
        cases += [(fs, gs), (gs, fs), (fs + gs, gs), (gs + fs, fs)]
    want = [plain_within(fs, gs) for fs, gs in cases]
    assert False in want
    for block in (1, traces._BLOCK):
        monkeypatch.setattr(traces, "_BLOCK", block)
        assert [traces.within(fs, gs) for fs, gs in cases] == want


@pytest.mark.parametrize("shape", kernel_shapes())
def test_within_matches_plain_broadcasting(shape, monkeypatch):
    check_within(random.Random(f"within:{shape}"), shape, monkeypatch)


def test_within_reduces_every_axis_only_one_side_reads():
    # two axes each that only one side reads, around 2^17 points both read
    shape = (2,) * 21
    rng = np.random.default_rng(21)
    a = rng.random((2, 2, 1, 1) + shape[4:]) < 0.999
    b = rng.random((1, 1, 2, 2) + shape[4:]) < 0.999
    assert traces.within([a], [b]) == plain_within([a], [b])
    assert traces.within([a, b], [b]) and traces.within([b, a], [a])
    # at one shared point, a holds only where its second axis is 1 and b
    # fails only where its second axis is 0: a <= b fails there, though the
    # two axes' positions agree
    a = np.zeros((2, 2, 1, 1) + shape[4:], dtype=bool)
    a[:, 1, :, :, 0] = True
    b = np.ones((1, 1, 2, 2) + shape[4:], dtype=bool)
    b[:, :, :, 0, 0] = False
    assert not traces.within([a], [b])
    b[:, :, :, 0, 0] = True
    assert traces.within([a], [b])


@pytest.mark.parametrize("at", [0, 2**16 - 1, 2**16, 2**18 - 1])
def test_equality_finds_one_flipped_run(at):
    # 2^18 runs held three ways: two one-factor views of one shape compare
    # in one pass, and factors compare by within both ways
    sig = Signature.of(uncontrolled=[Port(name) for name in "abcdef"])
    shape = traces.space_of(sig, 3).shape
    rng = np.random.default_rng(18)
    factors = tuple(rng.random(tuple(r if lo <= i < lo + 8 else 1 for i, r in enumerate(shape)))
                    < 0.97 for lo in (0, 5, 10))
    mask = np.logical_and.reduce([np.broadcast_to(x, shape) for x in factors]).reshape(-1)
    ways = [Assertion(sig, 3, mask.copy()), Assertion(sig, 3, mask.reshape(shape).copy()),
            Assertion(sig, 3, factors)]
    assert len(ways[2].factors) == 3
    assert all(x == y for x in ways for y in ways)
    # kept views of two shapes that hold one set
    one, filled = (Assertion(sig, 3, x) for x in (factors[0].copy(),
                                                  np.broadcast_to(factors[0], shape).copy()))
    assert one.view.shape != filled.view.shape and one == filled and filled == one
    flipped = mask.copy()
    flipped[at] = not flipped[at]
    for other in (Assertion(sig, 3, flipped.copy()), Assertion(sig, 3, flipped.reshape(shape))):
        assert all(x != other and other != x for x in ways)


# --- reductions in every layout ------------------------------------------------------

def kept_axes(n, layout):
    """Axis numbers of a kept set (as Omega's axes) of an n-axis view: the
    first or the last third, every other axis, or groups of three."""
    k = max(1, n // 3)
    return {"first": set(range(k)), "last": set(range(n - k, n)),
            "interleaved": set(range(0, n, 2)),
            "groups": {i for i in range(n) if i // 3 % 2 == 0}}[layout]


LAYOUTS = ("first", "last", "interleaved", "groups")

def apart_shapes():
    """Axis-view shapes with results under and over the block size."""
    rng = random.Random(29)
    out = [(2,) * 6, (3, 2, 3), (2,) * 14, (2,) * 17, (3,) * 10, (2, 3) * 5 + (2,) * 4]
    while len(out) < 16:
        shape = tuple(rng.choice((2, 2, 3)) for _ in range(rng.randint(3, 16)))
        if math.prod(shape) <= 2**17:
            out.append(shape)
    return out


@pytest.mark.parametrize("shape", apart_shapes())
def test_within_matches_plain_broadcasting_on_apart_shapes(shape, monkeypatch):
    check_within(random.Random(f"within-apart:{shape}"), shape, monkeypatch)


@pytest.mark.parametrize("shape", apart_shapes())
def test_reduced_matches_the_plain_reduce_in_every_layout(shape):
    # the reduced axes are the kept set of each layout, or all the others
    rng = random.Random(f"reduced:{shape}")
    copied = set()
    for layout in LAYOUTS:
        for axes in (kept_axes(len(shape), layout),
                     set(range(len(shape))) - kept_axes(len(shape), layout)):
            own = tuple(r if rng.random() < 0.8 else 1 for r in shape)
            x = np.random.default_rng(rng.randrange(2**32)).random(own)
            axes = tuple(i for i in sorted(axes) if own[i] > 1)
            if not axes:
                continue
            for ufunc, values in ((np.logical_or, x < 0.1), (np.logical_and, x < 0.9),
                                  (np.add, (x * 7).astype(np.int64)),
                                  (np.add, (x * 7).astype(np.int64).astype(object))):
                want = ufunc.reduce(values, axis=axes, keepdims=True)
                got = traces._reduced(ufunc, values, axes)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
            copied.add(math.prod(own) > traces._BLOCK and innermost_run(own, axes) < traces._SHORT)
    # both sides of the gate, where the shape is large enough to have two
    assert copied == {False, True} or math.prod(shape) < 4 * traces._BLOCK


def innermost_run(shape, axes):
    """The elements of the innermost axes of one kind, reduced or kept."""
    sizes = [(r, i in axes) for i, r in enumerate(shape) if r > 1]
    kind = sizes[-1][1]
    return math.prod(itertools.takewhile(lambda r: r, (r if k == kind else 0
                                                        for r, k in reversed(sizes))))


SAT_PORTS = {"first": ("a", "b", "m", "n", "x", "y"), "last": ("u", "v", "m", "n", "x", "y"),
             "interleaved": ("b", "n", "m", "o", "x", "y")}


@pytest.mark.parametrize("layout", sorted(SAT_PORTS))
@pytest.mark.parametrize("h", [1, 2])
def test_sat_level_matches_the_oracle_when_each_side_reads_slots_alone(layout, h):
    # two coins, two inputs and two outputs; m and G each read slots outside
    # Omega that the other does not, so both are reduced before m > G
    p, q, u, v, x, y = (Port(n, TRI if n == "n" and h == 1 else BOOL) for n in SAT_PORTS[layout])
    sig = Signature.of(controlled=(x, y), uncontrolled=(p, q, u, v))
    space = traces.space_of(sig, h)
    omega = {p.name, q.name}
    rng = random.Random(f"sat-apart:{layout}:{h}")
    dist = probabilistic.product_dist(probabilistic.bernoulli_iid(p, Fraction(1, 3), h),
                                      random_dist(rng, (q,), h))
    for _ in range(6):
        outside = [i for i, (n, _) in enumerate(space.axes) if n not in omega]
        rng.shuffle(outside)
        m_only, g_only = {outside[0]}, {outside[1]}
        reads = [set(), set()]
        for i in range(len(space.shape)):
            side = rng.choice(("m", "g", "both", "both", "none")) if i not in m_only | g_only else (
                "m" if i in m_only else "g")
            if side in ("m", "both"):
                reads[0].add(i)
            if side in ("g", "both"):
                reads[1].add(i)
        mv, gv = (np.random.default_rng(rng.randrange(2**32)).random(
            tuple(r if i in own else 1 for i, r in enumerate(space.shape))) < density
            for own, density in zip(reads, (0.5, 0.9)))
        m = Assertion(sig, h, mv)
        pc = probabilistic.ProbContract(pct.contract(pct.universe(sig, h), Assertion(sig, h, gv)),
                                         omega, dist)
        report = probabilistic.sat_level(m, pc)
        assert report.level == oracle.oracle_sat_level(m, pc)
        full = Assertion(sig, h, np.broadcast_to(mv, space.shape).reshape(-1).copy())
        assert probabilistic.sat_level(full, pc) == report


def test_reduce_of_a_view_matches_the_reduce_of_its_fill():
    sig = Signature.of(controlled=(Port("a"), Port("b", TRI)), uncontrolled=(Port("c"), Port("d")))
    h, rng = 2, random.Random(7)
    space = traces.space_of(sig, h)
    for keep in ("ac", "bd", "abcd", ""):
        small = traces.space_of(sig.restricted(keep), h)
        for _ in range(4):
            v, f = held_both(rng, sig, h)
            for ufunc in (np.logical_and, np.logical_or):
                got = traces._reduce(ufunc, v.view, space, small)
                want = traces._reduce(ufunc, f.mask, space, small)
                assert got.ndim == len(small.shape)
                assert np.array_equal(np.broadcast_to(got, small.shape), want)


def test_the_first_mask_read_fills_the_view_once(monkeypatch):
    sig = Signature.of(uncontrolled=(Port("a"), Port("b", TRI), Port("c")))
    h = 2
    space = traces.space_of(sig, h)
    view = np.random.default_rng(3).random((1, 2, 3, 1, 1, 2)) < 0.5
    assert view.ndim == len(space.shape)
    e = Assertion(sig, h, view)
    fills = []
    filled = traces._filled
    monkeypatch.setattr(traces, "_filled", lambda *args: fills.append(args) or filled(*args))
    assert not e.view.flags.writeable
    mask = e.mask
    assert len(fills) == 1 and mask.shape == (space.size,) and not mask.flags.writeable
    assert np.array_equal(mask, np.broadcast_to(view, space.shape).reshape(-1))
    assert e.mask is mask and len(e) == int(mask.sum()) and list(e) == list(pct.runs(e))
    assert len(fills) == 1
    # a view that is already full size and in C order is the mask itself
    whole = np.random.default_rng(4).random(space.shape) < 0.5
    assert np.shares_memory(Assertion(sig, h, whole).mask, whole)
    assert len(fills) == 1
    with pytest.raises(pct.PctError):
        Assertion(sig, h, view.reshape(-1))
    with pytest.raises(pct.PctError):
        Assertion(sig, h, np.zeros((1, 2, 2, 1, 2, 1), dtype=bool))


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
    w1, w2 = weights(d1), weights(d2)
    want = [w1[index_of(left, h, r)] * w2[index_of(right, h, r)]
            for r in all_runs(left + right, h)]
    assert weights(got) == want


@pytest.mark.parametrize("left,right,h", DIST_CASES)
def test_marginal_matches_index_loop(left, right, h):
    ports = left + right
    d = random_dist(random.Random(f"m{ports}{h}"), ports, h)
    for keep in (left, right, ports):
        want = [Fraction(0)] * traces.universe_size(Signature.of(uncontrolled=keep), h)
        for r, w in zip(all_runs(ports, h), weights(d)):
            want[index_of(keep, h, r)] += w
        got = probabilistic.marginal(d, [p.name for p in keep])
        assert weights(got) == want


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
    # a and c are not adjacent in name order: contracting the table moves
    # its axes past b's
    ([("table", (Port("a"), Port("c"))), coin("b", Fraction(1, 3))], (1, 2)),
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
    assert weights(d) == [ref(r) for r in runs]
    assert len(d.factors) == len(parts)


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
            assert weights(got) == want
            assert got == probabilistic.Distribution(keep, h, want)


@pytest.mark.parametrize("k", [2, 3])
def test_equality_compares_factors_or_joint_numerators(k):
    parts = FACTOR_CASES[k][0]
    ws = weights(build(parts, 2, k)[0])
    d, _ = build(parts, 2, k)
    joint = probabilistic.Distribution(d.ports, 2, ws)
    other = probabilistic.Distribution(d.ports, 2, ws[::-1])
    assert len(joint.factors) == 1 and len(d.factors) == 2
    assert d == joint and joint == d
    assert other != d and d != other and other != joint


def _levels_by_history(m, g1, g2, dist, sig, h):
    """sat_level's level and witness for m against g2, and the masses of the
    histories pinning g1 and pinning both, by a loop over the histories."""
    runs = all_runs(sig.ports, h)
    level, witness, p_g1, p_both = Fraction(0), None, Fraction(0), Fraction(0)
    for omega, w in zip(all_runs(dist.ports, h), weights(dist)):
        fiber = [i for i, r in enumerate(runs)
                 if all(r[n] == v for n, v in omega.items())]
        if all(g2[i] or not m[i] for i in fiber):
            level += w
        elif w and (witness is None or w > witness[1]):
            witness = (run_of(omega), w)
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
        pc1 = probabilistic.ProbContract(pct.contract(universe, g1), d.names, d)
        pc2 = probabilistic.ProbContract(pct.contract(universe, g2), d.names, d)
        level, witness, p_g1, p_both = _levels_by_history(m.mask, g1.mask, g2.mask, d, sig, h)
        report = probabilistic.sat_level(m, pc2)
        assert (report.level, report.witness_bad) == (level, witness)
        refine = probabilistic.refine_level(pc1, pc2)
        assert (refine.p_g1, refine.degenerate) == (p_g1, p_g1 == 0)
        assert refine.level == (p_both / p_g1 if p_g1 else 0)


def refined_signature(d, h):
    """The refined contract's signature: outputs y and z, the ports of ``d``
    and a free input u."""
    u = Port("u", TRI if h == 1 else BOOL)
    return Signature.of(controlled=(Port("y"), Port("z")), uncontrolled=d.ports + (u,))


SUB_REFINE_CASES = [c for c in factor_cases() if c[1] < 3 and traces.universe_size(
    refined_signature(build(*c)[0], c[1]), c[1]) <= 5000]


@pytest.mark.parametrize("parts,h,k", SUB_REFINE_CASES)
def test_refining_from_a_sub_signature_matches_the_per_history_loop(parts, h, k):
    # the refining contract reads y, u and the first probabilistic port only:
    # the refined one's other probabilistic ports and z are free in its guarantee
    d, _ = build(parts, h, k)
    sig = refined_signature(d, h)
    read = d.ports[:1]
    sub = Signature.of(controlled=(sig.port("y"),), uncontrolled=read + (sig.port("u"),))
    rng = random.Random(f"sub-refine:{k}:{h}")
    names = [p.name for p in read]

    def draw(s, keep):
        size = traces.space_of(s, h).size
        return Assertion(s, h, np.array([rng.random() < keep for _ in range(size)]))

    for keep in (0.7, 0.9, 0.98):
        g1, g2 = draw(sub, keep), draw(sig, keep)
        pc1 = probabilistic.ProbContract(pct.contract(pct.universe(sub, h), g1), names,
                                          probabilistic.marginal(d, names))
        pc2 = probabilistic.ProbContract(pct.contract(pct.universe(sig, h), g2), d.names, d)
        lifted = pct.lift(g1, sig).mask
        _, _, p_g1, p_both = _levels_by_history(lifted, lifted, g2.mask, d, sig, h)
        refine = probabilistic.refine_level(pc1, pc2)
        assert (refine.p_g1, refine.degenerate) == (p_g1, p_g1 == 0)
        assert refine.level == (p_both / p_g1 if p_g1 else 0)
