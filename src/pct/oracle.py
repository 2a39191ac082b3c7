"""Brute-force reference semantics and randomized verification suites.

Everything here recomputes satisfaction, composition and the probability
measures by direct definition chasing over explicitly enumerated run
sets: inverse projections are computed by enumerating extensions,
inclusions are plain set inclusions, and probabilities are summed per
history.  None of the engine's mask algebra is reused, so an engine bug
and an oracle bug would have to coincide to go unnoticed.  The suites
evaluate every quantity with both implementations and record any
disagreement.

A run is its entry tuple: the name-sorted ``((port, history), ...)``
pairs, with each history a tuple of values (the same tuple as the
engine's ``Run.entries``, though the oracle never builds a ``Run``).  A
run set is a frozenset of entry tuples, so hashing, equality and the
set operations all run in C.  ``oracle_lift`` joins a run ``r`` with an
extension ``x`` as ``r + x`` and restores name order with one
permutation, fixed per call by the two port lists.

Run indices are turned into runs by ``_Decoder``, written from the
documented index format alone: per port in name order, ``np.divmod`` by
|D|^h splits off the port's history number, and a table of that port's
histories (digit t of the number is the value at step t, built once per
port and horizon by ``_port_entries``) gives the history.  ``_universe``
decodes every index of a port list in order; ``materialize`` gathers the
runs at the indices a mask holds from that list, and ``oracle_universe``,
the extensions of ``oracle_lift`` and the weight loops read it whole.

Decoding is scoped to one suite case.  Each ``check_*`` function opens
the scope itself (``_one_case``), because callers such as the benchmark
call ``SUITES[name](seed)`` directly.  Inside it, the run list of each
``(ports, h)`` is decoded once and each assertion's run set is made once,
memoized by identity with the assertion kept alongside, so that its
``id`` cannot be reused.  The scope is dropped when the case returns or
raises: no run or run set outlives its case, so memory stays bounded by
one case and a second pass over the same seeds does the same work as the
first.  Only the per-port tables (|D|^h entries each, at most 27 at the
default budget) are kept across cases, in a bounded cache.  Outside a
case, as in the tests or a direct ``oracle_sat_level`` call, every call
decodes afresh.

The weight of a history is a product of the distribution's factors
(``_weighted_histories``), computed here and not by ``probabilistic``.
The decoder and the run-set functions use nothing of ``traces`` but its
types, and none of them names ``Run`` (``tests/test_oracle.py`` checks
both); only the instance generators use its layout helpers.
"""

from __future__ import annotations

import contextlib
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product, starmap
from operator import add, itemgetter
from typing import Iterable

import numpy as np

from . import contracts, probabilistic, traces
from .contracts import Contract
from .errors import PctError
from .probabilistic import Distribution, ProbContract
from .record import Record
from .traces import Assertion, Port, Signature

ZERO = Fraction(0)


# --- independent run-set semantics ---------------------------------------------

def _histories(domain: tuple, h: int) -> list:
    """Every history over ``domain``, indexed by its number: digit t of the
    number, base |domain|, is the position of the value at step t."""
    d = len(domain)
    return [tuple(domain[n // d ** t % d] for t in range(h)) for n in range(d ** h)]


@lru_cache(maxsize=256)
def _port_entries(port: Port, h: int) -> tuple:
    """The ``(name, history)`` entries of one port, indexed by history number.

    Keyed by the port itself, which compares its domain values with their
    types, so a {0, 1} port never gets a boolean port's table."""
    return tuple((port.name, hist) for hist in _histories(port.domain, h))


class _Decoder:
    """Run indices of one signature and horizon, decoded to entry tuples.

    The index is the documented little-endian mixed radix: ports in name
    order, each taking a block of |D|^h values, so ``np.divmod`` by that
    block peels one port's history number off the low end.
    """

    def __init__(self, ports, h: int):
        self.port_entries = [_port_entries(p, h) for p in sorted(ports, key=lambda p: p.name)]
        self.size = math.prod(len(entries) for entries in self.port_entries)

    def all_runs(self) -> list:
        """Every run, in index order."""
        if not self.port_entries:
            return [()]
        indices = np.arange(self.size)
        columns = []
        for entries in self.port_entries:
            indices, digits = np.divmod(indices, len(entries))
            columns.append(map(entries.__getitem__, digits.tolist()))
        return list(zip(*columns))


class _Case:
    """What one suite case has decoded: the run list of each ``(ports, h)``
    and the run set of each assertion, the assertion kept beside it so
    that its ``id`` cannot be reused while the entry lives."""

    __slots__ = ("universes", "decoded")

    def __init__(self):
        self.universes = {}
        self.decoded = {}


_case = None      # the _Case of the suite case being checked, if any


@contextlib.contextmanager
def _one_case():
    """Keep decoded run lists and run sets for the duration of one case."""
    global _case
    outer = _case
    _case = _Case()
    try:
        yield
    finally:
        _case = outer


def _universe(ports, h: int) -> list:
    """Every run over ``ports``, in index order; decoded once per case and
    afresh on every call outside one.  Callers must not change the list."""
    case = _case
    if case is None:
        return _Decoder(ports, h).all_runs()
    key = (tuple(ports), h)
    runs = case.universes.get(key)
    if runs is None:
        runs = case.universes[key] = _Decoder(ports, h).all_runs()
    return runs


def materialize(e: Assertion) -> frozenset:
    """Explicit run set of an assertion, decoded independently: the runs
    of its universe at the indices its mask holds."""
    case = _case
    if case is not None and id(e) in case.decoded:
        return case.decoded[id(e)][1]
    runs = _universe(e.signature.ports, e.horizon)
    out = frozenset(map(runs.__getitem__, np.flatnonzero(e.mask).tolist()))
    if case is not None:
        case.decoded[id(e)] = (e, out)
    return out


def oracle_lift(rs: Iterable[tuple], sig_from: Signature, sig_to: Signature, h: int) -> frozenset:
    """Inverse projection by explicit extension enumeration: every run
    ``r`` joined with every history ``x`` of the extra ports, the entries
    of ``r + x`` put back in name order by one fixed permutation."""
    names = list(sig_from.names)
    have = set(names)
    extra = [p for p in sig_to.ports if p.name not in have]
    if not extra:
        return frozenset(rs)
    joined = starmap(add, product(rs, _universe(extra, h)))
    names += sorted(p.name for p in extra)
    perm = sorted(range(len(names)), key=names.__getitem__)
    if perm == list(range(len(names))):
        return frozenset(joined)
    # at least two indices, so itemgetter gives a tuple
    return frozenset(map(itemgetter(*perm), joined))


def oracle_universe(sig: Signature, h: int) -> frozenset:
    return frozenset(_universe(sig.ports, h))


def oracle_included(e1: Assertion, e2: Assertion, sig: Signature) -> bool:
    s1 = oracle_lift(materialize(e1), e1.signature, sig, e1.horizon)
    s2 = oracle_lift(materialize(e2), e2.signature, sig, e2.horizon)
    return s1 <= s2


def oracle_satisfies(m: Assertion, c: Contract) -> bool:
    sig = traces.union_signature(m.signature, c.signature)
    mm = oracle_lift(materialize(m), m.signature, sig, m.horizon)
    aa = oracle_lift(materialize(c.assumption), c.signature, sig, c.horizon)
    gg = oracle_lift(materialize(c.guarantee), c.signature, sig, c.horizon)
    return (mm & aa) <= gg


def oracle_satisfaction_formulas(m: Assertion, c: Contract) -> tuple:
    """The three equivalent satisfaction readings, on explicit sets."""
    sig = traces.union_signature(m.signature, c.signature)
    mm = oracle_lift(materialize(m), m.signature, sig, m.horizon)
    aa = oracle_lift(materialize(c.assumption), c.signature, sig, c.horizon)
    gg = oracle_lift(materialize(c.guarantee), c.signature, sig, c.horizon)
    universe = oracle_universe(sig, m.horizon)
    not_a = universe - aa
    return (mm & aa) <= gg, mm <= (gg | not_a), not (mm & (aa - gg))


def oracle_compose_sets(c1: Contract, c2: Contract):
    """Composed (assumption, guarantee) as explicit run sets.

    Mirrors the engine's contract: operands are taken in canonical form.
    """
    sig = traces.merge_signature_controlled(c1.signature, c2.signature)
    h = c1.horizon
    a1 = oracle_lift(materialize(c1.assumption), c1.signature, sig, h)
    a2 = oracle_lift(materialize(c2.assumption), c2.signature, sig, h)
    g1 = oracle_lift(materialize(c1.guarantee), c1.signature, sig, h)
    g2 = oracle_lift(materialize(c2.guarantee), c2.signature, sig, h)
    universe = oracle_universe(sig, h)
    g = (g1 | (universe - a1)) & (g2 | (universe - a2))
    a = (a1 & a2) | (universe - g)
    return a, g, sig


def _weighted_histories(d: Distribution) -> list:
    """Every joint history of ``d`` with its weight, in index order, from
    the documented factor format alone: the product, over the factors, of
    the factor's numerator at the history's restriction to its ports, over
    the product of the factors' denominators."""
    tables = []
    for f in d.factors:
        names = [p.name for p in f.ports]
        tables.append((names, {tuple(hist for _, hist in r): n
                               for r, n in zip(_universe(f.ports, d.horizon), f.num.tolist())}))
    den = math.prod(f.den for f in d.factors)
    out = []
    for omega in _universe(d.ports, d.horizon):
        hists = dict(omega)
        num = math.prod(table[tuple(hists[n] for n in names)] for names, table in tables)
        out.append((omega, Fraction(num, den)))
    return out


def _fibers(runs: Iterable[tuple], pnames: frozenset) -> dict:
    """The runs grouped by their restriction to the ports ``pnames``."""
    out = {}
    for r in runs:
        out.setdefault(tuple(e for e in r if e[0] in pnames), []).append(r)
    return out


def oracle_sat_level(m: Assertion, pc: ProbContract) -> Fraction:
    """Measure of histories whose induced implementation runs are guaranteed."""
    sig = pc.base.signature
    h = pc.horizon
    mm = oracle_lift(materialize(m), m.signature, sig, h)
    gg = materialize(pc.base.guarantee)
    pnames = frozenset(p.name for p in pc.dist.ports)
    fibers = _fibers(mm, pnames)
    level = ZERO
    for omega, w in _weighted_histories(pc.dist):
        if gg.issuperset(fibers.get(omega, ())):
            level += w
    return level


def oracle_refine_level(pc1: ProbContract, pc2: ProbContract):
    """Returns (level, p_g1, degenerate) by whole-fiber enumeration."""
    sig2 = pc2.base.signature
    h = pc2.horizon
    g1 = oracle_lift(materialize(pc1.base.guarantee), pc1.base.signature, sig2, h)
    g2 = materialize(pc2.base.guarantee)
    pnames = frozenset(p.name for p in pc2.dist.ports)
    fibers = _fibers(_universe(sig2.ports, h), pnames)
    p_g1 = ZERO
    p_both = ZERO
    for omega, w in _weighted_histories(pc2.dist):
        fiber = fibers[omega]
        if g1.issuperset(fiber):
            p_g1 += w
            if g2.issuperset(fiber):
                p_both += w
    if p_g1 == 0:
        return ZERO, ZERO, True
    return p_both / p_g1, p_g1, False


# --- seeded instance generation --------------------------------------------------

class Budget(Record):
    """Size bounds for generated instances.

    ``max_ports_per_side`` counts a compose side's own ports: with a shared
    port and the peer's output, default sides have up to 5 ports, and
    refinement instances have 2 to 4 ports whatever it says.  ``max_space``
    bounds the run space of every signature: the generators lower the
    horizon to fit, and a budget that an instance cannot fit at horizon 1
    is rejected.
    """

    __slots__ = ("max_ports_per_side", "max_horizon", "max_domain", "max_space")

    def __init__(self, max_ports_per_side: int = 3, max_horizon: int = 3,
                 max_domain: int = 3, max_space: int = 4096):
        values = (max_ports_per_side, max_horizon, max_domain, max_space)
        for name, value in zip(self._fields, values):
            if type(value) is not int or value < 1:
                raise PctError(f"budget {name} must be a positive integer, got {value!r}")
        self._assign(*values)
        d = min(self.max_domain, 3)               # the widest domain drawn
        side = min(self.max_ports_per_side, 4)    # own ports: 2 prob, 1 controlled, 1 extra
        # at horizon 1: a composed pair with its shared port, a refinement
        # instance, and two composed refining pairs with boolean extensions
        need = max(d ** (2 * side + 1), d ** 4, (d * d * min(d, 2)) ** 2)
        if self.max_space < need:
            raise PctError(f"budget space={self.max_space} is below {need}, "
                           f"the run space some instance needs at horizon 1")

    @classmethod
    def parse(cls, text: str) -> "Budget":
        """Parse 'ports=3,h=2,dom=2,space=1024' (all keys optional)."""
        kwargs = {}
        keys = {"ports": "max_ports_per_side", "h": "max_horizon",
                "dom": "max_domain", "space": "max_space"}
        if text:
            for part in text.split(","):
                k, _, v = part.partition("=")
                if k.strip() not in keys:
                    raise PctError(f"unknown budget key {k.strip()!r}")
                try:
                    kwargs[keys[k.strip()]] = int(v)
                except ValueError:
                    raise PctError(f"budget {k.strip()} must be an integer, got {v!r}") from None
        return cls(**kwargs)


def _pick_h(rng: random.Random, budget: Budget) -> int:
    return rng.choice([h for h in (1, 1, 2, 2, 3) if h <= budget.max_horizon])


def _pick_domain(rng: random.Random, budget: Budget) -> tuple:
    if budget.max_domain >= 3 and rng.random() < 0.2:
        return (0, 1, 2)
    return traces.BOOL[:budget.max_domain]


def _rand_mask(rng: random.Random, size: int, keep: float) -> np.ndarray:
    return np.array([rng.random() < keep for _ in range(size)], dtype=bool)


def _receptive(mask: np.ndarray, sig: Signature, h: int, pports) -> np.ndarray:
    """Ensure every probabilistic history has at least one run in the mask."""
    space = traces.space_of(sig, h)
    omega = traces.space_of(sig.restricted(pports), h)
    covered = traces._reduce(np.logical_or, mask, space, omega)
    if covered.all():
        return mask
    # in each uncovered fiber, add the run whose other digits are all 0
    others = traces.space_of(sig.restricted(set(sig.names) - set(pports)), h)
    first = traces._spread(np.arange(others.size) == 0, others, space)
    return mask | (first & traces._spread(~covered, omega, space)).reshape(-1)


def _rand_dist(rng: random.Random, ports, h: int) -> Distribution:
    if not ports:
        return probabilistic.point_mass_empty(h)
    ports = tuple(sorted(ports, key=lambda p: p.name))
    sig = Signature.of(uncontrolled=ports)
    size = traces.space_of(sig, h).size
    raw = [rng.randint(0, 4) for _ in range(size)]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    return Distribution(ports, h, tuple(Fraction(r, total) for r in raw))


def _rand_prob_contract(rng, sig: Signature, h: int, pports, dist=None) -> ProbContract:
    size = traces.space_of(sig, h).size
    a_mask = np.ones(size, dtype=bool) if rng.random() < 0.35 else \
        _rand_mask(rng, size, rng.uniform(0.6, 0.95))
    g_mask = _rand_mask(rng, size, rng.uniform(0.55, 0.9))
    base = contracts.contract(Assertion(sig, h, a_mask), Assertion(sig, h, g_mask))
    if dist is None:
        dist = _rand_dist(rng, tuple(sig.port(n) for n in sorted(pports)), h)
    return probabilistic.prob_contract(base, pports, dist)


def _side_signature(rng, budget: Budget, tag: str, h: int, shared_ports, peer_controlled):
    """One side of a composable pair; names are prefixed to keep sides apart."""
    n_prob = rng.choice([0, 1, 1, 1, 2])
    n_prob = min(n_prob, budget.max_ports_per_side - 1)
    prob = [Port(f"p{tag}{i}", _pick_domain(rng, budget)) for i in range(n_prob)]
    ctrl = [Port(f"c{tag}0", _pick_domain(rng, budget))]
    rest = budget.max_ports_per_side - len(prob) - len(ctrl)
    extra = [Port(f"z{tag}0", _pick_domain(rng, budget))] if rest > 0 and rng.random() < 0.5 else []
    unctrl = prob + extra + list(shared_ports) + list(peer_controlled)
    sig = Signature.of(controlled=ctrl, uncontrolled=unctrl)
    return sig, frozenset(p.name for p in prob)


def _shrink_to_budget(sig1, sig2, h, budget: Budget):
    """Lower the horizon until the merged run space fits the budget."""
    while h > 1:
        merged = traces.merge_signature_controlled(sig1, sig2)
        if traces.universe_size(merged, h) <= budget.max_space:
            break
        h -= 1
    return h


class ComposeInstance(Record):
    __slots__ = ("m1", "pc1", "m2", "pc2", "seed")

    def __init__(self, m1: Assertion, pc1: ProbContract, m2: Assertion, pc2: ProbContract,
                 seed: int):
        self._assign(m1, pc1, m2, pc2, seed)


def gen_compose_instance(seed: int, budget: Budget = Budget(),
                         disjoint: bool = False) -> ComposeInstance:
    """A composable pair with receptive implementations, deterministic per seed.

    Composability (disjoint controlled sets, disjoint probabilistic ports,
    no probabilistic port controlled by the peer) holds by construction.
    With ``disjoint`` the two signatures share no ports at all.
    """
    rng = random.Random(seed)
    h = _pick_h(rng, budget)
    shared = []
    if not disjoint and rng.random() < 0.5:
        shared = [Port("sh0", _pick_domain(rng, budget))]
    sig1, p1 = _side_signature(rng, budget, "a", h, shared, [])
    # sometimes the second side reads the first side's output
    peer = [sig1.port("ca0")] if not disjoint and rng.random() < 0.4 else []
    sig2, p2 = _side_signature(rng, budget, "b", h, shared, peer)
    h = _shrink_to_budget(sig1, sig2, h, budget)

    pc1 = _rand_prob_contract(rng, sig1, h, p1)
    pc2 = _rand_prob_contract(rng, sig2, h, p2)
    m1 = _make_impl(rng, sig1, h, p1)
    m2 = _make_impl(rng, sig2, h, p2)
    return ComposeInstance(m1, pc1, m2, pc2, seed)


def _make_impl(rng, sig: Signature, h: int, pports) -> Assertion:
    size = traces.space_of(sig, h).size
    mask = _rand_mask(rng, size, rng.uniform(0.3, 0.7))
    mask = _receptive(mask, sig, h, pports)
    return Assertion(sig, h, mask)


class RefineInstance(Record):
    __slots__ = ("m", "pc1", "pc2", "seed")

    def __init__(self, m: Assertion, pc1: ProbContract, pc2: ProbContract, seed: int):
        self._assign(m, pc1, pc2, seed)


def gen_refine_instance(seed: int, budget: Budget = Budget()) -> RefineInstance:
    """An instance meeting every refinement precondition by construction:
    included signature, included probabilistic ports, exact marginal."""
    rng = random.Random(seed)
    h = _pick_h(rng, budget)
    nprob = rng.choice([1, 1, 2])
    prob = [Port(f"p{i}", _pick_domain(rng, budget)) for i in range(nprob)]
    ctrl = [Port("c0", _pick_domain(rng, budget))]
    extra = [Port("z0", _pick_domain(rng, budget))] if rng.random() < 0.6 else []
    sig2 = Signature.of(controlled=ctrl, uncontrolled=prob + extra)
    while h > 1 and traces.universe_size(sig2, h) > budget.max_space:
        h -= 1

    p2 = frozenset(p.name for p in prob)
    drop_prob = nprob > 1 and rng.random() < 0.4
    drop_extra = bool(extra) and rng.random() < 0.3
    p1 = p2 - ({prob[-1].name} if drop_prob else set())
    sub_names = set(sig2.names)
    if drop_prob:
        sub_names.discard(prob[-1].name)
    if drop_extra:
        sub_names.discard(extra[0].name)
    sig1 = sig2.restricted(sub_names)

    dist2 = _rand_dist(rng, prob, h)
    dist1 = probabilistic.marginal(dist2, p1)
    pc2 = _rand_prob_contract(rng, sig2, h, p2, dist2)
    pc1 = _rand_prob_contract(rng, sig1, h, p1, dist1)
    m = _make_impl(rng, sig1, h, p1)
    return RefineInstance(m, pc1, pc2, seed)


def gen_refining_contracts(seed: int, budget: Budget = Budget(), tag: str = "",
                           h: int = None):
    """A pair (c1, c2) with c1 refining c2 by construction: over c2's
    signature, c1 accepts every environment c2 does (A1 extends A2) and
    allows only behaviors c2 allows (G1 within G2)."""
    rng = random.Random(f"refpair:{tag}:{seed}")
    if h is None:
        h = _pick_h(rng, budget)
    ctrl = [Port(f"c{tag}0", _pick_domain(rng, budget))]
    unctrl = [Port(f"u{tag}0", _pick_domain(rng, budget))]
    extend = [Port(f"x{tag}0", traces.BOOL[:budget.max_domain])] if rng.random() < 0.5 else []
    sig1 = Signature.of(controlled=ctrl, uncontrolled=unctrl)
    sig2 = Signature.of(controlled=ctrl, uncontrolled=unctrl + extend)
    while h > 1 and traces.universe_size(sig2, h) > budget.max_space:
        h -= 1
    size1 = traces.space_of(sig1, h).size
    c1 = contracts.canonicalize(contracts.contract(
        Assertion(sig1, h, _rand_mask(rng, size1, rng.uniform(0.5, 0.95))),
        Assertion(sig1, h, _rand_mask(rng, size1, rng.uniform(0.5, 0.9)))))
    size2 = traces.space_of(sig2, h).size
    a2 = traces.lift(c1.assumption, sig2).mask & _rand_mask(rng, size2, rng.uniform(0.6, 1.0))
    g2 = traces.lift(c1.guarantee, sig2).mask | _rand_mask(rng, size2, rng.uniform(0.0, 0.4))
    c2 = contracts.canonicalize(contracts.contract(
        Assertion(sig2, h, a2), Assertion(sig2, h, g2)))
    return c1, c2, h


# --- suites -----------------------------------------------------------------------

class CaseResult(Record):
    """The outcome of one suite case; ``detail`` holds the values it checked."""

    __slots__ = ("suite", "seed", "ok", "oracle_ok", "detail")

    def __init__(self, suite: str, seed: int, ok: bool, oracle_ok: bool, detail: dict = None):
        self._assign(suite, seed, ok, oracle_ok, {} if detail is None else detail)

    def as_json_dict(self) -> dict:
        return {"suite": self.suite, "seed": self.seed, "ok": self.ok,
                "oracle_ok": self.oracle_ok, **self.detail}


def _dual_sat_level(m, pc):
    engine = probabilistic.sat_level(m, pc).level
    reference = oracle_sat_level(m, pc)
    return engine, engine == reference


@_one_case()
def check_theorem1(seed: int, budget: Budget = Budget(), tight: bool = False) -> CaseResult:
    """Composed level is at least the product of the component levels;
    with disjoint signatures it is exactly the product."""
    inst = gen_compose_instance(seed, budget, disjoint=tight)
    beta1, agree1 = _dual_sat_level(inst.m1, inst.pc1)
    beta2, agree2 = _dual_sat_level(inst.m2, inst.pc2)
    composed = probabilistic.compose_prob(inst.pc1, inst.pc2)
    m = contracts.compose_impl(inst.m1, inst.m2)
    level, agree3 = _dual_sat_level(m, composed)
    # composition must also agree with the oracle's set-level formulas
    oa, og, _ = oracle_compose_sets(inst.pc1.base, inst.pc2.base)
    compose_ok = (materialize(composed.base.assumption) == oa
                  and materialize(composed.base.guarantee) == og)
    ok = level == beta1 * beta2 if tight else level >= beta1 * beta2
    return CaseResult("theorem1_tight" if tight else "theorem1", seed, ok,
                      agree1 and agree2 and agree3 and compose_ok,
                      {"beta1": str(beta1), "beta2": str(beta2), "level": str(level)})


@_one_case()
def check_theorem2(seed: int, budget: Budget = Budget()) -> CaseResult:
    """Multiplicative refinement bound at the reported refinement level.

    Instances with degenerate conditioning are marked skipped=True and do
    not score: the bound is only claimed for non-degenerate levels.
    """
    inst = gen_refine_instance(seed, budget)
    report = probabilistic.refine_level(inst.pc1, inst.pc2)
    o_level, o_pg1, o_degen = oracle_refine_level(inst.pc1, inst.pc2)
    oracle_ok = (report.level == o_level and report.p_g1 == o_pg1
                 and report.degenerate == o_degen)
    if report.degenerate:
        return CaseResult("theorem2", seed, True, oracle_ok,
                          {"skipped": "degenerate conditioning"})
    beta1, agree1 = _dual_sat_level(inst.m, inst.pc1)
    beta2, agree2 = _dual_sat_level(inst.m, inst.pc2)
    ok = beta2 >= beta1 * report.level
    return CaseResult("theorem2", seed, ok, oracle_ok and agree1 and agree2,
                      {"beta1": str(beta1), "beta2": str(beta2),
                       "gamma": str(report.level), "p_g1": str(report.p_g1)})


def _subset_impl(rng, target: Assertion) -> Assertion:
    keep = _rand_mask(rng, target.mask.shape[0], rng.uniform(0.3, 0.9))
    return Assertion(target.signature, target.horizon, target.mask & keep)


@_one_case()
def check_lemma1(seed: int, budget: Budget = Budget()) -> CaseResult:
    """Satisfying implementations compose into the composed contract, and
    the three satisfaction formulas agree everywhere."""
    inst = gen_compose_instance(seed, budget)
    rng = random.Random(f"lemma1:{seed}")
    c1, c2 = inst.pc1.base, inst.pc2.base
    m1 = _subset_impl(rng, contracts.maximal_implementation(c1))
    m2 = _subset_impl(rng, contracts.maximal_implementation(c2))
    sat1 = contracts.satisfies(m1, c1)
    sat2 = contracts.satisfies(m2, c2)
    composed = contracts.compose(c1, c2)
    m = contracts.compose_impl(m1, m2)
    sat = contracts.satisfies(m, composed)
    ok = (not (sat1 and sat2)) or sat
    formulas_ok = True
    oracle_ok = True
    for mm, cc in ((m1, c1), (m2, c2), (m, composed)):
        fs = contracts.satisfaction_formulas(mm, cc)
        ofs = oracle_satisfaction_formulas(mm, cc)
        formulas_ok &= len(set(fs)) == 1
        oracle_ok &= fs == ofs and contracts.satisfies(mm, cc) == oracle_satisfies(mm, cc)
    return CaseResult("lemma1", seed, ok and sat1 and sat2 and formulas_ok, oracle_ok,
                      {"formulas_agree": str(formulas_ok)})


@_one_case()
def check_lemma2_sat(seed: int, budget: Budget = Budget()) -> CaseResult:
    """Refinement preserves satisfaction."""
    c1, c2, h = gen_refining_contracts(seed, budget)
    rng = random.Random(f"lemma2s:{seed}")
    refines = contracts.refines(c1, c2)
    m = _subset_impl(rng, contracts.maximal_implementation(c1))
    ok = refines and contracts.satisfies(m, c1) and contracts.satisfies(m, c2)
    oracle_ok = (oracle_satisfies(m, c1) == contracts.satisfies(m, c1)
                 and oracle_satisfies(m, c2) == contracts.satisfies(m, c2)
                 and oracle_refines(c1, c2) == refines)
    return CaseResult("lemma2_sat", seed, ok, oracle_ok, {})


def oracle_refines(c1: Contract, c2: Contract) -> bool:
    sig = c2.signature
    return (oracle_included(c2.assumption, c1.assumption, sig)
            and oracle_included(c1.guarantee, c2.guarantee, sig))


@_one_case()
def check_lemma2_compose(seed: int, budget: Budget = Budget()) -> CaseResult:
    """Refinement is preserved by parallel composition."""
    c1, c2, h = gen_refining_contracts(seed, budget, tag="l")
    c3, c4, _ = gen_refining_contracts(seed, budget, tag="r", h=h)
    merged = traces.merge_signature_controlled(c2.signature, c4.signature)
    if traces.universe_size(merged, h) > budget.max_space:
        c1, c2, _ = gen_refining_contracts(seed, budget, tag="l", h=1)
        c3, c4, _ = gen_refining_contracts(seed, budget, tag="r", h=1)
    left = contracts.compose(c1, c3)
    right = contracts.compose(c2, c4)
    ok = (contracts.refines(c1, c2) and contracts.refines(c3, c4)
          and contracts.refines(left, right))
    oracle_ok = oracle_refines(left, right) == contracts.refines(left, right)
    return CaseResult("lemma2_compose", seed, ok, oracle_ok, {})


SUITES = {
    "theorem1": check_theorem1,
    "theorem1_tight": lambda seed, budget=Budget(): check_theorem1(seed, budget, tight=True),
    "theorem2": check_theorem2,
    "lemma1": check_lemma1,
    "lemma2_sat": check_lemma2_sat,
    "lemma2_compose": check_lemma2_compose,
}


def run_suite(name: str, seeds: Iterable[int], budget: Budget = Budget()) -> list:
    fn = SUITES[name]
    return [fn(seed, budget) for seed in seeds]


def run_all(n_seeds: int, budget: Budget = Budget()) -> dict:
    return {name: run_suite(name, range(n_seeds), budget) for name in SUITES}


def summarize(results: dict) -> list:
    """One human-readable line per suite plus the oracle agreement rate."""
    lines = []
    total = 0
    agreeing = 0
    for name, cases in results.items():
        scored = [c for c in cases if "skipped" not in c.detail]
        passed = sum(1 for c in scored if c.ok)
        line = f"{name}: {passed}/{len(scored)}"
        bad = next((c for c in scored if not c.ok), None)
        if bad is not None:
            line += f" (first counterexample seed {bad.seed})"
        lines.append(line)
        total += len(cases)
        agreeing += sum(1 for c in cases if c.oracle_ok)
    pct = 100.0 * agreeing / total if total else 100.0
    lines.append(f"oracle-agreement: {pct:.10g}%")
    return lines


def all_passed(results: dict) -> bool:
    return all(c.ok and c.oracle_ok for cases in results.values() for c in cases)
