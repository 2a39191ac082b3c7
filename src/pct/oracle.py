"""Brute-force reference semantics and randomized verification suites.

Everything here recomputes satisfaction, composition and the probability
measures by direct definition chasing over explicitly enumerated run
sets: an inverse projection is the preimage of a set under the
restriction of runs, inclusions are plain set inclusions, and
probabilities are summed per history.  None of the engine's mask algebra
is reused, so an engine bug and an oracle bug would have to coincide to
go unnoticed.  The suites evaluate every quantity with both
implementations and record any disagreement.

A run is its run index over its own signature, in the documented
little-endian mixed radix of docs/format.md: ports in name order, each
taking a block of |D|^h values, the port's history number, whose digit
t, base |D|, is the position of the port's value at step t.  A run set
over ``size`` runs is a Python int whose bit i is set when run index i
is in the set, so every set operation is one big-int operation in C:
union ``|``, intersection ``&``, difference ``x & ~y``, inclusion ``not
x & ~y`` and equality ``==``.  The universe is ``(1 << size) - 1``, and a
complement is always taken inside it (``universe & ~x``), so no run set
is negative or holds a bit at or above ``size``.

Two conversions, both by NumPy's bit packing and not by the engine's
mask code, connect the ints to arrays.  ``_bits`` packs a bool array
over the run indices, little-endian, into the int; ``materialize`` is
``_bits`` of an assertion's mask.  ``_members`` is the one way back: a
bool array over the ``size`` run indices, read from no bit past them.

Runs move between signatures by one kind of index table:
``_reindex(ports, onto, h)`` gives, for every index over ``ports``, the
index over ``onto`` of the run that agrees with it on their common ports
and has digit 0 elsewhere.  It is an outer sum, port by port, of each
port's history numbers times its stride over ``onto`` (0 for a port that
``onto`` lacks).  Onto a sub-list of ``ports``, the table restricts
runs.  ``oracle_lift`` is the preimage under it: one gather of the
set's ``_members`` through the table onto the smaller signature.
``_restricted`` reads the table onto Ω, the histories of the
probabilistic ports, at a set's runs (a history's fiber lies in a set
when no run outside the set restricts to it); ``_weighted_histories``
reads each factor's numerators through the table onto its ports; and
``oracle_denote`` reads a port's history numbers as the table onto that
port alone.

Weights are integers.  ``_weighted_histories`` gives every history's
numerator, the product of the factors' numerators at its restrictions,
and their common denominator, the product of the factors' denominators,
computed here and not by ``probabilistic``.  A level sums numerators and
makes one ``Fraction`` at the end.

Tables and run sets are scoped to one suite case.  Each ``check_*``
function opens the scope itself (``_one_case``), because callers such as
the benchmark call ``SUITES[name](seed)`` directly.  Inside it, the table
of each ``(ports, onto, h)`` is made once and each assertion's mask is
packed once, memoized by identity with the assertion kept alongside, so
that its ``id`` cannot be reused.  The scope is dropped when the case
returns or raises: nothing of the oracle outlives its case, so memory
stays bounded by one case and a second pass over the same seeds does the
same work as the first.  Outside a case, as in the tests or a direct
``oracle_sat_level`` call, every call makes its table afresh.

``oracle_denote`` evaluates a `.pct` expression one run and one step at
a time, from the "Meaning" paragraph of docs/grammar.ebnf, and reads
only the expression node classes of ``speclang``, not its compiler.
The tables, the two conversions and the run-set functions use nothing
of ``traces`` but its types and read no ``.entries``
(``tests/test_oracle.py`` checks all three); only the instance
generators use its layout helpers.
"""

from __future__ import annotations

import contextlib
import math
import random
from fractions import Fraction
from operator import mul
from typing import Iterable

import numpy as np

from . import contracts, probabilistic, speclang, traces
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


def _count(ports, h: int) -> int:
    """The number of runs over ``ports`` at horizon ``h``."""
    return math.prod(len(p.domain) ** h for p in ports)


class _Case:
    """What one suite case has made: the ``_reindex`` table of each
    ``(ports, onto, h)`` and the run set of each assertion, the assertion
    kept beside it so that its ``id`` cannot be reused while the entry
    lives."""

    __slots__ = ("tables", "decoded")

    def __init__(self):
        self.tables = {}
        self.decoded = {}


_case = None      # the _Case of the suite case being checked, if any


@contextlib.contextmanager
def _one_case():
    """Keep index tables and run sets for the duration of one case."""
    global _case
    outer = _case
    _case = _Case()
    try:
        yield
    finally:
        _case = outer


def _reindex(ports, onto, h: int) -> np.ndarray:
    """For every index over ``ports``, the index over ``onto`` of the run
    that agrees with it on their common ports and has digit 0 elsewhere:
    the sum of the common ports' history numbers times their strides over
    ``onto``, which take the ports in name order, |D|^h apart.

    Made once per case and afresh on every call outside one; callers must
    not change it."""
    case = _case
    key = (tuple(ports), tuple(onto), h)
    if case is not None and key in case.tables:
        return case.tables[key]
    strides, stride = {}, 1
    for p in sorted(onto, key=lambda p: p.name):
        strides[p.name] = stride
        stride *= len(p.domain) ** h
    # the first port in name order is the lowest digit, so it goes in last
    out = np.zeros(1, dtype=np.int64)
    for p in sorted(ports, key=lambda p: p.name, reverse=True):
        out = np.add.outer(out, np.arange(len(p.domain) ** h) * strides.get(p.name, 0)).ravel()
    if case is not None:
        case.tables[key] = out
    return out


def _bits(mask: np.ndarray) -> int:
    """The run set of a bool array over the run indices: bit i is ``mask[i]``."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _members(rs: int, size: int) -> np.ndarray:
    """Which of ``size`` runs are members of ``rs``: a bool array whose entry
    i is bit i."""
    packed = np.frombuffer(rs.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, bitorder="little")[:size].view(bool)


def materialize(e: Assertion) -> int:
    """Explicit run set of an assertion: its mask, packed into bits."""
    case = _case
    if case is not None and id(e) in case.decoded:
        return case.decoded[id(e)][1]
    out = _bits(e.mask)
    if case is not None:
        case.decoded[id(e)] = (e, out)
    return out


def oracle_lift(rs: int, sig_from: Signature, sig_to: Signature, h: int) -> int:
    """Inverse projection as a preimage: the runs over ``sig_to`` whose
    restriction to ``sig_from`` is in ``rs``, each run's bit gathered from
    ``rs`` at its restriction's index."""
    if sig_from.ports == sig_to.ports:
        return rs
    table = _reindex(sig_to.ports, sig_from.ports, h)
    return _bits(_members(rs, _count(sig_from.ports, h))[table])


def oracle_universe(sig: Signature, h: int) -> int:
    return (1 << _count(sig.ports, h)) - 1


def oracle_denote(e: speclang.Expr, sig: Signature, h: int, defs: dict = None) -> int:
    """The runs over ``sig`` at horizon ``h`` on which the expression ``e``
    holds, by the "Meaning" paragraph of docs/grammar.ebnf: an expression
    holds on a run when it holds at every step.

    ``e`` reads only the ports it names, directly or through definitions,
    so it is evaluated on every run over those ports, its history numbers
    turned into histories by port name, one step at a time (``_holds_at``);
    the runs where it holds are then extended to ``sig`` by ``oracle_lift``.
    ``e`` must denote over ``sig`` (the document builds); nothing is
    checked."""
    defs = defs or {}
    names, todo, seen = set(), [e], set()
    while todo:
        x = todo.pop()
        if isinstance(x, speclang.NameRef) and x.name in defs:
            if x.name not in seen:
                seen.add(x.name)
                todo.append(defs[x.name])
        elif isinstance(x, (speclang.NameRef, speclang.PrevOperand, speclang.PortOperand)):
            names.add(x.name)
        elif not isinstance(x, speclang.ValueOperand):
            todo += [v for v in (getattr(x, f) for f in x._fields)
                     if isinstance(v, (speclang.Expr, speclang.Operand))]
    read = sig.restricted(names & set(sig.names))
    ports = frozenset(read.names)
    tables = [(p.name, _reindex(read.ports, (p,), h).tolist(), _histories(p.domain, h))
              for p in read.ports]
    holds = np.array([all(_holds_at(e, {n: hists[numbers[i]] for n, numbers, hists in tables},
                                    t, h, ports, defs) for t in range(h))
                      for i in range(_count(read.ports, h))], dtype=bool)
    return oracle_lift(_bits(holds), read, sig, h)


def _holds_at(e: speclang.Expr, run: dict, t: int, h: int, ports: frozenset, defs: dict) -> bool:
    """Whether ``e`` holds at step ``t`` of a run given as port name ->
    history.  A name is a definition or a boolean port; a comparison
    matches values by type as well as value; ``prev(p, init=v)`` reads
    ``v`` at step 0; the temporal operators and ``at`` read other steps."""
    if isinstance(e, speclang.Lit):
        return e.value
    if isinstance(e, speclang.NameRef):
        if e.name in defs:
            return _holds_at(defs[e.name], run, t, h, ports, defs)
        return run[e.name][t] is True
    if isinstance(e, speclang.Not):
        return not _holds_at(e.body, run, t, h, ports, defs)
    if isinstance(e, speclang.Temporal):
        steps = (_holds_at(e.body, run, u, h, ports, defs) for u in range(h))
        if e.op == "always":
            return all(steps)
        return any(steps) if e.op == "eventually" else not any(steps)
    if isinstance(e, speclang.At):
        return _holds_at(e.body, run, e.step, h, ports, defs)
    if isinstance(e, speclang.Cmp):
        values = []
        for op in (e.left, e.right):
            if isinstance(op, speclang.PrevOperand):
                values.append(op.init if t == 0 else run[op.name][t - 1])
            elif isinstance(op, speclang.PortOperand):
                # an identifier that names no port is a value of the other side
                values.append(run[op.name][t] if op.name in ports else op.name)
            else:
                values.append(op.value)
        left, right = values
        return type(left) is type(right) and left == right
    left = _holds_at(e.left, run, t, h, ports, defs)
    if isinstance(e, speclang.And):
        return left and _holds_at(e.right, run, t, h, ports, defs)
    if isinstance(e, speclang.Or):
        return left or _holds_at(e.right, run, t, h, ports, defs)
    return not left or _holds_at(e.right, run, t, h, ports, defs)     # Implies


def oracle_included(e1: Assertion, e2: Assertion, sig: Signature) -> bool:
    s1 = oracle_lift(materialize(e1), e1.signature, sig, e1.horizon)
    s2 = oracle_lift(materialize(e2), e2.signature, sig, e2.horizon)
    return not s1 & ~s2


def oracle_satisfies(m: Assertion, c: Contract) -> bool:
    sig = traces.union_signature(m.signature, c.signature)
    mm = oracle_lift(materialize(m), m.signature, sig, m.horizon)
    aa = oracle_lift(materialize(c.assumption), c.signature, sig, c.horizon)
    gg = oracle_lift(materialize(c.guarantee), c.signature, sig, c.horizon)
    return not mm & aa & ~gg


def oracle_satisfaction_formulas(m: Assertion, c: Contract) -> tuple:
    """The three equivalent satisfaction readings, on explicit sets:
    M∩A ⊆ G, M ⊆ G ∪ ¬A, and M ∩ (A∖G) empty."""
    sig = traces.union_signature(m.signature, c.signature)
    mm = oracle_lift(materialize(m), m.signature, sig, m.horizon)
    aa = oracle_lift(materialize(c.assumption), c.signature, sig, c.horizon)
    gg = oracle_lift(materialize(c.guarantee), c.signature, sig, c.horizon)
    not_a = oracle_universe(sig, m.horizon) & ~aa
    return not (mm & aa) & ~gg, not mm & ~(gg | not_a), not mm & (aa & ~gg)


def oracle_compose_sets(c1: Contract, c2: Contract):
    """Composed (assumption, guarantee) as explicit run sets.

    Operands are taken in canonical form, made here from their run sets
    rather than read from the engine's stored guarantees.
    """
    sig = traces.merge_signature_controlled(c1.signature, c2.signature)
    h = c1.horizon
    a1 = oracle_lift(materialize(c1.assumption), c1.signature, sig, h)
    a2 = oracle_lift(materialize(c2.assumption), c2.signature, sig, h)
    g1 = oracle_lift(materialize(c1.guarantee), c1.signature, sig, h)
    g2 = oracle_lift(materialize(c2.guarantee), c2.signature, sig, h)
    universe = oracle_universe(sig, h)
    g = (g1 | (universe & ~a1)) & (g2 | (universe & ~a2))
    a = (a1 & a2) | (universe & ~g)
    return a, g, sig


def _weighted_histories(d: Distribution) -> tuple:
    """The weight of every joint history of ``d`` as (the numerators in
    index order, their common denominator), from the documented factor
    format alone: a history's numerator is the product, over the factors,
    of the factor's numerator at the history's restriction to its ports,
    and the denominator the product of the factors' denominators."""
    h = d.horizon
    nums = [1] * _count(d.ports, h)
    for f in d.factors:
        nums = list(map(mul, nums, f.num[_reindex(d.ports, f.ports, h)].tolist()))
    return nums, math.prod(f.den for f in d.factors)


def _restricted(rs: int, table: np.ndarray) -> set:
    """The entries of an index table at the runs of ``rs``: with a table
    onto Ω, the histories to which some run of ``rs`` restricts."""
    return set(table[_members(rs, table.size)].tolist())


def oracle_sat_level(m: Assertion, pc: ProbContract) -> Fraction:
    """Measure of histories whose induced implementation runs are guaranteed:
    those to which no run of M outside G restricts."""
    sig = pc.base.signature
    h = pc.horizon
    mm = oracle_lift(materialize(m), m.signature, sig, h)
    gg = materialize(pc.base.guarantee)
    bad = _restricted(mm & ~gg, _reindex(sig.ports, pc.dist.ports, h))
    nums, den = _weighted_histories(pc.dist)
    return Fraction(sum(n for omega, n in enumerate(nums) if omega not in bad), den)


def oracle_refine_level(pc1: ProbContract, pc2: ProbContract):
    """Returns (level, p_g1, degenerate) by whole-fiber enumeration: a
    history's fiber lies in G when no run outside G restricts to it."""
    sig2 = pc2.base.signature
    h = pc2.horizon
    g1 = oracle_lift(materialize(pc1.base.guarantee), pc1.base.signature, sig2, h)
    g2 = materialize(pc2.base.guarantee)
    restrict = _reindex(sig2.ports, pc2.dist.ports, h)
    universe = oracle_universe(sig2, h)
    out1 = _restricted(universe & ~g1, restrict)
    out2 = _restricted(universe & ~g2, restrict)
    nums, den = _weighted_histories(pc2.dist)
    n_g1 = n_both = 0
    for omega, n in enumerate(nums):
        if omega not in out1:
            n_g1 += n
            if omega not in out2:
                n_both += n
    if n_g1 == 0:
        return ZERO, ZERO, True
    return Fraction(n_both, n_g1), Fraction(n_g1, den), False


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
        """Parse 'ports=3,h=2,dom=2,space=1024' (all keys optional, each
        at most once)."""
        kwargs = {}
        keys = {"ports": "max_ports_per_side", "h": "max_horizon",
                "dom": "max_domain", "space": "max_space"}
        if text:
            for part in text.split(","):
                k, _, v = part.partition("=")
                k = k.strip()
                if k not in keys:
                    raise PctError(f"unknown budget key {k!r}")
                if keys[k] in kwargs:
                    raise PctError(f"budget key {k!r} is given twice")
                try:
                    kwargs[keys[k]] = int(v)
                except ValueError:
                    raise PctError(f"budget {k} must be an integer, got {v!r}") from None
        return cls(**kwargs)


def _pick_h(rng: random.Random, budget: Budget) -> int:
    return rng.choice([h for h in (1, 1, 2, 2, 3) if h <= budget.max_horizon])


def _pick_domain(rng: random.Random, budget: Budget) -> tuple:
    if budget.max_domain >= 3 and rng.random() < 0.2:
        return (0, 1, 2)
    return traces.BOOL[:budget.max_domain]


def _rand_mask(rng: random.Random, size: int, keep: float) -> np.ndarray:
    """``size`` draws of ``rng.random() < keep``; ``random()`` is below 1, so
    the iterator never meets its sentinel and draws exactly ``size`` values."""
    return np.fromiter(iter(rng.random, 2.0), dtype=float, count=size) < keep


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
    return ProbContract(base, pports, dist)


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


def _fit_horizon(sig: Signature, h: int, budget: Budget) -> int:
    """Lower the horizon until the run space of ``sig`` fits the budget."""
    while h > 1 and traces.universe_size(sig, h) > budget.max_space:
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
    h = _fit_horizon(traces.merge_signature_controlled(sig1, sig2), h, budget)

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
    h = _fit_horizon(sig2, h, budget)

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
    h = _fit_horizon(sig2, h, budget)
    size1 = traces.space_of(sig1, h).size
    c1 = contracts.contract(
        Assertion(sig1, h, _rand_mask(rng, size1, rng.uniform(0.5, 0.95))),
        Assertion(sig1, h, _rand_mask(rng, size1, rng.uniform(0.5, 0.9))))
    size2 = traces.space_of(sig2, h).size
    a2 = traces.lift(c1.assumption, sig2).mask & _rand_mask(rng, size2, rng.uniform(0.6, 1.0))
    g2 = traces.lift(c1.guarantee, sig2).mask | _rand_mask(rng, size2, rng.uniform(0.0, 0.4))
    c2 = contracts.contract(Assertion(sig2, h, a2), Assertion(sig2, h, g2))
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
    the three satisfaction formulas agree on each pair."""
    inst = gen_compose_instance(seed, budget)
    rng = random.Random(f"lemma1:{seed}")
    c1, c2 = inst.pc1.base, inst.pc2.base
    m1 = _subset_impl(rng, c1.guarantee)
    m2 = _subset_impl(rng, c2.guarantee)
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
    m = _subset_impl(rng, c1.guarantee)
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
