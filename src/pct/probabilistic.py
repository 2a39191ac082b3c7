"""Probabilistic contracts: distributions over port histories and exact levels.

A probabilistic contract attaches, to an ordinary contract, a set of
uncontrolled ports whose joint history follows a known distribution.
The satisfaction level of an implementation is the probability mass of
histories for which every consistent run of the implementation lies in
the guarantee, whatever the remaining nondeterministic choices are.
All probabilities are exact rationals; floats appear only in display
code.

A distribution is a product of independent factors, one per block of
ports (a declared port, or a joint table).  A factor holds integer
numerators over one denominator (docs/format.md), so products, marginals
and levels are integer array operations.  A mass is contracted against
the factors one at a time, each a matrix-vector product over the
factor's axes (``_mass``), and never needs the weight of every joint
history.  ``sat_level`` reads the joint numerators instead, once a
history is bad: they give both its level and its witness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from . import contracts, traces
from .contracts import Contract
from .errors import (
    DistributionError,
    HorizonMismatchError,
    MarginalMismatchError,
    PortRoleError,
    ProbPortControlledError,
    ProbPortOverlapError,
    SignatureError,
)
from .record import Record, setfield
from .traces import Assertion, Port, Signature, _space

ZERO = Fraction(0)
ONE = Fraction(1)

_INT64_MAX = int(np.iinfo(np.int64).max)


def _dist_sig(ports: Iterable[Port]) -> Signature:
    """The signature of name-sorted ports, all uncontrolled: roles are
    irrelevant for indexing joint histories."""
    ports = tuple(ports)
    return Signature(ports, frozenset(), frozenset(p.name for p in ports))


def _int_dtype(bound: int):
    """int64 when no value can exceed ``bound``, else Python ints."""
    return np.int64 if bound <= _INT64_MAX else object


class Factor(Record):
    """One independent block of a distribution.

    ``num[i] / den`` is the probability of the history with run index ``i``
    over the block's ``ports``, which the constructor checks are name-sorted.
    The numerators are nonnegative, sum to ``den`` and share no divisor with
    it, so equal laws have equal factors.  ``num`` is int64 when ``den``
    fits in it, else Python ints.  Factors compare by identity;
    ``Distribution`` compares their values.
    """

    __slots__ = ("ports", "num", "den")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, ports: tuple, num: np.ndarray, den: int):
        traces._check_name_order(ports)
        num.setflags(write=False)
        self._assign(ports, num, den)


def _factor(ports: tuple, h: int, num: Iterable[int], den: int) -> Factor:
    """A checked factor in lowest terms from integer numerators over ``den``."""
    size = _space(ports, h).size
    num = list(num)
    if len(num) != size:
        raise DistributionError(
            f"expected {size} weights for this history space, got {len(num)}")
    if min(num) < 0:
        raise DistributionError("negative probability")
    if sum(num) != den:
        raise DistributionError(f"weights sum to {Fraction(sum(num), den)}, not 1")
    g = math.gcd(den, *num)
    if g > 1:
        num, den = [n // g for n in num], den // g
    return Factor(ports, np.array(num, dtype=_int_dtype(den)), den)


class Distribution(Record):
    """Exact, finitely supported distribution over joint histories.

    It is the product of independent ``factors`` over disjoint blocks of
    ``ports`` (name-sorted).  ``Distribution(ports, horizon, weights)``
    makes a law of one block: ``weights[i]`` is the probability of the
    joint history with canonical index ``i`` in the run space of ``ports``
    at ``horizon``.
    """

    __slots__ = ("ports", "horizon", "factors")

    def __init__(self, ports, horizon: int, weights):
        ports, horizon = tuple(ports), traces._hlen(horizon)
        if any(p.name >= q.name for p, q in zip(ports, ports[1:])):
            raise DistributionError("distribution ports must be in strictly increasing name "
                                    "order (the weight vector indexes that space)")
        ws = [Fraction(w) for w in weights]
        den = math.lcm(*(w.denominator for w in ws))
        factor = _factor(ports, horizon, (w.numerator * (den // w.denominator) for w in ws), den)
        self._set(ports, horizon, (factor,))

    @classmethod
    def of_factors(cls, horizon: int, factors: Iterable[Factor]) -> "Distribution":
        """The product of factors over disjoint ports."""
        d = cls.__new__(cls)
        factors = tuple(factors)
        ports = tuple(sorted((p for f in factors for p in f.ports), key=lambda p: p.name))
        traces._check_name_order(ports)    # refuses factors that share a port
        d._set(ports, traces._hlen(horizon), factors)
        return d

    def _set(self, ports, horizon: int, factors: tuple) -> None:
        # a block of no ports is the unit factor; blocks go in the order of
        # their first port, so equal factorizations compare factor by factor
        factors = sorted((f for f in factors if f.ports), key=lambda f: f.ports[0].name)
        setfield(self, "ports", tuple(ports))
        setfield(self, "horizon", horizon)
        setfield(self, "factors", tuple(factors))

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        if self.ports != other.ports or self.horizon != other.horizon:
            return False
        if [f.ports for f in self.factors] == [f.ports for f in other.factors]:
            return all(f.den == g.den and np.array_equal(f.num, g.num)
                       for f, g in zip(self.factors, other.factors))
        # every factor is in lowest terms with numerators summing to its
        # denominator, so its numerators have gcd 1, and so do their products:
        # the joint numerators over the denominator are in lowest terms too
        return (self.denominator == other.denominator
                and np.array_equal(self.numerators(), other.numerators()))

    def __hash__(self):
        return hash((self.ports, self.horizon))

    @property
    def signature(self) -> Signature:
        return _dist_sig(self.ports)

    @property
    def names(self) -> frozenset:
        return frozenset(p.name for p in self.ports)

    @property
    def denominator(self) -> int:
        """The common denominator of every joint history's weight."""
        return math.prod(f.den for f in self.factors)

    def numerators(self) -> np.ndarray:
        """The weight numerators of every joint history over ``denominator``,
        in run-index order: the broadcast product of the factors'
        numerators, smallest first, so only the last product is full size."""
        space, dtype = _space(self.ports, self.horizon), _int_dtype(self.denominator)
        out = np.ones((), dtype=dtype)
        for f in sorted(self.factors, key=lambda f: f.num.size):
            out = out * traces._spread(f.num, _space(f.ports, self.horizon), space)
        return out.reshape(-1)


def _mass(d: Distribution, mask: np.ndarray) -> Fraction:
    """The probability of the joint histories that ``mask`` holds.

    ``mask`` is a vector over the histories or an array on their axis view,
    size-1 axes included.  It is contracted against one factor at a time,
    in name order, as a matrix-vector product: the sums held so far, one
    row per point of the other axes, times the factor's numerators.  So a
    one-port factor's axes are the innermost ones and nothing is copied;
    only a block whose ports are not adjacent in name order moves its axes
    last, with one copy.  Where the mask is size 1 on some of a factor's
    axes, the numerators are first summed over those, and where it is size
    1 on all of them, the sums are multiplied by the denominator.  Every
    partial sum is at most the product of the denominators contracted so
    far.
    """
    space = _space(d.ports, d.horizon)
    held = mask.astype(_int_dtype(d.denominator))
    if held.ndim != len(space.shape):
        held = held.reshape(space.shape)
    names, radix = [name for name, _ in space.axes], space.shape
    for f in d.factors:
        block = {p.name for p in f.ports}
        mine = [i for i, name in enumerate(names) if name in block]
        rest = [i for i, name in enumerate(names) if name not in block]
        shape = held.shape
        summed = tuple(k for k, i in enumerate(mine) if shape[i] == 1)
        if len(summed) == len(mine):
            held = held * f.den
        else:
            num = f.num
            if summed:
                num = np.add.reduce(num.reshape([radix[i] for i in mine]), axis=summed)
            if rest and rest[-1] > mine[0]:
                held = held.transpose(rest + mine)
            held = held.reshape(-1, num.size) @ num.reshape(-1)
        held = held.reshape([shape[i] for i in rest])
        names, radix = [names[i] for i in rest], [radix[i] for i in rest]
    return Fraction(int(held), d.denominator)


def point_mass_empty(h) -> Distribution:
    """The unit distribution: no probabilistic ports, one empty history."""
    return Distribution.of_factors(h, ())


def bernoulli_iid(port: Port, p_true_per_step, h) -> Distribution:
    """Step-independent coin on one boolean port.

    Its numerators are the outer product of ``h`` vectors ``[1-p, p]``
    scaled to the denominator of ``p``; the vectors are equal, so the
    order of the steps in the product does not matter.  The table is made
    with Python ints, doubling once per step: the table so far times
    ``1-p``, then times ``p``.
    """
    p = Fraction(p_true_per_step)
    if not 0 <= p <= 1:
        raise DistributionError(f"per-step probability {p} outside [0, 1]")
    if not port.is_boolean:
        raise DistributionError(f"port {port.name} is not boolean")
    hh = traces._hlen(h)
    _space((port,), hh)    # refuses a space above the cap before the table is made
    q, num = p.denominator - p.numerator, [1]
    for _ in range(hh):
        num = [x * q for x in num] + [x * p.numerator for x in num]
    return Distribution.of_factors(hh, [_factor((port,), hh, num, p.denominator ** hh)])


def uniform(ports: Iterable[Port], h) -> Distribution:
    hh, ports = traces._hlen(h), tuple(sorted(ports, key=lambda p: p.name))
    size = _space(ports, hh).size
    return Distribution(ports, hh, (Fraction(1, size),) * size)


def from_table(ports: Iterable[Port], h, table: Mapping[tuple, Fraction]) -> Distribution:
    """The law whose ``table`` maps joint histories, as run entry tuples
    over ``ports``, to their probabilities; histories left out weigh 0."""
    hh = traces._hlen(h)
    ports = tuple(sorted(ports, key=lambda p: p.name))
    sig = _dist_sig(ports)
    space = traces.space_of(sig, hh)
    weights = [ZERO] * space.size
    for omega, w in table.items():
        weights[traces.run_index(sig, hh, omega)] += Fraction(w)
    return Distribution(ports, hh, tuple(weights))


def product_dist(d1: Distribution, d2: Distribution) -> Distribution:
    """Independent product over disjoint port sets: the two factor lists joined."""
    traces.same_horizon(d1, d2)
    if d1.names & d2.names:
        raise ProbPortOverlapError(
            f"distributions overlap on ports {sorted(d1.names & d2.names)}")
    return Distribution.of_factors(d1.horizon, d1.factors + d2.factors)


def marginal(d: Distribution, names: Iterable[str]) -> Distribution:
    """Sum out every port not named: a factor with none of them is dropped,
    and one with some of them is summed over the others."""
    keep = frozenset(names)
    if not keep <= d.names:
        raise DistributionError(f"ports {sorted(keep - d.names)} not in distribution")
    h = d.horizon
    factors = []
    for f in d.factors:
        kept = tuple(p for p in f.ports if p.name in keep)
        if len(kept) == len(f.ports):
            factors.append(f)
        elif kept:
            sums = traces._reduce(np.add, f.num, _space(f.ports, h), _space(kept, h))
            factors.append(_factor(kept, h, sums.reshape(-1).tolist(), f.den))
    return Distribution.of_factors(h, factors)


# --- probabilistic contracts --------------------------------------------------

class ProbContract(Record):
    """A contract, a set of probabilistic uncontrolled ports, and their law.

    ``pports`` names the probabilistic ports, in any iterable, and ``dist``
    is their joint law.  A plain contract is the probabilistic contract
    with no such ports and the unit law ``point_mass_empty``.
    """

    __slots__ = ("base", "pports", "dist")

    def __init__(self, base: Contract, pports: Iterable[str], dist: Distribution):
        pports = frozenset(pports)
        if not pports <= base.signature.uncontrolled:
            extra = pports - base.signature.uncontrolled
            raise SignatureError(
                f"probabilistic ports must be uncontrolled ports of the base: {sorted(extra)}")
        if dist.names != pports:
            raise SignatureError("distribution ports must be exactly the probabilistic ports")
        if dist.horizon != base.horizon:
            raise HorizonMismatchError("distribution horizon differs from the contract's")
        for p in dist.ports:
            if base.signature.port(p.name) != p:
                raise SignatureError(f"port {p.name}: distribution domain differs from signature")
        self._assign(base, pports, dist)

    @property
    def horizon(self) -> int:
        return self.base.horizon

    @property
    def signature(self) -> Signature:
        return self.base.signature


class SatReport(Record):
    """Exact satisfaction level plus, if any, a worst violating history
    (the entry tuple of a run over the probabilistic ports)."""

    __slots__ = ("level", "witness_bad")

    def __init__(self, level: Fraction, witness_bad: tuple | None = None):
        self._assign(level, witness_bad)


class RefineReport(Record):
    """Exact refinement level.

    ``level`` is the conditional probability that a history pins the
    refined guarantee given it pins the refining one; ``p_g1`` is the
    probability of the conditioning event.  When that event has zero
    mass the level is undefined and ``degenerate`` is set (the level
    field then holds 0 and must not be read as a bound).
    """

    __slots__ = ("level", "p_g1", "degenerate")

    def __init__(self, level: Fraction, p_g1: Fraction, degenerate: bool = False):
        self._assign(level, p_g1, degenerate)


def _good_history_mask(target: Assertion, pc: ProbContract) -> np.ndarray:
    """For each history of the probabilistic ports, on their axis view: True
    when every run over the base signature extending it lies in ``target``
    lifted there.

    The runs over ``target``'s own signature that extend a history are fixed
    by its probabilistic ports that ``target`` reads, so ``target`` is
    reduced to those ports and then spread to all of them, not lifted.  It
    is reduced factor by factor, since ``all`` distributes over ``and``.
    """
    names = set(target.signature.names)
    read = _space(tuple(p for p in pc.dist.ports if p.name in names), pc.horizon)
    good = traces.conjunction([traces._reduce(np.logical_and, f, target.space, read)
                               for f in target.factors])
    return traces._spread(good, read, _space(pc.dist.ports, pc.horizon))


def sat_level(m: Assertion, pc: ProbContract) -> SatReport:
    """Probability that m's behaviors stay within the guarantee.

    For a history ``w`` of the probabilistic ports, the singleton
    assertion {w}, intersected with m, must be included in the guarantee
    over the full signature; the level sums the weights of the histories
    for which that holds.  The violations ``m and not G`` are the union,
    over the factors ``g`` of the stored guarantee, of ``m and not g``, and
    each is reduced to the histories one slot at a time over the factors
    of m (``traces.eliminate``), never made over the full signature.  With
    no bad history the level is one; otherwise the joint numerators give
    both the level, one less the mass of the bad histories, and the
    witness.  Requires the implementation's uncontrolled
    ports to be a subset of the contract's and its controlled ports to
    be exactly the contract's.
    """
    sig_c = pc.base.signature
    sig_m = m.signature
    traces.same_horizon(m, pc)
    if not sig_m.uncontrolled <= sig_c.uncontrolled:
        raise PortRoleError(
            f"implementation reads ports the contract does not have: "
            f"{sorted(sig_m.uncontrolled - sig_c.uncontrolled)}")
    if sig_m.controlled != sig_c.controlled:
        raise PortRoleError(
            f"implementation must control exactly {sorted(sig_c.controlled)}, "
            f"controls {sorted(sig_m.controlled)}")
    if not traces.is_subsignature(sig_m, sig_c):
        raise SignatureError("implementation ports must match the contract's domains and roles")

    big = traces.space_of(sig_c, pc.horizon)
    omega_space = _space(pc.dist.ports, pc.horizon)
    omega = {i for i, (name, _) in enumerate(big.axes) if name in pc.pports}
    # G is the conjunction of its factors, so the runs of m not in G are the
    # union over them of the runs of m not in g, each reduced to Omega with any
    ms = traces.lifted_factors(m, sig_c)
    gs = traces.lifted_factors(pc.base.guarantee, sig_c)
    if len(gs) > 1 and traces.joint_size(ms) < big.size:
        # m's factors reduced once over the slots outside Omega that no
        # factor of G reads, where that never makes a mask of full size
        ms = traces.eliminate(ms, omega | {i for g in gs for i, r in enumerate(g.shape) if r > 1})
    viol = traces.conjunction(traces.eliminate(ms, omega, gs[0]))
    for g in gs[1:]:
        viol = viol | traces.conjunction(traces.eliminate(ms, omega, g))
    bad = traces._reduce(np.logical_or, viol, big, omega_space)

    if not bad.any():
        return SatReport(ONE)
    # the joint weights give both the level, one less the bad mass, and the
    # worst violating history: the first of the heaviest bad ones
    bad_weights = np.where(bad, pc.dist.numerators().reshape(omega_space.shape), 0).reshape(-1)
    worst = int(bad_weights.argmax())
    witness = None
    if bad_weights[worst] > 0:
        witness = traces.run_at(pc.dist.signature, pc.horizon, worst)
    den = pc.dist.denominator
    return SatReport(Fraction(den - int(bad_weights.sum()), den), witness)


def compose_prob(pc1: ProbContract, pc2: ProbContract) -> ProbContract:
    """Parallel composition with independent probabilistic environments.

    Defined when the bases compose, the probabilistic port sets are
    disjoint, and no probabilistic port of one side is controlled by the
    other.
    """
    overlap = pc1.pports & pc2.pports
    if overlap:
        raise ProbPortOverlapError(f"probabilistic ports shared: {sorted(overlap)}")
    grabbed1 = pc1.pports & pc2.base.signature.controlled
    grabbed2 = pc2.pports & pc1.base.signature.controlled
    if grabbed1 or grabbed2:
        raise ProbPortControlledError(
            f"probabilistic ports controlled by the peer contract: "
            f"{sorted(grabbed1 | grabbed2)}")
    base = contracts.compose(pc1.base, pc2.base)
    return ProbContract(base, pc1.pports | pc2.pports,
                        product_dist(pc1.dist, pc2.dist))


def refine_level(pc1: ProbContract, pc2: ProbContract) -> RefineReport:
    """Conditional probability that a history pinning G1 also pins G2.

    A history pins a guarantee when every run extending it lies in that
    guarantee (lifted to the refined contract's signature).  Requires
    pc1's signature and probabilistic ports to be included in pc2's and
    pc1's law to be exactly the corresponding marginal of pc2's.
    """
    traces.same_horizon(pc1, pc2)
    if not traces.is_subsignature(pc1.base.signature, pc2.base.signature):
        raise SignatureError("refining contract's signature must be included in the refined one's")
    if not pc1.pports <= pc2.pports:
        raise SignatureError(
            f"probabilistic ports {sorted(pc1.pports - pc2.pports)} missing from the refined contract")
    if marginal(pc2.dist, pc1.pports) != pc1.dist:
        raise MarginalMismatchError(
            "refining distribution is not the marginal of the refined one")

    good1 = _good_history_mask(pc1.base.guarantee, pc2)
    good2 = _good_history_mask(pc2.base.guarantee, pc2)

    p_g1 = _mass(pc2.dist, good1)
    if p_g1 == 0:
        return RefineReport(ZERO, ZERO, degenerate=True)
    return RefineReport(_mass(pc2.dist, good1 & good2) / p_g1, p_g1, degenerate=False)
