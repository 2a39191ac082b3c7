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
and levels are integer array operations; a level is contracted against
the factors one at a time and never needs the weight of every joint
history.
"""

from __future__ import annotations

import functools
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
from .traces import Assertion, Port, Run, Signature

ZERO = Fraction(0)
ONE = Fraction(1)

_INT64_MAX = int(np.iinfo(np.int64).max)


def _dist_sig(ports: Iterable[Port]) -> Signature:
    """The signature of name-sorted ports, all uncontrolled: roles are
    irrelevant for indexing joint histories."""
    ports = tuple(ports)
    return Signature(ports, frozenset(), frozenset(p.name for p in ports))


def _space(ports: Iterable[Port], h: int):
    """The history space of name-sorted ports."""
    return traces.space_of(_dist_sig(ports), h)


def _int_dtype(bound: int):
    """int64 when no value can exceed ``bound``, else Python ints."""
    return np.int64 if bound <= _INT64_MAX else object


class Factor(Record):
    """One independent block of a distribution.

    ``num[i] / den`` is the probability of the history with run index ``i``
    over the block's name-sorted ``ports``.  The numerators are nonnegative,
    sum to ``den`` and share no divisor with it, so equal laws have equal
    factors.  ``num`` is int64 when ``den`` fits in it, else Python ints.
    Factors compare by identity; ``Distribution`` compares their values.
    """

    __slots__ = ("ports", "num", "den")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, ports: tuple, num: np.ndarray, den: int):
        num.setflags(write=False)
        self._assign(ports, num, den)


def _factor(ports: tuple, h: int, num: Iterable[int], den: int) -> Factor:
    """A checked factor in lowest terms from integer numerators over ``den``."""
    size = _space(ports, h).size
    num = list(num)
    if len(num) != size:
        raise DistributionError(
            f"expected {size} weights for this history space, got {len(num)}")
    if any(n < 0 for n in num):
        raise DistributionError("negative probability")
    if sum(num) != den:
        raise DistributionError(f"weights sum to {Fraction(sum(num), den)}, not 1")
    g = math.gcd(den, *num)
    return Factor(ports, np.array([n // g for n in num], dtype=_int_dtype(den // g)), den // g)


class Distribution(Record):
    """Exact, finitely supported distribution over joint histories.

    It is the product of independent ``factors`` over disjoint blocks of
    ``ports`` (name-sorted).  ``Distribution(ports, horizon, weights)``
    makes a law of one block: ``weights[i]`` is the probability of the
    joint history with canonical index ``i`` in the run space of ``ports``
    at ``horizon``.  The ``weights`` tuple of any distribution is built on
    first use.
    """

    __slots__ = ("ports", "horizon", "factors", "_weights")

    def __init__(self, ports, horizon: int, weights):
        ports, horizon = tuple(ports), traces._hlen(horizon)
        if list(p.name for p in ports) != sorted(p.name for p in ports):
            raise DistributionError("distribution ports must be in name order "
                                    "(the weight vector indexes that space)")
        if len(set(p.name for p in ports)) != len(ports):
            raise DistributionError("duplicate port names in distribution")
        ws = [Fraction(w) for w in weights]
        den = math.lcm(*(w.denominator for w in ws))
        factor = _factor(ports, horizon, (w.numerator * (den // w.denominator) for w in ws), den)
        self._set(ports, horizon, (factor,))

    @classmethod
    def of_factors(cls, horizon: int, factors: Iterable[Factor]) -> "Distribution":
        """The product of factors over disjoint ports."""
        d = cls.__new__(cls)
        factors = tuple(factors)
        d._set(sorted((p for f in factors for p in f.ports), key=lambda p: p.name),
               traces._hlen(horizon), factors)
        return d

    def _set(self, ports, horizon: int, factors: tuple) -> None:
        # a block of no ports is the unit factor; blocks go in the order of
        # their first port, so equal factorizations compare factor by factor
        factors = sorted((f for f in factors if f.ports), key=lambda f: f.ports[0].name)
        setfield(self, "ports", tuple(ports))
        setfield(self, "horizon", horizon)
        setfield(self, "factors", tuple(factors))
        setfield(self, "_weights", None)

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
        in run-index order: the product of the factors' numerators."""
        space = _space(self.ports, self.horizon)
        out = np.ones(space.shape, dtype=_int_dtype(self.denominator))
        for f in self.factors:
            out = out * traces._spread(f.num.astype(out.dtype, copy=False),
                                       _space(f.ports, self.horizon), space)
        return out.reshape(-1)

    @property
    def weights(self) -> tuple:
        if self._weights is None:
            den = self.denominator
            setfield(self, "_weights", tuple(Fraction(n, den) for n in self.numerators().tolist()))
        return self._weights

    def weight_of(self, omega: Run) -> Fraction:
        return self.weights[traces.run_index(self.signature, self.horizon, omega)]

    def support(self):
        sig = self.signature
        for i, w in enumerate(self.weights):
            if w:
                yield traces.run_at(sig, self.horizon, i), w


def _mass(d: Distribution, mask: np.ndarray) -> Fraction:
    """The probability of the joint histories that ``mask`` holds.

    The mask is contracted against one factor at a time: multiplied by the
    factor's numerators and summed over its ports.  Every partial sum is
    at most the product of the denominators contracted so far.
    """
    ports, h = d.ports, d.horizon
    src = _space(ports, h)
    held = mask.astype(_int_dtype(d.denominator))
    for f in d.factors:
        names = {p.name for p in f.ports}
        ports = tuple(p for p in ports if p.name not in names)
        dst = _space(ports, h)
        term = held.reshape(src.shape) * traces._spread(
            f.num.astype(held.dtype, copy=False), _space(f.ports, h), src)
        held, src = traces._reduce(np.add, term.reshape(-1), src, dst), dst
    return Fraction(int(held[0]), d.denominator)


def point_mass_empty(h) -> Distribution:
    """The unit distribution: no probabilistic ports, one empty history."""
    return Distribution.of_factors(h, ())


def bernoulli_iid(port: Port, p_true_per_step, h) -> Distribution:
    """Step-independent coin on one boolean port.

    Its numerators are the outer product of ``h`` vectors ``[1-p, p]``
    scaled to the denominator of ``p``; the vectors are equal, so the
    order of the steps in the product does not matter.
    """
    p = Fraction(p_true_per_step)
    if not 0 <= p <= 1:
        raise DistributionError(f"per-step probability {p} outside [0, 1]")
    if not port.is_boolean:
        raise DistributionError(f"port {port.name} is not boolean")
    hh = traces._hlen(h)
    step = np.array([p.denominator - p.numerator, p.numerator], dtype=object)
    num = functools.reduce(np.multiply.outer, [step] * hh).reshape(-1)
    return Distribution.of_factors(hh, [_factor((port,), hh, num.tolist(), p.denominator ** hh)])


def uniform(ports: Iterable[Port], h) -> Distribution:
    hh, ports = traces._hlen(h), tuple(ports)
    size = _space(ports, hh).size
    return Distribution(ports, hh, (Fraction(1, size),) * size)


def from_table(ports: Iterable[Port], h, table: Mapping[Run, Fraction]) -> Distribution:
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
    if d1.horizon != d2.horizon:
        raise HorizonMismatchError(f"horizons differ: {d1.horizon} vs {d2.horizon}")
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
            factors.append(_factor(kept, h, sums.tolist(), f.den))
    return Distribution.of_factors(h, factors)


def renamed_dist(d: Distribution, old: str, new: str) -> Distribution:
    """Rename a port, preserving the joint law."""
    if old not in d.names:
        raise DistributionError(f"no port named {old!r} in distribution")
    if new in d.names:
        raise DistributionError(f"port name {new!r} already taken")
    h = d.horizon
    factors = []
    for f in d.factors:
        if old in (p.name for p in f.ports):
            ports = tuple(sorted((p.renamed(new) if p.name == old else p for p in f.ports),
                                 key=lambda p: p.name))
            num = traces._spread(f.num, _space(f.ports, h), _space(ports, h), {old: new})
            f = Factor(ports, num.reshape(-1), f.den)
        factors.append(f)
    return Distribution.of_factors(h, factors)


# --- probabilistic contracts --------------------------------------------------

class ProbContract(Record):
    """A contract, a set of probabilistic uncontrolled ports, and their law.

    The base contract is kept in canonical form; use ``prob_contract`` to
    build one from an arbitrary contract.
    """

    __slots__ = ("base", "pports", "dist")

    def __init__(self, base: Contract, pports: frozenset, dist: Distribution):
        if not base.canonical:
            raise SignatureError("probabilistic contracts require a canonical base; "
                                 "use prob_contract()")
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


def prob_contract(base: Contract, pports: Iterable[str], dist: Distribution) -> ProbContract:
    return ProbContract(contracts.canonicalize(base), frozenset(pports), dist)


def from_contract(c: Contract) -> ProbContract:
    """Wrap a plain contract as probability-free (no probabilistic ports)."""
    return prob_contract(c, (), point_mass_empty(c.horizon))


class SatReport(Record):
    """Exact satisfaction level plus, if any, a worst violating history."""

    __slots__ = ("level", "witness_bad")

    def __init__(self, level: Fraction, witness_bad: Run | None = None):
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
    """For each history index of the probabilistic ports: True when every
    run extending it lies in ``target`` (already lifted to the base signature)."""
    omega_space = traces.space_of(pc.dist.signature, pc.horizon)
    big = traces.space_of(pc.base.signature, pc.horizon)
    return ~traces._reduce(np.logical_or, ~target.mask, big, omega_space)


def sat_level(m: Assertion, pc: ProbContract) -> SatReport:
    """Probability that m's behaviors stay within the guarantee.

    For a history ``w`` of the probabilistic ports, the singleton
    assertion {w}, intersected with m, must be included in the guarantee
    over the full signature; the level sums the weights of the histories
    for which that holds.  Requires the implementation's uncontrolled
    ports to be a subset of the contract's and its controlled ports to
    be exactly the contract's.
    """
    sig_c = pc.base.signature
    sig_m = m.signature
    if m.horizon != pc.horizon:
        raise HorizonMismatchError(f"horizons differ: {m.horizon} vs {pc.horizon}")
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

    mm = traces.lift(m, sig_c)
    big = traces.space_of(sig_c, pc.horizon)
    omega_space = traces.space_of(pc.dist.signature, pc.horizon)
    viol = mm.mask & ~pc.base.guarantee.mask
    bad = traces._reduce(np.logical_or, viol, big, omega_space)

    witness = None
    if bad.any():
        # the worst violating history: the first of the heaviest bad ones
        bad_weights = np.where(bad, pc.dist.numerators(), 0)
        worst = int(bad_weights.argmax())
        if bad_weights[worst] > 0:
            witness = traces.run_at(pc.dist.signature, pc.horizon, worst)
    return SatReport(_mass(pc.dist, ~bad), witness)


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


def wrap(x: str, pc: ProbContract) -> tuple:
    """Detach a probabilistic port so a peer contract may control it.

    Returns ``(pc2, wrapper)``.  In ``pc2`` the distribution formerly on
    ``x`` now rides on a fresh uncontrolled port ``x_p`` (joint law
    preserved); ``x`` itself stays in the signature as a plain
    uncontrolled port.  The wrapper contract controls ``x`` and copies,
    step by step, either ``x_p`` or a second fresh input ``x_c`` into it,
    choosing by the selector port ``x_s``.  Composing ``pc2`` with the
    wrapper and then with the peer (its ``x`` renamed to ``x_c``) is
    then defined.
    """
    if x not in pc.pports:
        raise SignatureError(f"port {x!r} is not probabilistic in this contract")
    sig = pc.base.signature
    xport = sig.port(x)
    xp, xc, xs = f"{x}_p", f"{x}_c", f"{x}_s"
    for taken in (xp, xc, xs):
        if taken in sig:
            raise SignatureError(f"cannot wrap {x!r}: port name {taken!r} already taken")

    # carry x's distribution over to x_p
    dist2 = renamed_dist(pc.dist, x, xp)
    sig2 = Signature.of(
        controlled=tuple(sig.port(n) for n in sorted(sig.controlled)),
        uncontrolled=tuple(sig.port(n) for n in sorted(sig.uncontrolled)) + (Port(xp, xport.domain),))
    base2 = Contract(sig2,
                     traces.lift(pc.base.assumption, sig2),
                     traces.lift(pc.base.guarantee, sig2),
                     canonical=pc.base.canonical)
    pc2 = ProbContract(base2, (pc.pports - {x}) | {xp}, dist2)

    wsig = Signature.of(
        controlled=(xport,),
        uncontrolled=(Port(xp, xport.domain), Port(xc, xport.domain), Port(xs, ("p", "c"))))

    def select(t, val):
        return np.where(val(xs) == 0, val(x) == val(xp), val(x) == val(xc))

    guarantee = traces.from_step_predicate(wsig, pc.horizon, select)
    wrapper = contracts.contract(traces.universe(wsig, pc.horizon), guarantee)
    return pc2, wrapper


def rename_prob(pc: ProbContract, old: str, new: str) -> ProbContract:
    dist = renamed_dist(pc.dist, old, new) if old in pc.dist.names else pc.dist
    pports = frozenset(new if n == old else n for n in pc.pports)
    return ProbContract(contracts.renamed(pc.base, old, new), pports, dist)


def refine_level(pc1: ProbContract, pc2: ProbContract) -> RefineReport:
    """Conditional probability that a history pinning G1 also pins G2.

    A history pins a guarantee when every run extending it lies in that
    guarantee (lifted to the refined contract's signature).  Requires
    pc1's signature and probabilistic ports to be included in pc2's and
    pc1's law to be exactly the corresponding marginal of pc2's.
    """
    if pc1.horizon != pc2.horizon:
        raise HorizonMismatchError(f"horizons differ: {pc1.horizon} vs {pc2.horizon}")
    if not traces.is_subsignature(pc1.base.signature, pc2.base.signature):
        raise SignatureError("refining contract's signature must be included in the refined one's")
    if not pc1.pports <= pc2.pports:
        raise SignatureError(
            f"probabilistic ports {sorted(pc1.pports - pc2.pports)} missing from the refined contract")
    if marginal(pc2.dist, pc1.pports) != pc1.dist:
        raise MarginalMismatchError(
            "refining distribution is not the marginal of the refined one")

    sig2 = pc2.base.signature
    g1 = traces.lift(pc1.base.guarantee, sig2)
    good1 = _good_history_mask(g1, pc2)
    good2 = _good_history_mask(pc2.base.guarantee, pc2)

    p_g1 = _mass(pc2.dist, good1)
    if p_g1 == 0:
        return RefineReport(ZERO, ZERO, degenerate=True)
    return RefineReport(_mass(pc2.dist, good1 & good2) / p_g1, p_g1, degenerate=False)
