"""Probabilistic contracts: distributions over port histories and exact levels.

A probabilistic contract attaches, to an ordinary contract, a set of
uncontrolled ports whose joint history follows a known distribution.
The satisfaction level of an implementation is the probability mass of
histories for which every consistent run of the implementation lies in
the guarantee, whatever the remaining nondeterministic choices are.
All probabilities are exact rationals; floats appear only in display
code.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .traces import Assertion, Port, Run, Signature

ZERO = Fraction(0)
ONE = Fraction(1)


def _dist_sig(ports: Iterable[Port]) -> Signature:
    # roles are irrelevant for indexing joint histories; treat all as uncontrolled
    return Signature.of(uncontrolled=tuple(ports))


@dataclass(frozen=True)
class Distribution:
    """Exact, finitely supported distribution over joint histories.

    ``weights[i]`` is the probability of the joint history with canonical
    index ``i`` in the run space of ``ports`` at ``horizon``.
    """

    ports: tuple
    horizon: int
    weights: tuple

    def __post_init__(self):
        ports = tuple(self.ports)
        object.__setattr__(self, "ports", ports)
        if list(p.name for p in ports) != sorted(p.name for p in ports):
            raise DistributionError("distribution ports must be in name order "
                                    "(the weight vector indexes that space)")
        if len(set(p.name for p in ports)) != len(ports):
            raise DistributionError("duplicate port names in distribution")
        space = traces.space_of(_dist_sig(ports), self.horizon)
        ws = tuple(Fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if len(ws) != space.size:
            raise DistributionError(
                f"expected {space.size} weights for this history space, got {len(ws)}")
        if any(w < 0 for w in ws):
            raise DistributionError("negative probability")
        if sum(ws) != ONE:
            raise DistributionError(f"weights sum to {sum(ws)}, not 1")

    @property
    def signature(self) -> Signature:
        return _dist_sig(self.ports)

    @property
    def names(self) -> frozenset:
        return frozenset(p.name for p in self.ports)

    def weight_of(self, omega: Run) -> Fraction:
        return self.weights[traces.run_index(self.signature, self.horizon, omega)]

    def support(self):
        sig = self.signature
        for i, w in enumerate(self.weights):
            if w:
                yield traces.run_at(sig, self.horizon, i), w


def point_mass_empty(h) -> Distribution:
    """The unit distribution: no probabilistic ports, one empty history."""
    return Distribution((), traces._hlen(h), (ONE,))


def bernoulli_iid(port: Port, p_true_per_step, h) -> Distribution:
    """Step-independent coin on one boolean port."""
    p = Fraction(p_true_per_step)
    if not 0 <= p <= 1:
        raise DistributionError(f"per-step probability {p} outside [0, 1]")
    if not port.is_boolean:
        raise DistributionError(f"port {port.name} is not boolean")
    hh = traces._hlen(h)
    sig = _dist_sig((port,))
    space = traces.space_of(sig, hh)
    weights = []
    for i in range(space.size):
        w = ONE
        for t in range(hh):
            digit = (i // space.strides[t]) % 2
            w *= p if digit else (ONE - p)
        weights.append(w)
    return Distribution((port,), hh, tuple(weights))


def uniform(ports: Iterable[Port], h) -> Distribution:
    hh = traces._hlen(h)
    size = traces.space_of(_dist_sig(tuple(ports)), hh).size
    return Distribution(tuple(ports), hh, (Fraction(1, size),) * size)


def from_table(ports: Iterable[Port], h, table: Mapping[Run, Fraction]) -> Distribution:
    hh = traces._hlen(h)
    ports = tuple(sorted(ports, key=lambda p: p.name))
    sig = _dist_sig(ports)
    space = traces.space_of(sig, hh)
    weights = [ZERO] * space.size
    for omega, w in table.items():
        weights[traces.run_index(sig, hh, omega)] += Fraction(w)
    return Distribution(ports, hh, tuple(weights))


def _weight_array(d: Distribution) -> np.ndarray:
    return np.array(d.weights, dtype=object)


def product_dist(d1: Distribution, d2: Distribution) -> Distribution:
    """Independent product over disjoint port sets."""
    if d1.horizon != d2.horizon:
        raise HorizonMismatchError(f"horizons differ: {d1.horizon} vs {d2.horizon}")
    if d1.names & d2.names:
        raise ProbPortOverlapError(
            f"distributions overlap on ports {sorted(d1.names & d2.names)}")
    ports = tuple(sorted(d1.ports + d2.ports, key=lambda p: p.name))
    space = traces.space_of(_dist_sig(ports), d1.horizon)
    w1 = traces._spread(_weight_array(d1), traces.space_of(d1.signature, d1.horizon), space)
    w2 = traces._spread(_weight_array(d2), traces.space_of(d2.signature, d2.horizon), space)
    # a product of two 0-d object arrays is a bare Fraction, hence asarray
    weights = np.asarray(w1 * w2, dtype=object).reshape(-1)
    return Distribution(ports, d1.horizon, tuple(weights))


def marginal(d: Distribution, names: Iterable[str]) -> Distribution:
    """Sum out every port not named."""
    keep = frozenset(names)
    if not keep <= d.names:
        raise DistributionError(f"ports {sorted(keep - d.names)} not in distribution")
    ports = tuple(p for p in d.ports if p.name in keep)
    sub = traces.space_of(_dist_sig(ports), d.horizon)
    weights = traces._reduce(np.add, _weight_array(d),
                             traces.space_of(d.signature, d.horizon), sub)
    return Distribution(ports, d.horizon, tuple(weights))


def renamed_dist(d: Distribution, old: str, new: str) -> Distribution:
    """Rename a port, preserving the joint law."""
    if old not in d.names:
        raise DistributionError(f"no port named {old!r} in distribution")
    if new in d.names:
        raise DistributionError(f"port name {new!r} already taken")
    ports = tuple(sorted((p.renamed(new) if p.name == old else p for p in d.ports),
                         key=lambda p: p.name))
    new_space = traces.space_of(_dist_sig(ports), d.horizon)
    weights = traces._spread(_weight_array(d), traces.space_of(d.signature, d.horizon),
                             new_space, {old: new}).reshape(-1)
    return Distribution(ports, d.horizon, tuple(weights))


# --- probabilistic contracts --------------------------------------------------

@dataclass(frozen=True)
class ProbContract:
    """A contract, a set of probabilistic uncontrolled ports, and their law.

    The base contract is kept in canonical form; use ``prob_contract`` to
    build one from an arbitrary contract.
    """

    base: Contract
    pports: frozenset
    dist: Distribution

    def __post_init__(self):
        if not self.base.canonical:
            raise SignatureError("probabilistic contracts require a canonical base; "
                                 "use prob_contract()")
        if not self.pports <= self.base.signature.uncontrolled:
            extra = self.pports - self.base.signature.uncontrolled
            raise SignatureError(
                f"probabilistic ports must be uncontrolled ports of the base: {sorted(extra)}")
        if self.dist.names != self.pports:
            raise SignatureError("distribution ports must be exactly the probabilistic ports")
        if self.dist.horizon != self.base.horizon:
            raise HorizonMismatchError("distribution horizon differs from the contract's")
        for p in self.dist.ports:
            if not traces.same_domain(self.base.signature.port(p.name).domain, p.domain):
                raise SignatureError(f"port {p.name}: distribution domain differs from signature")

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


@dataclass(frozen=True)
class SatReport:
    """Exact satisfaction level plus, if any, a worst violating history."""

    level: Fraction
    witness_bad: Run | None = None


@dataclass(frozen=True)
class RefineReport:
    """Exact refinement level.

    ``level`` is the conditional probability that a history pins the
    refined guarantee given it pins the refining one; ``p_g1`` is the
    probability of the conditioning event.  When that event has zero
    mass the level is undefined and ``degenerate`` is set (the level
    field then holds 0 and must not be read as a bound).
    """

    level: Fraction
    p_g1: Fraction
    degenerate: bool = False


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

    level = ZERO
    witness = None
    witness_w = None
    for i in range(omega_space.size):
        w = pc.dist.weights[i]
        if bad[i]:
            if w and (witness_w is None or w > witness_w):
                witness, witness_w = i, w
        else:
            level += w
    witness_run = (traces.run_at(pc.dist.signature, pc.horizon, witness)
                   if witness is not None else None)
    return SatReport(level, witness_run)


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

    p_g1 = ZERO
    p_both = ZERO
    for i, w in enumerate(pc2.dist.weights):
        if good1[i]:
            p_g1 += w
            if good2[i]:
                p_both += w
    if p_g1 == 0:
        return RefineReport(ZERO, ZERO, degenerate=True)
    return RefineReport(p_both / p_g1, p_g1, degenerate=False)
