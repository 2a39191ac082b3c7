"""Assume/guarantee contracts: satisfaction, composition, refinement.

A contract pairs an assumption on the environment with a guarantee the
component promises whenever the assumption holds.  Both assertions live
over one common signature (``contract`` lifts them there).  A contract is
stored in canonical form: its guarantee is ``G or not A``, the largest
implementation that satisfies it.  A contract and its canonical form have
the same implementations and compose and refine alike, so this is the
only form kept.
"""

from __future__ import annotations

import numpy as np

from . import traces
from .errors import ControlledOverlapError, SignatureError
from .record import Record
from .traces import Assertion, Signature


class Contract(Record):
    """A pair (assumption, guarantee) over a shared signature.

    The stored guarantee is the given one or the negated assumption
    (``G or not A``), so ``complement(assumption) <= guarantee`` holds
    for every contract.  It is kept as factors, ``g or not A`` for each
    factor ``g`` of the given guarantee, since ``or`` distributes over
    ``and``.  Factors of G that read no slot outside another's and A's go
    into one: so where A reads every slot that G reads, the stored
    guarantee is one factor.
    """

    __slots__ = ("signature", "assumption", "guarantee")

    def __init__(self, signature: Signature, assumption: Assertion, guarantee: Assertion):
        if assumption.signature != signature or guarantee.signature != signature:
            raise SignatureError("contract assertions must share the contract signature")
        traces.same_horizon(assumption, guarantee)
        # G or not A, which on booleans is G >= A, for each factor of G;
        # factors that read no slot outside another's and A's are combined
        # first, since apart each would be as large
        a, gs = assumption.view, guarantee.factors
        if len(gs) == 1:
            g = traces.combine(np.greater_equal, gs[0], a)
        else:
            g = tuple([traces.combine(np.greater_equal, x, a) for x in traces._nested(gs, a.shape)])
        self._assign(signature, assumption, Assertion(signature, assumption.horizon, g))

    @property
    def horizon(self) -> int:
        return self.assumption.horizon


def contract(assumption: Assertion, guarantee: Assertion) -> Contract:
    """Build a contract, lifting both assertions to the union signature."""
    sig = traces.union_signature(assumption.signature, guarantee.signature)
    return Contract(sig, traces.lift(assumption, sig), traces.lift(guarantee, sig))


def satisfies(m: Assertion, c: Contract) -> bool:
    """True when every run of m allowed by the assumption is guaranteed.

    Both sides are lifted to the union of the implementation's and the
    contract's signatures, which must agree on shared ports.  The stored
    guarantee holds every run the assumption rules out, so m&A is within
    it exactly when m is.
    """
    traces.same_horizon(m, c)
    sig = traces.union_signature(m.signature, c.signature)
    return traces.within(traces.lifted_factors(m, sig), traces.lifted_factors(c.guarantee, sig))


def satisfaction_formulas(m: Assertion, c: Contract) -> tuple:
    """The three equivalent satisfaction tests, evaluated separately.

    Returns (inclusion of m&A in G, inclusion of m in G|~A, emptiness of
    m&A&~G); all three must agree on every instance, which the
    verification suites assert.
    """
    sig = traces.union_signature(m.signature, c.signature)
    mm = traces.lift(m, sig)
    aa = traces.lift(c.assumption, sig)
    gg = traces.lift(c.guarantee, sig)
    by_inclusion = traces.included_in(traces.product(mm, aa), gg, sig)
    by_maximal = traces.included_in(mm, traces.union(gg, traces.complement(aa)), sig)
    by_emptiness = not traces.combine(np.logical_and, traces.combine(
        np.logical_and, mm.view, aa.view), ~gg.view).any()
    return by_inclusion, by_maximal, by_emptiness


def compose(c1: Contract, c2: Contract) -> Contract:
    """Parallel composition.

    The controlled port sets must be disjoint; a port controlled on one
    side may appear uncontrolled on the other and ends up controlled.
    The result guarantees both guarantees, and assumes both assumptions
    or anything the joint guarantee already rules out.
    """
    traces.same_horizon(c1, c2)
    overlap = c1.signature.controlled & c2.signature.controlled
    if overlap:
        raise ControlledOverlapError(
            f"both contracts control {sorted(overlap)}")
    sig = traces.merge_signature_controlled(c1.signature, c2.signature)
    a1, g1, a2, g2 = (traces.lifted_view(e, sig) for e in (
        c1.assumption, c1.guarantee, c2.assumption, c2.guarantee))
    g = traces.combine(np.logical_and, g1, g2)
    # (A1 and A2) or not G, which on booleans is (A1 and A2) >= G
    a = traces.combine(np.greater_equal, traces.combine(np.logical_and, a1, a2), g)
    return Contract(sig, Assertion(sig, c1.horizon, a), Assertion(sig, c1.horizon, g))


def compose_impl(m1: Assertion, m2: Assertion) -> Assertion:
    """Compose implementations: intersection, the factors of both sides,
    with the controlled-wins role merge used by contract composition."""
    traces.same_horizon(m1, m2)
    sig = traces.merge_signature_controlled(m1.signature, m2.signature)
    return Assertion(sig, m1.horizon,
                     traces.lifted_factors(m1, sig) + traces.lifted_factors(m2, sig))


def refines(c1: Contract, c2: Contract) -> bool:
    """True when c1 assumes less and guarantees more, over c2's signature.

    Requires c1's signature to be a sub-signature of c2's.  The
    guarantees compared are the stored, canonical ones.
    """
    traces.same_horizon(c1, c2)
    if not traces.is_subsignature(c1.signature, c2.signature):
        raise SignatureError("refinement requires the refining signature to be included")
    sig = c2.signature
    return (traces.included_in(c2.assumption, c1.assumption, sig)
            and traces.included_in(c1.guarantee, c2.guarantee, sig))

