"""Assume/guarantee contracts: canonical form, satisfaction, composition, refinement.

A contract pairs an assumption on the environment with a guarantee the
component promises whenever the assumption holds.  Both assertions live
over one common signature (they are lifted on construction).  The
canonical form replaces the guarantee by ``G or not A``, the unique
maximal satisfying implementation; satisfaction and composition are
insensitive to canonicalization.
"""

from __future__ import annotations

from . import traces
from .errors import ControlledOverlapError, SignatureError
from .record import Record
from .traces import Assertion, Signature


class Contract(Record):
    """A pair (assumption, guarantee) over a shared signature.

    ``canonical`` records that the guarantee already absorbs the negated
    assumption, i.e. ``complement(assumption) <= guarantee``; a contract
    built with ``canonical=True`` is checked for it.
    """

    __slots__ = ("signature", "assumption", "guarantee", "canonical")

    def __init__(self, signature: Signature, assumption: Assertion, guarantee: Assertion,
                 canonical: bool = False):
        self._fill(signature, assumption, guarantee, canonical)
        if canonical and not _is_canonical(assumption, guarantee):
            raise SignatureError("canonical flag set but complement(A) is not within G")

    @classmethod
    def _known(cls, signature: Signature, assumption: Assertion, guarantee: Assertion,
               canonical: bool) -> "Contract":
        """A contract whose canonicity the caller knows by construction:
        ``canonical`` is taken as given, without a pass over the runs."""
        c = cls.__new__(cls)
        c._fill(signature, assumption, guarantee, canonical)
        return c

    def _fill(self, signature, assumption, guarantee, canonical) -> None:
        if assumption.signature != signature or guarantee.signature != signature:
            raise SignatureError("contract assertions must share the contract signature")
        if assumption.horizon != guarantee.horizon:
            raise SignatureError("contract assertions must share one horizon")
        self._assign(signature, assumption, guarantee, canonical)

    @property
    def horizon(self) -> int:
        return self.assumption.horizon


def _is_canonical(a: Assertion, g: Assertion) -> bool:
    # complement(A) within G: every run is in A or in G
    return bool((a.mask | g.mask).all())


def contract(assumption: Assertion, guarantee: Assertion) -> Contract:
    """Build a contract, lifting both assertions to the union signature."""
    if assumption.horizon != guarantee.horizon:
        raise SignatureError("assumption and guarantee must share one horizon")
    sig = traces.union_signature(assumption.signature, guarantee.signature)
    a = traces.lift(assumption, sig)
    g = traces.lift(guarantee, sig)
    return Contract._known(sig, a, g, _is_canonical(a, g))


def canonicalize(c: Contract) -> Contract:
    """Replace the guarantee by ``G or not A``; idempotent."""
    if c.canonical:
        return c
    g = Assertion(c.signature, c.horizon, c.guarantee.mask | ~c.assumption.mask)
    return Contract._known(c.signature, c.assumption, g, True)


def maximal_implementation(c: Contract) -> Assertion:
    """The largest implementation satisfying the contract."""
    return canonicalize(c).guarantee


def satisfies(m: Assertion, c: Contract) -> bool:
    """True when every run of m allowed by the assumption is guaranteed.

    Both sides are lifted to the union of the implementation's and the
    contract's signatures, which must agree on shared ports.
    """
    if m.horizon != c.horizon:
        raise SignatureError(f"horizons differ: {m.horizon} vs {c.horizon}")
    sig = traces.union_signature(m.signature, c.signature)
    mm = traces.lift(m, sig).mask
    aa = traces.lift(c.assumption, sig).mask
    gg = traces.lift(c.guarantee, sig).mask
    return not bool((mm & aa & ~gg).any())


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
    by_emptiness = not bool((mm.mask & aa.mask & ~gg.mask).any())
    return by_inclusion, by_maximal, by_emptiness


def compose(c1: Contract, c2: Contract) -> Contract:
    """Parallel composition (inputs are canonicalized first).

    The controlled port sets must be disjoint; a port controlled on one
    side may appear uncontrolled on the other and ends up controlled.
    The result guarantees both guarantees, assumes both assumptions or
    anything the joint guarantee already rules out, and is canonical by
    construction.
    """
    if c1.horizon != c2.horizon:
        raise SignatureError(f"horizons differ: {c1.horizon} vs {c2.horizon}")
    overlap = c1.signature.controlled & c2.signature.controlled
    if overlap:
        raise ControlledOverlapError(
            f"both contracts control {sorted(overlap)}")
    c1, c2 = canonicalize(c1), canonicalize(c2)
    sig = traces.merge_signature_controlled(c1.signature, c2.signature)
    a1, g1 = _lift_onto(c1, sig)
    a2, g2 = _lift_onto(c2, sig)
    g = g1 & g2
    a = (a1 & a2) | ~g
    return Contract._known(sig, Assertion(sig, c1.horizon, a), Assertion(sig, c1.horizon, g),
                           True)


def _lift_onto(c: Contract, sig: Signature) -> tuple:
    """Lift a contract's assertions onto a merged signature, role changes allowed."""
    local = sig.restricted(c.signature.names)
    a = traces.lift(traces.relabel(c.assumption, local), sig)
    g = traces.lift(traces.relabel(c.guarantee, local), sig)
    return a.mask, g.mask


def compose_impl(m1: Assertion, m2: Assertion) -> Assertion:
    """Compose implementations: intersection with the controlled-wins
    role merge used by contract composition."""
    if m1.horizon != m2.horizon:
        raise SignatureError(f"horizons differ: {m1.horizon} vs {m2.horizon}")
    sig = traces.merge_signature_controlled(m1.signature, m2.signature)
    a = traces.lift(traces.relabel(m1, sig.restricted(m1.signature.names)), sig)
    b = traces.lift(traces.relabel(m2, sig.restricted(m2.signature.names)), sig)
    return Assertion(sig, m1.horizon, a.mask & b.mask)


def refines(c1: Contract, c2: Contract) -> bool:
    """True when c1 assumes less and guarantees more, over c2's signature.

    Requires c1's signature to be a sub-signature of c2's; both contracts
    are compared as given (canonicalize first for canonical refinement).
    """
    if c1.horizon != c2.horizon:
        raise SignatureError(f"horizons differ: {c1.horizon} vs {c2.horizon}")
    if not traces.is_subsignature(c1.signature, c2.signature):
        raise SignatureError("refinement requires the refining signature to be included")
    sig = c2.signature
    return (traces.included_in(c2.assumption, c1.assumption, sig)
            and traces.included_in(c1.guarantee, c2.guarantee, sig))


def renamed(c: Contract, old: str, new: str) -> Contract:
    # renaming a port moves runs, so every run is in A or G as before
    return Contract._known(c.signature.renamed(old, new),
                           traces.renamed(c.assumption, old, new),
                           traces.renamed(c.guarantee, old, new),
                           c.canonical)
