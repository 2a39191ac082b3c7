"""Finite-trace universe: ports, runs, and the assertion algebra.

A system is a set of named finite-domain ports observed over a fixed
number of discrete steps (the horizon).  A run assigns one value per
(port, step); an assertion is a set of runs over a signature, stored as
a boolean mask over the canonical run index.

Canonical run index
-------------------
Runs are numbered little-endian mixed-radix over (port, step) slots:
ports in lexicographic name order, steps ascending within a port, digit
= position of the value in the port's declared domain.  Slot 0 is the
least significant digit.  This index is the normative serialization of
run sets (see docs/format.md) and everything here round-trips through it
bit-exactly.

Computation works on a free view of that vector instead: reshaped in C
order to one axis per slot, slot k becomes axis n-1-k.  Lifting is then a
broadcast, projection an ``any`` over the dropped axes and renaming a
transpose.  Only this module knows that layout; ``_spread`` and
``_reduce`` carry vectors of any dtype between spaces for the others.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    CapacityError,
    DomainMismatchError,
    HorizonMismatchError,
    PctError,
    RoleConflictError,
    SignatureError,
)
from .record import Record, setfield

BOOL = (False, True)

_enum_cap = 2**24


def enumeration_cap() -> int:
    return _enum_cap


def set_enumeration_cap(n: int) -> None:
    """Cap on the size of any enumerated run space (default 2**24)."""
    global _enum_cap
    if n < 1:
        raise ValueError("enumeration cap must be positive")
    _enum_cap = n


def same_domain(d1: tuple, d2: tuple) -> bool:
    """Value-and-type equality; bool and int values never match each other."""
    return len(d1) == len(d2) and all(type(a) is type(b) and a == b
                                      for a, b in zip(d1, d2))


def domain_index(domain: tuple, value) -> int:
    """Position of a value in a domain, matching type as well as value."""
    for i, v in enumerate(domain):
        if type(v) is type(value) and v == value:
            return i
    raise PctError(f"value {value!r} not in domain {domain}")


class Port(Record):
    """A named channel with an ordered finite value domain.

    Ports compare and hash by a key made once, with its hash: the name
    and each domain value with its type, so that, as in ``same_domain``,
    bool and int values never match each other.
    """

    __slots__ = ("name", "domain", "_key", "_hash")

    def __init__(self, name: str, domain: tuple = BOOL):
        if not name or not isinstance(name, str):
            raise PctError("port name must be a non-empty string")
        dom = tuple(domain)
        if len(dom) < 1:
            raise PctError(f"port {name}: domain must have at least one value")
        if len(set(dom)) != len(dom):
            raise PctError(f"port {name}: domain values must be distinct")
        key = (name, tuple((type(v), v) for v in dom))
        setfield(self, "name", name)
        setfield(self, "domain", dom)
        setfield(self, "_key", key)
        setfield(self, "_hash", hash(key))

    def __eq__(self, other):
        return self is other or (isinstance(other, Port) and self._key == other._key)

    def __hash__(self):
        return self._hash

    @property
    def is_boolean(self) -> bool:
        # same_domain(self.domain, BOOL), unrolled: it is asked once per bare port name
        d = self.domain
        return len(d) == 2 and d[0] is False and d[1] is True

    def renamed(self, new_name: str) -> "Port":
        return Port(new_name, self.domain)


def _hlen(h) -> int:
    """``h`` if it is a horizon: an int of at least 1, and not a bool."""
    if isinstance(h, bool) or not isinstance(h, int) or h < 1:
        raise PctError("horizon must be a positive integer")
    return h


class Run(Record):
    """One history per port, keyed by port name (name-sorted entries)."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        setfield(self, "entries", entries)

    def __eq__(self, other):
        return self is other or (type(other) is Run and self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    @classmethod
    def of(cls, assignments: Mapping[str, Iterable]) -> "Run":
        items = tuple(sorted((name, tuple(vals)) for name, vals in assignments.items()))
        return cls(items)

    @property
    def assignments(self) -> dict:
        return dict(self.entries)

    def history(self, name: str) -> tuple:
        for n, vals in self.entries:
            if n == name:
                return vals
        raise KeyError(name)

    def restricted(self, names: Iterable[str]) -> "Run":
        keep = set(names)
        return Run(tuple((n, v) for n, v in self.entries if n in keep))

    def merged(self, other: "Run") -> "Run":
        d = dict(self.entries)
        for n, v in other.entries:
            if n in d and d[n] != v:
                raise PctError(f"conflicting histories for port {n}")
            d[n] = v
        return Run.of(d)

    def renamed(self, old: str, new: str) -> "Run":
        d = dict(self.entries)
        if old in d:
            d[new] = d.pop(old)
        return Run.of(d)


class Signature(Record):
    """Ports of a component, split into controlled and uncontrolled sets."""

    __slots__ = ("ports", "controlled", "uncontrolled")

    def __init__(self, ports: tuple, controlled: frozenset, uncontrolled: frozenset):
        if controlled & uncontrolled:
            raise SignatureError("controlled and uncontrolled port sets overlap")
        if controlled | uncontrolled != frozenset(p.name for p in ports):
            raise SignatureError("controlled/uncontrolled split must cover exactly the ports")
        setfield(self, "ports", ports)
        setfield(self, "controlled", controlled)
        setfield(self, "uncontrolled", uncontrolled)

    def __eq__(self, other):
        return self is other or (type(other) is Signature and self.ports == other.ports
                                 and self.controlled == other.controlled
                                 and self.uncontrolled == other.uncontrolled)

    def __hash__(self):
        return hash((self.ports, self.controlled, self.uncontrolled))

    @classmethod
    def of(cls, controlled: Iterable[Port] = (), uncontrolled: Iterable[Port] = ()) -> "Signature":
        c, u = tuple(controlled), tuple(uncontrolled)
        names = [p.name for p in c] + [p.name for p in u]
        if len(set(names)) != len(names):
            raise SignatureError(f"duplicate port names in signature: {sorted(names)}")
        ports = tuple(sorted(c + u, key=lambda p: p.name))
        return cls(ports, frozenset(p.name for p in c), frozenset(p.name for p in u))

    @property
    def names(self) -> tuple:
        return tuple(p.name for p in self.ports)

    def port(self, name: str) -> Port:
        for p in self.ports:
            if p.name == name:
                return p
        raise SignatureError(f"no port named {name!r} in signature")

    def __contains__(self, name: str) -> bool:
        return any(p.name == name for p in self.ports)

    def role(self, name: str) -> str:
        if name in self.controlled:
            return "controlled"
        if name in self.uncontrolled:
            return "uncontrolled"
        raise SignatureError(f"no port named {name!r} in signature")

    def restricted(self, names: Iterable[str]) -> "Signature":
        keep = set(names)
        missing = keep - set(self.names)
        if missing:
            raise SignatureError(f"ports not in signature: {sorted(missing)}")
        ports = tuple(p for p in self.ports if p.name in keep)
        return Signature(ports, self.controlled & keep, self.uncontrolled & keep)

    def renamed(self, old: str, new: str) -> "Signature":
        if old not in self:
            raise SignatureError(f"no port named {old!r} in signature")
        if new in self:
            raise SignatureError(f"port name {new!r} already taken")
        ports = tuple(sorted((p.renamed(new) if p.name == old else p for p in self.ports),
                             key=lambda p: p.name))
        ren = lambda s: frozenset(new if n == old else n for n in s)
        return Signature(ports, ren(self.controlled), ren(self.uncontrolled))


def _check_shared_domains(s1: Signature, s2: Signature) -> None:
    for p in s1.ports:
        if p.name in s2 and s2.port(p.name) != p:
            raise DomainMismatchError(
                f"port {p.name}: domains differ ({p.domain} vs {s2.port(p.name).domain})")


def _check_shared_roles(s1: Signature, s2: Signature) -> None:
    for p in s1.ports:
        if p.name in s2 and s2.role(p.name) != s1.role(p.name):
            raise RoleConflictError(
                f"port {p.name} is {s1.role(p.name)} on one side and {s2.role(p.name)} on the other")


def union_signature(s1: Signature, s2: Signature) -> Signature:
    """Union requiring shared ports to agree on domain and role."""
    _check_shared_roles(s1, s2)
    return merge_signature_controlled(s1, s2)


def merge_signature_controlled(s1: Signature, s2: Signature) -> Signature:
    """Union where control wins: a port controlled on either side is controlled.

    This is the contract-level resolution; plain assertion products refuse
    role conflicts instead.
    """
    _check_shared_domains(s1, s2)
    ports = {p.name: p for p in s1.ports}
    ports.update({p.name: p for p in s2.ports})
    c = s1.controlled | s2.controlled
    return Signature(tuple(sorted(ports.values(), key=lambda p: p.name)),
                     frozenset(c), frozenset(ports) - c)


def is_subsignature(s1: Signature, s2: Signature) -> bool:
    """True when s2 extends s1 with agreeing domains and roles."""
    try:
        for p in s1.ports:
            q = s2.port(p.name)
            if q != p or s2.role(p.name) != s1.role(p.name):
                return False
    except SignatureError:
        return False
    return True


# --- index space ------------------------------------------------------------

class _Space(Record):
    """A run space: its slots' radices and strides, and the axis view.

    ``ports`` are name-sorted; ``radices`` and ``strides`` have one entry
    per slot, port-major then step.  ``shape`` and ``axes`` describe the
    view of a run-indexed vector reshaped in C order: one axis per slot,
    the last slot first, so slot k is axis n-1-k.  ``axes`` names the
    (port, step) of each axis.  Slots of one-value ports (digit always 0)
    get no axis.
    """

    __slots__ = ("ports", "horizon", "radices", "strides", "size", "axes", "shape")

    def __init__(self, ports, horizon, radices, strides, size, axes, shape):
        self._assign(ports, horizon, radices, strides, size, axes, shape)


@lru_cache(maxsize=512)
def _space(ports: tuple, horizon: int) -> _Space:
    slots = [(p.name, t) for p in ports for t in range(horizon)]
    radices = [len(p.domain) for p in ports for _ in range(horizon)]
    strides = [math.prod(radices[:k]) for k in range(len(radices))]
    view = [(slot, r) for slot, r in zip(reversed(slots), reversed(radices)) if r > 1]
    return _Space(ports, horizon, tuple(radices), tuple(strides), math.prod(radices),
                  tuple(slot for slot, _ in view), tuple(r for _, r in view))


def space_of(sig: Signature, h) -> _Space:
    space = _space(sig.ports, _hlen(h))
    if space.size > _enum_cap:
        raise CapacityError(
            f"run space has {space.size} points, above the enumeration cap {_enum_cap}")
    return space


def _spread(values: np.ndarray, src: _Space, dst: _Space, name_map=None) -> np.ndarray:
    """A vector over ``src`` as a view on ``dst``'s axes, ready to broadcast.

    Each slot of ``src`` must be a slot of ``dst`` once its port is renamed
    through ``name_map``.  The axes are put in ``dst``'s order and every
    slot ``src`` lacks gets a size-1 axis.
    """
    name_map = name_map or {}
    pos = {slot: a for a, slot in enumerate(dst.axes)}
    at = [pos[(name_map.get(name, name), t)] for name, t in src.axes]
    shape = [1] * len(dst.axes)
    for a, r in zip(at, src.shape):
        shape[a] = r
    order = sorted(range(len(at)), key=at.__getitem__)
    return values.reshape(src.shape).transpose(order).reshape(shape)


def _reduce(ufunc: np.ufunc, values: np.ndarray, src: _Space, dst: _Space) -> np.ndarray:
    """Reduce a vector over ``src`` along the slots ``dst`` lacks.

    ``dst``'s slots must be slots of ``src``; the result is indexed over ``dst``.
    """
    keep = set(dst.axes)
    rest = tuple(a for a, slot in enumerate(src.axes) if slot not in keep)
    out = ufunc.reduce(values.reshape(src.shape), axis=rest, keepdims=True)
    # reducing a 0-d object array gives a bare element, hence asarray
    return np.asarray(out, dtype=values.dtype).reshape(-1)


# --- assertions ---------------------------------------------------------------

class Assertion(Record):
    """A set of runs over a signature at a fixed horizon."""

    __slots__ = ("signature", "horizon", "mask")
    _fields = ("signature", "horizon")    # the mask is left out of the repr

    def __init__(self, signature: Signature, horizon: int, mask: np.ndarray):
        space = space_of(signature, horizon)
        if mask.dtype != bool or mask.shape != (space.size,):
            raise PctError("assertion mask must be a boolean vector over the run space")
        mask.setflags(write=False)
        setfield(self, "signature", signature)
        setfield(self, "horizon", horizon)
        setfield(self, "mask", mask)

    @property
    def space(self) -> _Space:
        return space_of(self.signature, self.horizon)

    def __eq__(self, other):
        return (isinstance(other, Assertion)
                and self.signature == other.signature
                and self.horizon == other.horizon
                and np.array_equal(self.mask, other.mask))

    def __len__(self) -> int:
        return int(self.mask.sum())

    @property
    def is_empty(self) -> bool:
        return not self.mask.any()

    def __iter__(self) -> Iterator[Run]:
        return runs(self)


def _make(sig: Signature, h: int, mask: np.ndarray) -> Assertion:
    return Assertion(sig, h, mask)


def universe(sig: Signature, h) -> Assertion:
    """Every well-formed run over the signature at the horizon."""
    hh = _hlen(h)
    space = space_of(sig, hh)
    return _make(sig, hh, np.ones(space.size, dtype=bool))


def empty(sig: Signature, h) -> Assertion:
    hh = _hlen(h)
    space = space_of(sig, hh)
    return _make(sig, hh, np.zeros(space.size, dtype=bool))


def universe_size(sig: Signature, h) -> int:
    return math.prod(len(p.domain) ** _hlen(h) for p in sig.ports)


def run_index(sig: Signature, h, run: Run) -> int:
    """Canonical index of a run (little-endian mixed radix, see module doc)."""
    hh = _hlen(h)
    space = space_of(sig, hh)
    d = dict(run.entries)
    if set(d) != set(sig.names):
        raise SignatureError(
            f"run assigns ports {sorted(d)} but signature has {sorted(sig.names)}")
    idx = 0
    slot = 0
    for p in space.ports:
        vals = d[p.name]
        if len(vals) != hh:
            raise HorizonMismatchError(f"history of {p.name} has length {len(vals)}, expected {hh}")
        for t in range(hh):
            idx += domain_index(p.domain, vals[t]) * space.strides[slot]
            slot += 1
    return idx


def run_at(sig: Signature, h, index: int) -> Run:
    """Inverse of run_index."""
    hh = _hlen(h)
    space = space_of(sig, hh)
    if not 0 <= index < space.size:
        raise PctError(f"run index {index} out of range [0, {space.size})")
    d = {}
    slot = 0
    for p in space.ports:
        vals = []
        for _ in range(hh):
            vals.append(p.domain[(index // space.strides[slot]) % space.radices[slot]])
            slot += 1
        d[p.name] = tuple(vals)
    return Run.of(d)


def from_runs(sig: Signature, h, rs: Iterable[Run]) -> Assertion:
    hh = _hlen(h)
    space = space_of(sig, hh)
    mask = np.zeros(space.size, dtype=bool)
    for r in rs:
        mask[run_index(sig, hh, r)] = True
    return _make(sig, hh, mask)


def runs(e: Assertion) -> Iterator[Run]:
    for i in np.nonzero(e.mask)[0]:
        yield run_at(e.signature, e.horizon, int(i))


def _require_same_horizon(e1: Assertion, e2: Assertion) -> None:
    if e1.horizon != e2.horizon:
        raise HorizonMismatchError(f"horizons differ: {e1.horizon} vs {e2.horizon}")


def lift(e: Assertion, sig2: Signature) -> Assertion:
    """Inverse projection: all runs over sig2 whose restriction lies in e."""
    if not is_subsignature(e.signature, sig2):
        raise SignatureError("lift target must extend the assertion's signature "
                             "with agreeing domains and roles")
    if sig2 == e.signature:
        return e
    big = space_of(sig2, e.horizon)
    view = _spread(e.mask, e.space, big)
    return _make(sig2, e.horizon, np.broadcast_to(view, big.shape).reshape(-1))


def project(e: Assertion, sig2: Signature) -> Assertion:
    """Image of the runs under restriction to sig2's ports."""
    if not is_subsignature(sig2, e.signature):
        raise SignatureError("projection target must be a sub-signature")
    if sig2 == e.signature:
        return e
    small = space_of(sig2, e.horizon)
    return _make(sig2, e.horizon, _reduce(np.logical_or, e.mask, e.space, small))


def complement(e: Assertion) -> Assertion:
    return _make(e.signature, e.horizon, ~e.mask)


def product(e1: Assertion, e2: Assertion) -> Assertion:
    """Intersection over the union signature.

    Shared ports must agree on domain and role; resolving a
    controlled/uncontrolled conflict is a contract-level concern and is
    refused here.
    """
    _require_same_horizon(e1, e2)
    sig = union_signature(e1.signature, e2.signature)
    m1 = lift(e1, sig)
    m2 = lift(e2, sig)
    return _make(sig, e1.horizon, m1.mask & m2.mask)


def union(e1: Assertion, e2: Assertion) -> Assertion:
    _require_same_horizon(e1, e2)
    sig = union_signature(e1.signature, e2.signature)
    m1 = lift(e1, sig)
    m2 = lift(e2, sig)
    return _make(sig, e1.horizon, m1.mask | m2.mask)


def included_in(e1: Assertion, e2: Assertion, sig: Signature) -> bool:
    """Signature-relative inclusion: lift both to sig and compare."""
    _require_same_horizon(e1, e2)
    m1 = lift(e1, sig)
    m2 = lift(e2, sig)
    return not bool((m1.mask & ~m2.mask).any())


def relabel(e: Assertion, sig2: Signature) -> Assertion:
    """Swap the signature for one with identical ports but different roles."""
    if e.signature.ports != sig2.ports:
        raise SignatureError("relabel requires identical ports and domains")
    return _make(sig2, e.horizon, e.mask)


def renamed(e: Assertion, old: str, new: str) -> Assertion:
    """Rename a port; the run set is carried across (index order may change)."""
    sig2 = e.signature.renamed(old, new)
    dst = space_of(sig2, e.horizon)
    return _make(sig2, e.horizon, _spread(e.mask, e.space, dst, {old: new}).reshape(-1))


def slot_values(sig: Signature, h, name: str, step: int) -> np.ndarray:
    """Domain-position digit of (port, step) at every run, on the axis view.

    The result has shape (1, ..., r, ..., 1): it broadcasts against the
    view of any vector over the run space.  Read-only.
    """
    hh = _hlen(h)
    space = space_of(sig, hh)
    sig.port(name)
    if not 0 <= step < hh:
        raise PctError(f"step {step} outside horizon 0..{hh - 1}")
    shape = tuple(r if slot == (name, step) else 1 for slot, r in zip(space.axes, space.shape))
    out = np.arange(math.prod(shape)).reshape(shape)
    out.setflags(write=False)
    return out


def from_step_predicate(sig: Signature, h, pred, *, owned: bool = False) -> Assertion:
    """Runs satisfying ``pred`` at every step.

    ``pred`` receives a step index ``t`` and a lookup ``name ->
    slot_values(sig, h, name, t)`` and returns a boolean array that
    broadcasts against the axis view, as any expression in the lookups does.
    The step values are combined in their broadcast shape, and a value that
    is the same object as the previous step's is combined once: ``pred``
    must not write to an array it has returned.  The mask is a new array,
    unless ``owned`` says that the values were made for this call alone and
    nothing else holds them; the mask may then be one of them.
    """
    hh = _hlen(h)
    held = last = None
    combined = False
    for t in range(hh):
        value = pred(t, lambda name, t=t: slot_values(sig, hh, name, t))
        if value is not last:
            combined = held is not None
            held = value if held is None else held & value
            last = value
    mask = np.broadcast_to(held, space_of(sig, hh).shape).reshape(-1)
    if not (owned or combined) and np.may_share_memory(mask, held):
        mask = mask.copy()
    return _make(sig, hh, mask)
