"""Finite-trace universe: ports, runs, and the assertion algebra.

A system is a set of named finite-domain ports observed over a fixed
number of discrete steps (the horizon).  A run assigns one value per
(port, step); it is written as its entry tuple ``((port name, history),
...)``, one entry per port in name order, each history a tuple of one
value per step.  An assertion is a set of runs over a signature, given by
a boolean mask over the canonical run index; ``run_index`` and ``run_at``
convert between entry tuples and indices.

Canonical run index
-------------------
Runs are numbered little-endian mixed-radix over (port, step) slots:
ports in lexicographic name order, steps ascending within a port, digit
= position of the value in the port's declared domain.  Slot 0 is the
least significant digit.  ``run_index`` and ``run_at`` walk the slots in
that order with a running weight, the product of the radices below.  This
index is the normative serialization of run sets (see docs/format.md) and
everything here round-trips through it bit-exactly.

Computation works on a free view of that vector instead: reshaped in C
order to one axis per slot, slot k becomes axis n-1-k.  Lifting is then a
broadcast and projection an ``any`` over the dropped axes.  Ports are in
name order in every space, so a sub-signature's axes keep their order in
a larger space.  Only this module knows that layout; ``_spread`` and
``_reduce`` carry vectors of any dtype between spaces for the others.

What an assertion holds
-----------------------
An ``Assertion`` holds only its ``view``: the mask on the axis view, with
a size-1 axis for every slot it does not read, so a clause over a few
ports of a large signature stays small.  Its one constructor takes that
view or the run-indexed vector.  Every operation here reads and makes
views: ``lift`` and ``relabel`` copy nothing, the connectives combine
views in their broadcast shape, and inclusion, equality and canonicity
are ``everywhere`` tests that reduce each side over the axes only it
reads instead of broadcasting.  ``Assertion.mask``,
the run-indexed vector, is filled from the view on its first read and
kept; the oracle, ``runs``, ``len`` and serialization read it.  The
enumeration cap still applies to the full signature.

Full-size masks
---------------
Every step that makes a mask of a whole space allocates that mask and
nothing else of its size: ``combine`` (the connectives of ``denote``, the
steps of ``from_step_predicate``, ``product``, ``union``, ``compose``,
``sat_level``'s violations) when its operands together read every slot,
and the first read of ``Assertion.mask``.  Operands
that read different ports broadcast along interleaved axes, and NumPy
then runs its inner loop over a few elements at a time.  So when the
result has more than ``_BLOCK`` (4096) elements, an operand whose
innermost run, constant or contiguous, is under ``_SHORT`` (64) elements
is first copied out over the result's trailing axes that make up at
least ``_BLOCK`` elements, where that copy is smaller than the result.
Over 4096 one-byte elements NumPy's cost per inner call no longer
counts, and a run of 64 already amortizes most of it, so copying such
an operand is not repaid.  Smaller results pay only a size check.  Bool
identities spare the temporaries: ``a > b`` is a and not b, and
``a >= b`` is a or not b (docs/format.md, "Full-size masks").
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator

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

# the largest run space that is ever enumerated
ENUMERATION_CAP = 2**24


def same_domain(d1: tuple, d2: tuple) -> bool:
    """Value-and-type equality; bool and int values never match each other."""
    return len(d1) == len(d2) and all(type(a) is type(b) and a == b
                                      for a, b in zip(d1, d2))


def domain_index(domain: tuple, value) -> int | None:
    """Position of a value in a domain, matching type as well as value;
    None if it is absent."""
    for i, v in enumerate(domain):
        if type(v) is type(value) and v == value:
            return i
    return None


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


def _hlen(h) -> int:
    """``h`` if it is a horizon: an int of at least 1, and not a bool."""
    if isinstance(h, bool) or not isinstance(h, int) or h < 1:
        raise PctError("horizon must be a positive integer")
    return h


class Signature(Record):
    """Ports of a component, split into controlled and uncontrolled sets.

    The ports are in strictly increasing name order, which the constructor
    checks.  They are also kept by name (``_by_name``, not a field), so that
    looking one up does not scan them.
    """

    __slots__ = ("ports", "controlled", "uncontrolled", "_by_name")

    def __init__(self, ports: tuple, controlled: frozenset, uncontrolled: frozenset):
        if controlled & uncontrolled:
            raise SignatureError("controlled and uncontrolled port sets overlap")
        if any(p.name >= q.name for p, q in zip(ports, ports[1:])):
            raise SignatureError(f"port names not strictly increasing: {[p.name for p in ports]}")
        by_name = {p.name: p for p in ports}
        if controlled | uncontrolled != by_name.keys():
            raise SignatureError("controlled/uncontrolled split must cover exactly the ports")
        setfield(self, "ports", ports)
        setfield(self, "controlled", controlled)
        setfield(self, "uncontrolled", uncontrolled)
        setfield(self, "_by_name", by_name)

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
        p = self._by_name.get(name)
        if p is None:
            raise SignatureError(f"no port named {name!r} in signature")
        return p

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def role(self, name: str) -> str:
        if name in self.controlled:
            return "controlled"
        if name in self.uncontrolled:
            return "uncontrolled"
        raise SignatureError(f"no port named {name!r} in signature")

    def restricted(self, names: Iterable[str]) -> "Signature":
        keep = set(names)
        missing = keep - self._by_name.keys()
        if missing:
            raise SignatureError(f"ports not in signature: {sorted(missing)}")
        ports = tuple(p for p in self.ports if p.name in keep)
        return Signature(ports, self.controlled & keep, self.uncontrolled & keep)


def _check_shared_domains(s1: Signature, s2: Signature) -> None:
    ports = s2._by_name
    for p in s1.ports:
        q = ports.get(p.name)
        if q is not None and q != p:
            raise DomainMismatchError(
                f"port {p.name}: domains differ ({p.domain} vs {q.domain})")


def _check_shared_roles(s1: Signature, s2: Signature) -> None:
    ports = s2._by_name
    for p in s1.ports:
        if p.name in ports and s2.role(p.name) != s1.role(p.name):
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
    ports = s2._by_name
    # once every port of s1 is in s2, the roles agree when each role's set grows
    return (all(ports.get(p.name) == p for p in s1.ports)
            and s1.controlled <= s2.controlled and s1.uncontrolled <= s2.uncontrolled)


# --- index space ------------------------------------------------------------

class _Space(Record):
    """A run space: its size and the axis view.

    ``ports`` are a signature's, so in strictly increasing name order.
    ``shape`` and ``axes`` describe the view of a run-indexed vector
    reshaped in C order: one axis per slot, the last slot first, so slot k
    is axis n-1-k.  ``axes`` names the (port, step) of each axis.  Slots
    of one-value ports (digit always 0) get no axis.
    """

    __slots__ = ("ports", "horizon", "size", "axes", "shape")

    def __init__(self, ports, horizon, size, axes, shape):
        self._assign(ports, horizon, size, axes, shape)


@lru_cache(maxsize=512)
def _space(ports: tuple, horizon: int) -> _Space:
    view = [((p.name, t), len(p.domain)) for p in reversed(ports)
            for t in reversed(range(horizon)) if len(p.domain) > 1]
    shape = tuple(r for _, r in view)
    return _Space(ports, horizon, math.prod(shape), tuple(slot for slot, _ in view), shape)


def space_of(sig: Signature, h) -> _Space:
    space = _space(sig.ports, _hlen(h))
    if space.size > ENUMERATION_CAP:
        raise CapacityError(
            f"run space has {space.size} points, above the enumeration cap {ENUMERATION_CAP}")
    return space


def _spread(values: np.ndarray, src: _Space, dst: _Space) -> np.ndarray:
    """A vector over ``src`` as a view on ``dst``'s axes, ready to broadcast.

    ``values`` may also be given on ``src``'s axis view, size-1 axes
    included.  Each port of ``src`` must be a port of ``dst``: both hold
    their ports in name order, so a reshape that gives every slot ``src``
    lacks a size-1 axis puts the axes in ``dst``'s order.
    """
    size = dict(zip(src.axes, values.shape if values.ndim == len(src.shape) else src.shape))
    return values.reshape([size.get(slot, 1) for slot in dst.axes])


# an operand whose innermost run is under _SHORT elements is copied out over
# the last _BLOCK or more elements of the result before a combine
_BLOCK = 4096
_SHORT = 64


def _inner_run(x: np.ndarray, shape: tuple) -> int:
    """How many trailing elements of ``shape`` ``x`` covers in one run:
    either all of them the same value or all of them contiguous."""
    lead = len(shape) - x.ndim
    run, step, broadcast = 1, x.itemsize, None
    for i in range(len(shape) - 1, -1, -1):
        r = shape[i]
        if r == 1:
            continue
        b = i < lead or x.shape[i - lead] == 1
        if broadcast is None:
            broadcast = b
        if b != broadcast or not (b or x.strides[i - lead] == step):
            break
        run *= r
        step *= r
    return run


def _blocked(operands: tuple, shape: tuple) -> tuple:
    """The operands of a combine into ``shape``, each with a short innermost
    run copied out over the trailing block, where that copy is smaller
    than the result."""
    size = math.prod(shape)
    if size <= _BLOCK:
        return operands
    k, block = len(shape), 1
    while block < _BLOCK:
        k -= 1
        block *= shape[k]
    out = []
    for x in operands:
        if _inner_run(x, shape) < _SHORT:
            full = (1,) * (len(shape) - x.ndim) + x.shape
            outer = full[:k]
            if math.prod(outer) * block < size:
                x = np.broadcast_to(x.reshape(full), outer + shape[k:]).copy()
        out.append(x)
    return tuple(out)


def combine(ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``ufunc(a, b)`` of two arrays (or NumPy scalars) on one axis view,
    broadcast together: a new array.

    ``ufunc`` is a ufunc, or a function that calls one on its operands.
    An operand that reads other slots than the other broadcasts along
    interleaved axes, which NumPy cannot merge, so its inner loop runs
    over a few elements at a time.  Such an operand is first copied out
    over the trailing block of the result (``_blocked``).  The result is
    the same; only the loop is longer.
    """
    # the result has at most a.size * b.size elements, and an operand of
    # the result's shape is never copied
    if a.size * b.size > _BLOCK and a.shape != b.shape:
        a, b = _blocked((a, b), np.broadcast_shapes(a.shape, b.shape))
    return ufunc(a, b)


def _filled(values: np.ndarray, shape: tuple) -> np.ndarray:
    """``values`` broadcast to ``shape`` as a new C-ordered array."""
    out = np.empty(shape, dtype=values.dtype)
    np.copyto(out, _blocked((values,), shape)[0])
    return out


def _reduce(ufunc: np.ufunc, values: np.ndarray, src: _Space, dst: _Space) -> np.ndarray:
    """Reduce a vector over ``src`` along the slots ``dst`` lacks.

    ``dst``'s slots must be slots of ``src``.  ``values`` may also be given
    on ``src``'s axis view, where a size-1 axis is skipped: reducing a
    broadcast axis changes nothing.  The result is on ``dst``'s axis view,
    with a size-1 axis wherever ``values`` has one.
    """
    if values.ndim != len(src.shape):
        values = values.reshape(src.shape)
    keep = set(dst.axes)
    shape, rest = [], []
    for a, (n, slot) in enumerate(zip(values.shape, src.axes)):
        if slot in keep:
            shape.append(n)
        elif n > 1:
            rest.append(a)
    out = ufunc.reduce(values, axis=tuple(rest), keepdims=True) if rest else values
    # reducing a 0-d object array gives a bare element, hence asarray
    return np.asarray(out, dtype=values.dtype).reshape(shape)


# runs checked at a time by ``everywhere``
_CHUNK = 1 << 16


def everywhere(ufunc, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the boolean ``ufunc(a, b)`` holds at every point of the
    broadcast of two bool arrays on one axis view, without making it.

    Along the axes that only one side reads, all that matters is which
    values that side takes there: at most two, its ``all`` and its ``any``
    along them.  So each side is reduced to those two over its own axes,
    and the ufunc is checked on every pair of them over the axes both read,
    ``_CHUNK`` runs at a time into one buffer, stopping at the first chunk
    where it fails.
    """
    # the broadcast has at most a.size * b.size elements
    if a.size * b.size <= _CHUNK or (a.shape == b.shape and a.size <= _CHUNK):
        return bool(ufunc(a, b).all())
    pairs = ((a, b),)
    if a.shape != b.shape:
        sides = []
        for x, y in ((a, b), (b, a)):
            own = tuple(i for i, (m, n) in enumerate(zip(x.shape, y.shape)) if n == 1 < m)
            sides.append((np.logical_and.reduce(x, axis=own, keepdims=True),
                          np.logical_or.reduce(x, axis=own, keepdims=True)) if own else (x,))
        pairs = tuple((x, y) for x in sides[0] for y in sides[1])
    # every pair now has one shape: the axes both read, and size 1 elsewhere
    for x, y in pairs:
        if x.size <= _CHUNK:
            if not ufunc(x, y).all():
                return False
            continue
        # dropping size-1 axes never copies
        shape = tuple(r for r in x.shape if r > 1)
        x, y = x.reshape(shape), y.reshape(shape)
        k, block = len(shape), 1
        while block < _CHUNK:
            k -= 1
            block *= shape[k]
        buf = np.empty(shape[k:], dtype=bool)
        if not all(ufunc(x[i], y[i], out=buf).all() for i in np.ndindex(shape[:k])):
            return False
    return True


# --- assertions ---------------------------------------------------------------

class Assertion(Record):
    """A set of runs over a signature at a fixed horizon.

    It holds ``view``: its mask on the axis view of its space, with a
    size-1 axis for every slot it does not read (read-only).  ``mask``, the
    run-indexed vector of the whole space, is filled from the view on its
    first read and kept; a view of full size in C order is the mask itself.
    The constructor takes either form of ``values``: the run-indexed vector,
    which is kept as the mask, or a view on the space's axes.  The array is
    made read-only.
    """

    __slots__ = ("signature", "horizon", "view", "_mask")
    _fields = ("signature", "horizon")    # the arrays are left out of the repr

    def __init__(self, signature: Signature, horizon: int, values: np.ndarray):
        space = space_of(signature, horizon)
        shape = space.shape
        if values.dtype == bool and values.ndim == len(shape) and (values.shape == shape or all(
                n == r or n == 1 for n, r in zip(values.shape, shape))):
            view, mask = values, None
        elif values.dtype == bool and values.shape == (space.size,):
            view, mask = values.reshape(shape), values
        else:
            raise PctError("assertion values must be a boolean vector over the run space "
                           "or a boolean array on its axes")
        values.setflags(write=False)
        setfield(self, "signature", signature)
        setfield(self, "horizon", horizon)
        setfield(self, "view", view)
        setfield(self, "_mask", mask)

    @property
    def space(self) -> _Space:
        return space_of(self.signature, self.horizon)

    @property
    def mask(self) -> np.ndarray:
        """The boolean vector over the run index: filled on first read, then kept."""
        mask = self._mask
        if mask is None:
            view, shape = self.view, self.space.shape
            if view.shape == shape and view.flags.c_contiguous:
                mask = view.reshape(-1)
            else:
                mask = _filled(view, shape).reshape(-1)
                mask.setflags(write=False)
            setfield(self, "_mask", mask)
        return mask

    def __eq__(self, other):
        return (isinstance(other, Assertion)
                and self.signature == other.signature
                and self.horizon == other.horizon
                and everywhere(np.equal, self.view, other.view))

    def __len__(self) -> int:
        return int(self.mask.sum())

    @property
    def is_empty(self) -> bool:
        return not self.view.any()

    def __iter__(self) -> Iterator[tuple]:
        return runs(self)


def universe(sig: Signature, h) -> Assertion:
    """Every well-formed run over the signature at the horizon."""
    return Assertion(sig, h, np.ones((1,) * len(space_of(sig, h).shape), dtype=bool))


def empty(sig: Signature, h) -> Assertion:
    return Assertion(sig, h, np.zeros((1,) * len(space_of(sig, h).shape), dtype=bool))


def universe_size(sig: Signature, h) -> int:
    return math.prod(len(p.domain) ** _hlen(h) for p in sig.ports)


def run_index(sig: Signature, h, run: tuple) -> int:
    """Canonical index of a run given as its entries ``((port name,
    history), ...)``, in any order (little-endian mixed radix, see module
    doc)."""
    hh = _hlen(h)
    space_of(sig, hh)    # refuses a space above the enumeration cap
    d = dict(run)
    if len(d) != len(run):
        raise SignatureError(f"run names a port twice: {sorted(n for n, _ in run)}")
    if set(d) != set(sig.names):
        raise SignatureError(
            f"run assigns ports {sorted(d)} but signature has {sorted(sig.names)}")
    idx, weight = 0, 1
    for p in sig.ports:
        vals = d[p.name]
        if len(vals) != hh:
            raise HorizonMismatchError(f"history of {p.name} has length {len(vals)}, expected {hh}")
        for v in vals:
            digit = domain_index(p.domain, v)
            if digit is None:
                raise PctError(f"value {v!r} not in domain {p.domain}")
            idx += digit * weight
            weight *= len(p.domain)
    return idx


def run_at(sig: Signature, h, index: int) -> tuple:
    """Inverse of run_index: the run's entries, in port name order."""
    hh = _hlen(h)
    space = space_of(sig, hh)
    if not 0 <= index < space.size:
        raise PctError(f"run index {index} out of range [0, {space.size})")
    entries = []
    for p in sig.ports:
        vals = []
        for _ in range(hh):
            index, digit = divmod(index, len(p.domain))
            vals.append(p.domain[digit])
        entries.append((p.name, tuple(vals)))
    return tuple(entries)


def from_runs(sig: Signature, h, rs: Iterable[tuple]) -> Assertion:
    hh = _hlen(h)
    space = space_of(sig, hh)
    mask = np.zeros(space.size, dtype=bool)
    for r in rs:
        mask[run_index(sig, hh, r)] = True
    return Assertion(sig, hh, mask)


def runs(e: Assertion) -> Iterator[tuple]:
    for i in np.nonzero(e.mask)[0]:
        yield run_at(e.signature, e.horizon, int(i))


def same_horizon(x, y) -> None:
    """Refuse two objects (assertions, contracts, distributions) whose
    horizons differ."""
    if x.horizon != y.horizon:
        raise HorizonMismatchError(f"horizons differ: {x.horizon} vs {y.horizon}")


def lifted_view(e: Assertion, sig2: Signature) -> np.ndarray:
    """The view of ``lift(e, sig2)``, made without a copy: a read-only
    array on sig2's axis view that broadcasts to the full space."""
    if sig2 == e.signature:
        return e.view
    if not is_subsignature(e.signature, sig2):
        raise SignatureError("lift target must extend the assertion's signature "
                             "with agreeing domains and roles")
    return _spread(e.view, e.space, space_of(sig2, e.horizon))


def lift(e: Assertion, sig2: Signature) -> Assertion:
    """Inverse projection: all runs over sig2 whose restriction lies in e."""
    if sig2 == e.signature:
        return e
    return Assertion(sig2, e.horizon, lifted_view(e, sig2))


def project(e: Assertion, sig2: Signature) -> Assertion:
    """Image of the runs under restriction to sig2's ports."""
    if not is_subsignature(sig2, e.signature):
        raise SignatureError("projection target must be a sub-signature")
    if sig2 == e.signature:
        return e
    small = space_of(sig2, e.horizon)
    return Assertion(sig2, e.horizon, _reduce(np.logical_or, e.view, e.space, small))


def complement(e: Assertion) -> Assertion:
    return Assertion(e.signature, e.horizon, ~e.view)


def product(e1: Assertion, e2: Assertion) -> Assertion:
    """Intersection over the union signature.

    Shared ports must agree on domain and role; resolving a
    controlled/uncontrolled conflict is a contract-level concern and is
    refused here.
    """
    same_horizon(e1, e2)
    sig = union_signature(e1.signature, e2.signature)
    return Assertion(sig, e1.horizon, combine(np.logical_and, lifted_view(e1, sig),
                                              lifted_view(e2, sig)))


def union(e1: Assertion, e2: Assertion) -> Assertion:
    same_horizon(e1, e2)
    sig = union_signature(e1.signature, e2.signature)
    return Assertion(sig, e1.horizon, combine(np.logical_or, lifted_view(e1, sig),
                                              lifted_view(e2, sig)))


def included_in(e1: Assertion, e2: Assertion, sig: Signature) -> bool:
    """Signature-relative inclusion: lift both to sig and compare."""
    same_horizon(e1, e2)
    return everywhere(np.less_equal, lifted_view(e1, sig), lifted_view(e2, sig))


def relabel(e: Assertion, sig2: Signature) -> Assertion:
    """Swap the signature for one with identical ports but different roles."""
    if e.signature.ports != sig2.ports:
        raise SignatureError("relabel requires identical ports and domains")
    return Assertion(sig2, e.horizon, e.view)


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
    The step values are combined in their broadcast shape, which the
    assertion keeps as its view: nothing of the full size is made.  A value
    that is the same object as the previous step's is combined once:
    ``pred`` must not write to an array it has returned.  The view is a new
    array, unless ``owned`` says that the values were made for this call
    alone and nothing else holds them; the view may then be one of them.
    """
    hh = _hlen(h)
    held = last = None
    combined = False
    for t in range(hh):
        value = pred(t, lambda name, t=t: slot_values(sig, hh, name, t))
        if value is not last:
            combined = held is not None
            held = value if held is None else combine(np.logical_and, held, value)
            last = value
    held = np.asarray(held)
    if not (owned or combined):
        held = held.copy()
    n = len(space_of(sig, hh).shape)
    return Assertion(sig, hh, held.reshape((1,) * (n - held.ndim) + held.shape))
