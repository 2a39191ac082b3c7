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
An ``Assertion`` holds its ``factors``: bool arrays on the axis view, each
with a size-1 axis for every slot it does not read, whose ``and`` is the
run set, so a clause over a few ports of a large signature stays small and
a conjunction of clauses is never made whole unless something reads it
whole.  Its one constructor takes the run-indexed vector, a view, or a
tuple of views; factors whose read slots nest are combined at once, and
so are all of them in a space of at most ``_BLOCK`` runs (``kept_apart``).
``view``, the conjunction, and ``Assertion.mask``, the run-indexed vector,
are made on their first read and kept.  ``lift``, ``product`` and
``compose_impl`` spread or join the factors; the other connectives
combine views in their broadcast shape.  ``eliminate`` takes ``any`` of a
conjunction of factors over slots one factor at a time.  It is the one
quantifier over runs: ``sat_level`` reduces its violations to Omega with
it, ``project`` the factors to the kept slots, and ``is_empty`` to no
slot.  ``within``, which is ``eliminate`` with an empty ``keep`` for each
factor of the wider side, tests inclusion, satisfaction and equality on
the factors.  The oracle, ``runs``,
``len`` and serialization read the mask.  The enumeration cap still
applies to the full signature: ``_space``, which makes every space,
refuses one above it before building its axes.

Full-size masks
---------------
Every step that makes a mask of a whole space allocates that mask and
nothing else of its size: ``combine`` (the connectives of ``denote``, the
steps of ``from_step_predicate``, ``union``, ``compose``, the conjunction
of an assertion's factors, ``eliminate``'s pairs) when its operands
together read every slot, and the first read of ``Assertion.mask``.  Both
are plain NumPy broadcasting.  Reductions are not: NumPy runs a
reduction's inner loop over the innermost axes of one kind, reduced or
kept, so where that run is short in a large array ``_reduced`` first
copies the array once with the kept axes in front or behind.
Bool identities spare the temporaries: ``a > b`` is a and not b, and
``a >= b`` is a or not b.  A value that is only reduced is reduced on
each side first, over the axes that side alone reads (``eliminate``), so
the largest array of ``sat_level``, ``within`` and ``project`` is their
largest partial product, not the conjunction (docs/format.md, "Full-size
masks").
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce
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


def _check_name_order(ports: tuple) -> None:
    """Refuse ports out of strictly increasing name order, which the run index numbers."""
    if any(p.name >= q.name for p, q in zip(ports, ports[1:])):
        raise SignatureError(f"port names not strictly increasing: {[p.name for p in ports]}")


class Signature(Record):
    """Ports of a component, split into controlled and uncontrolled sets.

    The ports are in strictly increasing name order, which the constructor
    checks.  They are also kept by name (``_by_name``, not a field), so that
    looking one up does not scan them, and the space last asked of them is
    kept (``_space``), so that asking again hashes no ports.
    """

    __slots__ = ("ports", "controlled", "uncontrolled", "_by_name", "_space")

    def __init__(self, ports: tuple, controlled: frozenset, uncontrolled: frozenset):
        if controlled & uncontrolled:
            raise SignatureError("controlled and uncontrolled port sets overlap")
        _check_name_order(ports)
        by_name = {p.name: p for p in ports}
        if controlled | uncontrolled != by_name.keys():
            raise SignatureError("controlled/uncontrolled split must cover exactly the ports")
        setfield(self, "ports", ports)
        setfield(self, "controlled", controlled)
        setfield(self, "uncontrolled", uncontrolled)
        setfield(self, "_by_name", by_name)
        setfield(self, "_space", None)

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
    """Union requiring shared ports to agree on domain and role; ``s1``
    itself when the two are equal."""
    if s1 == s2:
        return s1
    _check_shared_roles(s1, s2)
    return merge_signature_controlled(s1, s2)


def merge_signature_controlled(s1: Signature, s2: Signature) -> Signature:
    """Union where control wins: a port controlled on either side is controlled.

    This is the contract-level resolution; plain assertion products refuse
    role conflicts instead.  Equal signatures give ``s1`` itself.
    """
    if s1 == s2:
        return s1
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

    ``ports`` are in strictly increasing name order.
    ``shape`` and ``axes`` describe the view of a run-indexed vector
    reshaped in C order: one axis per slot, the last slot first, so slot k
    is axis n-1-k.  ``axes`` names the (port, step) of each axis.  Slots
    of one-value ports (digit always 0) get no axis.  ``_digits`` keeps
    the arrays of ``slot_values``, made on first use: at most one small
    array per slot.
    """

    __slots__ = ("ports", "horizon", "size", "axes", "shape", "_digits")

    def __init__(self, ports, horizon, size, axes, shape):
        self._assign(ports, horizon, size, axes, shape)
        setfield(self, "_digits", {})


@lru_cache(maxsize=512)
def _space(ports: tuple, horizon: int) -> _Space:
    """The run space of name-sorted ports, made once per ports and horizon.
    A space above ``ENUMERATION_CAP`` is refused before anything of it is
    built: the size is multiplied out one slot of a port with more than one
    value at a time, until it passes the cap."""
    size = 1
    for p in ports:
        if len(p.domain) > 1:
            for _ in range(horizon):
                size *= len(p.domain)
                if size > ENUMERATION_CAP:
                    raise CapacityError(
                        f"run space of {len(ports)} port(s) at horizon {horizon} is above "
                        f"the enumeration cap of {ENUMERATION_CAP} runs")
    view = [((p.name, t), len(p.domain)) for p in reversed(ports) if len(p.domain) > 1
            for t in reversed(range(horizon))]
    return _Space(ports, horizon, size, tuple(slot for slot, _ in view),
                  tuple(r for _, r in view))


def space_of(sig: Signature, h) -> _Space:
    space = sig._space
    if space is None or space.horizon != h or type(h) is not int:
        space = _space(sig.ports, _hlen(h))
        setfield(sig, "_space", space)
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


# a space of at most _BLOCK runs is combined and reduced at once; a larger
# array whose innermost run of reduced or kept axes is under _SHORT elements
# is reduced through one copy (_reduced)
_BLOCK = 4096
_SHORT = 64


def combine(ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``ufunc(a, b)`` of two arrays (or NumPy scalars) on one axis view,
    broadcast together: a new array.

    ``ufunc`` is a ufunc, or a function that calls one on its operands.
    The connectives of ``denote``, the conjunction of an assertion's
    factors, ``union``, ``compose`` and ``eliminate`` combine through it, so
    tests can count their combines here.
    """
    return ufunc(a, b)


def _joint(a: tuple, b: tuple) -> tuple:
    """The broadcast of two shapes that broadcast together: the larger size
    on each axis, the shorter shape padded with leading 1s.  NumPy's own
    ``broadcast_shapes`` stops at 32 dimensions, arrays and ufuncs at 64."""
    if a == b:
        return a
    n = len(a) - len(b)
    if n:
        a, b = ((1,) * -n + a, b) if n < 0 else (a, (1,) * n + b)
    return tuple([x if x > y else y for x, y in zip(a, b)])


def joint_size(arrays) -> int:
    """The number of elements of the broadcast of arrays on one axis view."""
    return math.prod(reduce(_joint, [x.shape for x in arrays]))


def _filled(values: np.ndarray, shape: tuple) -> np.ndarray:
    """``values`` broadcast to ``shape`` as a new C-ordered array."""
    out = np.empty(shape, dtype=values.dtype)
    np.copyto(out, values)
    return out


def _reduced(ufunc: np.ufunc, x: np.ndarray, axes: tuple) -> np.ndarray:
    """``ufunc.reduce(x, axis=axes, keepdims=True)``, with long inner loops
    whatever the order of the reduced and the kept axes.

    NumPy's inner loop runs over the innermost axes of one kind, reduced or
    kept.  When ``x`` has more than ``_BLOCK`` elements and that run is
    under ``_SHORT``, ``x`` is first copied with the kept axes in front of
    the reduced ones, or behind them when the kept ones make up more
    elements, so that the reduction runs over one long block per kept
    point, or over long rows, one per reduced point.
    """
    if x.size > _BLOCK:
        shape, run, kind = x.shape, 1, None
        for i in range(x.ndim - 1, -1, -1):
            if shape[i] > 1:
                if kind is None:
                    kind = i in axes
                elif kind != (i in axes):
                    break
                run *= shape[i]
        if run < _SHORT:
            kept = [i for i in range(x.ndim) if i not in axes]
            n = math.prod(shape[i] for i in axes)
            if n * n >= x.size:
                y = np.ascontiguousarray(x.transpose(kept + list(axes))).reshape(-1, n)
                out = ufunc.reduce(y, axis=1)
            else:
                y = np.ascontiguousarray(x.transpose(list(axes) + kept)).reshape(n, -1)
                out = ufunc.reduce(y, axis=0)
            return out.reshape([1 if i in axes else r for i, r in enumerate(shape)])
    return ufunc.reduce(x, axis=axes, keepdims=True)


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
    out = _reduced(ufunc, values, tuple(rest)) if rest else values
    # reducing a 0-d object array gives a bare element, hence asarray
    return np.asarray(out, dtype=values.dtype).reshape(shape)


# --- conjunctions of factors ----------------------------------------------------

def _bits(axes) -> int:
    """A set of axis numbers as the bits of an int."""
    return sum([1 << i for i in axes])


def _axes(bits: int) -> tuple:
    """The axis numbers of the bits of an int, in order."""
    return tuple([i for i in range(bits.bit_length()) if bits >> i & 1])


def conjunction(factors) -> np.ndarray:
    """The ``and`` of bool arrays on one axis view, in their broadcast
    shape, the smallest first; one array is returned as it is."""
    if len(factors) == 1:
        return factors[0]
    factors = sorted(factors, key=lambda x: x.size)
    out = factors[0]
    for x in factors[1:]:
        out = combine(np.logical_and, out, x)
    return out


def _nested(factors, base: tuple = ()) -> tuple:
    """``factors`` with each one whose read axes lie within another's read
    axes, or within the axes of the shape ``base``, combined into that one,
    the largest first: the combination, broadcast against ``base``, is no
    larger than the array it goes into."""
    out = []    # [array, its broadcast shape against base]
    for shape, x in sorted(((_joint(x.shape, base) if base else x.shape, x) for x in factors),
                           key=lambda item: math.prod(item[0]), reverse=True):
        # on every axis, a size of 1 or the radix: within means no larger
        into = next((item for item in out if all(map(operator.le, x.shape, item[1]))), None)
        if into is None:
            out.append([x, shape])
        else:
            into[0] = combine(np.logical_and, into[0], x)
    return tuple(x for x, _ in out)


def eliminate(factors, keep, neg: np.ndarray | None = None) -> list:
    """``any``, over every axis not numbered in ``keep``, of the ``and`` of
    the bool arrays ``factors`` and, when ``neg`` is given, ``not neg``:
    as bool arrays whose ``and`` it is, each reading only axes in ``keep``.

    All the arrays are on one axis view, and ``factors`` is not empty.  A
    conjunction of at most ``_BLOCK`` elements is made and reduced at once,
    with one ``any`` when ``keep`` is empty; a larger one is never made
    whole.  Two identities take ``any`` over one axis at a time into a
    single array: over an axis that one array alone reads, ∃x (f ∧ r) =
    (∃x f) ∧ r, and ∃x ¬g = ¬∀x g, so that array is reduced alone, with
    ``any``, or with ``all`` in ``neg``.  While an axis outside ``keep`` is
    read by two or more arrays, the pair that reads one and has the
    smallest broadcast is combined into one array (``and``, or ``f > neg``,
    which is f and not neg), and the reductions are taken again.  Last,
    ``neg`` if still apart is combined with the array that gives the
    smallest result.  The largest array made is the largest pair.
    """
    arrays = factors if neg is None else [*factors, neg]
    # the conjunction has at most the product of the sizes, as in combine
    if math.prod([x.size for x in arrays]) <= _BLOCK or joint_size(arrays) <= _BLOCK:
        x = conjunction(factors)
        if neg is not None:
            x = combine(np.greater, x, neg)
        if not keep:
            return [x.any(keepdims=True)]
        own = tuple(i for i, r in enumerate(x.shape) if r > 1 and i not in keep)
        return [_reduced(np.logical_or, x, own) if own else x]
    items = list(factors)
    negated = neg is not None    # whether the last item is neg
    if negated:
        items.append(neg)
    drop = ~_bits(keep)
    reads = [_bits([i for i, r in enumerate(x.shape) if r > 1]) & drop for x in items]
    while True:
        once = twice = 0
        for r in reads:
            twice |= once & r
            once |= r
        sole, last = once & ~twice, len(items) - 1
        for j, r in enumerate(reads):
            if r & sole:
                ufunc = np.logical_and if negated and j == last else np.logical_or
                items[j] = _reduced(ufunc, items[j], _axes(r & sole))
                reads[j] = r & ~sole
        if not twice:
            break
        _, j, k = min((joint_size((items[j], items[k])), j, k)
                      for j in range(len(items)) for k in range(j + 1, len(items))
                      if reads[j] & reads[k])
        y = items.pop(k)
        reads[j] |= reads.pop(k)
        if negated and k == last:
            items[j], negated = combine(np.greater, items[j], y), False
        else:
            items[j] = combine(np.logical_and, items[j], y)
    if negated:
        g = items.pop()
        _, j = min((joint_size((x, g)), j) for j, x in enumerate(items))
        items[j] = combine(np.greater, items[j], g)
    return items


def within(fs, gs) -> bool:
    """Whether the ``and`` of the bool arrays ``fs`` lies within the ``and``
    of ``gs``, all on one axis view: for every ``g``, ``fs`` and not ``g``
    has no point, which is ``eliminate`` with an empty ``keep``."""
    for g in gs:
        if all(eliminate(fs, (), g)):
            return False
    return True


# --- assertions ---------------------------------------------------------------

def kept_apart(space: _Space) -> bool:
    """Whether an assertion over ``space`` keeps its factors apart.  In a
    space of at most ``_BLOCK`` runs it combines them at once: there the
    calls that factors apart cost outweigh the elements they save."""
    return space.size > _BLOCK


def _on_axes(x: np.ndarray, shape: tuple) -> bool:
    """Whether ``x`` is a bool array on the axes of ``shape``, of size 1 on any of them."""
    return x.dtype == bool and x.ndim == len(shape) and (
        x.shape == shape or all([n == r or n == 1 for n, r in zip(x.shape, shape)]))


class Assertion(Record):
    """A set of runs over a signature at a fixed horizon.

    It holds ``factors``: bool arrays on the axis view of its space, each
    with a size-1 axis for every slot it does not read (read-only), whose
    ``and`` is the run set.  ``view``, that conjunction in its broadcast
    shape, and ``mask``, the run-indexed vector of the whole space, are made
    on their first read and kept; a one-factor view is the factor, and a
    view of full size in C order is the mask itself.  The constructor takes
    ``values`` as the run-indexed vector, which is kept as the mask, as a
    view on the space's axes, or as a tuple of such views, the factors; of
    two factors whose read slots nest, the smaller is combined into the
    larger at once.  The arrays are made read-only.
    """

    __slots__ = ("signature", "horizon", "factors", "_view", "_mask")
    _fields = ("signature", "horizon")    # the arrays are left out of the repr

    def __init__(self, signature: Signature, horizon: int, values):
        space = space_of(signature, horizon)
        shape = space.shape
        mask = None
        if type(values) is not tuple:
            if values.ndim != len(shape) and values.dtype == bool and values.shape == (space.size,):
                # the view of a read-only vector is read-only
                values.setflags(write=False)
                mask, values = values, values.reshape(shape)
            elif _on_axes(values, shape):
                values.setflags(write=False)
            else:
                raise PctError("assertion values must be a boolean vector over the run space "
                               "or a boolean array on its axes")
            values = (values,)
        else:
            if not all([_on_axes(x, shape) for x in values]):
                raise PctError("assertion factors must be boolean arrays on the run space's axes")
            for x in values:
                x.setflags(write=False)
            if len(values) > 1:
                values = _nested(values) if kept_apart(space) else (conjunction(values),)
                for x in values:
                    x.setflags(write=False)
        setfield(self, "signature", signature)
        setfield(self, "horizon", horizon)
        setfield(self, "factors", values)
        setfield(self, "_view", values[0] if len(values) == 1 else None)
        setfield(self, "_mask", mask)

    @property
    def view(self) -> np.ndarray:
        """The conjunction of the factors on the axis view: made on first
        read, then kept."""
        view = self._view
        if view is None:
            view = conjunction(self.factors)
            view.setflags(write=False)
            setfield(self, "_view", view)
        return view

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
        """Equal run sets: two kept views of one shape are compared in one
        pass, and otherwise the factors are ``within`` each other."""
        if not (isinstance(other, Assertion) and self.signature == other.signature
                and self.horizon == other.horizon):
            return False
        a, b = self._view, other._view
        if a is not None and b is not None and a.shape == b.shape:
            return _equal(a, b)
        return within(self.factors, other.factors) and within(other.factors, self.factors)

    def __len__(self) -> int:
        return int(self.mask.sum())

    @property
    def is_empty(self) -> bool:
        return not all(eliminate(self.factors, ()))

    def __iter__(self) -> Iterator[tuple]:
        return runs(self)


# the most elements _equal compares at a time
_EQUAL_BLOCK = 1 << 16


def _equal(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.array_equal`` of two arrays of one shape, compared at most
    ``_EQUAL_BLOCK`` elements at a time: no temporary is larger, where one
    comparison of the whole would make a full-size one."""
    if a.size <= _EQUAL_BLOCK:
        return bool(np.array_equal(a, b))
    pairs = np.nditer((a, b), flags=("buffered", "external_loop", "zerosize_ok"),
                      buffersize=_EQUAL_BLOCK)
    return all(np.array_equal(x, y) for x, y in pairs)


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


def lifted_factors(e: Assertion, sig2: Signature) -> tuple:
    """``e``'s factors on sig2's axis view, made without a copy.  sig2 must
    hold e's ports with their domains; callers that need roles to agree
    check them."""
    if sig2.ports == e.signature.ports:
        return e.factors
    dst = _lift_target(e, sig2)
    return tuple([_spread(x, e.space, dst) for x in e.factors])


def lifted_view(e: Assertion, sig2: Signature) -> np.ndarray:
    """``e``'s view on sig2's axis view, made without a copy, as
    ``lifted_factors`` makes its factors."""
    if sig2.ports == e.signature.ports:
        return e.view
    return _spread(e.view, e.space, _lift_target(e, sig2))


def _lift_target(e: Assertion, sig2: Signature) -> _Space:
    """sig2's space at e's horizon, where sig2 holds e's ports with their domains."""
    ports = sig2._by_name
    if not all(ports.get(p.name) == p for p in e.signature.ports):
        raise SignatureError("lift target must hold the assertion's ports with their domains")
    return space_of(sig2, e.horizon)


def _extends(sig: Signature, *es: Assertion) -> None:
    if not all(is_subsignature(e.signature, sig) for e in es):
        raise SignatureError("lift target must extend the assertion's signature "
                             "with agreeing domains and roles")


def lift(e: Assertion, sig2: Signature) -> Assertion:
    """Inverse projection: all runs over sig2 whose restriction lies in e."""
    if sig2 == e.signature:
        return e
    _extends(sig2, e)
    return Assertion(sig2, e.horizon, lifted_factors(e, sig2))


def project(e: Assertion, sig2: Signature) -> Assertion:
    """Image of the runs under restriction to sig2's ports: ``any`` of the
    factors over the slots sig2 lacks, on sig2's axes."""
    if not is_subsignature(sig2, e.signature):
        raise SignatureError("projection target must be a sub-signature")
    if sig2 == e.signature:
        return e
    slots = set(space_of(sig2, e.horizon).axes)
    keep = [i for i, slot in enumerate(e.space.axes) if slot in slots]
    return Assertion(sig2, e.horizon, tuple([x.reshape([x.shape[i] for i in keep])
                                             for x in eliminate(e.factors, keep)]))


def complement(e: Assertion) -> Assertion:
    return Assertion(e.signature, e.horizon, ~e.view)


def product(e1: Assertion, e2: Assertion) -> Assertion:
    """Intersection over the union signature: the factors of both sides.

    Shared ports must agree on domain and role; resolving a
    controlled/uncontrolled conflict is a contract-level concern and is
    refused here.
    """
    same_horizon(e1, e2)
    sig = union_signature(e1.signature, e2.signature)
    return Assertion(sig, e1.horizon, lifted_factors(e1, sig) + lifted_factors(e2, sig))


def union(e1: Assertion, e2: Assertion) -> Assertion:
    same_horizon(e1, e2)
    sig = union_signature(e1.signature, e2.signature)
    return Assertion(sig, e1.horizon, combine(np.logical_or, lifted_view(e1, sig),
                                              lifted_view(e2, sig)))


def included_in(e1: Assertion, e2: Assertion, sig: Signature) -> bool:
    """Signature-relative inclusion: lift both to sig and compare."""
    same_horizon(e1, e2)
    _extends(sig, e1, e2)
    return within(lifted_factors(e1, sig), lifted_factors(e2, sig))


def slot_values(sig: Signature, h, name: str, step: int) -> np.ndarray:
    """Domain-position digit of (port, step) at every run, on the axis view.

    The result has shape (1, ..., r, ..., 1): it broadcasts against the
    view of any vector over the run space.  Read-only, and made once per
    space and slot.
    """
    hh = _hlen(h)
    space = space_of(sig, hh)
    sig.port(name)
    if not 0 <= step < hh:
        raise PctError(f"step {step} outside horizon 0..{hh - 1}")
    out = space._digits.get((name, step))
    if out is None:
        shape = [1] * len(space.axes)
        if (name, step) in space.axes:    # a port of one value has no axis
            i = space.axes.index((name, step))
            shape[i] = space.shape[i]
        out = space._digits[name, step] = np.arange(math.prod(shape)).reshape(shape)
        out.setflags(write=False)
    return out


def from_step_predicate(sig: Signature, h, step, *more) -> Assertion:
    """Runs at which ``step(t)``, and each of ``more``, holds at every step ``t``.

    ``step(t)`` returns a boolean array that broadcasts against the axis
    view, as any expression in ``slot_values(sig, h, name, t)`` does.  The
    step values of each step function are combined in their broadcast
    shape, and the assertion keeps the results as its factors: nothing of
    the full size is made.  A value that is the same object as the previous
    step's is combined once, and a step function marked ``invariant`` is
    called at step 0 only.  Like the ``Assertion`` constructor, this takes
    over the arrays it is given.
    """
    hh = _hlen(h)
    n = len(space_of(sig, hh).shape)
    factors = []
    for fn in (step,) + more:
        held = last = None
        for t in range(1 if getattr(fn, "invariant", False) else hh):
            value = fn(t)
            if value is not last:
                held = value if held is None else combine(np.logical_and, held, value)
                last = value
        held = np.asarray(held)
        factors.append(held.reshape((1,) * (n - held.ndim) + held.shape))
    return Assertion(sig, hh, tuple(factors))
