"""Shared generators for randomized tests: deterministic random documents,
expressions, and hypothesis strategies for small assertion spaces."""

import contextlib
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from pct import BOOL, Assertion, Port, Signature, traces

ENUM_DOMAINS = [("red", "green", "blue"), (0, 1, 2), ("lo", "hi")]


@contextlib.contextmanager
def allocation_peak():
    """Trace the allocations of the block; the list it yields receives
    their peak, in bytes, when the block ends."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def run_of(histories: dict) -> tuple:
    """The entry tuple of a run: ``(port name, history)`` pairs in name order."""
    return tuple(sorted((name, tuple(vals)) for name, vals in histories.items()))


def bit_members(bits: int, size: int) -> frozenset:
    """The run indices of an oracle run set over ``size`` runs, bit by bit
    in pure Python; the set must hold no bit outside its runs."""
    assert 0 <= bits < 1 << size, f"bits outside {size} runs: {bits:#x}"
    return frozenset(i for i in range(size) if bits >> i & 1)


def weights(d) -> list:
    """The weight of every joint history of the distribution ``d``, in
    run-index order: its numerators over its denominator."""
    return [Fraction(n, d.denominator) for n in d.numerators().tolist()]


def weight_of(d, histories: dict) -> Fraction:
    """The weight the distribution ``d`` gives one joint history."""
    return weights(d)[traces.run_index(d.signature, d.horizon, run_of(histories))]


# --- hypothesis strategies ------------------------------------------------------

@st.composite
def small_signatures(draw, max_ports=3, max_h=2):
    n = draw(st.integers(1, max_ports))
    h = draw(st.integers(1, max_h))
    ports = []
    for i in range(n):
        dom = draw(st.sampled_from([BOOL, BOOL, (0, 1, 2)]))
        ports.append(Port(f"p{i}", dom))
    controlled = [p for p in ports if draw(st.booleans())]
    uncontrolled = [p for p in ports if p not in controlled]
    return Signature.of(controlled=controlled, uncontrolled=uncontrolled), h


def _mask_for(draw, sig, h):
    size = traces.space_of(sig, h).size
    bits = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return np.asarray(bits, dtype=bool)


@st.composite
def assertions(draw):
    sig, h = draw(small_signatures())
    return Assertion(sig, h, _mask_for(draw, sig, h))


@st.composite
def assertion_pairs(draw):
    """Two assertions over one signature and horizon."""
    sig, h = draw(small_signatures())
    return (Assertion(sig, h, _mask_for(draw, sig, h)),
            Assertion(sig, h, _mask_for(draw, sig, h)))


@st.composite
def assertion_with_extension(draw):
    """An assertion plus a strictly larger signature to lift onto."""
    sig, h = draw(small_signatures(max_ports=2))
    e = Assertion(sig, h, _mask_for(draw, sig, h))
    extra = Port("q9", draw(st.sampled_from([BOOL, (0, 1, 2)])))
    big = Signature.of(
        controlled=tuple(sig.port(n) for n in sorted(sig.controlled)),
        uncontrolled=tuple(sig.port(n) for n in sorted(sig.uncontrolled)) + (extra,))
    return e, big


# --- deterministic random documents -----------------------------------------------

class DocGen:
    """Emits random valid `.pct` documents as text, deterministically."""

    def __init__(self, seed):
        self.rng = random.Random(f"doc:{seed}")

    def value(self, domain):
        v = self.rng.choice(domain)
        # identity tests: a dict lookup would also map the ints 0 and 1
        if v is True:
            return "true"
        if v is False:
            return "false"
        return str(v)

    def expr(self, ports, depth, h):
        rng = self.rng
        if depth <= 0 or rng.random() < 0.3:
            kind = rng.randrange(5)
            name = rng.choice(sorted(ports))
            dom = ports[name]
            if kind == 0 and dom == BOOL:
                return name
            if kind == 1:
                return f"{name} == {self.value(dom)}"
            if kind == 2:
                peers = [n for n, d in ports.items() if d == dom]
                return f"{name} == {rng.choice(sorted(peers))}"
            if kind == 3:
                return f"prev({name}, init={self.value(dom)}) == {self.value(dom)}"
            return rng.choice(["true", "false"])
        op = rng.randrange(6)
        if op == 0:
            return f"not ({self.expr(ports, depth - 1, h)})"
        if op == 1:
            return f"({self.expr(ports, depth - 1, h)}) and ({self.expr(ports, depth - 1, h)})"
        if op == 2:
            return f"({self.expr(ports, depth - 1, h)}) or ({self.expr(ports, depth - 1, h)})"
        if op == 3:
            return f"({self.expr(ports, depth - 1, h)}) implies ({self.expr(ports, depth - 1, h)})"
        if op == 4:
            t = rng.choice(["always", "never", "eventually"])
            return f"{t}({self.expr(ports, depth - 1, h)})"
        return f"at({rng.randrange(h)}, {self.expr(ports, depth - 1, h)})"

    def dist(self, domain, h):
        if domain == BOOL and self.rng.random() < 0.6:
            den = self.rng.randint(1, 20)
            return f"bernoulli({self.rng.randint(0, den)}/{den})"
        hists = set()
        while len(hists) < min(2, len(domain) ** h):
            hists.add(tuple(self.rng.choice(domain) for _ in range(h)))
        hists = sorted(hists, key=str)
        n = len(hists)
        parts = [f"[{', '.join(self.value((v,)) for v in hh)}]: 1/{n};" for hh in hists]
        return "table { " + " ".join(parts) + " }"

    def document(self):
        rng = self.rng
        h = rng.randint(1, 3)
        lines = [f"horizon {h};"]
        ports = {}
        with_dist = []
        for i in range(rng.randint(1, 4)):
            name = f"p{i}"
            dom = rng.choice([BOOL, BOOL] + ENUM_DOMAINS)
            role = rng.choice(["controlled", "uncontrolled"])
            decl = "bool" if dom == BOOL else "{" + ", ".join(self.value((v,)) for v in dom) + "}"
            suffix = ""
            if role == "uncontrolled" and rng.random() < 0.5:
                suffix = f" prob {self.dist(dom, h)}"
                with_dist.append(name)
            lines.append(f"port {name} : {decl} {role}{suffix};")
            ports[name] = dom
        for i in range(rng.randint(0, 2)):
            lines.append(f"def d{i} = {self.expr(ports, 2, h)};")
        cnames = []
        for i in range(rng.randint(0, 2)):
            cnames.append(f"c{i}")
            io = ""
            if rng.random() < 0.5:
                names = sorted(ports)
                k = rng.randint(1, len(names))
                chosen = names[:k]
                outs = [n for n in chosen if rng.random() < 0.4]
                ins = [n for n in chosen if n not in outs]
                if ins:
                    io += f" input {', '.join(ins)};"
                if outs:
                    io += f" output {', '.join(outs)};"
            lines.append(f"contract c{i} {{{io} assume {self.expr(ports, 2, h)}; "
                         f"guarantee {self.expr(ports, 2, h)}; }}")
        for i in range(rng.randint(0, 2)):
            lines.append(f"impl i{i} {{ behavior {self.expr(ports, 2, h)}; }}")
        if cnames and with_dist and rng.random() < 0.7:
            k = rng.randint(1, len(with_dist))
            lines.append(f"probcontract r0 {{ contract {rng.choice(cnames)}; "
                         f"ports {', '.join(sorted(rng.sample(with_dist, k)))}; }}")
        sep = lambda: rng.choice(["\n", "\n\n", "  \n", "\n# noise\n"])
        return sep().join(lines) + rng.choice(["", "\n", "\n\n"])


@pytest.fixture
def docgen():
    return DocGen
