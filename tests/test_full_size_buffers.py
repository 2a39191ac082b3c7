"""How many full-size masks a query makes, counted without timing.

tracemalloc sees NumPy's array buffers.  On one fixed 2^16-run document,
each test pins how many buffers the size of the run space are alive at the
peak of a call, and how many the call keeps.  A new temporary of that size
(a ``lift`` copy, a complement, an ``a | g`` made only to be tested, a
mask filled from an assertion's view) shows up as one more.  The whole
``pct compose`` command runs on the same document at horizon 3, 2^24 runs,
so that the parser's and the printer's own objects stay far below one unit.
"""

import contextlib
import io
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from pct import Port, cli, contracts, probabilistic, speclang, traces

DOC = """
horizon 2;

port f0 : bool uncontrolled prob bernoulli(1/10);
port f1 : bool uncontrolled prob bernoulli(1/3);
port f2 : bool uncontrolled prob bernoulli(1/4);
port u0 : bool uncontrolled;
port u1 : bool uncontrolled;
port x0 : bool controlled;
port x1 : bool controlled;
port x2 : bool controlled;

def env_ok = (u0 and f0) or prev(f2, init=false);
def cmd0 = (not u0 and f0) and not (u0 == f1);

contract spec {
  assume always(f0 or f1) and always(env_ok);
  guarantee eventually(not x0 implies f1) and always(x1 implies not f1) and always(x2 or u1);
}
impl m {
  input f0, f1, f2, u0;
  output x0, x1, x2;
  behavior always((x0 implies cmd0) and (cmd0 implies x0)) and always(x1 implies f2)
           and always(x2 or not f2);
}
impl m_all {
  input f0, f1, f2, u0, u1;
  output x0, x1, x2;
  behavior always((x0 implies cmd0) and (cmd0 implies x0)) and always(x1 implies f2)
           and always(x2 or not f2) and always(x2 or not u1);
}
probcontract spec_rel {
  contract spec;
  ports f0, f1, f2;
}

contract weak {
  input f0, f1, u0;
  output x0, x1;
  assume never(f0) and eventually(not f0 or not u0);
  guarantee always(not x0 and u0) and never(not x0 and not f1);
}
probcontract weak_rel {
  contract weak;
  ports f0, f1;
}

contract stage1 {
  input f0, f1, u0;
  output x0, x1;
  assume at(0, f0 or u0);
  guarantee always(x0 implies f1) and at(1, x1);
}
contract stage2 {
  input f2, u1, x0;
  output x2;
  assume always(x0 implies f2);
  guarantee at(0, x2 implies (u1 or f2));
}
probcontract stage1_rel {
  contract stage1;
  ports f0, f1;
}
probcontract stage2_rel {
  contract stage2;
  ports f2;
}
"""


@pytest.fixture(scope="module")
def doc():
    return speclang.parse(DOC)


def full_size_buffers(doc, fn, size=None):
    """(result, buffers alive at the peak, buffers kept) of ``fn()``, in
    units of ``size`` runs, by default the spec's run space; a first
    untraced call fills the caches."""
    if size is None:
        size = traces.space_of(speclang.build_contract(doc, "spec").signature, doc.horizon).size
        assert size == 2 ** (8 * doc.horizon)
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, (peak - base) // size, (kept - base) // size


def test_lookup_probcontract_makes_the_two_masks_and_the_canonical_guarantee(doc):
    # the assumption, the guarantee and the canonical guarantee keep the
    # views of the slots they read, 15 of the 16; checking canonicity reduces
    # each side over the slots only it reads
    _, peak, kept = full_size_buffers(doc, lambda: speclang.lookup_probcontract(doc, "spec_rel"))
    assert (peak, kept) == (0, 0)


def test_sat_level_makes_no_full_size_mask_when_a_side_reads_a_slot_alone(doc):
    # m does not read u1 and the canonical guarantee does: G is reduced with
    # all over u1's slots before m > G, so the violations read 14 of the 16
    m = speclang.build_impl(doc, "m")
    pc = speclang.lookup_probcontract(doc, "spec_rel")
    assert m.signature != pc.signature
    report, peak, kept = full_size_buffers(doc, lambda: probabilistic.sat_level(m, pc))
    assert report.level > 0
    assert (peak, kept) == (0, 0)


def test_build_impl_keeps_the_conjuncts_of_the_behavior_apart(doc):
    # m_all's four always clauses together read every slot outside Omega; as
    # factors, none of them reads more than 4 of the 8 ports
    m, peak, kept = full_size_buffers(doc, lambda: speclang.build_impl(doc, "m_all"))
    assert len(m.factors) == 4
    assert (peak, kept) == (0, 0)


def test_sat_level_makes_no_full_size_mask_when_both_sides_read_every_slot_outside_omega(doc):
    # m_all also reads u1: no slot outside Omega is read by one side alone,
    # but each factor of m and of G reads only some of them, so the
    # violations are reduced to Omega one slot at a time
    m = speclang.build_impl(doc, "m_all")
    pc = speclang.lookup_probcontract(doc, "spec_rel")
    space = traces.space_of(pc.signature, doc.horizon)
    g = traces.lifted_view(pc.base.guarantee, pc.signature)
    v = traces.lifted_view(m, pc.signature)
    assert all(slot[0] in pc.pports or (r > 1 and n > 1)
               for slot, r, n in zip(space.axes, g.shape, v.shape))
    report, peak, kept = full_size_buffers(doc, lambda: probabilistic.sat_level(m, pc))
    assert report.level > 0
    assert (peak, kept) == (0, 0)


def test_refine_level_makes_no_full_size_mask(doc):
    # each guarantee is reduced over its own space; the refining one is not lifted
    weak = speclang.lookup_probcontract(doc, "weak_rel")
    spec = speclang.lookup_probcontract(doc, "spec_rel")
    report, peak, kept = full_size_buffers(doc, lambda: probabilistic.refine_level(weak, spec))
    assert not report.degenerate
    assert (peak, kept) == (0, 0)


def test_mass_makes_one_int64_copy_of_the_mask():
    # five coins at horizon 3, 2^15 histories: the mask is copied to int64
    # once, and each coin's axes are the innermost when it is contracted, so
    # there is no transpose copy and no product of mask and numerators
    h = 3
    dist = reduce(probabilistic.product_dist,
                  [probabilistic.bernoulli_iid(Port(f"f{i}"), Fraction(1, i + 2), h)
                   for i in range(5)])
    mask = np.arange(2**15) % 3 != 0
    mass, peak, kept = full_size_buffers(None, lambda: probabilistic._mass(dist, mask),
                                         size=8 * 2**15)
    assert mass == Fraction(int(dist.numerators()[mask].sum()), dist.denominator)
    assert (peak, kept) == (1, 0)


def test_compose_makes_no_full_size_mask(doc):
    # the four clauses read 11 of the 16 slots, and so do the composed views
    c1, c2 = (speclang.build_contract(doc, name) for name in ("stage1", "stage2"))
    composed, peak, kept = full_size_buffers(doc, lambda: contracts.compose(c1, c2))
    assert composed.guarantee.view.size == 2**11
    assert (peak, kept) == (0, 0)


def test_cmd_compose_makes_no_full_size_mask(tmp_path):
    # building, printing, parsing again and comparing the composed contract
    path = tmp_path / "doc.pct"
    path.write_text(DOC.replace("horizon 2;", "horizon 3;"), encoding="utf-8")
    argv = ["compose", str(path), "--contracts", "stage1_rel,stage2_rel"]

    def compose():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            return cli.main(argv), out.getvalue()
    (rc, text), peak, kept = full_size_buffers(speclang.parse(path.read_text()), compose)
    assert rc == 0 and "probcontract composite" in text
    assert (peak, kept) == (0, 0)


def test_satisfies_makes_no_full_size_mask(doc):
    # m_all's factors and the stored guarantee's together read every slot;
    # each factor g of the guarantee is tested against m one slot at a time
    m = speclang.build_impl(doc, "m_all")
    spec = speclang.build_contract(doc, "spec")
    assert m.signature == spec.signature and len(spec.guarantee.factors) > 1
    ok, peak, kept = full_size_buffers(doc, lambda: contracts.satisfies(m, spec))
    assert not ok
    assert (peak, kept) == (0, 0)


def test_included_in_makes_no_full_size_mask(doc):
    m = speclang.build_impl(doc, "m_all")
    spec = speclang.build_contract(doc, "spec")
    for e1, e2 in ((m, spec.guarantee), (spec.guarantee, m)):
        ok, peak, kept = full_size_buffers(
            doc, lambda: traces.included_in(e1, e2, spec.signature))
        assert not ok
        assert (peak, kept) == (0, 0)


def test_project_of_factors_makes_no_full_size_mask(doc):
    # dropping f2 eliminates its slots from the two factors that read it;
    # a fresh assertion each call, since a kept view would be reduced as is
    small = speclang.build_impl(doc, "m_all").signature.restricted(
        ("f0", "f1", "u0", "u1", "x0", "x1", "x2"))
    e, peak, kept = full_size_buffers(
        doc, lambda: traces.project(speclang.build_impl(doc, "m_all"), small))
    assert len(e.factors) > 1
    assert (peak, kept) == (0, 0)


WHOLE = """
horizon 3;

port f0 : bool uncontrolled prob bernoulli(1/10);
port f1 : bool uncontrolled prob bernoulli(1/3);
port u0 : bool uncontrolled;
port x0 : bool controlled;
port x1 : bool controlled;
port x2 : bool controlled;

contract left {
  input f0, u0, x2;
  output x0, x1;
  assume always(f0 or u0);
  guarantee always((x0 == f0) or (x1 == u0) or x2);
}
contract right {
  input f1, x0, x1;
  output x2;
  assume never(f1 and x0);
  guarantee always((x2 == f1) or x0 or not x1);
}
"""


def test_equality_of_composed_views_that_read_every_slot_makes_no_full_size_buffer():
    # the composed assumption and guarantee each read all 18 slots, so two
    # compositions built apart hold views of the full shape; == compares
    # them a block at a time
    doc = speclang.parse(WHOLE)
    c1, c2 = (speclang.build_contract(doc, name) for name in ("left", "right"))
    one, other = contracts.compose(c1, c2), contracts.compose(c2, c1)
    space = traces.space_of(one.signature, doc.horizon)
    assert space.size == 2**18
    for c in (one, other):
        assert c.assumption.view.shape == c.guarantee.view.shape == space.shape
    same, peak, kept = full_size_buffers(doc, lambda: one == other, size=space.size)
    assert same
    assert (peak, kept) == (0, 0)

    # a copy is equal, and a copy without the last run is told apart
    last = one.guarantee.view.copy()
    assert one.guarantee == traces.Assertion(one.signature, doc.horizon, last.copy())
    last[(-1,) * last.ndim] ^= True
    assert one.guarantee != traces.Assertion(one.signature, doc.horizon, last)
