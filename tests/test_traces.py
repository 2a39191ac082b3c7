"""Assertion algebra: enumerated examples plus the algebraic laws."""

import re
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import pct
from pct import (
    Assertion,
    BOOL,
    CapacityError,
    DomainMismatchError,
    HorizonMismatchError,
    PctError,
    Port,
    RoleConflictError,
    Run,
    Signature,
    SignatureError,
    traces,
)
from conftest import assertion_pairs, assertion_with_extension, assertions

A = Port("a")
B = Port("b")
X3 = Port("x", (0, 1, 2))
SIG_A = Signature.of(uncontrolled=(A,))
SIG_AB = Signature.of(uncontrolled=(A, B))


def runs_set(e):
    return {r.entries for r in pct.runs(e)}


def test_universe_sizes():
    assert len(pct.universe(SIG_A, 2)) == 4
    assert len(pct.universe(SIG_AB, 1)) == 4
    assert len(pct.universe(Signature.of(uncontrolled=(X3,)), 3)) == 27


def test_universe_histories():
    u = pct.universe(SIG_A, 2)
    assert {r.history("a") for r in pct.runs(u)} == {
        (False, False), (False, True), (True, False), (True, True)}


def test_capacity_cap():
    old = pct.enumeration_cap()
    try:
        pct.set_enumeration_cap(8)
        with pytest.raises(CapacityError):
            pct.universe(SIG_AB, 2)
        assert len(pct.universe(SIG_A, 2)) == 4
    finally:
        pct.set_enumeration_cap(old)


def test_port_validation():
    with pytest.raises(PctError):
        Port("p", ())
    with pytest.raises(PctError):
        Port("p", (1, 1))


@pytest.mark.parametrize("h", [True, False, 0, -1, 2.0, "2", None], ids=repr)
def test_a_horizon_is_a_positive_int_not_a_bool(h):
    with pytest.raises(PctError, match="horizon must be a positive integer"):
        traces._hlen(h)
    with pytest.raises(PctError, match="horizon must be a positive integer"):
        traces.space_of(SIG_A, h)
    with pytest.raises(PctError, match="horizon must be a positive integer"):
        pct.universe(SIG_A, h)


def test_port_equality_keeps_value_types_apart():
    assert Port("a", (0, 1)) != Port("a", (False, True))
    assert Port("a", (1,)) != Port("a", (1.0,))
    assert Port("a", (0, 1)) != Port("b", (0, 1))
    assert Port("a", (0, 1)) != ("a", (0, 1))
    same = Port("a", (0, "x")), Port("a", [0, "x"])
    assert same[0] is not same[1]
    assert same[0] == same[1] and hash(same[0]) == hash(same[1])
    assert Port("a") == Port("a", BOOL) and hash(Port("a")) == hash(Port("a", BOOL))
    assert len({Port("a", (0, 1)), Port("a", (False, True)), Port("a", (0, 1))}) == 2


def test_space_of_keeps_domain_value_types_apart():
    ints = Signature.of(uncontrolled=(Port("a", (0, 1)),))
    bools = Signature.of(uncontrolled=(Port("a", (False, True)),))
    assert ints != bools
    s_ints, s_bools = traces.space_of(ints, 2), traces.space_of(bools, 2)
    assert s_ints is not s_bools
    assert s_ints.ports[0].domain == (0, 1) and type(s_ints.ports[0].domain[0]) is int
    assert type(s_bools.ports[0].domain[0]) is bool
    assert [type(v) for v in pct.run_at(ints, 2, 1).history("a")] == [int, int]
    assert [type(v) for v in pct.run_at(bools, 2, 1).history("a")] == [bool, bool]
    assert traces.space_of(ints, 2) is s_ints


def test_a_warm_query_compares_no_domains_to_find_a_space(tmp_path, monkeypatch, capsys):
    """``space_of``'s cache compares ports by their keys, not through
    ``same_domain``; counted on a repeated ``pct sat``, not timed."""
    from importlib import resources

    from pct import cli
    path = tmp_path / "two_stage.pct"
    path.write_text(resources.files("pct.data").joinpath("two_stage.pct").read_text("utf-8"))
    argv = ["sat", str(path), "--impl", "m1", "--contract", "stage1_rel"]
    assert cli.main(argv) == 0
    callers, same_domain = [], traces.same_domain

    def counted(d1, d2):
        callers.append({frame.name for frame in traceback.extract_stack()})
        return same_domain(d1, d2)

    monkeypatch.setattr(traces, "same_domain", counted)
    for _ in range(3):
        assert cli.main(argv) == 0
    assert capsys.readouterr().out.count("level = 81/100") == 4
    assert [c for c in callers if {"space_of", "_space"} & c] == []


def test_signature_partition():
    with pytest.raises(SignatureError):
        Signature.of(controlled=(A,), uncontrolled=(A,))


def test_lift_free_extension():
    e = pct.from_runs(SIG_A, 1, [Run.of({"a": (True,)})])
    lifted = pct.lift(e, SIG_AB)
    assert runs_set(lifted) == {
        (("a", (True,)), ("b", (False,))),
        (("a", (True,)), ("b", (True,)))}


def test_lift_identity_and_empty():
    e = pct.from_runs(SIG_A, 1, [Run.of({"a": (True,)})])
    assert pct.lift(e, SIG_A) == e
    assert pct.lift(pct.empty(SIG_A, 1), SIG_AB).is_empty


def test_lift_requires_superset():
    e = pct.universe(SIG_AB, 1)
    with pytest.raises(SignatureError):
        pct.lift(e, SIG_A)
    conflicting = Signature.of(controlled=(A,), uncontrolled=(B,))
    with pytest.raises(SignatureError):
        pct.lift(pct.universe(SIG_A, 1), conflicting)


def test_project_image():
    e = pct.from_runs(SIG_AB, 1, [Run.of({"a": (True,), "b": (False,)}),
                                  Run.of({"a": (True,), "b": (True,)})])
    assert runs_set(pct.project(e, SIG_A)) == {(("a", (True,)),)}


def test_project_surjectivity():
    assert pct.project(pct.universe(SIG_AB, 2), SIG_A) == pct.universe(SIG_A, 2)


def test_complement_examples():
    u = pct.universe(SIG_A, 1)
    assert pct.complement(u).is_empty
    e = pct.from_runs(SIG_A, 1, [Run.of({"a": (True,)})])
    assert runs_set(pct.complement(e)) == {(("a", (False,)),)}


def test_product_disjoint_sides():
    e1 = pct.from_runs(SIG_A, 1, [Run.of({"a": (True,)})])
    e2 = pct.from_runs(Signature.of(uncontrolled=(B,)), 1, [Run.of({"b": (False,)})])
    p = pct.product(e1, e2)
    assert runs_set(p) == {(("a", (True,)), ("b", (False,)))}


def test_product_unit_and_contradiction():
    e = pct.from_runs(SIG_A, 2, [Run.of({"a": (True, False)})])
    assert pct.product(e, pct.universe(SIG_A, 2)) == e
    assert pct.product(e, pct.complement(e)).is_empty


def test_product_refuses_role_conflict():
    e1 = pct.universe(Signature.of(controlled=(A,)), 1)
    e2 = pct.universe(Signature.of(uncontrolled=(A, B)), 1)
    with pytest.raises(RoleConflictError):
        pct.product(e1, e2)


def test_product_refuses_domain_conflict():
    other = Signature.of(uncontrolled=(Port("a", (0, 1)),))
    with pytest.raises(DomainMismatchError):
        pct.product(pct.universe(SIG_A, 1), pct.universe(other, 1))


def test_product_refuses_horizon_mismatch():
    with pytest.raises(HorizonMismatchError):
        pct.product(pct.universe(SIG_A, 1), pct.universe(SIG_A, 2))


def test_included_in_examples():
    assert pct.included_in(pct.empty(SIG_A, 1), pct.universe(SIG_A, 1), SIG_A)
    assert pct.included_in(pct.universe(SIG_A, 1), pct.universe(SIG_AB, 1), SIG_AB)
    e1 = pct.from_runs(SIG_A, 1, [Run.of({"a": (True,)})])
    e2 = pct.from_runs(SIG_AB, 1, [Run.of({"a": (True,), "b": (False,)})])
    assert not pct.included_in(e1, e2, SIG_AB)
    assert pct.included_in(e2, e1, SIG_AB)


def test_run_index_bijection():
    for sig, h in ((SIG_AB, 2), (Signature.of(uncontrolled=(A, X3)), 1)):
        size = traces.space_of(sig, h).size
        seen = set()
        for i in range(size):
            r = pct.run_at(sig, h, i)
            assert pct.run_index(sig, h, r) == i
            seen.add(r)
        assert len(seen) == size


def test_run_index_is_little_endian_mixed_radix():
    sig = Signature.of(uncontrolled=(A, X3))
    # slots: (a,0), (a,1), (x,0), (x,1); strides 1, 2, 4, 12
    r = Run.of({"a": (True, False), "x": (0, 2)})
    assert pct.run_index(sig, 2, r) == 1 * 1 + 0 * 2 + 0 * 4 + 2 * 12


def test_format_doc_worked_example():
    """docs/format.md's example table agrees with run_index, run_at and the view."""
    text = (Path(__file__).resolve().parent.parent / "docs" / "format.md").read_text()
    example = text[text.index("## Worked example"):]
    rows = re.findall(r"^\| (\d+) +\| (\w), (\d) +\| (\d+) +\| (\d+) +\| (\d+) +\| (\d+) +\|$",
                      example, re.MULTILINE)
    index = int(re.search(r"index = [^\n]* = (\d+)", example).group(1))
    sig = Signature.of(controlled=(A,), uncontrolled=(X3,))
    run = Run.of({"a": (True, False), "x": (2, 1)})
    space = traces.space_of(sig, 2)
    assert len(rows) == 4
    position = [None] * 4
    for k, name, step, radix, stride, digit, axis in (map(_int_or_str, r) for r in rows):
        assert (space.radices[k], space.strides[k]) == (radix, stride)
        assert space.axes[axis] == (name, step) and axis == 3 - k
        assert sig.port(name).domain.index(run.history(name)[step]) == digit
        position[axis] = digit
    assert pct.run_index(sig, 2, run) == index == 21
    assert pct.run_at(sig, 2, index) == run
    assert np.ravel_multi_index(position, space.shape) == index


def _int_or_str(text):
    return int(text) if text.isdigit() else text


def test_run_index_validation():
    with pytest.raises(SignatureError):
        pct.run_index(SIG_AB, 1, Run.of({"a": (True,)}))
    with pytest.raises(PctError):
        pct.run_index(SIG_A, 1, Run.of({"a": (3,)}))
    with pytest.raises(HorizonMismatchError):
        pct.run_index(SIG_A, 2, Run.of({"a": (True,)}))


def test_renamed_round_trip():
    e = pct.from_runs(SIG_AB, 2, [Run.of({"a": (True, False), "b": (False, False)}),
                                  Run.of({"a": (False, True), "b": (True, True)})])
    r = pct.renamed(e, "a", "zz")
    assert {x.history("zz") for x in pct.runs(r)} == {(True, False), (False, True)}
    assert pct.renamed(r, "zz", "a") == e
    with pytest.raises(SignatureError):
        pct.renamed(e, "a", "b")


def test_assertion_masks_are_read_only():
    u = pct.universe(SIG_A, 1)
    with pytest.raises(ValueError):
        u.mask[0] = False


# --- algebraic laws ---------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(assertion_with_extension())
def test_lift_then_project_is_identity(data):
    e, big = data
    assert pct.project(pct.lift(e, big), e.signature) == e


@settings(max_examples=60, deadline=None)
@given(assertions())
def test_double_complement(e):
    assert pct.complement(pct.complement(e)) == e


@settings(max_examples=60, deadline=None)
@given(assertion_with_extension())
def test_complement_commutes_with_lift(data):
    e, big = data
    assert pct.lift(pct.complement(e), big) == pct.complement(pct.lift(e, big))


@settings(max_examples=60, deadline=None)
@given(assertion_pairs())
def test_lift_monotone_and_distributive(pair):
    e1, e2 = pair
    extra = Port("q9")
    sig = e1.signature
    big = Signature.of(
        controlled=tuple(sig.port(n) for n in sorted(sig.controlled)),
        uncontrolled=tuple(sig.port(n) for n in sorted(sig.uncontrolled)) + (extra,))
    inter = Assertion(sig, e1.horizon, e1.mask & e2.mask)
    if pct.included_in(e1, e2, sig):
        assert pct.included_in(pct.lift(e1, big), pct.lift(e2, big), big)
    assert pct.lift(inter, big) == pct.product(pct.lift(e1, big), pct.lift(e2, big))
    un = Assertion(sig, e1.horizon, e1.mask | e2.mask)
    assert pct.lift(un, big) == pct.union(pct.lift(e1, big), pct.lift(e2, big))


@settings(max_examples=60, deadline=None)
@given(assertions())
def test_project_after_lift_superset(e):
    sub_names = sorted(e.signature.names)[:1]
    sub = e.signature.restricted(sub_names)
    back = pct.lift(pct.project(e, sub), e.signature)
    assert pct.included_in(e, back, e.signature)


@settings(max_examples=40, deadline=None)
@given(assertion_pairs())
def test_product_commutative_and_associative(pair):
    e1, e2 = pair
    assert pct.product(e1, e2) == pct.product(e2, e1)
    u = pct.universe(e1.signature, e1.horizon)
    assert pct.product(pct.product(e1, e2), u) == pct.product(e1, pct.product(e2, u))
