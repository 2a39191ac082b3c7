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
    Signature,
    SignatureError,
    probabilistic,
    traces,
)
from conftest import assertion_pairs, assertion_with_extension, assertions, run_of

A = Port("a")
B = Port("b")
X3 = Port("x", (0, 1, 2))
SIG_A = Signature.of(uncontrolled=(A,))
SIG_AB = Signature.of(uncontrolled=(A, B))


def runs_set(e):
    return set(pct.runs(e))


def test_universe_sizes():
    assert len(pct.universe(SIG_A, 2)) == 4
    assert len(pct.universe(SIG_AB, 1)) == 4
    assert len(pct.universe(Signature.of(uncontrolled=(X3,)), 3)) == 27


def test_universe_histories():
    u = pct.universe(SIG_A, 2)
    assert {dict(r)["a"] for r in pct.runs(u)} == {
        (False, False), (False, True), (True, False), (True, True)}


def test_capacity_cap(monkeypatch):
    monkeypatch.setattr(traces, "ENUMERATION_CAP", 8)
    with pytest.raises(CapacityError):
        pct.universe(SIG_AB, 2)
    assert len(pct.universe(SIG_A, 2)) == 4


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
    assert [type(v) for v in dict(pct.run_at(ints, 2, 1))["a"]] == [int, int]
    assert [type(v) for v in dict(pct.run_at(bools, 2, 1))["a"]] == [bool, bool]
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
    e = pct.from_runs(SIG_A, 1, [run_of({"a": (True,)})])
    lifted = pct.lift(e, SIG_AB)
    assert runs_set(lifted) == {
        (("a", (True,)), ("b", (False,))),
        (("a", (True,)), ("b", (True,)))}


def test_lift_identity_and_empty():
    e = pct.from_runs(SIG_A, 1, [run_of({"a": (True,)})])
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
    e = pct.from_runs(SIG_AB, 1, [run_of({"a": (True,), "b": (False,)}),
                                  run_of({"a": (True,), "b": (True,)})])
    assert runs_set(pct.project(e, SIG_A)) == {(("a", (True,)),)}


def test_project_surjectivity():
    assert pct.project(pct.universe(SIG_AB, 2), SIG_A) == pct.universe(SIG_A, 2)


def test_complement_examples():
    u = pct.universe(SIG_A, 1)
    assert pct.complement(u).is_empty
    e = pct.from_runs(SIG_A, 1, [run_of({"a": (True,)})])
    assert runs_set(pct.complement(e)) == {(("a", (False,)),)}


def test_product_disjoint_sides():
    e1 = pct.from_runs(SIG_A, 1, [run_of({"a": (True,)})])
    e2 = pct.from_runs(Signature.of(uncontrolled=(B,)), 1, [run_of({"b": (False,)})])
    p = pct.product(e1, e2)
    assert runs_set(p) == {(("a", (True,)), ("b", (False,)))}


def test_product_unit_and_contradiction():
    e = pct.from_runs(SIG_A, 2, [run_of({"a": (True, False)})])
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
    e1 = pct.from_runs(SIG_A, 1, [run_of({"a": (True,)})])
    e2 = pct.from_runs(SIG_AB, 1, [run_of({"a": (True,), "b": (False,)})])
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
    r = run_of({"a": (True, False), "x": (0, 2)})
    assert pct.run_index(sig, 2, r) == 1 * 1 + 0 * 2 + 0 * 4 + 2 * 12


def test_format_doc_worked_example():
    """docs/format.md's example table agrees with run_index, run_at and the view."""
    text = (Path(__file__).resolve().parent.parent / "docs" / "format.md").read_text()
    example = text[text.index("## Worked example"):]
    rows = re.findall(r"^\| (\d+) +\| (\w), (\d) +\| (\d+) +\| (\d+) +\| (\d+) +\| (\d+) +\|$",
                      example, re.MULTILINE)
    index = int(re.search(r"index = [^\n]* = (\d+)", example).group(1))
    sig = Signature.of(controlled=(A,), uncontrolled=(X3,))
    run = run_of({"a": (True, False), "x": (2, 1)})
    space = traces.space_of(sig, 2)
    assert len(rows) == 4
    position = [None] * 4
    for k, name, step, radix, stride, digit, axis in (map(_int_or_str, r) for r in rows):
        assert space.axes[axis] == (name, step) and axis == 3 - k
        assert space.shape[axis] == radix == len(sig.port(name).domain)
        # the run whose one nonzero digit is a 1 at slot k has index stride[k]
        unit = run_of({p.name: tuple(p.domain[int((p.name, t) == (name, step))] for t in range(2))
                       for p in sig.ports})
        assert pct.run_index(sig, 2, unit) == stride and pct.run_at(sig, 2, stride) == unit
        assert np.ravel_multi_index([int(a == axis) for a in range(4)], space.shape) == stride
        assert sig.port(name).domain.index(dict(run)[name][step]) == digit
        position[axis] = digit
    assert pct.run_index(sig, 2, run) == index == 21
    assert pct.run_at(sig, 2, index) == run
    assert np.ravel_multi_index(position, space.shape) == index


def _int_or_str(text):
    return int(text) if text.isdigit() else text


def test_run_index_validation():
    with pytest.raises(SignatureError):
        pct.run_index(SIG_AB, 1, run_of({"a": (True,)}))
    with pytest.raises(PctError):
        pct.run_index(SIG_A, 1, run_of({"a": (3,)}))
    with pytest.raises(HorizonMismatchError):
        pct.run_index(SIG_A, 2, run_of({"a": (True,)}))


def test_run_index_refuses_a_port_named_twice():
    # the last history of "a" would otherwise win, giving index 2
    twice = (("a", (True,)), ("a", (False,)), ("b", (True,)))
    with pytest.raises(SignatureError, match="names a port twice"):
        pct.run_index(SIG_AB, 1, twice)
    with pytest.raises(SignatureError):
        pct.from_runs(SIG_AB, 1, [twice])


def test_a_run_is_its_name_sorted_entry_tuple():
    sig = Signature.of(controlled=(X3,), uncontrolled=(B, A))
    e = pct.from_runs(sig, 1, [(("x", (2,)), ("b", (False,)), ("a", (True,)))])
    want = (("a", (True,)), ("b", (False,)), ("x", (2,)))
    assert list(pct.runs(e)) == list(e) == [want]
    assert pct.run_at(sig, 1, pct.run_index(sig, 1, want)) == want
    assert run_of({"x": [2], "b": (False,), "a": (True,)}) == want


def test_domain_index_matches_type_and_value():
    assert traces.domain_index((0, 1, 2), 2) == 2
    assert traces.domain_index((False, True), True) == 1
    assert traces.domain_index((0, 1), True) is None
    assert traces.domain_index(("lo", "hi"), "mid") is None
    with pytest.raises(PctError, match="not in domain"):
        pct.run_index(Signature.of(uncontrolled=(Port("n", (0, 1)),)), 1, (("n", (True,)),))


ONE = Port("o", ("only",))


def test_run_index_round_trips_a_space_with_a_one_value_port():
    sig = Signature.of(controlled=(X3,), uncontrolled=(ONE, A))
    space = traces.space_of(sig, 2)
    assert space.size == 36 and not any(name == "o" for name, _ in space.axes)
    seen = set()
    for i in range(space.size):
        r = pct.run_at(sig, 2, i)
        assert dict(r)["o"] == ("only", "only")
        assert pct.run_index(sig, 2, r) == i
        seen.add(r)
    assert len(seen) == space.size


def test_run_index_refuses_a_value_outside_a_one_value_domain():
    # the slots of "o" have no axis, so only run_index reads their values
    sig = Signature.of(uncontrolled=(ONE, A))
    with pytest.raises(PctError, match="not in domain"):
        pct.run_index(sig, 2, run_of({"o": ("only", "other"), "a": (True, False)}))


@pytest.mark.parametrize("ports", [(B, A), (A, A)])
def test_ports_out_of_name_order_are_refused_wherever_a_space_is_made(ports):
    # the run index numbers the slots of name-sorted ports (docs/format.md)
    with pytest.raises(SignatureError, match="port names not strictly increasing"):
        Signature(ports, frozenset(), frozenset(p.name for p in ports))
    # a factor's ports are no Signature until their space is made
    d = pct.Distribution.of_factors(1, [probabilistic.Factor(ports, np.array([1, 0, 0, 0]), 1)])
    with pytest.raises(SignatureError, match="port names not strictly increasing"):
        probabilistic._mass(d, np.ones(4, dtype=bool))


def test_assertion_masks_are_read_only():
    u = pct.universe(SIG_A, 1)
    with pytest.raises(ValueError):
        u.mask[0] = False


def test_an_assertion_built_from_a_vector_keeps_it_read_only():
    sig = Signature.of(uncontrolled=(A, X3))
    mask = np.arange(36) % 5 == 0
    e = Assertion(sig, 2, mask)
    with pytest.raises(ValueError):
        mask[0] = False
    assert e.mask is mask and np.shares_memory(e.view, mask)
    assert e.view.shape == traces.space_of(sig, 2).shape


@pytest.mark.parametrize("values", [
    np.zeros(36, dtype=np.uint8), np.zeros((3, 3, 2, 2), dtype=int), np.zeros(35, dtype=bool),
    np.zeros((36, 1), dtype=bool), np.zeros((3, 3, 2), dtype=bool),
    np.zeros((3, 2, 2, 2), dtype=bool), np.zeros((1, 3, 3, 2, 2), dtype=bool),
], ids=lambda v: f"{v.dtype}{list(v.shape)}")
def test_assertion_values_are_the_run_vector_or_a_view_on_the_axes(values):
    sig = Signature.of(uncontrolled=(A, X3))
    with pytest.raises(PctError, match="boolean vector over the run space "
                                       "or a boolean array on its axes"):
        Assertion(sig, 2, values)


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
