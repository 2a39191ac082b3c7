"""The oracle: its index tables against a reference enumeration and the
engine's ``run_at``, its bitset conversions against a pure-Python reading
of the bits, its integer weights against the distribution, its
independence from the engine's mask code, making each table once per
suite case and keeping nothing past it, agreement with
the engine at a larger budget, its evaluator of `.pct` expressions against
``denote``, and the budgets that bound the generated instances."""

import ast
import inspect
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from pct import (BOOL, Assertion, PctError, Port, Signature, contracts, oracle, probabilistic,
                 speclang, traces)
from pct.errors import SpecLangError
from conftest import bit_members, weights

TRI = (0, 1, 2)
ONE = ("only",)


# --- the index tables ---------------------------------------------------------------------

def reference_index(ports, h, values):
    """The index over the ports of a run given as port name -> history: the
    little-endian mixed-radix formula, over (port, step), ports in name
    order.  ``values`` may name other ports too."""
    idx, mult = 0, 1
    for p in sorted(ports, key=lambda p: p.name):
        for t in range(h):
            idx += p.domain.index(values[p.name][t]) * mult
            mult *= len(p.domain)
    return idx


def reference_values(ports, h):
    """Every run over the ports as port name -> history, keyed by its index:
    ``itertools.product`` over the histories and the little-endian
    mixed-radix formula."""
    ports = sorted(ports, key=lambda p: p.name)
    out = {}
    hist_choices = [list(itertools.product(p.domain, repeat=h)) for p in ports]
    for combo in itertools.product(*hist_choices):
        values = {p.name: hist for p, hist in zip(ports, combo)}
        out[reference_index(ports, h, values)] = values
    return out


def history_number(port, hist):
    """The number whose digit t, base |D|, is the position of the value at step t."""
    return sum(port.domain.index(v) * len(port.domain) ** t for t, v in enumerate(hist))


def decoder_cases():
    """(signature, horizon): the empty signature, {0,1,2}, boolean and
    one-value domains, horizons 1 to 3."""
    out = [(Signature.of(), h) for h in (1, 2, 3)]
    for h in (1, 2, 3):
        out += [(Signature.of(uncontrolled=(Port("b", TRI),)), h),
                (Signature.of(uncontrolled=(Port("b", ONE),)), h),
                (Signature.of(controlled=(Port("d"),), uncontrolled=(Port("b", TRI),)), h),
                (Signature.of(controlled=(Port("d", ONE),),
                              uncontrolled=(Port("b"), Port("f", TRI))), h)]
    return [(sig, h) for sig, h in out if traces.universe_size(sig, h) <= 729]


DECODER_CASES = decoder_cases()


def masks(sig, h):
    size = traces.universe_size(sig, h)
    rng = random.Random(f"{sig}{h}")
    yield np.zeros(size, dtype=bool)
    yield np.ones(size, dtype=bool)
    yield np.array([rng.random() < 0.5 for _ in range(size)], dtype=bool)


@pytest.mark.parametrize("sig,h", DECODER_CASES)
def test_decoder_gives_the_runs_in_index_order(sig, h):
    """The table onto one port gives that port's history number at every
    index, and the table onto no port has one entry, 0, per run."""
    ref = reference_values(sig.ports, h)
    assert oracle._reindex(sig.ports, (), h).tolist() == [0] * len(ref)
    assert {p.name: oracle._reindex(sig.ports, (p,), h).tolist() for p in sig.ports} == \
        {p.name: [history_number(p, ref[i][p.name]) for i in range(len(ref))] for p in sig.ports}
    assert bit_members(oracle.oracle_universe(sig, h), len(ref)) == frozenset(ref)


@pytest.mark.parametrize("sig,h", DECODER_CASES)
def test_materialize_matches_the_reference(sig, h):
    ref = reference_values(sig.ports, h)
    for mask in masks(sig, h):
        want = frozenset(i for i in range(len(ref)) if mask[i])
        assert bit_members(oracle.materialize(Assertion(sig, h, mask)), len(ref)) == want


def super_signatures(sig, h):
    """(extra ports, ``sig`` with them) for the lift tests: "a0" sorts before
    the base ports, "c0" between them, "z0" after them."""
    for extra in ([Port("a0", TRI)], [Port("c0"), Port("z0", ONE)], [Port("z0")],
                  [Port("a0"), Port("c0", ONE), Port("e0")]):
        big = Signature.of(controlled=[sig.port(n) for n in sorted(sig.controlled)],
                           uncontrolled=[sig.port(n) for n in sorted(sig.uncontrolled)] + extra)
        if traces.universe_size(big, h) <= 2000:
            yield extra, big


@pytest.mark.parametrize("sig,h", DECODER_CASES)
def test_lift_extends_every_run_by_every_history(sig, h):
    size = traces.universe_size(sig, h)
    for _, big in super_signatures(sig, h):
        universe = reference_values(big.ports, h)
        for mask in masks(sig, h):
            base = oracle.materialize(Assertion(sig, h, mask))
            runs = bit_members(base, size)
            want = frozenset(i for i, values in universe.items()
                             if reference_index(sig.ports, h, values) in runs)
            assert bit_members(oracle.oracle_lift(base, sig, big, h), len(universe)) == want


@pytest.mark.parametrize("sig,h", DECODER_CASES)
def test_reindex_encodes_by_the_documented_formula(sig, h):
    """Every index over one port list goes to the index, by the reference
    formula, of the run over the other list with the same values on their
    common ports and each other port's first value at every step: onto a
    super-signature, from its extra ports, and back."""
    pairs = [(sig.ports, sig.ports)]
    for extra, big in super_signatures(sig, h):
        pairs += [(sig.ports, big.ports), (extra, big.ports), (big.ports, sig.ports)]
    assert len(pairs) > 1
    for ports, onto in pairs:
        first = {p.name: (p.domain[0],) * h for p in onto}
        ref = reference_values(ports, h)
        want = [reference_index(onto, h, {**first, **ref[i]}) for i in range(len(ref))]
        assert oracle._reindex(ports, onto, h).tolist() == want


@pytest.mark.parametrize("sig,h", DECODER_CASES)
def test_the_histories_of_a_run_are_the_engines_run_at_its_index(sig, h):
    """The oracle's history numbers, each the table onto one port, turned
    into histories through its own tables, against the engine's decoder of
    the same index."""
    tables = [oracle._histories(p.domain, h) for p in sig.ports]
    numbers = {p.name: oracle._reindex(sig.ports, (p,), h) for p in sig.ports}
    size = oracle._reindex(sig.ports, (), h).size
    assert size == traces.universe_size(sig, h)
    for i in range(size):
        want = traces.run_at(sig, h, i)
        assert tuple((p.name, table[numbers[p.name][i]])
                     for p, table in zip(sig.ports, tables)) == want


# (signature, horizon) with 1, 3, 9, 27, 243 and 4096 runs: sizes that are and
# are not multiples of 8, from one run to the default budget's space
CONVERSION_CASES = [(Signature.of(uncontrolled=(Port("u", ONE),)), 1)] + \
    [(Signature.of(uncontrolled=(Port("x", TRI),)), h) for h in (1, 2, 3, 5)] + \
    [(Signature.of(uncontrolled=(Port("b"),)), 12)]


@pytest.mark.parametrize("sig,h", CONVERSION_CASES)
def test_the_members_of_a_materialized_mask_are_its_true_indices(sig, h):
    """Unpacking a materialized mask gives the mask back, a bool array of one
    entry per run, whose true indices are the set's members."""
    size = traces.universe_size(sig, h)
    first_and_last = np.zeros(size, dtype=bool)
    first_and_last[[0, -1]] = True
    for mask in (*masks(sig, h), first_and_last):
        bits = oracle.materialize(Assertion(sig, h, mask))
        want = np.flatnonzero(mask).tolist()
        members = oracle._members(bits, size)
        assert members.dtype == bool and members.tolist() == mask.tolist()
        assert np.flatnonzero(members).tolist() == want
        assert bit_members(bits, size) == frozenset(want)
    assert oracle.materialize(Assertion(sig, h, np.zeros(size, dtype=bool))) == 0
    assert oracle.materialize(Assertion(sig, h, np.ones(size, dtype=bool))) == \
        oracle.oracle_universe(sig, h)


@pytest.mark.parametrize("sig,h", CONVERSION_CASES + DECODER_CASES)
def test_the_universe_holds_one_bit_per_run(sig, h):
    universe = oracle.oracle_universe(sig, h)
    assert universe.bit_count() == universe.bit_length() == traces.universe_size(sig, h)


def test_members_reads_no_bit_past_the_last_run():
    """The bits of the last byte past the last run are not runs, whatever
    they hold: the unpacked array has one entry per run and only run 0 set."""
    for size in (1, 3, 9, 27, 243):
        pad = (1 << (size + 7) // 8 * 8) - (1 << size)
        assert oracle._members(pad | 1, size).tolist() == [True] + [False] * (size - 1)


def test_composed_run_sets_stay_inside_their_runs():
    """The composed sets take complements: none is negative or holds a bit
    at or above the size of the composed signature's runs."""
    for seed in range(20):
        inst = oracle.gen_compose_instance(seed)
        a, g, sig = oracle.oracle_compose_sets(inst.pc1.base, inst.pc2.base)
        size = traces.universe_size(sig, inst.pc1.horizon)
        for rs in (a, g):
            bit_members(rs, size)     # asserts 0 <= rs < 1 << size


def test_decoder_cases_cover_the_shapes_that_matter():
    assert {h for _, h in DECODER_CASES} == {1, 2, 3}
    assert any(not sig.ports for sig, _ in DECODER_CASES)
    domains = {p.domain for sig, _ in DECODER_CASES for p in sig.ports}
    assert {TRI, ONE, BOOL} <= domains


# --- independence from the engine's mask code ----------------------------------------

INDEPENDENT = [oracle.materialize, oracle.oracle_lift, oracle.oracle_universe,
               oracle._histories, oracle._count, oracle._Case, oracle._one_case,
               oracle._reindex, oracle._bits, oracle._members, oracle._restricted,
               oracle._weighted_histories, oracle.oracle_denote, oracle._holds_at]


@pytest.mark.parametrize("obj", INDEPENDENT, ids=lambda o: o.__name__)
def test_the_run_set_semantics_uses_nothing_of_traces_but_its_types(obj):
    tree = ast.parse(inspect.getsource(obj))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert node.value.id != "traces", f"reads traces.{node.attr}"
        if isinstance(node, ast.Name):
            used = getattr(oracle, node.id, None)
            from_traces = getattr(used, "__module__", None) == traces.__name__
            assert not from_traces or isinstance(used, type), f"calls traces.{node.id}"


@pytest.mark.parametrize("obj", INDEPENDENT, ids=lambda o: o.__name__)
def test_the_run_set_semantics_reads_only_the_syntax_tree_of_speclang(obj):
    """Of ``speclang`` the oracle names only the expression node classes: not
    ``denote``, the compiler or the step functions it makes."""
    nodes = (speclang.Expr, speclang.Operand)
    for node in ast.walk(ast.parse(inspect.getsource(obj))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "speclang":
            used = getattr(speclang, node.attr)
            assert isinstance(used, type) and issubclass(used, nodes), f"reads speclang.{node.attr}"
        if isinstance(node, ast.Name):
            used = getattr(oracle, node.id, None)
            assert getattr(used, "__module__", None) != speclang.__name__ or \
                (isinstance(used, type) and issubclass(used, nodes)), f"calls {node.id}"


# every oracle function that builds, moves or reads a run set
RUN_SETS = INDEPENDENT + [oracle.oracle_included, oracle.oracle_satisfies,
                          oracle.oracle_satisfaction_formulas, oracle.oracle_compose_sets,
                          oracle.oracle_sat_level, oracle.oracle_refine_level,
                          oracle.oracle_refines]


@pytest.mark.parametrize("obj", RUN_SETS, ids=lambda o: o.__name__)
def test_the_run_sets_hold_entry_tuples_not_runs(obj):
    """A run is its run index here, not the engine's entry tuple, and a run
    set an int whose bit i marks run index i: no name ``Run`` and no
    ``.entries`` read appears, not even in an annotation."""
    assert not hasattr(oracle, "Run")
    for node in ast.walk(ast.parse(inspect.getsource(obj))):
        if isinstance(node, ast.Name):
            assert node.id != "Run", "names Run"
        if isinstance(node, ast.Attribute):
            assert node.attr not in ("Run", "entries"), f"reads .{node.attr}"


# what a Distribution computes from its factors; the oracle must not use it
FACTOR_HELPERS = {"weights", "numerators", "denominator"}
WEIGHTS = [oracle._weighted_histories, oracle.oracle_sat_level, oracle.oracle_refine_level]


@pytest.mark.parametrize("obj", WEIGHTS, ids=lambda o: o.__name__)
def test_the_oracle_weighs_histories_with_a_product_of_its_own(obj):
    tree = ast.parse(inspect.getsource(obj))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in FACTOR_HELPERS, f"reads .{node.attr}"
            if isinstance(node.value, ast.Name):
                assert node.value.id != "probabilistic", f"reads probabilistic.{node.attr}"
        if isinstance(node, ast.Name):
            used = getattr(oracle, node.id, None)
            from_prob = getattr(used, "__module__", None) == probabilistic.__name__
            assert not from_prob or isinstance(used, type), f"calls probabilistic.{node.id}"


def test_weighted_histories_match_the_distribution():
    """The integer numerators in index order over their denominator are the
    distribution's weights."""
    for seed in range(40):
        inst = oracle.gen_compose_instance(seed)
        for d in (inst.pc1.dist, inst.pc2.dist,
                  probabilistic.product_dist(inst.pc1.dist, inst.pc2.dist)):
            want = weights(d)
            assert len(want) == len(reference_values(d.ports, d.horizon))
            nums, den = oracle._weighted_histories(d)
            assert all(type(n) is int for n in nums) and type(den) is int
            assert [Fraction(n, den) for n in nums] == want


# --- one table per case ----------------------------------------------------------

@pytest.mark.parametrize("suite", ["theorem1", "lemma1"])
def test_a_case_decodes_each_universe_and_each_assertion_once(suite, monkeypatch):
    """Within a case every table key and every assertion asked for again
    gets the array or run set made the first time."""
    real_reindex, real_materialize = oracle._reindex, oracle.materialize
    built = {}
    decoded = {}

    def recording_reindex(ports, onto, h):
        out = real_reindex(ports, onto, h)
        built.setdefault((tuple(ports), tuple(onto), h), []).append(out)
        return out

    def recording_materialize(e):
        out = real_materialize(e)
        decoded.setdefault(id(e), (e, []))[1].append(out)
        return out

    monkeypatch.setattr(oracle, "_reindex", recording_reindex)
    monkeypatch.setattr(oracle, "materialize", recording_materialize)
    for seed in range(6):
        built.clear()
        decoded.clear()
        assert oracle.SUITES[suite](seed).oracle_ok
        # lemma1 lifts nothing and weighs nothing, so it makes no table
        assert bool(built) == (suite == "theorem1"), built
        for outs in built.values():
            assert all(out is outs[0] for out in outs)
        # theorem1 lifts both sets of a side onto the composed signature
        assert any(len(outs) > 1 for outs in built.values()) == (suite == "theorem1")
        # every assertion asked for more than once got the run set made the first time
        assert any(len(outs) > 1 for _, outs in decoded.values())
        for _, outs in decoded.values():
            assert all(out is outs[0] for out in outs)


# an engine function each suite calls after the oracle has decoded something
LATE_ENGINE_CALL = {"theorem1": (probabilistic, "compose_prob"),
                    "theorem1_tight": (probabilistic, "compose_prob"),
                    "theorem2": (probabilistic, "sat_level"),
                    "lemma1": (contracts, "satisfies"),
                    "lemma2_sat": (contracts, "satisfies"),
                    "lemma2_compose": (contracts, "refines")}


@pytest.mark.parametrize("suite", sorted(oracle.SUITES))
def test_nothing_decoded_outlives_its_case(suite, monkeypatch):
    seen = []     # (case, assertions it had decoded) at each materialize call

    def recording_materialize(e, real=oracle.materialize):
        seen.append((oracle._case, len(oracle._case.decoded)))
        return real(e)

    monkeypatch.setattr(oracle, "materialize", recording_materialize)
    runs = []
    for _ in range(2):     # the same seed twice: the second run starts from nothing
        seen.clear()
        oracle.SUITES[suite](2)
        assert oracle._case is None
        case = seen[0][0]
        assert seen[0][1] == 0 and all(c is case for c, _ in seen)
        runs.append(case)
    assert runs[0] is not runs[1]


@pytest.mark.parametrize("suite", sorted(oracle.SUITES))
def test_a_case_that_raises_keeps_nothing(suite, monkeypatch):
    module, name = LATE_ENGINE_CALL[suite]
    real = getattr(module, name)
    memo_sizes = []

    def failing(*args, **kwargs):
        if oracle._case is not None and oracle._case.decoded:
            memo_sizes.append(len(oracle._case.decoded))
            raise RuntimeError("engine failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)
    with pytest.raises(RuntimeError, match="engine failure"):
        oracle.SUITES[suite](2)     # theorem2 seed 2 is not degenerate
    assert memo_sizes and memo_sizes[0] > 0
    assert oracle._case is None


def test_outside_a_case_every_call_decodes_afresh():
    """With no case open, each run set and each table is made anew."""
    sig = Signature.of(controlled=(Port("d"),), uncontrolled=(Port("b", TRI),))
    e = Assertion(sig, 2, list(masks(sig, 2))[-1])
    first, second = oracle.materialize(e), oracle.materialize(e)
    assert first == second and first is not second
    onto = (sig.port("b"),)
    first, second = oracle._reindex(sig.ports, onto, 2), oracle._reindex(sig.ports, onto, 2)
    assert first.tolist() == second.tolist() and first is not second
    assert oracle._case is None


# --- generated masks ------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_a_generated_mask_draws_the_stream_of_a_comprehension(seed):
    """``_rand_mask`` gives the mask of one ``rng.random() < keep`` per run
    and leaves the generator where that comprehension leaves it."""
    for size in (1, 7, 64, 513, 4096, 0):
        keep = random.Random(f"keep:{seed}:{size}").random()
        rng, ref = random.Random(seed), random.Random(seed)
        got = oracle._rand_mask(rng, size, keep)
        want = np.array([ref.random() < keep for _ in range(size)], dtype=bool)
        assert got.dtype == bool and got.shape == (size,)
        assert got.tolist() == want.tolist()
        assert rng.random() == ref.random()


# --- agreement at a larger budget -----------------------------------------------------

LARGE = oracle.Budget.parse("ports=4,space=65536")


@pytest.mark.parametrize("suite", sorted(oracle.SUITES))
def test_engine_and_oracle_agree_at_a_larger_budget(suite):
    for case in oracle.run_suite(suite, range(3), LARGE):
        assert case.oracle_ok, case
        # theorem2 checks a bound that has counterexamples; it only has to agree
        assert case.ok or suite == "theorem2", case


# --- budgets -------------------------------------------------------------------------


def _instance_signatures(seed, budget):
    """(signature, horizon) of every object one seed's instances build."""
    out = []
    for disjoint in (False, True):
        inst = oracle.gen_compose_instance(seed, budget, disjoint)
        s1, s2 = inst.pc1.base.signature, inst.pc2.base.signature
        out += [(s, inst.pc1.horizon) for s in (s1, s2, traces.merge_signature_controlled(s1, s2))]
    inst = oracle.gen_refine_instance(seed, budget)
    out += [(pc.base.signature, pc.horizon) for pc in (inst.pc1, inst.pc2)]
    for tag in ("l", "r"):
        c1, c2, h = oracle.gen_refining_contracts(seed, budget, tag, h=1)
        out += [(c1.signature, h), (c2.signature, h)]
    return out


@pytest.mark.parametrize("budget", [
    oracle.Budget(max_domain=1),
    oracle.Budget(max_ports_per_side=2, max_domain=2, max_space=64),
    oracle.Budget(max_ports_per_side=1, max_space=324),
    oracle.Budget(max_space=2187),
])
def test_generated_instances_fit_the_budget(budget):
    for seed in range(25):
        for sig, h in _instance_signatures(seed, budget):
            assert traces.universe_size(sig, h) <= budget.max_space, seed
            assert all(len(p.domain) <= budget.max_domain for p in sig.ports), seed


def test_dom_1_gives_one_value_domains():
    budget = oracle.Budget(max_domain=1)
    ports = {p for seed in range(25) for sig, _ in _instance_signatures(seed, budget)
             for p in sig.ports}
    assert {len(p.domain) for p in ports} == {1}
    assert any(p.name.startswith("x") for p in ports)   # the refining pairs' extension


@pytest.mark.parametrize("kwargs", [{"max_space": 2}, {"max_space": 2186},
                                    {"max_ports_per_side": 5}])
def test_a_space_no_instance_fits_is_rejected(kwargs):
    with pytest.raises(PctError, match="space"):
        oracle.Budget(**kwargs)


# --- expressions, evaluated one run and one step at a time ------------------------------

def test_denote_matches_the_oracle_on_every_generated_declaration(docgen):
    compared = 0
    for seed in range(200):
        doc = speclang.parse(docgen(seed).document())
        clauses = [(c.assume, c) for c in doc.contracts.values()]
        clauses += [(c.guarantee, c) for c in doc.contracts.values()]
        clauses += [(m.behavior, m) for m in doc.impls.values()]
        # one decoding scope per document: its declarations share universes
        with oracle._one_case():
            for e, decl in clauses:
                sig = speclang.signature_of(doc, decl)
                try:
                    built = speclang.denote(e, sig, doc.horizon, doc.defs)
                except SpecLangError:
                    continue
                assert oracle.materialize(built) == \
                    oracle.oracle_denote(e, sig, doc.horizon, doc.defs), (seed, e)
                compared += 1
    assert compared > 500


@pytest.mark.parametrize("text,want", [
    # a bare step predicate holds at every step; "not always" at some step fails
    ("a", {(True, True)}),
    ("not a", {(False, False)}),
    ("not always(a)", {(False, False), (False, True), (True, False)}),
    ("eventually(a) and at(0, not a)", {(False, True)}),
    ("a == prev(a, init=true)", {(True, True)}),
    ("prev(a, init=false)", set()),
    ("m == run implies a", None),
])
def test_oracle_denote_follows_the_meaning_paragraph(text, want):
    a, m = Port("a"), Port("m", ("idle", "run"))
    sig = Signature.of(uncontrolled=(a, m))
    got = oracle.oracle_denote(speclang.parse_expr(text), sig, 2)
    values = reference_values(sig.ports, 2)
    runs = [values[r] for r in bit_members(got, len(values))]
    if want is not None:
        assert {r["a"] for r in runs} == want
        assert all(len({r["m"] for r in runs if r["a"] == hist}) == 4 for hist in want)
    else:
        # where m is run at a step, a holds at that step
        assert all(r["a"][t] for r in runs for t in range(2) if r["m"][t] == "run")
        assert len(runs) == 9


@pytest.mark.parametrize("text,want", [
    ("x == 2", {(2, 2)}),
    ("eventually(x == 0) and at(0, x == prev(x, init=2))", {(2, 0)}),
    ("x == prev(x, init=0)", {(0, 0)}),
    ("prev(x, init=2) == 1", set()),
    ("at(1, prev(x, init=2) == 1)", {(1, 0), (1, 1), (1, 2)}),
    ("x == prev(x, init=1) or x == 0", {(0, 0), (1, 0), (1, 1)}),
    ("u == only", set(itertools.product(TRI, repeat=2))),
    ("not (u == only) or x == 1", {(1, 1)}),
])
def test_oracle_denote_reads_the_values_of_non_boolean_ports(text, want):
    """A {0, 1, 2} port and a one-value port: the numbers of a run become
    values before a comparison reads them."""
    x, u = Port("x", TRI), Port("u", ONE)
    sig = Signature.of(uncontrolled=(u, x))
    e = speclang.parse_expr(text)
    got = oracle.oracle_denote(e, sig, 2)
    values = reference_values(sig.ports, 2)
    runs = bit_members(got, len(values))
    assert {values[r]["x"] for r in runs} == want
    assert all(values[r]["u"] == ("only", "only") for r in runs)
    assert got == oracle.materialize(speclang.denote(e, sig, 2, {}))
