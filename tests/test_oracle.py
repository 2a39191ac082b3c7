"""The oracle: its run decoder against a reference enumeration, its
independence from the engine's mask code, decoding once per suite case and
keeping nothing past it, agreement with the engine at a larger budget, and
the budgets that bound the generated instances."""

import ast
import collections
import inspect
import itertools
import random

import numpy as np
import pytest

from pct import (BOOL, Assertion, PctError, Port, Signature, contracts, oracle, probabilistic,
                 traces)

TRI = (0, 1, 2)
ONE = ("only",)


# --- the decoder ---------------------------------------------------------------------

def entry_tuple(values):
    """A run as the oracle holds it: name-sorted (port, history) pairs."""
    return tuple(sorted(values.items()))


def restricted(run, names):
    return tuple((n, v) for n, v in run if n in names)


def reference_runs(ports, h):
    """Every run over the ports as an entry tuple, keyed by its index:
    ``itertools.product`` over the histories and the little-endian
    mixed-radix formula."""
    ports = sorted(ports, key=lambda p: p.name)
    out = {}
    hist_choices = [list(itertools.product(p.domain, repeat=h)) for p in ports]
    for combo in itertools.product(*hist_choices):
        values = {p.name: hist for p, hist in zip(ports, combo)}
        idx, mult = 0, 1
        for p in ports:
            for t in range(h):
                idx += p.domain.index(values[p.name][t]) * mult
                mult *= len(p.domain)
        out[idx] = entry_tuple(values)
    return out


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
    ref = reference_runs(sig.ports, h)
    assert oracle._Decoder(sig.ports, h).all_runs() == [ref[i] for i in range(len(ref))]
    assert oracle.oracle_universe(sig, h) == frozenset(ref.values())


@pytest.mark.parametrize("sig,h", DECODER_CASES)
def test_materialize_matches_the_reference(sig, h):
    ref = reference_runs(sig.ports, h)
    for mask in masks(sig, h):
        want = frozenset(ref[i] for i in range(len(ref)) if mask[i])
        assert oracle.materialize(Assertion(sig, h, mask)) == want


@pytest.mark.parametrize("sig,h", DECODER_CASES)
def test_lift_extends_every_run_by_every_history(sig, h):
    # "a0" sorts before the base ports, "c0" between them, "z0" after them
    for extra in ([Port("a0", TRI)], [Port("c0"), Port("z0", ONE)], [Port("z0")],
                  [Port("a0"), Port("c0", ONE), Port("e0")]):
        big = Signature.of(controlled=[sig.port(n) for n in sorted(sig.controlled)],
                           uncontrolled=[sig.port(n) for n in sorted(sig.uncontrolled)] + extra)
        if traces.universe_size(big, h) > 2000:
            continue
        universe = reference_runs(big.ports, h).values()
        for mask in masks(sig, h):
            base = oracle.materialize(Assertion(sig, h, mask))
            want = frozenset(r for r in universe if restricted(r, sig.names) in base)
            assert oracle.oracle_lift(base, sig, big, h) == want


def test_decoder_cases_cover_the_shapes_that_matter():
    assert {h for _, h in DECODER_CASES} == {1, 2, 3}
    assert any(not sig.ports for sig, _ in DECODER_CASES)
    domains = {p.domain for sig, _ in DECODER_CASES for p in sig.ports}
    assert {TRI, ONE, BOOL} <= domains


# --- independence from the engine's mask code ----------------------------------------

INDEPENDENT = [oracle.materialize, oracle.oracle_lift, oracle.oracle_universe,
               oracle._Decoder, oracle._histories, oracle._port_entries, oracle._Case,
               oracle._one_case, oracle._universe, oracle._fibers, oracle._weighted_histories]


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


# every oracle function that builds, moves or reads a run set
RUN_SETS = INDEPENDENT + [oracle.oracle_included, oracle.oracle_satisfies,
                          oracle.oracle_satisfaction_formulas, oracle.oracle_compose_sets,
                          oracle.oracle_sat_level, oracle.oracle_refine_level,
                          oracle.oracle_refines]


@pytest.mark.parametrize("obj", RUN_SETS, ids=lambda o: o.__name__)
def test_the_run_sets_hold_entry_tuples_not_runs(obj):
    """A run is its name-sorted (port, history) tuple here; the engine's
    ``Run`` type appears nowhere, not even in an annotation."""
    assert not hasattr(oracle, "Run")
    for node in ast.walk(ast.parse(inspect.getsource(obj))):
        if isinstance(node, ast.Name):
            assert node.id != "Run", "names Run"
        if isinstance(node, ast.Attribute):
            assert node.attr not in ("Run", "entries"), f"reads .{node.attr}"


# what a Distribution computes from its factors; the oracle must not use it
FACTOR_HELPERS = {"weights", "numerators", "denominator", "weight_of", "support"}
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
    for seed in range(40):
        inst = oracle.gen_compose_instance(seed)
        for d in (inst.pc1.dist, inst.pc2.dist,
                  probabilistic.product_dist(inst.pc1.dist, inst.pc2.dist)):
            ref = reference_runs(d.ports, d.horizon)
            want = [(ref[i], w) for i, w in enumerate(d.weights)]
            assert oracle._weighted_histories(d) == want


# --- decoding once per case ----------------------------------------------------------

@pytest.mark.parametrize("suite", ["theorem1", "lemma1"])
def test_a_case_decodes_each_universe_and_each_assertion_once(suite, monkeypatch):
    real_decoder, real_materialize = oracle._Decoder, oracle.materialize
    built = collections.Counter()
    decoded = {}

    def counting_decoder(ports, h):
        built[frozenset(ports), h] += 1
        return real_decoder(ports, h)

    def recording_materialize(e):
        out = real_materialize(e)
        decoded.setdefault(id(e), (e, []))[1].append(out)
        return out

    monkeypatch.setattr(oracle, "_Decoder", counting_decoder)
    monkeypatch.setattr(oracle, "materialize", recording_materialize)
    for seed in range(6):
        built.clear()
        decoded.clear()
        assert oracle.SUITES[suite](seed).oracle_ok
        assert built and max(built.values()) == 1, built
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
    sig = Signature.of(controlled=(Port("d"),), uncontrolled=(Port("b", TRI),))
    e = Assertion(sig, 2, list(masks(sig, 2))[-1])
    first, second = oracle.materialize(e), oracle.materialize(e)
    assert first == second and first is not second
    assert oracle._universe(sig.ports, 2) is not oracle._universe(sig.ports, 2)
    assert oracle._case is None


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
