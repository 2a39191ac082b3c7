"""Seeded `.pct` documents for the query workloads.

One generator, two families and two sizes per family.  Every document of a
family and size has the same shape: the same ports, the same number of
declarations and clauses, and the same kind of atom at each position.  The
seed picks only which ports fill each position, the negations, the boolean
connectives, the temporal operators and the Bernoulli parameters, so the work
a query does is nearly the same for every seed and the run-to-run spread of
the timings stays small.

Each document declares:

* ``spec``/``spec_rel`` over every port (``pct sat --impl m``),
* ``weak``/``weak_rel`` over a sub-signature with all probabilistic ports but
  the last (``pct refine --from weak_rel --to spec_rel``); its assumption
  starts with ``never(f0)``, so every history in which f0 fires pins its
  guarantee and the conditioning probability is positive,
* ``stage1_rel``/``stage2_rel``, two composable contracts that split the
  probabilistic ports between them (``pct compose``).

Pure stdlib, so run.py can write the inputs without importing the
program.
"""

from __future__ import annotations

import random
from fractions import Fraction

# (horizon, probabilistic ports, environment ports, controlled ports).
# Run space is 2 ** (horizon * all ports); |Omega| is 2 ** (horizon * prob).
SHAPES = {
    ("large", "full"): (3, 3, 2, 2),    # 2^21 runs, |Omega| = 2^9
    ("large", "small"): (2, 2, 1, 2),   # 2^10 runs, small enough for the oracle
    ("wide", "full"): (3, 5, 0, 1),     # 2^18 runs, |Omega| = 2^15
    ("wide", "small"): (2, 3, 0, 1),    # 2^8 runs
}

PROBS = (Fraction(1, 10), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5))


class _Gen:
    def __init__(self, rng: random.Random, inputs, outputs):
        self.rng = rng
        self.inputs = list(inputs)
        self.outputs = list(outputs)

    def port(self, pool):
        return self.rng.choice(pool)

    def lit(self, pool):
        p = self.port(pool)
        return p if self.rng.random() < 0.6 else f"not {p}"

    def op(self):
        return self.rng.choice(("and", "or", "implies"))

    def clause(self, left, right):
        return f"({self.lit(left)} {self.op()} {self.lit(right)})"

    def temporal(self, body):
        return f"{self.rng.choice(('always', 'never', 'eventually'))}({body})"

    def prev_atom(self, pool):
        p = self.port(pool)
        init = self.rng.choice(("true", "false"))
        return f"prev({p}, init={init})"

    def eq_atom(self, pool_a, pool_b):
        return f"{self.port(pool_a)} == {self.port(pool_b)}"


def _contract(name, inputs, outputs, assume, guarantee):
    lines = [f"contract {name} {{"]
    if inputs:
        lines.append(f"  input {', '.join(inputs)};")
    if outputs:
        lines.append(f"  output {', '.join(outputs)};")
    lines += [f"  assume {assume};", f"  guarantee {guarantee};", "}"]
    return "\n".join(lines)


def _probcontract(name, contract, ports):
    return f"probcontract {name} {{\n  contract {contract};\n  ports {', '.join(ports)};\n}}"


def generate(family: str, size: str, seed: int) -> str:
    """The document of one family, size and seed, as `.pct` text."""
    h, n_prob, n_env, n_ctrl = SHAPES[(family, size)]
    rng = random.Random(f"pctbench:{family}:{size}:{seed}")
    F = [f"f{i}" for i in range(n_prob)]
    U = [f"u{i}" for i in range(n_env)]
    X = [f"x{i}" for i in range(n_ctrl)]
    inputs = F + U
    g = _Gen(rng, inputs, X)

    out = [f"# pctbench {family}/{size} seed {seed}", f"horizon {h};", ""]
    for f in F:
        out.append(f"port {f} : bool uncontrolled prob bernoulli({rng.choice(PROBS)});")
    for u in U:
        out.append(f"port {u} : bool uncontrolled;")
    for x in X:
        out.append(f"port {x} : bool controlled;")
    out.append("")

    # step predicates shared by several declarations
    out.append(f"def env_ok = {g.clause(inputs, inputs)} or {g.prev_atom(inputs)};")
    for i, x in enumerate(X):
        out.append(f"def cmd{i} = {g.clause(inputs, inputs)} and not ({g.eq_atom(inputs, inputs)});")
    out.append("")

    # spec: every port, default roles
    assume = f"{g.temporal(g.clause(F, inputs))} and always(env_ok)"
    guarantee = " and ".join(
        [g.temporal(g.clause(X, inputs)) for _ in range(3)]
        + [f"always({X[0]} implies {g.prev_atom(inputs + X)})"])
    out.append(f"contract spec {{\n  assume {assume};\n  guarantee {guarantee};\n}}")

    # m: x0 follows cmd0 exactly; further outputs may fire only on their command
    behavior = [f"always(({X[0]} implies cmd0) and (cmd0 implies {X[0]}))"]
    behavior += [f"always({x} implies cmd{i})" for i, x in enumerate(X) if i > 0]
    out.append(f"impl m {{\n  behavior {' and '.join(behavior)};\n}}")
    out.append(_probcontract("spec_rel", "spec", F))
    out.append("")

    # weak: drops the last probabilistic and the last environment port
    weak_in = F[:-1] + U[:-1]
    weak_assume = f"never(f0) and {g.temporal(g.clause(weak_in, weak_in))}"
    weak_guarantee = " and ".join(g.temporal(g.clause(X, weak_in)) for _ in range(2))
    out.append(_contract("weak", weak_in, X, weak_assume, weak_guarantee))
    out.append(_probcontract("weak_rel", "weak", F[:-1]))
    out.append("")

    # two stages: stage1 controls x0, stage2 reads x0 and controls the rest
    half = (n_prob + 1) // 2
    s1_in = F[:half] + U[:1]
    s2_in = F[half:] + X[:1]
    s1_assume = g.temporal(g.clause(s1_in, s1_in))
    s1_guarantee = f"{g.temporal(g.clause(X[:1], s1_in))} and always({g.clause(X[:1], s1_in)})"
    s2_pool = X[1:] or X[:1]
    s2_assume = g.temporal(g.clause(s2_in, s2_in))
    s2_guarantee = f"{g.temporal(g.clause(s2_pool, s2_in))} and always({g.clause(s2_pool, s2_in)})"
    out.append(_contract("stage1", s1_in, X[:1], s1_assume, s1_guarantee))
    out.append(_contract("stage2", s2_in, X[1:], s2_assume, s2_guarantee))
    out.append(_probcontract("stage1_rel", "stage1", F[:half]))
    out.append(_probcontract("stage2_rel", "stage2", F[half:]))
    return "\n".join(out) + "\n"


def queries(path: str) -> dict:
    """CLI argument vectors of the three query kinds on one document."""
    return {
        "sat": ["sat", path, "--impl", "m", "--contract", "spec_rel"],
        "refine": ["refine", path, "--from", "weak_rel", "--to", "spec_rel"],
        "compose": ["compose", path, "--contracts", "stage1_rel,stage2_rel", "--as", "pipe"],
    }
