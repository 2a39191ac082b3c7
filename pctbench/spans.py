"""In-memory spans around the public functions of the `pct` modules.

The tracer wraps functions by replacing module attributes, so calls made
through the module (``traces.lift(...)``) and calls between functions of the
same module (which look the name up in the module's globals) are both seen.
A name bound earlier with ``from pct.traces import lift`` keeps the unwrapped
function; run.py's ``trace_errors`` catches that case by requiring each
workload's key span to have been reached.  A module or
function that does not exist at the measured commit is listed in ``absent``
and reported with zero calls instead of failing the run.

A span is ``[name, start, end, parent]``.  Spans stay in memory until
``dump`` writes them out.  Self time is a span's duration minus the
durations of its direct children; calls nest strictly on one thread, so the
children of a span never overlap.  Spans are recorded only inside a root
span that the benchmark opens around each operation (``Tracer.root``); a
traced function called outside every root, as by the benchmark's untimed
checks, runs unrecorded.  So every span without a parent is a root the
benchmark opened, and every call counted belongs to a timed operation.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# module -> traced public functions, as named in the pct package
TRACED = {
    "speclang": ("parse", "denote", "build_contract", "build_impl",
                 "build_probcontract", "print_document"),
    "traces": ("lift", "project", "renamed", "slot_values", "product", "union",
               "included_in", "from_step_predicate"),
    "kernels": ("mixed_radix_map", "group_any"),
    "contracts": ("contract", "canonicalize", "compose", "compose_impl",
                  "satisfies", "refines"),
    "probabilistic": ("bernoulli_iid", "product_dist", "marginal", "renamed_dist",
                      "compose_prob", "sat_level", "refine_level"),
    "oracle": ("materialize", "oracle_lift", "oracle_sat_level", "oracle_refine_level",
               "oracle_compose_sets", "oracle_satisfaction_formulas",
               "gen_compose_instance", "gen_refine_instance", "gen_refining_contracts"),
    "cli": ("cmd_sat", "cmd_refine", "cmd_compose"),
}

# root spans are opened by the benchmark itself; time in a root not covered
# by any traced function is reported under this name
UNTRACED = "untraced"

# bytes written by mixed_radix_map: one int64 per index of the source space
BYTES_OUT = "kernels.mixed_radix_map"


def traced_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.spans = []
        self.bytes_out = 0
        self.absent = []
        self._stack = []
        self._originals = []

    def install(self) -> None:
        """Wrap every traced function that exists; record the others as absent."""
        self.absent = []
        for mod_name, fns in TRACED.items():
            try:
                mod = importlib.import_module(f"pct.{mod_name}")
            except ImportError:
                self.absent.extend(f"{mod_name}.{fn}" for fn in fns)
                continue
            for fn_name in fns:
                fn = getattr(mod, fn_name, None)
                if not callable(fn):
                    self.absent.append(f"{mod_name}.{fn_name}")
                    continue
                self._originals.append((mod, fn_name, fn))
                setattr(mod, fn_name, self._wrap(fn, f"{mod_name}.{fn_name}"))

    def uninstall(self) -> None:
        for mod, fn_name, fn in reversed(self._originals):
            setattr(mod, fn_name, fn)
        self._originals = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        count_bytes = name == BYTES_OUT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            if count_bytes:
                self.bytes_out += 8 * int(args[0] if args else kwargs["n"])
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span opened by the benchmark around one operation."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def summary(self) -> dict:
        """Calls and self time per name, module self time per root kind,
        and whether each root's self times sum to at most its wall time."""
        n = len(self.spans)
        covered = [0.0] * n
        root_of = [0] * n
        for i, (_, start, end, parent) in enumerate(self.spans):
            if end is None:
                raise RuntimeError(f"span {self.spans[i][0]} was never closed")
            if parent >= 0:
                covered[parent] += end - start
                root_of[i] = root_of[parent]
            else:
                root_of[i] = i
        funcs = {}
        roots = {}
        root_self_sum = [0.0] * n
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s = (end - start) - covered[i]
            root_self_sum[root_of[i]] += self_s
            if parent < 0:
                kind = roots.setdefault(name, {"count": 0, "wall_s": 0.0, "modules": {}})
                kind["count"] += 1
                kind["wall_s"] += end - start
                module = UNTRACED
            else:
                f = funcs.setdefault(name, {"calls": 0, "self_s": 0.0})
                f["calls"] += 1
                f["self_s"] += self_s
                module = name.split(".", 1)[0]
            mods = roots[self.spans[root_of[i]][0]]["modules"]
            mods[module] = mods.get(module, 0.0) + self_s
        consistent = all(root_self_sum[i] <= (end - start) * (1 + 1e-9) + 1e-9
                         for i, (_, start, end, parent) in enumerate(self.spans)
                         if parent < 0)
        return {"funcs": funcs, "roots": roots, "bytes_out": self.bytes_out,
                "absent": sorted(self.absent), "spans": n, "consistent": consistent}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
