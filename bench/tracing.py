"""Spans and counters recorded around the package's public functions.

`Tracer.install` replaces every public module-level function of the
traced layers with a wrapper that records a span (id, parent id, name,
start, end) and, for a few functions, exact counters.  The wrapper is
bound under every name that refers to the original anywhere in the
package, so calls through `from .x import f` imports are caught too.
Nothing in the package changes on disk; the benchmark installs the
wrappers in its own process, and in CLI children through `launch.py`.

`linalg.frac`, the per-entry coercion, is left unwrapped: it runs once
per matrix entry and its spans would outweigh the work they describe.
Class methods are not wrapped either; their time counts toward the
function that called them.

Spans stay in memory.  After each operation `finish_op` folds them into
per-function call counts and self times (a span's duration minus the
part of it that its children cover) and keeps the raw spans, up to a
cap, for writing out at the end.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import os
import threading
import time
from fractions import Fraction

LAYERS = ("linalg", "monad", "sheaf", "adhm", "gamma", "deformation", "dynkin", "quiver",
          "io", "cli")
UNWRAPPED = {"linalg.frac"}
PRIVATE_WRAPPED = {"cli._check_one_rep"}     # per-file unit of check-rep's thread pool
HOOK = "bench.hook"                          # time spent in the counters themselves
KEPT_SPANS = 200_000

# counters that must repeat exactly between two traced runs of one seed
EXACT_COUNTERS = ("linalg.mat_mul.scalar_mults", "linalg.mat_mul.zero_products",
                  "linalg.max_entry_bits", "monad.compositions", "sheaf.spectra",
                  "sheaf.nodes", "io.bytes_read")


def zero_operand_products(a: list, b: list) -> tuple[int, int]:
    """(scalar products with a zero factor, all scalar products) in the product a @ b."""
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    zero = 0
    for k in range(inner):
        nz_a = sum(1 for row in a if row[k] != 0)
        nz_b = sum(1 for x in b[k] if x != 0)
        zero += rows * cols - nz_a * nz_b
    return zero, rows * inner * cols


def entry_bits(obj) -> int:
    """Largest numerator or denominator bit length of any Fraction inside obj."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, (list, tuple)):
        return max((entry_bits(x) for x in obj), default=0)
    if isinstance(obj, dict):
        return max((max(entry_bits(k), entry_bits(v)) for k, v in obj.items()), default=0)
    return 0


def self_times(spans: list) -> dict:
    """Span id -> self time: duration minus the union of its children's intervals."""
    children: dict = {}
    for sid, parent, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def has_ancestor(sid, name: str, by_id: dict) -> bool:
    parent = by_id[sid][1]
    while parent is not None:
        if by_id[parent][2] == name:
            return True
        parent = by_id[parent][1]
    return False


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []
        self._lock = threading.Lock()
        self._installed: list = []        # (module, attribute name, original)
        self.spans: list = []             # spans of the operation in progress
        self.kept: list = []              # raw spans kept for writing out
        self.calls: dict = {}
        self.self_s: dict = {}
        self.counters = {name: 0 for name in EXACT_COUNTERS}
        self.overlap = [0.0, 0.0]         # check-rep: sum of per-file spans, pool wall time
        self.ops = 0
        self.child_import_s = 0.0         # CLI children: import of adequiver.cli
        self.child_startup_s = 0.0        # ... and wall time outside cli.main

    # -- recording ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        # a worker thread's first span hangs under whatever the main thread is running
        return self._main_stack[-1] if self._main_stack else None

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            if hook is not None:
                with tracer._lock:
                    hook(args, result)
                tracer.spans.append((next(tracer._ids), parent, HOOK, end, time.perf_counter()))
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self) -> dict:
        c = self.counters

        def mat_mul(args, result):
            zero, total = zero_operand_products(args[0], args[1]) if args[0] else (0, 0)
            c["linalg.mat_mul.zero_products"] += zero
            c["linalg.mat_mul.scalar_mults"] += total
            c["linalg.max_entry_bits"] = max(c["linalg.max_entry_bits"], entry_bits(result))

        def linalg_result(args, result):
            c["linalg.max_entry_bits"] = max(c["linalg.max_entry_bits"], entry_bits(result))

        def quadruple_to_quintuple(args, result):
            c["sheaf.nodes"] += len(args[0].dims)

        def read_json(args, result):
            c["io.bytes_read"] += os.path.getsize(args[0])

        hooks = {name: linalg_result for name in (
            "linalg.rref", "linalg.char_poly_coeffs", "linalg.rational_eigenvalues",
            "linalg.jordan_form", "linalg.inverse", "linalg.nullspace", "linalg.det",
            "linalg.solve")}
        hooks.update({"linalg.mat_mul": mat_mul,
                      "sheaf.quadruple_to_quintuple": quadruple_to_quintuple,
                      "io.read_json": read_json})
        return hooks

    # -- installing -----------------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"adequiver.{layer}")
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or name in UNWRAPPED
                        or (attr.startswith("_") and name not in PRIVATE_WRAPPED)):
                    continue
                wrappers[id(fn)] = (fn, self.wrap(name, fn, hooks.get(name)))
        import adequiver
        modules = [adequiver] + [importlib.import_module(f"adequiver.{m}") for m in LAYERS]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._installed.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in self._installed:
            setattr(mod, attr, original)
        self._installed = []

    # -- folding --------------------------------------------------------------------

    def finish_op(self) -> None:
        """Fold the spans of the operation just run into the totals."""
        spans, self.spans = self.spans, []
        self.ops += 1
        own = self_times(spans)
        by_id = {s[0]: s for s in spans}
        pools: dict = {}
        for sid, parent, name, start, end in spans:
            if name == HOOK:
                continue
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own[sid]
            if name == "monad.compose_and_check":
                self.counters["monad.compositions"] += 1
            elif name == "linalg.rational_eigenvalues" and has_ancestor(
                    sid, "sheaf.quadruple_to_quintuple", by_id):
                self.counters["sheaf.spectra"] += 1
            elif name == "cli._check_one_rep":
                pools.setdefault(parent, []).append((start, end))
        for files in pools.values():
            self.overlap[0] += sum(end - start for start, end in files)
            self.overlap[1] += max(e for _, e in files) - min(s for s, _ in files)
        room = KEPT_SPANS - len(self.kept)
        if room > 0:
            self.kept.extend(spans[:room])

    def merge(self, other: dict) -> None:
        """Add the folded totals of a child process (see `summary`)."""
        self.ops += other["ops"]
        for name, n in other["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, s in other["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + s
        for name, v in other["counters"].items():
            if name == "linalg.max_entry_bits":
                self.counters[name] = max(self.counters[name], v)
            else:
                self.counters[name] += v
        self.child_import_s += other["import_s"]
        self.overlap[0] += other["overlap"][0]
        self.overlap[1] += other["overlap"][1]
        room = KEPT_SPANS - len(self.kept)
        if room > 0:
            self.kept.extend(tuple(s) for s in other["spans"][:room])

    def summary(self) -> dict:
        return {"ops": self.ops, "calls": self.calls, "self_s": self.self_s,
                "counters": self.counters, "overlap": self.overlap, "spans": self.kept}

    def exact_counts(self) -> dict:
        """Everything that must repeat exactly: call counts and the exact counters."""
        return {"calls": dict(sorted(self.calls.items())), **self.counters}
