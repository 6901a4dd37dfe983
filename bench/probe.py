"""Instrumentation for the traced pass, from outside the tci package.

`Probe` swaps module attributes of tci for wrappers while it is installed
and puts the originals back on exit.  The cli/parser/interp boundaries
get spans (name, start, end, parent id, op id); the hot per-step calls get
aggregated counters.  An attribute that a refactor removed is skipped and
its counters read 0.

A span's self time is its duration minus its child spans and the hot
calls made directly inside it, so the layer times of one op add up to
the op's span exactly (integer nanoseconds).  Wrapper overhead lands in
the self time of the span that was open; `bench.span_overhead_x` reports
its size.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns

# (module, attribute) -> span name, at the layer boundaries the CLI crosses.
SPANS = {
    ("cli", "parse_program"): "parse_program",
    ("parser", "tokenize"): "tokenize",
    ("cli", "run_main"): "run_main",
    ("cli", "render"): "render",
    ("cli", "render_trace"): "render_trace",
}

# (module, attribute) -> counter name, for calls the evaluator makes per step.
HOT = {
    ("interp", "substitute"): "substitute",
    ("interp", "pretty_print"): "pretty_print",
    ("interp", "pretty_expr"): "pretty_print",
    ("interp", "merge"): "merge",
    ("interp", "matches"): "matches",
    ("interp", "throw"): "throw",
}

STORE_METHODS = ("checkpoint", "commit", "rollback", "bind", "lookup", "read_input", "emit_output")
# Store methods whose effect on the undo log is measured.
_UNDO_WATCHED = frozenset({"rollback", "bind", "read_input", "emit_output"})

# span name -> the layer its self time is charged to
SPAN_LAYER = {
    "op": "cli",
    "parse_program": "parser.parse",
    "tokenize": "parser.tokenize",
    "run_main": "interp",
    "render": "failure",
    "render_trace": "trace.render",
}
# counter name -> the layer its time is charged to
HOT_LAYER = {
    "substitute": "syntax.substitute",
    "pretty_print": "syntax.pretty_print",
    "merge": "failure",
    "matches": "failure",
    "throw": "failure",
    "store": "store",
}

_OP, _ID, _PARENT, _NAME, _START, _END, _HOT = range(7)


class Probe:
    """Counters and spans of one traced pass.  Use as a context manager around the pass."""

    def __init__(self, tci_modules: dict):
        self.modules = tci_modules  # short name -> module, e.g. "cli" -> tci.cli
        self.spans: list[list] = []
        self.calls: Counter = Counter()  # counter name -> calls
        self.hot_ns: Counter = Counter()  # counter name -> ns
        self.counts: Counter = Counter()  # tokens, steps, merge_paths, writes, undone, undo_peak, ...
        self.ops = 0
        self._stack: list[list] = []
        self._in_hot = False
        self._undo_peak = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------------

    def __enter__(self) -> Probe:
        for (mod, attr), name in SPANS.items():
            self._swap(self.modules[mod], attr, lambda fn, name=name: self._span(fn, name))
        for (mod, attr), name in HOT.items():
            self._swap(self.modules[mod], attr, lambda fn, name=name: self._hot(fn, name))
        store_cls = getattr(self.modules["store"], "Store", None)
        if store_cls is not None:
            for method in STORE_METHODS:
                self._swap(store_cls, method, lambda fn, method=method: self._store(fn, method))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(original):
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- ops and spans --------------------------------------------------------

    def op(self, fn):
        """`fn` wrapped as one op: a root span, with the undo-log peak kept per op."""
        root = self._span(fn, "op")

        def wrapper(*args, **kwargs):
            self.ops += 1
            self._undo_peak = 0
            try:
                return root(*args, **kwargs)
            finally:
                self.counts["undo_peak"] += self._undo_peak

        return wrapper

    def _span(self, fn, name: str):
        probe = self

        def wrapper(*args, **kwargs):
            stack = probe._stack
            rec = [probe.ops, len(probe.spans) + len(stack), stack[-1][_ID] if stack else None, name, 0, 0, 0]
            stack.append(rec)
            rec[_START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = perf_counter_ns()
                stack.pop()
                probe.spans.append(rec)
            if name == "tokenize":
                probe.counts["tokens"] += len(result)
            elif name == "run_main":
                budget = kwargs.get("budget", args[2] if len(args) > 2 else None)
                probe.counts["steps"] += getattr(budget, "used", 0)
            return result

        return wrapper

    def _timed(self, fn, args, kwargs, counter: str):
        """Call fn, charging its time to `counter` and to the innermost open span."""
        if self._in_hot:  # nested hot call: already inside an outer one's time
            self.calls[counter] += 1
            return fn(*args, **kwargs)
        self._in_hot = True
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            self._in_hot = False
            self.calls[counter] += 1
            self.hot_ns[counter] += elapsed
            if self._stack:
                self._stack[-1][_HOT] += elapsed

    def _hot(self, fn, name: str):
        probe = self

        def wrapper(*args, **kwargs):
            result = probe._timed(fn, args, kwargs, name)
            if name == "merge":
                probe.counts["merge_paths"] += len(getattr(result, "paths", ()))
            return result

        return wrapper

    def _store(self, fn, method: str):
        probe = self
        counter = "store." + method

        def wrapper(store, *args, **kwargs):
            if method not in _UNDO_WATCHED:
                return probe._timed(fn, (store, *args), kwargs, counter)
            before = getattr(store, "undo_depth", 0)
            result = probe._timed(fn, (store, *args), kwargs, counter)
            after = getattr(store, "undo_depth", 0)
            if after < before:
                probe.counts["undone"] += before - after
            elif after > before:
                probe.counts["writes"] += after - before
                probe._undo_peak = max(probe._undo_peak, after)
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def layer_ns(self) -> tuple[Counter, Counter]:
        """(ns per layer, ns per span name), summed over all ops."""
        child_ns: Counter = Counter()
        for rec in self.spans:
            if rec[_PARENT] is not None:
                child_ns[rec[_PARENT]] += rec[_END] - rec[_START]
        layers: Counter = Counter()
        spans: Counter = Counter()
        for rec in self.spans:
            duration = rec[_END] - rec[_START]
            spans[rec[_NAME]] += duration
            layers[SPAN_LAYER[rec[_NAME]]] += duration - child_ns[rec[_ID]] - rec[_HOT]
        for counter, ns in self.hot_ns.items():
            layers[HOT_LAYER[counter.split(".")[0]]] += ns
        return layers, spans
