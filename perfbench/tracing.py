"""Per-layer spans recorded from outside policheck.

`Engine.check` looks up `signature`, `shared_nonconcept_names`,
`normalize_full`, `split_intervals` and `sts_check` as `policheck.engine`
module globals at call time.  `Tracer.installed()` rebinds them to
wrappers; `Tracer.wrap_oracle` wraps an oracle handle's `query`, and the
runner wraps each `Engine.check` call itself as the `engine` span.

Spans nest on a stack.  Each closed span adds its duration to its
parent's child time, so a layer's self time is its span minus its child
spans, and the self times of all layers add up to the check spans.  Spans
are folded into per-layer totals as they close; nothing is recorded while
`on` is false.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, List

import policheck.engine as engine_module
from policheck.errors import OracleFailure

# module global of policheck.engine -> layer (named after its module)
ENGINE_GLOBALS = {
    "signature": "model",
    "shared_nonconcept_names": "model",
    "normalize_full": "normalize",
    "split_intervals": "split",
    "sts_check": "sts",
}
LAYERS = ("engine", "model", "normalize", "split", "sts", "oracle")


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self._stack: List[int] = []
        self.reset()

    def reset(self) -> None:
        """Start a new set of totals (one per pass)."""
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.rules: Dict[int, int] = {rule: 0 for rule in range(1, 8)}
        self.split_in = 0
        self.split_out = 0
        self.oracle_failures = 0
        self.query_ns: List[int] = []

    def totals(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "rules": {str(r): n for r, n in self.rules.items()},
            "split_in": self.split_in,
            "split_out": self.split_out,
            "oracle_failures": self.oracle_failures,
            "query_ns": list(self.query_ns),
        }

    def wrap(self, layer: str, fn: Callable, after: Callable = None) -> Callable:
        """fn, recording a `layer` span per call while the tracer is on;
        `after(args, result)` then collects counts from the call."""
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except OracleFailure:
                if layer == "oracle":
                    self.oracle_failures += 1
                raise
            finally:
                dur = perf_counter_ns() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                self.self_ns[layer] += dur - child
                self.calls[layer] += 1
                if layer == "oracle":
                    self.query_ns.append(dur)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_normalize(self, args, result) -> None:
        for rule, n in result[1].rule_applications.items():
            self.rules[rule] = self.rules.get(rule, 0) + n

    def _after_split(self, args, result) -> None:
        self.split_in += len(args[0].disjuncts)
        self.split_out += len(result.disjuncts)

    @contextmanager
    def installed(self):
        """Rebind the engine's module globals to traced wrappers."""
        after = {"normalize_full": self._after_normalize, "split_intervals": self._after_split}
        saved = {name: getattr(engine_module, name) for name in ENGINE_GLOBALS}
        for name, layer in ENGINE_GLOBALS.items():
            setattr(engine_module, name, self.wrap(layer, saved[name], after.get(name)))
        try:
            yield self
        finally:
            for name, fn in saved.items():
                setattr(engine_module, name, fn)

    def wrap_oracle(self, handle) -> None:
        """Trace every query the handle answers (cache misses only: the
        engine's query caches sit in front of the handle).  A query that
        raises OracleFailure counts as a failure."""
        if not hasattr(handle.query, "__wrapped__"):
            handle.query = self.wrap("oracle", handle.query)

