"""Outside-in layer trace of posgen, built from the benchmark's own files.

``Tracer`` wraps public functions of the ``cli``, ``semigroup``,
``matrixcore``, ``superop``, ``criteria`` and ``duality`` modules while it is
entered.  Each wrapper is a span: it adds the call's wall time to its total and
the part not covered by nested spans to its self time.  Spans are aggregated by
name in memory; nothing is written while the program runs.  A few wrappers
also count work (positivity-search samples and verdicts, distinct maps asked
of ``evolve``/``resolvent``, ``numpy.linalg.eigh`` calls and matrices).

A function is patched under every name that code looks it up by: each
``posgen`` module namespace that binds it (``posgen.criteria.positivity_check``
as well as ``posgen.superop.positivity_check``), or the class attribute for
methods.  Leaving the tracer restores every name; ``patched_names`` lets the
caller check that untraced runs execute the original code.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

from posgen import cli, criteria, duality, matrixcore, semigroup, superop

# (owner, attribute, span name); a span name ending in "." takes the
# condition id of the call
_SPANS = (
    (cli, "main", "cli.main"),
    (semigroup.SemigroupHandle, "__init__", "semigroup.SemigroupHandle"),
    (semigroup, "evolve", "semigroup.evolve"),
    (semigroup, "resolvent", "semigroup.resolvent"),
    (matrixcore, "mat_exp", "matrixcore.mat_exp"),
    (superop, "positivity_check", "superop.positivity_check"),
    (superop, "contraction_check", "superop.contraction_check"),
    (superop, "cp_check", "superop.cp_check"),
    (criteria.ProbeSet, "build", "criteria.ProbeSet.build"),
    (criteria, "check_condition", "criteria.check_condition."),
    (criteria, "theorem1_report", "criteria.theorem1_report"),
    (criteria, "theorem2_check", "criteria.theorem2_check"),
    (duality, "trace_preservation_check", "duality.trace_preservation_check"),
)

_DISTINCT = ("semigroup.evolve", "semigroup.resolvent")


def _bindings(owner, attr):
    """Every (namespace, name) through which callers reach owner.attr."""
    if isinstance(owner, type):
        return [(owner, attr)]
    target = getattr(owner, attr)
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name == "posgen" or mod_name.startswith("posgen."):
            found += [(mod, k) for k, v in vars(mod).items() if v is target]
    return found


# every traced name as it was on import; nothing else may be bound to them
# outside a Tracer
_ORIGINALS = [(ns, key, vars(ns)[key]) for owner, attr, _ in _SPANS
              for ns, key in _bindings(owner, attr)]
_ORIGINALS.append((np.linalg, "eigh", np.linalg.eigh))


def patched_names() -> list:
    """Traced names that do not hold their original object now."""
    return [f"{getattr(ns, '__name__', ns)}.{key}"
            for ns, key, original in _ORIGINALS if vars(ns)[key] is not original]


class Tracer:
    """Context manager that traces posgen calls made while it is entered."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._distinct = {name: set() for name in _DISTINCT}
        self._stack = []  # time covered by child spans, one entry per open span
        self._report = 0

    def next_report(self) -> None:
        """Mark a report boundary; distinct maps are counted per report."""
        self._report += 1

    def distinct(self, name: str) -> int:
        return len(self._distinct[name])

    def _span(self, name, fn, on_result=None):
        per_condition = name.endswith(".")

        def wrapper(*args, **kwargs):
            span = name + (args[1] if len(args) > 1 else kwargs["condition_id"]) \
                if per_condition else name
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                covered = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                self.total[span] += elapsed
                self.self_time[span] += elapsed - covered
                self.calls[span] += 1
            if on_result is not None:
                on_result(span, args, result)
            return result

        return wrapper

    def _on_positivity(self, span, args, verdict):
        self.counts[span + ".samples"] += int(verdict.samples_used)
        self.counts[f"{span}.{verdict.status}"] += 1

    def _on_map(self, span, args, result):
        self._distinct[span].add((self._report, id(args[0]), float(args[1])))

    def __enter__(self):
        if patched_names():
            raise RuntimeError(f"traced names already patched: {patched_names()}")
        hooks = {"superop.positivity_check": self._on_positivity,
                 "semigroup.evolve": self._on_map,
                 "semigroup.resolvent": self._on_map}
        for owner, attr, name in _SPANS:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._span(name, original.__func__, hooks.get(name)))
            else:
                wrapped = self._span(name, original, hooks.get(name))
            for ns, key, value in _ORIGINALS:
                if value is original:
                    setattr(ns, key, wrapped)
        # eigh is counted, not timed: it runs inside positivity_check, whose
        # self time should keep it
        eigh = np.linalg.eigh

        def counted_eigh(a, *args, **kwargs):
            self.calls["numpy.linalg.eigh"] += 1
            self.counts["numpy.linalg.eigh.mats"] += int(np.prod(np.shape(a)[:-2]))
            return eigh(a, *args, **kwargs)

        np.linalg.eigh = counted_eigh
        return self

    def __exit__(self, *exc):
        for ns, key, original in _ORIGINALS:
            setattr(ns, key, original)
        return False

    def self_sum(self) -> float:
        return sum(self.self_time.values())
