"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the nilwitness layers from outside the
package; no file of the package changes.  Every call into a layer records a
span ``[id, parent_id, name, start, end]``.  A call into a layer from inside
the same layer (recursion in an evaluator, ``inverse`` calling ``__pow__``)
stays inside the span already open, so ``calls`` counts entries into a layer
from outside it.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans.

A module that imported a function by name (``from .magnus import
leading_lie``) looks it up in its own globals, so a function target is
rebound in every loaded module of the package that holds it; a method target
is replaced on its class.  A target that does not exist, or a function that
no module binds, raises ``TraceError``: a renamed function must fail the run,
never drop its span silently.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "nilwitness"

# layer metric prefix -> targets as "module:qualname" inside PACKAGE
LAYERS: dict[str, tuple[str, ...]] = {
    "magnus.mul": ("magnus:MagnusElement.__mul__",),
    "magnus.pow": ("magnus:MagnusElement.__pow__", "magnus:MagnusElement.inverse"),
    "magnus.commutator": ("magnus:commutator",),
    "magnus.letter": (
        "magnus:MagnusElement.mul_letter",
        "magnus:MagnusElement.conjugate_letter",
    ),
    "magnus.eval": ("magnus:MagnusEvaluator.eval",),
    "magnus.leading_lie": ("magnus:leading_lie",),
    "freelie.present": ("freelie:present_with_generators",),
    "lamplighter.eval": ("lamplighter:LampEvaluator.eval",),
    "series.mul": ("series:TruncatedSeries.__mul__",),
    "words.parse": ("words:parse_word_expr",),
    "linalg.rref": ("linalg:rref",),
    "coinv.build": ("coinv:build_coinvariants",),
    "coinv.oracle": ("coinv:coinvariant_rank_oracle",),
    "witness.build": ("witness:build_witness",),
    "witness.verify": ("witness:verify_witness",),
}


def _rref_cells(rows, *args, **kwargs) -> int:
    """Cells of the matrix handed to ``linalg.rref``: rows x columns."""
    return len(rows) * (len(rows[0]) if rows else 0)


# layer -> (counter name, function of the call's arguments)
CELL_COUNTERS = {"linalg.rref": ("cells", _rref_cells)}


class TraceError(RuntimeError):
    """A wrapper could not be installed where its callers look it up."""


class Tracer:
    def __init__(self, layers: dict[str, tuple[str, ...]] = LAYERS, clock=time.perf_counter):
        self.layers = layers
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        spans, stack, clock = self.spans, self._stack, self.clock
        counter = CELL_COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][2] == name:
                return fn(*args, **kwargs)
            if counter is not None:
                key = f"{name}.{counter[0]}"
                counts[key] = counts.get(key, 0) + counter[1](*args, **kwargs)
            span = [len(spans), stack[-1][0] if stack else None, name, clock(), None]
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        try:
            for name, targets in self.layers.items():
                for target in targets:
                    self._install_one(name, target, modules)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, name: str, target: str, modules: list) -> None:
        modname, _, qualname = target.partition(":")
        module = sys.modules.get(f"{PACKAGE}.{modname}")
        if module is None:
            raise TraceError(f"{target}: module {PACKAGE}.{modname} is not loaded")
        owner_path, _, attr = qualname.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = vars(owner).get(part)
            if owner is None:
                raise TraceError(f"{target}: {part} not found")
        original = vars(owner).get(attr)
        if not callable(original):
            raise TraceError(f"{target}: no such function")
        traced = self.wrap(name, original)
        if owner is not module:
            self._rebind(owner, attr, original, traced)
            return
        holders = [(m, key) for m in modules for key, val in vars(m).items() if val is original]
        for m, key in holders:
            self._rebind(m, key, original, traced)

    def _rebind(self, owner, attr: str, original, traced) -> None:
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def covered_s(self) -> float:
        """Time inside some top-level span."""
        return sum(end - start for _, parent, _, start, end in self.spans if parent is None)

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.self_s`` and ``<layer>.calls`` for every layer, zero for a
        layer never entered, plus the cell counters."""
        out: dict[str, float] = {}
        for name in self.layers:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for name, (self_s, calls) in self_times(self.spans).items():
            out[f"{name}.self_s"] = self_s
            out[f"{name}.calls"] = calls
        for name, (counter, _) in CELL_COUNTERS.items():
            out[f"{name}.{counter}"] = self.counts.get(f"{name}.{counter}", 0)
        return out


def self_times(spans: list[list]) -> dict[str, tuple[float, int]]:
    """Per span name: (sum of duration minus direct children, span count).

    Span ids are their positions in ``spans``.
    """
    children = [0.0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent] += end - start
    out: dict[str, tuple[float, int]] = {}
    for sid, _, name, start, end in spans:
        self_s, calls = out.get(name, (0.0, 0))
        out[name] = (self_s + (end - start) - children[sid], calls + 1)
    return out
