"""Outside-in tracing of qmstab's layers for the traced benchmark run.

A target names a public function by its defining module (`generator.liouvillian`)
or a method by its class (`operators.DensityMatrix.from_matrix`). Because
`from .x import f` binds `f` once per importing module, a function target
is wrapped under every `qmstab.*` module attribute that holds the original
object, so calls through `qmstab.dynamics.liouvillian` and
`qmstab.invariants.liouvillian` are both seen.

A target that no longer exists, or whose result no longer has the fields a
counter reads, drops only that metric and adds a note; the wrapped call
itself always passes `*args, **kwargs` through and returns its result.

Spans (name, start, end, parent, op id) stay in memory. A span's self time
is its duration minus the durations of its direct children. The caller also
times each op around the CLI call itself, apart from the spans, and stores
it in `op_walls`; `op_residual` compares each op's sum of self times with it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field


def _nbytes(obj) -> int:
    """Bytes of a dense or scipy-sparse matrix, or of an object's `.matrix`."""
    obj = getattr(obj, "matrix", obj)
    if hasattr(obj, "indptr"):
        return int(obj.data.nbytes + obj.indices.nbytes + obj.indptr.nbytes)
    return int(obj.nbytes)


def _evolve_counts(args, kwargs, result) -> dict:
    rec = result.step_controller
    return {f"calls.{rec.method}": 1, "rhs_evals": rec.n_rhs_evals,
            "steps": rec.accepted, "renormalizations": rec.renormalizations}


def _write_json_bytes(args, kwargs, result) -> dict:
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"bytes": os.path.getsize(path)}


# Counters read from a call's arguments and result. Values are summed over a
# pass, except names in MAX_COUNTERS, which are facts about one call.
COUNTERS = {
    "generator.liouvillian": lambda a, k, r: {"bytes": _nbytes(r)},
    "invariants.steady_states": lambda a, k, r: {"null_dim": r.null_dimension},
    "invariants.uniqueness_check": lambda a, k, r: {"words": r.words_used,
                                                    "span_dim": r.span_dimension},
    "dynamics.evolve": _evolve_counts,
    "serialize.write_json": _write_json_bytes,
}
MAX_COUNTERS = {"null_dim", "words", "span_dim"}

PACKAGE = "qmstab"

TARGETS = (
    "generator.liouvillian",
    "invariants.steady_states",
    "invariants.uniqueness_check",
    "invariants.connectivity_scan",
    "invariants.subharmonicity_check",
    "dynamics.evolve",
    "dynamics.invariant_set_probe",
    "operators.DensityMatrix.from_matrix",
    "operators.psd_check",
    "lyapunov.check_lyapunov",
    "lyapunov.check_theorem8",
    "synthesis.synthesize_coupling",
    "synthesis.verify_synthesis",
    "serialize.load_model",
    "serialize.load_operator",
    "serialize.save_model",
    "serialize.write_json",
    "serialize.emit_series",
)


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Installs wrappers on `enable()`, removes them on `disable()`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.notes: list[str] = []
        self.missing: set[str] = set()
        self.counter_failed: set[str] = set()
        self.op = -1
        self.op_walls: dict[int, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.op, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.end(idx)
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, result)
                except Exception as exc:  # a refactor changed the result type
                    self._note(f"{name}: counters unavailable ({type(exc).__name__}: {exc})")
                    self.counter_failed.add(name)
            return result

        return wrapper

    def _note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    # -- installation --------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _resolve(self, target: str):
        """(owner, attribute, original) for a target, or None if absent."""
        module_name, _, rest = target.partition(".")
        try:
            obj = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return None
        *owners, attr = rest.split(".")
        for part in owners:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        if inspect.isclass(obj):
            static = inspect.getattr_static(obj, attr, None)
            return None if static is None else (obj, attr, static)
        original = getattr(obj, attr, None)
        return None if not callable(original) else (obj, attr, original)

    def enable(self) -> None:
        for target in TARGETS:
            found = self._resolve(target)
            if found is None:
                self._note(f"{target}: not found; its metrics are omitted")
                self.missing.add(target)
                continue
            owner, attr, original = found
            if inspect.isclass(owner):
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(self._wrap(original.__func__, target))
                else:
                    wrapped = self._wrap(original, target)
                self._patch(owner, attr, original, wrapped)
                continue
            wrapped = self._wrap(original, target)
            for module in self._modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def disable(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def covers(self, metric: str) -> bool:
        """Whether a metric's layer is traced, so that no span means zero."""
        if metric.startswith("cli."):
            return True
        for target in TARGETS:
            if metric.startswith(target + "."):
                leaf = metric[len(target) + 1:]
                if target in self.missing:
                    return False
                return target not in self.counter_failed or leaf in ("calls", "self_s")
        return False

    def _self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def pass_metrics(self, ops: set[int]) -> dict[str, float]:
        """Per-layer totals over the spans of the given op ids."""
        out: dict[str, float] = {}
        for span, own in zip(self.spans, self._self_times()):
            if span.op not in ops:
                continue
            out[f"{span.name}.self_s"] = out.get(f"{span.name}.self_s", 0.0) + own
            out[f"{span.name}.calls"] = out.get(f"{span.name}.calls", 0) + 1
            for key, value in span.counts.items():
                name = f"{span.name}.{key}"
                if key in MAX_COUNTERS:
                    out[name] = max(out.get(name, value), value)
                else:
                    out[name] = out.get(name, 0) + value
        return out

    def op_residual(self) -> float:
        """Largest |sum of self times - op wall time| over the timed ops."""
        total = dict.fromkeys(self.op_walls, 0.0)
        for span, own in zip(self.spans, self._self_times()):
            if span.op in total:
                total[span.op] += own
        return max((abs(total[op] - wall) for op, wall in self.op_walls.items()),
                   default=0.0)
