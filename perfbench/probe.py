"""Instruments relcheck from outside the package.

`CaseStamps` is on in every measured pass.  It wraps three public entry
points: `SuiteReport.item`, `ItemResult.record` and `ConfigGen.__init__`.
From them it records, per case: suite, item, index, verdict, seconds since
the previous case ended, the tower depth its `ScalarContext` reached, and
the case's `sub_seed`.

`Tracer` is on only in the traced pass.  It wraps the public functions of
every layer and keeps in memory:
- spans from the workload down to checkers, geometric predicates and
  definitional evaluators.  All spans of one case carry the case's sub_seed.
- per-function call counts and inclusive times.
- self time per layer: a frame's duration minus the part its child frames
  cover.

Scalar and Minkowski calls are too frequent for span records.  A call made
from inside the same layer is only counted, never timed.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from relcheck import scalar
from relcheck.verifier import definitional, generators, report, suites

perf_counter = time.perf_counter


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, obj, name: str, value) -> None:
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def set_item(self, table: dict, key, value) -> None:
        self._undo.append((table, key, table[key]))
        table[key] = value

    def undo(self) -> None:
        while self._undo:
            obj, name, value = self._undo.pop()
            if isinstance(obj, dict):
                obj[name] = value
            else:
                setattr(obj, name, value)


class CaseStamps:
    """Per-case observations from `ItemResult.record` calls."""

    def __init__(self) -> None:
        # (suite, item, index, status, seconds, depth, sub_seed)
        self.cases: list[tuple] = []
        self.suite = ""
        self.tracer: "Tracer | None" = None
        self._last = perf_counter()
        self._ctx = None
        self._seed = None
        self._patches = Patches()

    def install(self) -> None:
        stamps = self
        item_orig = report.SuiteReport.item
        record_orig = report.ItemResult.record
        gen_init = generators.ConfigGen.__init__

        def item(rep, name, expected_divergence=False):
            it = item_orig(rep, name, expected_divergence)
            stamps.begin_item(name)
            return it

        def record(it, index, verdict_status, detail=None):
            stamps.end_case(it.name, index, verdict_status)
            record_orig(it, index, verdict_status, detail)

        def config_gen(gen, seed, bound=8, depth_cap=4):
            gen_init(gen, seed, bound, depth_cap)
            stamps._ctx = gen.ctx
            stamps._seed = seed

        self._patches.set(report.SuiteReport, "item", item)
        self._patches.set(report.ItemResult, "record", record)
        self._patches.set(generators.ConfigGen, "__init__", config_gen)

    def uninstall(self) -> None:
        self._patches.undo()

    def begin_item(self, name: str) -> None:
        self._ctx = None
        self._seed = None
        if self.tracer:
            self.tracer.begin_item(f"{self.suite}/{name}")
        self._last = perf_counter()

    def end_case(self, item: str, index: int, status: str, seed=None) -> None:
        now = perf_counter()
        depth = self._ctx.depth if self._ctx is not None else 0
        seed = self._seed if seed is None else seed
        self.cases.append((self.suite, item, index, status, now - self._last, depth, seed))
        if self.tracer:
            self.tracer.end_case(seed)
        self._last = now


# --- tracing ----------------------------------------------------------------------

SPAN_LEVELS = 8  # workload, pass, suite, item, case, checker, two more below
HOT_LAYERS = ("scalar", "minkowski")


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "span", "level", "parent_case")

    def __init__(self, name, layer, start, span, level, parent_case):
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.span = span
        self.level = level
        self.parent_case = parent_case


class Tracer:
    """Spans, counts and self times for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end, case_seed]
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.work = 0.0  # time in frames opened directly under a case frame
        self.adjoined = 0
        self.capacity = 0
        root = _Frame("root", "bench", perf_counter(), -1, 0, False)
        self._stack = [root]
        self._patches = Patches()

    # -- frames --------------------------------------------------------------

    def _push(self, name: str, layer: str, record: bool = True) -> _Frame:
        parent = self._stack[-1]
        span = -1
        if record and parent.level < SPAN_LEVELS and (parent.span >= 0 or parent.level == 0):
            span = len(self.spans)
            self.spans.append([span, parent.span, name, 0.0, 0.0, None])
        frame = _Frame(name, layer, 0.0, span, parent.level + 1, parent.name == "case")
        self._stack.append(frame)
        frame.start = perf_counter()
        return frame

    def _pop(self, frame: _Frame, end: float) -> float:
        top = self._stack.pop()
        assert top is frame, f"span stack out of order: {top.name} vs {frame.name}"
        dur = end - frame.start
        self.self_time[frame.layer] += dur - frame.child
        self._stack[-1].child += dur
        if frame.span >= 0:
            rec = self.spans[frame.span]
            rec[3], rec[4] = frame.start, end
        if frame.parent_case and frame.name != "generators.ConfigGen":
            self.work += dur
        return dur

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A frame around a block; frames still open inside it close with it."""
        frame = self._push(name, layer)
        try:
            yield
        finally:
            end = perf_counter()
            while self._stack[-1] is not frame:
                self._close(self._stack[-1], end)
            self._pop(frame, end)

    def begin_item(self, name: str) -> None:
        end = perf_counter()
        while self._stack[-1].name == "case" or self._stack[-1].name.startswith("item:"):
            self._close(self._stack[-1], end)
        self._push("item:" + name, "verifier")
        self._push("case", "verifier")

    def end_case(self, seed) -> None:
        frame = self._stack[-1]
        if frame.name != "case":
            return
        end = perf_counter()
        rec = self.spans[frame.span] if frame.span >= 0 else None
        self._pop(frame, end)
        if rec is not None:
            rec[5] = seed
            for child in self.spans[frame.span + 1:]:
                child[5] = seed
        self._push("case", "verifier")

    def _close(self, frame: _Frame, end: float) -> None:
        self._pop(frame, end)
        if frame.name == "case" and frame.span >= 0:
            # the frame after an item's last case holds no case
            self.spans[frame.span][2] = "between-cases"

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, hot: bool = False):
        """Wrap `fn` as a frame of `layer`.  A `hot` function records no span,
        and a call to it made while the top frame is already of `layer` is
        only counted."""
        stack = self._stack
        calls = self.calls
        inclusive = self.inclusive
        push, pop = self._push, self._pop

        if hot:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if stack[-1].layer == layer:
                    return fn(*args, **kwargs)
                frame = push(name, layer, False)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inclusive[name] += pop(frame, perf_counter())
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                frame = push(name, layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inclusive[name] += pop(frame, perf_counter())

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: list[tuple[str, object]], skip: set[str]) -> None:
        """Wrap every layer's public functions in every module that names them.

        `modules` pairs a layer name with one of its modules.  Functions
        imported into another module are replaced there too, so calls between
        layers pass through the wrapper whichever name they use.  Functions
        named in `skip` are left alone.
        """
        replaced: dict[int, object] = {}
        for layer, module in modules:
            hot = layer in HOT_LAYERS
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or attr in skip or isinstance(value, type):
                    continue
                if not callable(value) or getattr(value, "__module__", None) != module.__name__:
                    continue
                replaced[id(value)] = self.wrap(value, f"{layer}.{attr}", layer, hot)
        for _, module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    self._patches.set(module, attr, replaced[id(value)])
        self._wrap_methods()
        self._wrap_tables()

    def _wrap_methods(self) -> None:
        from relcheck.minkowski import Line, PoincareMap, Segment, Vec4

        hot = {
            scalar.Scalar: ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                            "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                            "inverse", "sign", "__lt__", "__le__", "__gt__", "__ge__"),
            Vec4: ("__add__", "__sub__", "__neg__", "scale"),
            Line: ("__init__", "at", "param_of", "contains"),
            Segment: ("__init__",),
            PoincareMap: ("apply", "apply_direction", "compose", "validate_isometry"),
        }
        for cls, names in hot.items():
            layer = "scalar" if cls is scalar.Scalar else "minkowski"
            for attr in names:
                fn = vars(cls)[attr]
                label = f"{layer}.{cls.__name__}.{attr.strip('_')}"
                self._patches.set(cls, attr, self.wrap(fn, label, layer, True))
        sqrt = self.wrap(scalar.ScalarContext.sqrt, "scalar.ScalarContext.sqrt", "scalar", True)
        tracer = self

        def counted_sqrt(ctx, a):
            depth = len(ctx.radicands)
            try:
                return sqrt(ctx, a)
            except scalar.CapacityError:
                tracer.capacity += 1
                raise
            finally:
                tracer.adjoined += len(ctx.radicands) - depth

        self._patches.set(scalar.ScalarContext, "sqrt", counted_sqrt)
        for cls, attr, label in (
            (suites.ClassFrame, "__init__", "verifier.ClassFrame"),
            (generators.ConfigGen, "__init__", "generators.ConfigGen"),
            (generators.ConfigGen, "poincare", "generators.poincare"),
            (generators.ConfigGen, "transform_line", "generators.transform_line"),
            (generators.ConfigGen, "transform_signal", "generators.transform_signal"),
        ):
            self._patches.set(cls, attr, self.wrap(getattr(cls, attr), label, "verifier"))

    def _wrap_tables(self) -> None:
        from relcheck import model

        tables = [
            (suites.TARSKI_CHECKERS, "checker", "verifier"),
            (suites.AXIOM_CHECKERS, "checker", "verifier"),
            (suites.LEMMAS_STL, "lemma", "verifier"),
            (suites.LEMMAS_FTL, "lemma", "verifier"),
            (suites.PRED_GENERATORS, "generator", "verifier"),
            (suites.INVARIANCE_CONFIGS, "generator", "verifier"),
            (definitional.DEFINITIONAL_EVALUATORS, "def", "definitional"),
            (model.GEOMETRIC_PREDICATES, "geo", "model"),
        ]
        for table, prefix, layer in tables:
            for key, fn in list(table.items()):
                self._patches.set_item(table, key, self.wrap(fn, f"{prefix}.{key}", layer))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- results -------------------------------------------------------------

    def per_name(self) -> dict[str, dict]:
        return {
            name: {"calls": self.calls[name], "inclusive_s": round(self.inclusive.get(name, 0.0), 6)}
            for name in sorted(self.calls)
        }
