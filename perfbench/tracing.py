"""Spans around the public functions of each layer, recorded from outside.

:func:`install` wraps, on their modules and classes, the functions
inference flows through — ``snn.plan`` compilation and runs, the
``snn.events`` scatter kernel and the arena GEMM, the TTFS encoder/neuron
and readout dynamics, ``serve`` submit and dispatch, the aio bridge and the
HTTP app — so no file of the program changes.  A wrapper costs one flag
test while the tracer is disabled; enabled, it appends one span per call to
an in-memory list that :meth:`Tracer.write` saves at exit.

Spans carry (id, parent id, name, stage, start, end, attrs); the parent is
the innermost enclosing span on the same thread, so kernel and dynamics
spans nest under the ``plan.run`` span of the batch or flush that caused
them.

:func:`observe_plans` is the one wrapper installed on untraced runs too: it
times ``compile_plan`` (set-up only, never inside a timed phase) so every
run can report set-up split and each stage's calibrated operator.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
import weakref

import numpy as np

from spec import STAGES


class Tracer:
    """In-memory span recorder; ``enabled`` gates recording."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        #: dynamics object -> stage name, filled at bind time.
        self.stage_of: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: submit times (monotonic) of flush members dispatched but not yet
        #: running; consumed by the next ``plan.run`` span.
        self._dispatched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, stage: str | None = None, **attrs) -> list:
        """Open a span under the thread's innermost open span."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        record = [span_id, parent, name, stage, time.perf_counter(), None, attrs]
        stack.append(record)
        return record

    def end(self, record: list) -> None:
        record[5] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        with self._lock:
            self.spans.append(record)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span that has no parent."""
        with self._lock:
            self.spans.append([self._next_id, None, name, None, start, end, {}])
            self._next_id += 1

    def note_dispatched(self, submitted_at: float) -> None:
        with self._lock:
            self._dispatched.append(submitted_at)

    def take_dispatched(self) -> list:
        with self._lock:
            taken, self._dispatched = self._dispatched, []
        return taken

    def clear(self) -> None:
        with self._lock:
            self.spans = []
            self._dispatched = []

    def write(self, path) -> None:
        """Save every span as one JSON line."""
        keys = ("id", "parent", "name", "stage", "start", "end", "attrs")
        with open(path, "w") as fh:
            for record in self.spans:
                row = dict(zip(keys, record))
                row["attrs"] = {
                    k: v for k, v in row["attrs"].items() if k != "spike_counts"
                }
                fh.write(json.dumps(row) + "\n")

    # ------------------------------------------------------------------ #
    # per-layer summary
    # ------------------------------------------------------------------ #

    def summary(self, computed_samples: int) -> dict:
        """Per-layer metrics of the recorded spans.

        ``computed_samples`` is the number of samples the program computed
        while tracing (offline samples, or flushed service samples); every
        ``*_per_sample`` / ``*_ms`` stage total is divided by it.
        """
        per = max(int(computed_samples), 1)
        by_name: dict = {}
        for record in self.spans:
            by_name.setdefault(record[2], []).append(record)

        def durations(name, stage=None):
            return [
                r[5] - r[4]
                for r in by_name.get(name, [])
                if stage is None or r[3] == stage
            ]

        def p50_ms(values, scale=1000.0):
            return statistics.median(values) * scale if values else 0.0

        runs = by_name.get("plan.run", [])
        rows = sum(r[6]["rows"] for r in runs)
        out = {
            "snn.plan.run_ms_per_sample": sum(durations("plan.run")) * 1000.0 / per,
            "serve.flush_compute_ms_p50": 0.0,
            "serve.submit_us_p50": p50_ms(durations("serve.submit"), 1e6),
            "serve.queue_wait_ms_p50": p50_ms(
                [w for r in runs for w in r[6].get("queue_waits", ())]
            ),
            "serve.http.app_ms_p50": p50_ms(durations("http.app")),
            "serve.aio.predict_ms_p50": p50_ms(durations("aio.predict")),
        }
        if any(r[6].get("flush") for r in runs):
            out["serve.flush_compute_ms_p50"] = p50_ms(
                [r[5] - r[4] for r in runs if r[6].get("flush")]
            )
        for stage in STAGES:
            kernel = [
                r for name in ("kernel.events", "kernel.gemm")
                for r in by_name.get(name, []) if r[3] == stage
            ]
            spikes = sum(
                r[6]["spike_counts"].get(stage, 0.0) * r[6]["rows"] for r in runs
            )
            out.update({
                f"stage.{stage}.propagate_ms": sum(r[5] - r[4] for r in kernel)
                * 1000.0 / per,
                f"stage.{stage}.event_calls": len(durations("kernel.events", stage))
                / max(len(runs), 1),
                f"stage.{stage}.gemm_calls": len(durations("kernel.gemm", stage))
                / max(len(runs), 1),
                f"stage.{stage}.drive_density": (
                    float(np.mean([r[6]["density"] for r in kernel])) if kernel else 0.0
                ),
                f"stage.{stage}.dynamics_ms": sum(durations("dynamics", stage))
                * 1000.0 / per,
                f"stage.{stage}.spikes_per_sample": spikes / rows if rows else 0.0,
            })
        return out


def _wrap(owner, attr: str, make):
    """Replace ``owner.attr`` with ``make(original)`` (keeps metadata)."""
    original = getattr(owner, attr)
    wrapped = make(original)
    functools.update_wrapper(wrapped, original)
    setattr(owner, attr, wrapped)


def _span_wrapper(tracer: Tracer, name: str, stage_of=None, attrs_of=None):
    """Sync wrapper: one span per call while the tracer is enabled."""

    def make(fn):
        def inner(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stage = stage_of(args) if stage_of is not None else None
            attrs = attrs_of(args) if attrs_of is not None else {}
            record = tracer.begin(name, stage, **attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(record)

        return inner

    return make


def _async_span_wrapper(tracer: Tracer, name: str):
    def make(fn):
        async def inner(*args, **kwargs):
            if not tracer.enabled:
                return await fn(*args, **kwargs)
            # Coroutines interleave on one thread, so these spans stay off
            # the thread's parent stack.
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.add(name, start, time.perf_counter())

        return inner

    return make


def _density(x) -> float:
    return float(np.count_nonzero(x)) / max(x.size, 1)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary (call once, before any model build)."""
    from repro.coding.ttfs import TTFSCoding, TTFSInputEncoder, TTFSNeurons
    from repro.serve.aio import AsyncInferenceService
    from repro.serve.batcher import ServedFuture
    from repro.serve.http import PredictApp
    from repro.serve.service import InferenceService
    from repro.snn import events
    from repro.snn.neurons import ReadoutAccumulator
    from repro.snn.plan import ExecutionPlan, StagePlan

    def make_bind(fn):
        def bind(self, network, steps=None):
            bound = fn(self, network, steps)
            spiking = [s for s in network.stages if s.spiking]
            tracer.stage_of[bound.encoder] = "input"
            for dyn, stage in zip(bound.dynamics, spiking):
                tracer.stage_of[dyn] = stage.name
            tracer.stage_of[bound.readout] = network.stages[-1].name
            return bound

        return bind

    _wrap(TTFSCoding, "bind", make_bind)

    def make_run(fn):
        def run(self, x, y=None, budget=None):
            if not tracer.enabled:
                tracer.take_dispatched()
                return fn(self, x, y, budget)
            now = time.monotonic()
            waits = [now - t for t in tracer.take_dispatched()]
            record = tracer.begin(
                "plan.run", rows=len(x), flush=bool(waits), queue_waits=waits
            )
            try:
                result = fn(self, x, y, budget)
            finally:
                tracer.end(record)
            record[6]["spike_counts"] = dict(result.spike_counts)
            return result

        return run

    _wrap(ExecutionPlan, "run", make_run)

    stage_name = lambda args: args[0].name  # noqa: E731
    _wrap(
        events, "apply_stage_events",
        _span_wrapper(tracer, "kernel.events", stage_name,
                      lambda args: {"density": args[1].density}),
    )
    _wrap(
        StagePlan, "apply_dense",
        _span_wrapper(tracer, "kernel.gemm", stage_name,
                      lambda args: {"density": _density(args[1])}),
    )
    dyn_stage = lambda args: tracer.stage_of.get(args[0])  # noqa: E731
    for owner, attr in (
        (TTFSInputEncoder, "step"),
        (TTFSInputEncoder, "drain_events"),
        (TTFSNeurons, "step"),
        (TTFSNeurons, "drain_fire_events"),
        (ReadoutAccumulator, "accumulate"),
        (ReadoutAccumulator, "absorb"),
    ):
        _wrap(owner, attr, _span_wrapper(tracer, "dynamics", dyn_stage))

    _wrap(InferenceService, "submit", _span_wrapper(tracer, "serve.submit"))

    def make_mark(fn):
        def mark_dispatched(self, *args, **kwargs):
            if tracer.enabled:
                tracer.note_dispatched(self.submitted_at)
            return fn(self, *args, **kwargs)

        return mark_dispatched

    _wrap(ServedFuture, "mark_dispatched", make_mark)
    _wrap(AsyncInferenceService, "predict", _async_span_wrapper(tracer, "aio.predict"))
    _wrap(PredictApp, "__call__", _async_span_wrapper(tracer, "http.app"))


class PlanLog:
    """Plans compiled since the last :meth:`take`, with their compile times.

    Callers take the entries at the end of each set-up instance, so the
    log never keeps a finished instance's arenas alive.
    """

    def __init__(self):
        self.entries: list = []  # (plan, seconds)

    def take(self) -> list:
        taken, self.entries = self.entries, []
        return taken


def observe_plans(log: PlanLog) -> None:
    """Time ``compile_plan`` and keep its plans (installed on every run)."""
    from repro.snn import plan as plan_module

    def make(fn):
        def compile_plan(*args, **kwargs):
            t0 = time.perf_counter()
            plan = fn(*args, **kwargs)
            log.entries.append((plan, time.perf_counter() - t0))
            return plan

        return compile_plan

    _wrap(plan_module, "compile_plan", make)


def operators(plan) -> dict:
    """Stage -> calibrated operator: ``gemm``, ``event`` or ``auto<=d``."""
    out = {}
    for p in [*plan.stage_plans, plan.readout_plan]:
        if p.threshold >= 1.0:
            out[p.name] = "event"
        elif p.threshold <= 0.0:
            out[p.name] = "gemm"
        else:
            out[p.name] = f"auto<={p.threshold:.4f}"
    return out


def plan_metrics(entries: list) -> dict:
    """Calibration outcome and arena size over the plans of one set-up."""
    plans = [p for p, _ in entries]
    if not plans:
        return {"snn.plan.gemm_stages": 0.0, "snn.plan.event_stages": 0.0,
                "snn.plan.workspace_mb": 0.0}
    ops = [operators(p) for p in plans]
    return {
        "snn.plan.gemm_stages": float(np.mean([sum(v == "gemm" for v in o.values())
                                               for o in ops])),
        "snn.plan.event_stages": float(np.mean([sum(v == "event" for v in o.values())
                                                for o in ops])),
        "snn.plan.workspace_mb": sum(p.workspace.nbytes() for p in plans) / 2**20,
    }
