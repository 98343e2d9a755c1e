"""The four workloads.  Each returns an :class:`Outcome` for run.py to print.

Every workload runs ``cfg["instances"]`` set-ups in turn; each builds the
model from scratch, gets ready and measures its own slice of the timed
phase.  Throughput and CPU are medians of per-instance values and latency
percentiles medians over windows of requests, so one unlucky calibration or
one noisy stretch does not set a run's number; ``correct_share`` and
``slo_attainment`` pool every sample of the run.

Timed phases read nothing but clocks and results: the reference check, the
percentiles and every comparison happen after the peak RSS is read.
"""

from __future__ import annotations

import gc
import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import common
from common import cpu_seconds, images, median, percentile, stream
from spec import MODEL, PER_LAYER
from tracing import PlanLog, Tracer, operators, plan_metrics

_HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Outcome:
    """What one run measured: both metric sets plus the correctness tally."""

    end_to_end: dict
    per_layer: dict
    attempted: int
    failed: int
    details: dict = field(default_factory=dict)


@dataclass
class Measured:
    """Raw measurements of one run, filled in instance by instance."""

    setups: list = field(default_factory=list)
    builds: list = field(default_factory=list)
    compiles: list = field(default_factory=list)
    calibration: list = field(default_factory=list)
    plans: list = field(default_factory=list)
    #: (instance, traced, wall s, cpu s, answered) per timed stretch.
    slices: list = field(default_factory=list)
    #: [instance, traced, latency s, lag s, ok] per sample or request.
    samples: list = field(default_factory=list)
    #: service counter deltas per timed stretch.
    service: list = field(default_factory=list)
    #: each instance's end-to-end values, whose medians the run reports.
    per_instance: list = field(default_factory=list)

    def add_setup(self, seconds: float, build_s: float, entries: list) -> None:
        """Record one set-up and the plans it compiled."""
        self.setups.append(seconds)
        self.builds.append(build_s)
        self.compiles.append(sum(s for _, s in entries))
        self.calibration.append([operators(p) for p, _ in entries])


def _phases(seconds: float, traced: bool) -> list:
    """(traced?, duration) stretches of one instance's timed slice.

    A traced run spends its first half untraced and its second half
    traced, so it measures its own tracing overhead.
    """
    if traced:
        return [(False, seconds / 2), (True, seconds / 2)]
    return [(False, seconds)]


def _end_to_end(m: Measured, cfg: dict, rss_mb: float, spikes: float,
                steps: float) -> dict:
    """End-to-end metrics: medians over instances, and over latency windows.

    Latency percentiles are taken per window of ``cfg["latency_window"]``
    consecutive requests (per instance when unset) and the run reports the
    median window, which keeps a few seconds of noise from a neighbouring
    process out of a run's tail latency.  Also keeps the per-instance
    values on ``m.per_instance`` for the metadata line.
    """
    per_instance, windows = [], []
    for k in sorted({s[0] for s in m.slices}):
        slices = [s for s in m.slices if s[0] == k]
        samples = [s for s in m.samples if s[0] == k]
        lat_ms = np.array([s[2] for s in samples]) * 1000.0
        size = cfg.get("latency_window") or len(lat_ms)
        windows += [(percentile(w, 50), percentile(w, 90))
                    for w in np.array_split(lat_ms, max(1, len(lat_ms) // size))]
        per_instance.append({
            "samples_per_s": sum(s[4] for s in samples) / sum(s[2] for s in slices),
            "cpu_ms_per_sample": sum(s[3] for s in slices) * 1000.0
            / max(sum(s[4] for s in slices), 1),
        })
    m.per_instance = per_instance
    ok = np.array([s[4] for s in m.samples], dtype=bool)
    lat_ms = np.array([s[2] for s in m.samples]) * 1000.0
    return {
        "setup_s": median(m.setups),
        "peak_rss_mb": rss_mb,
        **{key: median([row[key] for row in per_instance]) for key in per_instance[0]},
        "latency_p50_ms": median([w[0] for w in windows]),
        "latency_p90_ms": median([w[1] for w in windows]),
        "slo_attainment": float(np.sum(ok & (lat_ms <= cfg["latency_limit_ms"]))) / len(ok),
        "correct_share": float(np.sum(ok)) / len(ok),
        "spikes_per_sample": spikes,
        "steps_per_sample": steps,
    }


def _trace_overhead(m: Measured) -> dict:
    def rate(on):
        wall = sum(s[2] for s in m.slices if s[1] == on)
        return sum(s[4] for s in m.samples if s[1] == on) / wall if wall else 0.0

    untraced, traced = rate(False), rate(True)
    return {
        "trace.samples_per_s_untraced": untraced,
        "trace.samples_per_s_traced": traced,
        "trace.overhead_share": 1.0 - traced / untraced if untraced else 0.0,
    }


def _per_layer(m: Measured, values: dict) -> dict:
    """Every declared per-layer metric; a layer the workload skips reads 0."""
    values = {
        "convert.build_s": median(m.builds),
        "snn.plan.compile_s": median(m.compiles),
        **{key: float(np.mean([r[key] for r in m.plans])) for key in m.plans[0]},
        **values,
        **_trace_overhead(m),
    }
    return {name: float(values.get(name, 0.0)) for name, _, _ in PER_LAYER}


def _outcome(m: Measured, e2e: dict, layer: dict, **details) -> Outcome:
    attempted = len(m.samples)
    failed = attempted - sum(s[4] for s in m.samples)
    return Outcome(
        end_to_end=e2e,
        per_layer=layer,
        attempted=attempted,
        failed=failed,
        details={"setup_s": m.setups, "calibration": m.calibration,
                 "per_instance": m.per_instance, **details},
    )


# ---------------------------------------------------------------------- #
# offline
# ---------------------------------------------------------------------- #


def offline(cfg: dict, seed: int, seconds: float, traced: bool,
            tracer: Tracer, plans: PlanLog) -> Outcome:
    from repro.core.t2fsnn import T2FSNN
    from repro.runtime import RunConfig

    batch = cfg["batch"]
    pool = images(stream(seed, "inputs"), cfg["pool"])
    warm = images(stream(seed, "warm"), batch)
    if not common.disjoint(pool, warm):
        raise RuntimeError("warm-up inputs overlap the workload's")
    batches = [pool[i : i + batch] for i in range(0, len(pool), batch)]
    config = RunConfig(compiled=True)

    m = Measured()
    calls = []  # (instance, traced, batch index, latency s, result)
    network = model = None
    for k in range(cfg["instances"]):
        network = model = None
        gc.collect()
        t0 = time.perf_counter()
        network = common.build_network()
        build_s = time.perf_counter() - t0
        model = T2FSNN(network, window=MODEL["window"], early_firing=cfg["early_firing"])
        model.run(warm, config=config)
        entries = plans.take()
        m.add_setup(time.perf_counter() - t0, build_s, entries)

        i = 0
        for on, duration in _phases(seconds / cfg["instances"], traced):
            tracer.enabled = on
            answered = 0
            c0, start = cpu_seconds(), time.perf_counter()
            while time.perf_counter() - start < duration:
                b = i % len(batches)
                i += 1
                t = time.perf_counter()
                result = model.run(batches[b], config=config)
                calls.append((k, on, b, time.perf_counter() - t, result))
                answered += len(batches[b])
            m.slices.append((k, on, time.perf_counter() - start, cpu_seconds() - c0,
                             answered))
            tracer.enabled = False
        m.plans.append(plan_metrics(entries))
        del entries

    rss = common.peak_rss_mb()
    refs = common.reference(network, cfg["early_firing"], batches)
    for k, on, b, latency, result in calls:
        ref = refs[b]
        same_counts = result.spike_counts == ref.spike_counts
        for good in (result.predictions == ref.predictions) & same_counts:
            m.samples.append([k, on, latency, 0.0, bool(good)])
    # Spikes and steps once per pool batch, so a run's call count does not
    # weigh the batches.
    first = {b: result for _, _, b, _, result in reversed(calls)}
    e2e = _end_to_end(
        m, cfg, rss,
        spikes=float(np.mean([r.total_spikes for r in first.values()])),
        steps=float(np.mean([r.steps for r in first.values()])),
    )
    traced_samples = sum(s[4] for s in m.slices if s[1])
    layer = _per_layer(m, tracer.summary(traced_samples)) if traced else {}
    return _outcome(m, e2e, layer, calls=len(calls))


# ---------------------------------------------------------------------- #
# serving: shared helpers
# ---------------------------------------------------------------------- #


def warm_service(svc, warm: np.ndarray) -> None:
    """Run warm-up flushes until a plan exists at every capacity."""
    used = 0
    for _ in range(4):
        for cap in svc.capacities:
            if used + cap > len(warm):
                break
            svc.predict_many(warm[used : used + cap])
            used += cap
        if svc.stats().plans_compiled >= len(svc.capacities):
            return
    raise RuntimeError(
        f"service compiled {svc.stats().plans_compiled} plans for "
        f"{len(svc.capacities)} capacities after warm-up"
    )


_COUNTERS = ("requests", "cache_hits", "dedup_hits", "flushes", "flushed_samples",
             "padded_samples", "partial_results", "watchdog_timeouts")


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in _COUNTERS}


def _service_totals(m: Measured) -> dict:
    return {k: sum(d[k] for d in m.service) for k in _COUNTERS}


def _serve_layer(m: Measured) -> dict:
    total = _service_totals(m)
    requests = max(total["requests"], 1)
    executed = total["flushed_samples"] + total["padded_samples"]
    lags_ms = [s[3] * 1000.0 for s in m.samples]
    failed = sum(not s[4] for s in m.samples)
    return {
        "serve.flush_size_mean": total["flushed_samples"] / max(total["flushes"], 1),
        "serve.padding_share": total["padded_samples"] / executed if executed else 0.0,
        "serve.cache_hit_share": total["cache_hits"] / requests,
        "serve.dedup_share": total["dedup_hits"] / requests,
        "serve.partial_results": total["partial_results"],
        "serve.watchdog_timeouts": total["watchdog_timeouts"],
        "client.sent": len(m.samples),
        "client.succeeded": len(m.samples) - failed,
        "client.failed": failed,
        "client.lag_p90_ms": percentile(lags_ms, 90),
    }


def _reference_counts(results) -> tuple[float, float]:
    """Spikes and steps per sample of the first reference batch.

    Served results carry no spike counts, so these come from the reference
    run; its first batch (the first 64 distinct inputs) is the same for
    every run of a seed, however many requests a closed loop got through.
    """
    return float(results[0].total_spikes), float(results[0].steps)


# ---------------------------------------------------------------------- #
# serve-open-loop
# ---------------------------------------------------------------------- #


def open_loop_schedule(cfg: dict, seed: int, seconds: float, slices: int):
    """One (arrival offsets, input index per request) per slice, and the inputs.

    Each slice is its own realization: a Poisson process conditioned on its
    count (exactly ``rate * seconds / slices`` arrivals, uniformly placed,
    so every seed offers the same load) whose requests re-send one of the
    slice's last ``repeat_window`` distinct inputs with probability
    ``repeat_share`` and otherwise send a fresh input.
    """
    span = seconds / slices
    n = int(round(cfg["rate_per_s"] * span))
    times, rng = stream(seed, "schedule"), stream(seed, "repeats")
    out, distinct = [], 0
    for _ in range(slices):
        arrivals = np.sort(times.uniform(0.0, span, n))
        sequence, first = [], distinct
        for _ in range(n):
            if distinct > first and rng.random() < cfg["repeat_share"]:
                back = int(rng.integers(min(distinct - first, cfg["repeat_window"])))
                sequence.append(distinct - 1 - back)
            else:
                sequence.append(distinct)
                distinct += 1
        out.append((arrivals, np.array(sequence)))
    return out, images(stream(seed, "inputs"), distinct)


def _replay(svc, xs, arrivals, sequence, split_at: int, tracer: Tracer):
    """Submit on schedule from this thread; returns what the slice measured.

    Tracing switches on at request ``split_at``.  Returns the start time,
    per-request (settle time, lag, future or refusal) and, per stretch,
    (first request, start time, stats, cpu) marks.
    """
    n = len(arrivals)
    settled = np.zeros(n)
    lags = np.zeros(n)
    futures: list = [None] * n
    remaining = [n]
    lock = threading.Lock()
    all_settled = threading.Event()

    def on_settled(i):
        def callback(_future):
            settled[i] = time.perf_counter()
            with lock:
                remaining[0] -= 1
                if remaining[0] == 0:
                    all_settled.set()
        return callback

    start = time.perf_counter() + 0.005
    marks = [(0, start, svc.stats().as_dict(), cpu_seconds())]
    for i in range(n):
        due = start + arrivals[i]
        if i == split_at:
            marks.append((i, due, svc.stats().as_dict(), cpu_seconds()))
            tracer.enabled = True
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lags[i] = time.perf_counter() - due
        try:
            futures[i] = svc.submit(xs[sequence[i]])
        except Exception as exc:  # a refusal counts as a failed request
            futures[i] = exc
            on_settled(i)(None)
            continue
        futures[i].add_done_callback(on_settled(i))
    if not all_settled.wait(60.0):
        raise RuntimeError("requests still unsettled 60 s after the schedule")
    tracer.enabled = False
    marks.append((n, None, svc.stats().as_dict(), cpu_seconds()))
    return start, settled, lags, futures, marks


def _served(future):
    """A settled request's result, or the exception it was rejected with."""
    if isinstance(future, Exception):
        return future
    try:
        return future.result(0)
    except Exception as exc:  # a rejected request counts as failed
        return exc


def open_loop(cfg: dict, seed: int, seconds: float, traced: bool,
              tracer: Tracer, plans: PlanLog) -> Outcome:
    from repro.core.t2fsnn import T2FSNN

    span = seconds / cfg["instances"]
    schedule, xs = open_loop_schedule(cfg, seed, seconds, cfg["instances"])
    warm = images(stream(seed, "warm"), 64)
    if not common.disjoint(xs, warm):
        raise RuntimeError("warm-up inputs overlap the workload's")

    m = Measured()
    answers = []  # (sample record, input index, result)
    traced_computed = 0
    network = model = None
    for k, (arrivals, sequence) in enumerate(schedule):
        n = len(arrivals)
        split_at = int(np.searchsorted(arrivals, span / 2)) if traced else n
        network = model = None
        gc.collect()
        t0 = time.perf_counter()
        network = common.build_network()
        build_s = time.perf_counter() - t0
        model = T2FSNN(network, window=MODEL["window"])
        svc = model.serve(max_batch=cfg["max_batch"], max_wait_ms=cfg["max_wait_ms"])
        try:
            warm_service(svc, warm)
            entries = plans.take()
            m.add_setup(time.perf_counter() - t0, build_s, entries)
            start, settled, lags, futures, marks = _replay(
                svc, xs, arrivals, sequence, split_at, tracer)
        finally:
            tracer.enabled = False
            svc.close()
            model.runtime.close()
        m.plans.append(plan_metrics(entries))
        del entries

        due = start + arrivals
        served = [_served(f) for f in futures]
        for i in range(n):
            record = [k, bool(i >= split_at), settled[i] - due[i], lags[i], False]
            m.samples.append(record)
            answers.append((record, sequence[i], served[i]))
        for (lo, t_from, stats0, cpu0), (hi, _, stats1, cpu1) in zip(marks, marks[1:]):
            if hi == lo:
                continue
            on = lo >= split_at
            answered = sum(not isinstance(v, Exception) for v in served[lo:hi])
            m.slices.append((k, on, settled[lo:hi].max() - t_from, cpu1 - cpu0, answered))
            m.service.append(_delta(stats1, stats0))
            if on:
                traced_computed += stats1["flushed_samples"] - stats0["flushed_samples"]

    rss = common.peak_rss_mb()
    ref_pred, ref_results = common.reference_predictions(network, False, xs)
    for record, index, value in answers:
        record[4] = bool(
            not isinstance(value, Exception)
            and not value.partial
            and value.prediction == ref_pred[index]
        )
    e2e = _end_to_end(m, cfg, rss, *_reference_counts(ref_results))
    layer = {}
    if traced:
        layer = _per_layer(m, {**tracer.summary(traced_computed), **_serve_layer(m)})
    return _outcome(
        m, e2e, layer,
        distinct_inputs=len(xs),
        lag_p90_ms=percentile([s[3] * 1000.0 for s in m.samples], 90),
        service=_service_totals(m),
    )


# ---------------------------------------------------------------------- #
# http-closed-loop
# ---------------------------------------------------------------------- #


def encode_request(x: np.ndarray, budget_ms: float) -> bytes:
    """One complete ``POST /predict`` request, ready to send."""
    body = json.dumps({"x": x.tolist(), "budget_ms": budget_ms}).encode()
    head = (
        "POST /predict HTTP/1.1\r\nHost: localhost\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    return head + body


def exchange(port: int, request: bytes, timeout: float = 30.0) -> tuple[int, bytes]:
    """Send one request on a new connection; (status, body) of the reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


class Server:
    """The launcher process hosting the model behind HttpServer."""

    def __init__(self, seed: int, traced: bool, spans_path: str | None):
        cmd = [sys.executable, os.path.join(_HERE, "http_server.py"),
               "--seed", str(seed), "--trace", "1" if traced else "0"]
        if spans_path:
            cmd += ["--spans", spans_path]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
        )
        self.ready = self._reply()
        self.port = self.ready["port"]

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def stop(self) -> dict:
        """Ask the server to quit; returns its final report."""
        report = self.ask("quit")
        self.proc.wait(timeout=30)
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _closed_loop(port: int, bodies: list, first: int, thinks: np.ndarray,
                 connections: int, duration: float):
    """``connections`` callers, each sending its next request after a reply.

    Callers take ``bodies`` in order from index ``first`` and wait
    ``thinks[i]`` seconds before sending request ``i``.  Returns the start
    time and per-request (index, send time, reply time, status, body, lag),
    where ``lag`` is how much later than planned the caller sent it.
    """
    records: list = []
    lock = threading.Lock()
    counter = [first]
    start = time.perf_counter()
    deadline = start + duration

    def caller():
        ready = start
        while True:
            with lock:
                i = counter[0]
                counter[0] += 1
            if i >= len(bodies) or time.perf_counter() >= deadline:
                return
            due = ready + thinks[i]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                status, body = exchange(port, bodies[i])
            except OSError as exc:
                status, body = 0, repr(exc).encode()
            ready = time.perf_counter()
            with lock:
                records.append((i, sent, ready, status, body, sent - due))

    threads = [threading.Thread(target=caller) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return start, records


def http_closed_loop(cfg: dict, seed: int, seconds: float, traced: bool,
                     tracer: Tracer, plans: PlanLog, spans_dir: str | None) -> Outcome:
    span = seconds / cfg["instances"]
    # Enough distinct inputs for 150 req/s, over twice the measured rate;
    # every server starts from the first, so each sees only fresh inputs.
    xs = images(stream(seed, "inputs"), int(150 * span) + 1)
    warm = images(stream(seed, "warm"), 4 * cfg["connections"])
    if not common.disjoint(xs, warm):
        raise RuntimeError("warm-up inputs overlap the workload's")
    bodies = [encode_request(x, cfg["budget_ms"]) for x in xs]
    warm_bodies = [encode_request(x, cfg["budget_ms"]) for x in warm]
    thinks = stream(seed, "schedule").exponential(cfg["think_ms"] / 1000.0, len(xs))

    m = Measured()
    answers = []  # (sample record, input index, status, body)
    summaries, rss = [], []
    for k in range(cfg["instances"]):
        spans_path = None
        if traced and spans_dir:
            spans_path = os.path.join(spans_dir, f"spans-http-closed-loop-{seed}-{k}.jsonl")
        server = Server(seed + 7919 * k, traced, spans_path)
        try:
            while exchange(server.port, b"GET /health HTTP/1.1\r\n\r\n")[0] != 200:
                time.sleep(0.01)
            m.setups.append(time.monotonic() - server.ready["t_build"])
            m.builds.append(server.ready["build_s"])
            m.compiles.append(server.ready["compile_s"])
            m.calibration.append(server.ready["operators"])
            _closed_loop(server.port, warm_bodies, 0, thinks, cfg["connections"], 60.0)
            first = 0  # inputs stay distinct within a server: its cache stays cold
            for on, duration in _phases(span, traced):
                before = server.ask("trace on" if on else "snapshot")
                start, records = _closed_loop(server.port, bodies, first, thinks,
                                              cfg["connections"], duration)
                after = server.ask("trace off" if on else "snapshot")
                m.slices.append((k, on, max(r[2] for r in records) - start,
                                 after["cpu_s"] - before["cpu_s"],
                                 sum(r[3] == 200 for r in records)))
                m.service.append(_delta(after["stats"], before["stats"]))
                if on:
                    summaries.append(after["summary"])
                for i, sent, done, status, body, lag in records:
                    record = [k, on, done - sent, lag, False]
                    m.samples.append(record)
                    answers.append((record, i, status, body))
                first = max(r[0] for r in records) + 1
            final = server.stop()
            rss.append(final["rss_mb"])
            m.plans.append(final["plans"])
        finally:
            server.kill()

    used = max(a[1] for a in answers) + 1
    network = common.build_network()
    ref_pred, ref_results = common.reference_predictions(network, False, xs[:used])
    for record, i, status, body in answers:
        if status == 200:
            reply = json.loads(body)
            record[4] = bool(not reply.get("partial") and reply["prediction"] == ref_pred[i])
    e2e = _end_to_end(m, cfg, max(rss), *_reference_counts(ref_results))
    layer = {}
    if traced:
        server_side = {key: float(np.mean([s[key] for s in summaries])) for key in summaries[0]}
        layer = _per_layer(m, {**server_side, **_serve_layer(m)})
    return _outcome(m, e2e, layer, server_rss_mb=rss, service=_service_totals(m))
