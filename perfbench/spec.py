"""What the benchmark measures: workloads, metrics, bounds and the layer map.

This module is the single source of ``BENCHMARK.json``: ``python3
perfbench/run.py --write-spec`` renders it from the tables below.  What
the JSON schema has no room for lives here too: each workload's load shape
and latency limit (also echoed in every run's metadata line), the
layer-to-metric map, and the exclusions with their measurements.
"""

from __future__ import annotations

#: Model shared by every workload: an untrained VGG7 at width 0.25 on
#: 3x32x32 inputs, converted on 64 images drawn from ``MODEL_SEED`` (the
#: network is the same in every run; only the inputs follow --seed).
MODEL = {"width": 0.25, "input_shape": (3, 32, 32),
         "classes": 10, "weight_seed": 7, "norm_images": 64, "window": 32}
MODEL_SEED = 0

#: Seconds one run measures (split evenly over its set-up instances).
RUN_SECONDS = 16

# Each workload's ``instances`` is its number of set-ups per run.  Each
# instance builds the model, compiles and calibrates from scratch and
# measures its own slice of --seconds: calibration re-picks kernels by
# timing on every start, so pooling several starts keeps one unlucky
# calibration from setting a run's numbers.  ``setup_s`` is the median of
# a run's set-ups.

WORKLOADS = {
    "offline-baseline": {
        "why": (
            "Bulk drains: GEMM, im2col and closed-form firing are the work; "
            "no serving layer. Closed loop, 1 caller, batches of 64 from a "
            "128-sample seeded pool; call latency limit 1000 ms."
        ),
        "kind": "offline",
        "instances": 4,
        "early_firing": False,
        "batch": 64,
        "pool": 128,
        "latency_limit_ms": 1000.0,
    },
    "offline-early-firing": {
        "why": (
            "Overlapped windows force per-step TTFS steps and sparse builds on "
            "the same kernels as offline-baseline. Closed loop, batches of 64 "
            "from a 128-sample pool; call limit 4000 ms."
        ),
        "kind": "offline",
        "instances": 4,
        "early_firing": True,
        "batch": 64,
        "pool": 128,
        "latency_limit_ms": 4000.0,
    },
    "serve-open-loop": {
        "why": (
            "Sparse arrivals: flush wait, padding, per-request submit, cache "
            "and dedup on the unbudgeted path. Open loop, Poisson 50 req/s, "
            "25% repeats of the last 64 inputs; limit 100 ms."
        ),
        "kind": "open-loop",
        "instances": 4,
        "latency_window": 100,
        "rate_per_s": 50.0,
        "repeat_share": 0.25,
        "repeat_window": 64,
        "max_batch": 8,
        "max_wait_ms": 2.0,
        "latency_limit_ms": 100.0,
    },
    "http-closed-loop": {
        "why": (
            "Waiting callers over HTTP: JSON, one-shot TCP, the aio bridge and "
            "the budgeted flush path. Closed loop, 2 connections, 5 ms mean think "
            "time, distinct inputs, budget_ms=1000; limit 200 ms."
        ),
        "kind": "http",
        "instances": 4,
        "latency_window": 100,
        "connections": 2,
        "think_ms": 5.0,
        "budget_ms": 1000.0,
        "max_batch": 8,
        "max_wait_ms": 2.0,
        "latency_limit_ms": 200.0,
    },
}

#: End-to-end metrics: (name, unit, better, bound).  ``correct_share`` is
#: 1 - error_rate: the share of attempted samples or requests answered in
#: full with the reference engine's prediction (an end-to-end metric must
#: never read 0, and the error rate reads 0 on a correct program).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("samples_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_sample", "ms", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("slo_attainment", "share", "higher", 0.05),
    ("correct_share", "share", "higher", 0.01),
    ("spikes_per_sample", "spikes", "lower", 0.01),
    ("steps_per_sample", "steps", "lower", 0.01),
]

STAGES = ("input", "conv1", "conv2", "conv3", "conv4", "conv5", "conv6", "classifier")

#: Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = [
    ("convert.build_s", "s", "lower"),
    ("snn.plan.compile_s", "s", "lower"),
    ("snn.plan.gemm_stages", "count", "higher"),
    ("snn.plan.event_stages", "count", "higher"),
    ("snn.plan.run_ms_per_sample", "ms", "lower"),
    ("snn.plan.workspace_mb", "MB", "lower"),
]
for _stage in STAGES:
    PER_LAYER += [
        (f"stage.{_stage}.propagate_ms", "ms", "lower"),
        (f"stage.{_stage}.event_calls", "calls/run", "lower"),
        (f"stage.{_stage}.gemm_calls", "calls/run", "lower"),
        (f"stage.{_stage}.drive_density", "share", "lower"),
        (f"stage.{_stage}.dynamics_ms", "ms", "lower"),
        (f"stage.{_stage}.spikes_per_sample", "spikes", "lower"),
    ]
PER_LAYER += [
    ("serve.submit_us_p50", "us", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.flush_compute_ms_p50", "ms", "lower"),
    ("serve.flush_size_mean", "samples", "higher"),
    ("serve.padding_share", "share", "lower"),
    ("serve.cache_hit_share", "share", "higher"),
    ("serve.dedup_share", "share", "higher"),
    ("serve.partial_results", "count", "lower"),
    ("serve.watchdog_timeouts", "count", "lower"),
    ("serve.http.app_ms_p50", "ms", "lower"),
    ("serve.aio.predict_ms_p50", "ms", "lower"),
    ("client.sent", "count", "higher"),
    ("client.succeeded", "count", "higher"),
    ("client.failed", "count", "lower"),
    ("client.lag_p90_ms", "ms", "lower"),
    ("trace.samples_per_s_untraced", "1/s", "higher"),
    ("trace.samples_per_s_traced", "1/s", "higher"),
    ("trace.overhead_share", "share", "lower"),
]

#: Which end-to-end metric each layer metric should move, and where.
LAYER_MAP = {
    "convert.build_s": "setup_s on every workload",
    "snn.plan.compile_s": "setup_s on every workload",
    "snn.plan.gemm_stages": "explains the samples_per_s spread on both offline workloads",
    "snn.plan.event_stages": "explains the samples_per_s spread on both offline workloads",
    "snn.plan.run_ms_per_sample": (
        "samples_per_s and cpu_ms_per_sample on the offline workloads; "
        "latency_p50_ms on serve-open-loop"
    ),
    "snn.plan.workspace_mb": "peak_rss_mb on the offline workloads",
    "stage.<s>.propagate_ms": "samples_per_s on offline-baseline",
    "stage.<s>.dynamics_ms": "samples_per_s on offline-early-firing",
    "stage.<s>.event_calls/gemm_calls/drive_density": "the kernel each stage took",
    "stage.<s>.spikes_per_sample": "spikes_per_sample on every workload",
    "serve.submit_us_p50": "latency_p50_ms on serve-open-loop",
    "serve.queue_wait_ms_p50": "latency_p50_ms and latency_p90_ms on serve-open-loop",
    "serve.flush_compute_ms_p50": "latency_p50_ms on both serving workloads",
    "serve.flush_size_mean": (
        "cpu_ms_per_sample on serve-open-loop; samples_per_s on http-closed-loop"
    ),
    "serve.padding_share": (
        "cpu_ms_per_sample on serve-open-loop; samples_per_s on http-closed-loop"
    ),
    "serve.cache_hit_share": (
        "latency_p50_ms and cpu_ms_per_sample on serve-open-loop; 0 on http-closed-loop"
    ),
    "serve.dedup_share": (
        "latency_p50_ms and cpu_ms_per_sample on serve-open-loop; 0 on http-closed-loop"
    ),
    "serve.partial_results": "correct_share and slo_attainment on http-closed-loop",
    "serve.watchdog_timeouts": "correct_share and slo_attainment on http-closed-loop",
    "serve.http.app_ms_p50": (
        "latency_p50_ms and samples_per_s on http-closed-loop "
        "(app minus aio = parse + serialize; client minus app = transport)"
    ),
    "serve.aio.predict_ms_p50": "latency_p50_ms and samples_per_s on http-closed-loop",
    "client.*": "load generator health on the serving workloads",
    "trace.overhead_share": "1 - traced/untraced samples_per_s in the same run",
}

#: Left out on purpose, with the numbers that justify it (2-core box,
#: numpy 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31).
EXCLUSIONS = {
    "snn.parallel": (
        "workers=2 compiled gave 22.9-32.4 samples/s on early firing and "
        "93.6-120.9 on baseline over three runs: slower than serial and +-15% "
        "run to run from BLAS oversubscription; gets a workload once fixed"
    ),
    "rates >= 120 req/s": (
        "near saturation: at 120 req/s p50 ranged 27-47 ms and p90 71-257 ms "
        "across three runs"
    ),
    "p99": "open-loop p99 spread +-20% across identical 600-request runs; p90 is reported",
}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document for these tables."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }

