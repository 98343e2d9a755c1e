"""Launcher for http-closed-loop: the model behind HttpServer, in its own process.

Builds the benchmark model, warms the service at every plan capacity on
inputs from the seed's warm-up stream, starts
``HttpServer(PredictApp(AsyncInferenceService(service)))`` on an ephemeral
port and prints one JSON line::

    {"port": ..., "t_build": <monotonic time the build began>, ...}

It then answers one JSON line per command read from stdin:

* ``snapshot`` - process CPU seconds and the service counters;
* ``trace on`` / ``trace off`` - the same, starting / stopping the tracer
  (``trace off`` adds the per-layer summary of the traced span);
* ``quit`` (or end of input) - peak RSS and the plans' calibration, then exit.

Run by ``perfbench/workloads.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import common  # noqa: E402
from spec import MODEL, WORKLOADS  # noqa: E402
from tracing import PlanLog, Tracer, install, observe_plans, operators, plan_metrics  # noqa: E402

CFG = WORKLOADS["http-closed-loop"]


def _say(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


async def _serve(args, tracer: Tracer, plans: PlanLog) -> None:
    from repro.core.t2fsnn import T2FSNN
    from repro.serve import AsyncInferenceService
    from repro.serve.http import HttpServer, PredictApp
    from workloads import warm_service

    t_build = time.monotonic()
    t0 = time.perf_counter()
    network = common.build_network()
    build_s = time.perf_counter() - t0
    model = T2FSNN(network, window=MODEL["window"])
    svc = model.serve(max_batch=CFG["max_batch"], max_wait_ms=CFG["max_wait_ms"])
    loop = asyncio.get_running_loop()
    server = None
    try:
        warm = common.images(common.stream(args.seed, "warm"), 64)
        await loop.run_in_executor(None, warm_service, svc, warm)
        entries = plans.take()
        server = HttpServer(PredictApp(AsyncInferenceService(svc)), port=0)
        await server.start()
        _say({
            "port": server.port,
            "t_build": t_build,
            "build_s": build_s,
            "compile_s": sum(s for _, s in entries),
            "operators": [operators(p) for p, _ in entries],
        })
        traced_from = None
        while True:
            command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
            if command in ("", "quit"):
                break
            stats = svc.stats().as_dict()
            reply = {"cpu_s": common.cpu_seconds(), "stats": stats}
            if command == "trace on":
                tracer.clear()
                tracer.enabled = True
                traced_from = stats["flushed_samples"]
            elif command == "trace off":
                tracer.enabled = False
                reply["summary"] = tracer.summary(stats["flushed_samples"] - traced_from)
                if args.spans:
                    tracer.write(args.spans)
            _say(reply)
        _say({"rss_mb": common.peak_rss_mb(), "plans": plan_metrics(entries)})
    finally:
        if server is not None:
            await server.close()
        await loop.run_in_executor(None, svc.close)
        model.runtime.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="file the traced spans go to")
    args = parser.parse_args()
    tracer, plans = Tracer(), PlanLog()
    observe_plans(plans)
    if args.trace:
        install(tracer)
    asyncio.run(_serve(args, tracer, plans))


if __name__ == "__main__":
    main()
