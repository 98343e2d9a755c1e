"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload offline-baseline --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Run from the repository root.  The program is imported from ``src/`` next
to this directory.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it holds the run's metadata (box, library versions, BLAS threads,
seed, calibrated operators, error rate and raw counts).  A traced run also
writes its spans to ``.perfbench_out/``.  Any failure to import, set up or
run exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPANS_DIR = ".perfbench_out"

import spec  # noqa: E402


def _args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py and exit")
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _args(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import common
    import workloads
    from tracing import PlanLog, Tracer, install, observe_plans

    cfg = spec.WORKLOADS[args.workload]
    tracer, plans = Tracer(), PlanLog()
    observe_plans(plans)
    traced = bool(args.trace)
    if traced:
        install(tracer)
        os.makedirs(SPANS_DIR, exist_ok=True)
    meta = common.metadata(args.seed)
    kind = cfg["kind"]
    if kind == "offline":
        outcome = workloads.offline(cfg, args.seed, args.seconds, traced, tracer, plans)
    elif kind == "open-loop":
        outcome = workloads.open_loop(cfg, args.seed, args.seconds, traced, tracer, plans)
    else:
        outcome = workloads.http_closed_loop(
            cfg, args.seed, args.seconds, traced, tracer, plans,
            SPANS_DIR if traced else None,
        )
    if traced and tracer.spans:
        tracer.write(os.path.join(SPANS_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))

    units = {name: unit for name, unit, *_ in (spec.PER_LAYER if traced else spec.END_TO_END)}
    values = outcome.per_layer if traced else outcome.end_to_end
    meta.update(
        workload=args.workload,
        load=cfg,
        seconds=args.seconds,
        trace=args.trace,
        error_rate=outcome.failed / outcome.attempted,
        end_to_end=outcome.end_to_end,
        **outcome.details,
    )
    print(json.dumps({"metadata": meta}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
