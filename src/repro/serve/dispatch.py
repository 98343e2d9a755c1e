"""Micro-batch dispatchers: in-process plans or a supervised worker pool.

The service's one flush path executes each micro-batch, budgeted or not,
in one of two modes (docs/DESIGN.md §11, §13):

* **Serial** (the default): the micro-batch runs through a compiled
  :class:`~repro.snn.plan.ExecutionPlan` in the flushing thread itself
  (the dispatch thread, or a budgeted flush's runner thread) — zero IPC,
  arena reuse across flushes, the latency-optimal choice on small boxes.
* **Sharded** (``workers > 1``): flushes are split into shards and mapped
  over a *persistent* ``ProcessPoolExecutor`` that reuses
  :mod:`repro.snn.parallel`'s worker machinery (same pickled-payload
  initializer, same per-shard runner, per-worker compiled plans).  Unlike
  ``run_parallel`` — which builds and tears down a pool per call — the
  pool here outlives individual flushes, so pool startup is paid once per
  service, not once per request burst.

The pool is **supervised** (:class:`~repro.reliability.supervisor
.SupervisedPool`): a worker crash mid-flush rebuilds the pool with
bounded exponential backoff and re-dispatches only the unfinished shards
— shard results are pure functions of their payload, so the reassembled
flush is bit-identical to an unfaulted one.  Only an exhausted retry
budget raises :class:`~repro.reliability.errors.PoolUnavailable`; the
service's circuit breaker decides what happens next (serial fallback now,
half-open probe later) instead of the old *permanent* serial degradation.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.reliability.errors import PoolUnavailable
from repro.reliability.supervisor import RetryPolicy, SupervisedPool
from repro.snn.parallel import _init_worker, _run_shard, worker_payload

__all__ = ["PoolUnavailable", "ShardedDispatcher"]


class ShardedDispatcher:
    """Run micro-batches over a supervised, persistent worker pool.

    Parameters
    ----------
    sim:
        The simulator to replicate into each worker (network, scheme and
        engine options ship once via the pool initializer).
    workers:
        Worker process count (resolved by the service; ``> 1`` here).
    shard_size:
        Per-shard sample count — also the batch capacity each worker
        compiles its execution plan for (plans are cached per worker, so a
        fixed shard size keeps exactly one plan per process).
    compiled:
        Route worker shards through per-worker compiled plans (the serving
        default) instead of the uncompiled engine.
    calibrate:
        Calibration flag the workers pass to their plan compilation.
    start_method:
        Multiprocessing start method.  Unlike ``run_parallel`` (whose
        callers are single-threaded, making fork cheap and safe), the
        service is inherently multithreaded when the pool spawns — forking
        a multithreaded process can deadlock children on inherited locks —
        so the default prefers ``forkserver``, then ``spawn``.
    retry:
        Pool-rebuild :class:`~repro.reliability.supervisor.RetryPolicy`;
        ``None`` uses the supervisor's default.
    on_rebuild:
        ``on_rebuild(attempt, exc)`` observer, called before each pool
        rebuild (the service counts these into ``ServiceStats``).
    """

    def __init__(
        self,
        sim,
        workers: int,
        shard_size: int,
        compiled: bool = True,
        calibrate: bool = True,
        start_method: str | None = None,
        retry: RetryPolicy | None = None,
        on_rebuild=None,
    ):
        if workers < 2:
            raise ValueError(f"ShardedDispatcher needs workers >= 2, got {workers}")
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self.workers = int(workers)
        self.shard_size = int(shard_size)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            for preferred in ("forkserver", "spawn", "fork"):
                if preferred in methods:
                    start_method = preferred
                    break
            else:  # pragma: no cover - every platform offers one of the above
                start_method = methods[0]
        self._context = multiprocessing.get_context(start_method)
        self._payload = worker_payload(
            sim, compiled=compiled, plan_batch=shard_size, calibrate=calibrate
        )
        self._supervisor = SupervisedPool(
            self._make_pool, policy=retry, on_rebuild=on_rebuild
        )

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._context,
            initializer=_init_worker,
            initargs=(self._payload,),
        )

    @property
    def rebuilds(self) -> int:
        """Pool rebuilds performed by the supervisor so far."""
        return self._supervisor.rebuilds

    def run(self, x: np.ndarray, budget_ms: float | None = None):
        """Execute one micro-batch; returns ``(scores, exhausted)``.

        Shards are contiguous, so concatenating shard scores preserves the
        submission order (the same invariant ``merge_results`` relies on).
        A mid-flush worker crash is absorbed here — rebuild, re-dispatch,
        same scores; :class:`PoolUnavailable` escapes only when the
        supervisor's retry budget is spent.

        With ``budget_ms`` set, each shard carries it in its payload and
        runs as an anytime window in its worker (shards execute
        concurrently, so the wall-clock budget applies to each, not to
        their sum).  ``exhausted`` is True when *any* shard's window was
        truncated by the budget — the flush's rows are then partial
        answers (sealed early, never cached by the service).
        """
        shards = [
            (None, x[start : start + self.shard_size], None, budget_ms)
            for start in range(0, len(x), self.shard_size)
        ]
        results = self._supervisor.map(_run_shard, shards)
        scores = np.concatenate([r.scores for r in results], axis=0)
        return scores, any(getattr(r, "budget_exhausted", False) for r in results)

    def close(self, force: bool = False) -> None:
        """Shut down the supervised pool permanently.

        ``force=True`` (the flush watchdog's recovery path) also kills the
        worker processes outright — a hung flush may have wedged them —
        and, because the supervisor is *closed* rather than merely
        discarded, the abandoned dispatch attempt cannot resurrect the
        pool: its next rebuild raises
        :class:`~repro.reliability.errors.PoolUnavailable` instead.
        """
        self._supervisor.close(force=force)
