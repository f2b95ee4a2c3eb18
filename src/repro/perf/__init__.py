"""Performance execution layer: process-parallel fan-out.

Everything in this package is an *execution strategy*, never a new
algorithm: results are bit-identical to the sequential code paths they
accelerate, and the equivalence is guarded by tests.

* :mod:`repro.perf.pool` — :func:`parallel_map` fans deterministic work
  units across a ``ProcessPoolExecutor``, merges per-worker telemetry
  back into the parent session, and degrades gracefully to the
  sequential path when parallelism is unavailable or not worth it.

The online monitor's truncated Hölder tail lives next to the estimator
it shortcuts, as :func:`repro.core.holder.holder_tail`.
"""

from .pool import parallel_map, resolve_workers

__all__ = [
    "parallel_map",
    "resolve_workers",
]
