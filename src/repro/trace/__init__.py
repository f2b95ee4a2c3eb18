"""Trace toolkit: time-series container, I/O, and preprocessing.

This subpackage is the common currency of the library: the memory
simulator produces :class:`TimeSeries` objects, the fractal estimators and
aging detectors consume them.

Public API
----------
:class:`TimeSeries`
    Immutable, uniformly-sampled (or timestamped) scalar series.
:class:`TraceBundle`
    A named collection of aligned series (one per performance counter).
:func:`read_csv` / :func:`write_csv`
    Round-trip a bundle through a plain CSV file.
:func:`read_bundle` / :func:`write_bundle`
    Format-autodetecting I/O: ``.csv`` paths use the CSV codec, anything
    else the memory-mapped columnar store (:mod:`repro.trace.store`).
:class:`ColumnarStore`
    Lazy per-counter reader over one columnar run directory.
Preprocessing helpers
    :func:`detrend`, :func:`difference`, :func:`resample_uniform`,
    :func:`fill_gaps`, :func:`segment`.
"""

from .series import TimeSeries, TraceBundle
from .io import read_csv, validate_metadata, write_csv
from .store import (
    ColumnarStore,
    is_columnar_store,
    read_bundle,
    read_columnar,
    write_bundle,
    write_columnar,
)
from .perfmon import read_perfmon_csv, normalize_counter_name
from .preprocess import (
    detrend,
    difference,
    resample_uniform,
    fill_gaps,
    segment,
)

__all__ = [
    "TimeSeries",
    "TraceBundle",
    "read_csv",
    "write_csv",
    "validate_metadata",
    "read_bundle",
    "write_bundle",
    "read_columnar",
    "write_columnar",
    "ColumnarStore",
    "is_columnar_store",
    "read_perfmon_csv",
    "normalize_counter_name",
    "detrend",
    "difference",
    "resample_uniform",
    "fill_gaps",
    "segment",
]
