"""Memory-mapped columnar trace store.

CSV (:mod:`repro.trace.io`) is the import/export codec — human-readable,
collector-shaped, slow.  At campaign scale the analysis side re-reads
per-run traces constantly, and parsing text dominates.  This module
stores a :class:`~repro.trace.series.TraceBundle` as a *run directory*:

.. code-block:: text

    run0001/
        meta.json           # schema, counter table, run metadata
        c0000.times.npy     # contiguous float64 sample times
        c0000.values.npy    # contiguous float64 values (NaN = gap)
        c0001.times.npy
        c0001.values.npy
        ...

Shards are indexed, not named after counters, so arbitrary counter names
(slashes, unicode) never touch the filesystem; the ``meta.json`` sidecar
maps names to shards and carries the run metadata with native JSON types
— a float stays a float and a string stays a string, with none of the
type-guessing a ``# key=value`` comment line needs.  Every file goes
through :mod:`repro.obs.atomic`, and the sidecar is written *last*: a
crash mid-write leaves either the previous complete run directory or
shards without a sidecar (which readers treat as "no store here"), never
a torn store.

Reads use ``np.load(..., mmap_mode="r")``: opening a store touches only
the sidecar, and each counter's columns are mapped lazily on first
access (:class:`ColumnarStore`), so analysing one counter of a
million-run grid never faults in the others.

:func:`read_bundle` / :func:`write_bundle` autodetect the format from
the path — a ``.csv`` file keeps going through the CSV codec, anything
else is columnar — so call sites stay format-agnostic.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from ..exceptions import TraceError
from ..obs import session as _obs
from ..obs.atomic import atomic_write, atomic_write_json
from .io import read_csv, validate_metadata, write_csv
from .series import TimeSeries, TraceBundle

__all__ = [
    "STORE_SCHEMA",
    "ColumnarStore",
    "is_columnar_store",
    "read_bundle",
    "read_columnar",
    "write_bundle",
    "write_columnar",
]

STORE_SCHEMA = "repro.trace-store/1"
_SIDECAR = "meta.json"


def _shard_names(index: int) -> tuple[str, str]:
    return f"c{index:04d}.times.npy", f"c{index:04d}.values.npy"


def write_columnar(bundle: TraceBundle, path: str | os.PathLike) -> str:
    """Write ``bundle`` as a columnar run directory at ``path``.

    Each series becomes one pair of contiguous float64 ``.npy`` shards;
    run metadata (validated by the same contract as the CSV writer) and
    the counter table land in the ``meta.json`` sidecar, written last as
    the commit point.  Returns the directory path.
    """
    if len(bundle) == 0:
        raise TraceError("cannot write an empty bundle")
    validate_metadata(bundle.metadata)
    path = os.fspath(path)
    if os.path.isfile(path):
        raise TraceError(
            f"columnar store path {path!r} is an existing file; "
            "pass a directory (or a .csv path for the CSV codec)")
    os.makedirs(path, exist_ok=True)

    counters = []
    for index, name in enumerate(bundle.names):
        ts = bundle[name]
        times_file, values_file = _shard_names(index)
        for fname, column in ((times_file, ts.times),
                              (values_file, ts.values)):
            shard = np.ascontiguousarray(column, dtype=np.float64)
            with atomic_write(os.path.join(path, fname), mode="wb") as fh:
                np.save(fh, shard, allow_pickle=False)
        counters.append({
            "name": name,
            "units": ts.units,
            "n": int(len(ts)),
            "times": times_file,
            "values": values_file,
        })

    sidecar = {
        "schema": STORE_SCHEMA,
        "counters": counters,
        "metadata": _jsonable_metadata(bundle.metadata),
    }
    atomic_write_json(os.path.join(path, _SIDECAR), sidecar)
    return path


def _jsonable_metadata(metadata: Mapping[str, object]) -> Dict[str, object]:
    """Normalise metadata for the sidecar: numpy scalars become native
    floats, everything else passes through (already validated)."""
    out: Dict[str, object] = {}
    for key, value in metadata.items():
        if isinstance(value, (np.integer, np.floating)):
            out[key] = float(value)
        else:
            out[key] = value
    return out


def is_columnar_store(path: str | os.PathLike) -> bool:
    """True when ``path`` is a directory holding a trace-store sidecar."""
    return os.path.isfile(os.path.join(os.fspath(path), _SIDECAR))


class ColumnarStore:
    """Lazy reader over one columnar run directory.

    Opening the store reads only the sidecar.  Each counter's columns
    are memory-mapped (``mmap_mode="r"``) on first access and cached, so
    touching one counter of a wide bundle never pages in the rest.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        sidecar_path = os.path.join(self.path, _SIDECAR)
        if not os.path.isfile(sidecar_path):
            raise TraceError(
                f"{self.path!r} is not a columnar trace store "
                f"(no {_SIDECAR})")
        try:
            with open(sidecar_path, "r") as fh:
                sidecar = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise TraceError(
                f"unreadable trace-store sidecar {sidecar_path!r}: {exc}"
            ) from exc
        if sidecar.get("schema") != STORE_SCHEMA:
            raise TraceError(
                f"unsupported trace-store schema "
                f"{sidecar.get('schema')!r} (expected {STORE_SCHEMA!r})")
        self._counters: Dict[str, dict] = {}
        for entry in sidecar.get("counters", []):
            self._counters[entry["name"]] = entry
        if not self._counters:
            raise TraceError(f"trace store {self.path!r} lists no counters")
        self.metadata: Dict[str, object] = dict(sidecar.get("metadata", {}))
        self._cache: Dict[str, TimeSeries] = {}

    @property
    def names(self) -> list[str]:
        """Counter names, in the order they were written."""
        return list(self._counters)

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def __len__(self) -> int:
        return len(self._counters)

    def _load_column(self, fname: str) -> np.ndarray:
        full = os.path.join(self.path, fname)
        try:
            arr = np.load(full, mmap_mode="r", allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise TraceError(
                f"unreadable trace-store shard {full!r}: {exc}") from exc
        if arr.ndim != 1 or arr.dtype != np.float64:
            raise TraceError(
                f"trace-store shard {full!r} is not a 1-D float64 column "
                f"(shape {arr.shape}, dtype {arr.dtype})")
        return arr

    def series(self, name: str) -> TimeSeries:
        """Memory-map one counter (cached)."""
        try:
            entry = self._counters[name]
        except KeyError:
            raise TraceError(
                f"no series named {name!r} in store {self.path!r}; "
                f"available: {sorted(self._counters)}") from None
        if name not in self._cache:
            self._cache[name] = TimeSeries(
                times=self._load_column(entry["times"]),
                values=self._load_column(entry["values"]),
                name=name, units=entry.get("units", ""),
            )
        return self._cache[name]

    def bundle(self, counters: Optional[Iterable[str]] = None) -> TraceBundle:
        """View the store as a :class:`TraceBundle` of memory-mapped
        series (columns still load lazily from the page cache): every
        counter, or only the named ``counters``, whose shards alone are
        mapped and checked."""
        out = TraceBundle(metadata=dict(self.metadata))
        for name in self._counters if counters is None else counters:
            out.add(self.series(name))
        return out


def read_columnar(path: str | os.PathLike) -> TraceBundle:
    """Read a columnar run directory back into a :class:`TraceBundle`."""
    return ColumnarStore(path).bundle()


def write_bundle(bundle: TraceBundle, path: str | os.PathLike,
                 *, format: str = "auto") -> str:
    """Write ``bundle`` to ``path``, autodetecting the format.

    ``format="auto"`` picks the CSV codec for paths ending in ``.csv``
    and the columnar store for everything else; ``"csv"`` and
    ``"columnar"`` force a codec.  Returns the path written.
    """
    path = os.fspath(path)
    if format == "auto":
        format = "csv" if path.lower().endswith(".csv") else "columnar"
    if format == "csv":
        write_csv(bundle, path)
        return path
    if format == "columnar":
        return write_columnar(bundle, path)
    raise TraceError(
        f"unknown trace format {format!r}; expected 'auto', 'csv' or "
        "'columnar'")


def read_bundle(path: str | os.PathLike,
                counters: Optional[Iterable[str]] = None) -> TraceBundle:
    """Read a trace from ``path``, autodetecting the format.

    A directory (with a store sidecar) reads as columnar; a regular
    file reads as CSV.  ``counters`` keeps only the named counters: a
    columnar store then maps and checks only their shards, while a CSV
    file is parsed whole and the other columns dropped.  A named
    counter the trace lacks raises :class:`TraceError` listing the
    available ones.  The read runs under a ``read-trace`` span.
    """
    path = os.fspath(path)
    with _obs.span("read-trace", path=path):
        if os.path.isdir(path):
            return ColumnarStore(path).bundle(counters)
        # Files — and missing paths — go through the CSV codec, which
        # raises the usual FileNotFoundError for paths that don't exist.
        bundle = read_csv(path)
        if counters is None:
            return bundle
        kept = TraceBundle(metadata=bundle.metadata)
        for name in counters:
            kept.add(bundle[name])
        return kept
