"""Importer for Windows perfmon CSV logs.

Real-world entry point: the paper's data came from perfmon; a downstream
user reproducing the study on a live host exports counters with
``relog -f CSV`` and feeds the file here.  Format handled:

* first column ``"(PDH-CSV 4.0) (...)"`` with ``MM/dd/yyyy HH:mm:ss.fff``
  timestamps;
* remaining columns named ``\\\\MACHINE\\Object\\Counter`` (e.g.
  ``\\\\SRV1\\Memory\\Available Bytes``);
* blank or ``" "`` cells for missed samples.

Counter names are normalised to the library's conventions
(``Available Bytes`` -> ``AvailableBytes``, ``Pages/sec`` ->
``PagesPerSec``) where a mapping is known, and kept raw otherwise.
"""

from __future__ import annotations

import csv
import os
from datetime import datetime
from typing import List, Optional

import numpy as np

from ..exceptions import TraceError
from .series import TimeSeries, TraceBundle

_TIMESTAMP_FORMATS = (
    "%m/%d/%Y %H:%M:%S.%f",
    "%m/%d/%Y %H:%M:%S",
    "%Y-%m-%d %H:%M:%S.%f",
    "%Y-%m-%d %H:%M:%S",
)

_NAME_MAP = {
    "available bytes": "AvailableBytes",
    "available mbytes": "AvailableMBytes",
    "committed bytes": "CommittedBytes",
    "commit limit": "CommitLimitBytes",
    "pages/sec": "PagesPerSec",
    "page faults/sec": "PageFaultsPerSec",
    "pool nonpaged bytes": "PoolNonpagedBytes",
    "working set": "WorkingSetBytes",
}


def _parse_timestamp(raw: str) -> datetime:
    raw = raw.strip().strip('"')
    for fmt in _TIMESTAMP_FORMATS:
        try:
            return datetime.strptime(raw, fmt)
        except ValueError:
            continue
    raise TraceError(f"unparseable perfmon timestamp: {raw!r}")


def normalize_counter_name(column: str) -> str:
    """Map a ``\\\\MACHINE\\Object\\Counter`` column to a library name.

    Unknown counters keep their final path component with spaces and
    slashes compacted (``Foo Bar/sec`` -> ``FooBarPerSec``).
    """
    leaf = column.strip().strip('"').split("\\")[-1]
    mapped = _NAME_MAP.get(leaf.lower())
    if mapped is not None:
        return mapped
    cleaned = leaf.replace("/sec", "PerSec").replace("/", "Per")
    return "".join(part.capitalize() if part.islower() else part
                   for part in cleaned.split())


def read_perfmon_csv(
    path: str | os.PathLike,
    *,
    counters: Optional[List[str]] = None,
) -> TraceBundle:
    """Read a perfmon/relog CSV export into a :class:`TraceBundle`.

    Parameters
    ----------
    path:
        The CSV file.
    counters:
        Optional allowlist of *normalised* counter names to keep (e.g.
        ``["AvailableBytes"]``); all counters are kept by default.

    Times are converted to seconds since the first sample.  A repeated
    timestamp is nudged 1 µs past the previous one; a timestamp earlier
    than the previous row's (a DST fall-back, a clock step) raises
    :class:`TraceError` naming the line.
    """
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceError(f"{path} is empty") from None
        if len(header) < 2:
            raise TraceError("perfmon CSV needs a timestamp column and counters")
        names = [normalize_counter_name(col) for col in header[1:]]

        timestamps: List[datetime] = []
        cells: List[List[str]] = []
        for row in reader:
            if not row or not row[0].strip():
                continue
            if len(row) != len(header):
                raise TraceError(
                    f"row has {len(row)} cells, expected {len(header)}: {row[:3]!r}..."
                )
            stamp = _parse_timestamp(row[0])
            if timestamps and stamp < timestamps[-1]:
                raise TraceError(
                    f"{path} line {reader.line_num}: timestamp {row[0].strip()!r} "
                    f"is earlier than the previous row's ({timestamps[-1]})"
                )
            timestamps.append(stamp)
            cells.append(row[1:])

    if not timestamps:
        raise TraceError(f"{path} contains no data rows")
    t0 = timestamps[0]
    times = np.array([(ts - t0).total_seconds() for ts in timestamps])
    # Perfmon occasionally duplicates a timestamp on laggy samples; nudge
    # duplicates forward so the series stays strictly increasing.
    for i in range(1, times.size):
        if times[i] <= times[i - 1]:
            times[i] = times[i - 1] + 1e-6

    bundle = TraceBundle(metadata={"source": "perfmon", "t0": t0.isoformat()})
    keep = set(counters) if counters is not None else None
    for j, name in enumerate(names):
        if keep is not None and name not in keep:
            continue
        values = np.array([
            _parse_cell(row[j]) for row in cells
        ])
        if np.all(np.isnan(values)):
            continue
        if name in bundle:
            raise TraceError(f"duplicate counter {name!r} after normalisation")
        bundle.add(TimeSeries(times=times, values=values, name=name))
    if len(bundle) == 0:
        raise TraceError("no requested counters found in the file")
    return bundle


def _parse_cell(cell: str) -> float:
    cell = cell.strip().strip('"')
    if not cell:
        return np.nan
    try:
        return float(cell)
    except ValueError:
        return np.nan
