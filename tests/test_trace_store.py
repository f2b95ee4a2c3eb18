"""Columnar trace store: round-trip exactness, laziness, autodetection."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import TraceError
from repro.trace import (
    ColumnarStore,
    TimeSeries,
    TraceBundle,
    is_columnar_store,
    read_bundle,
    read_columnar,
    read_csv,
    write_bundle,
    write_columnar,
    write_csv,
)
from repro.trace.store import STORE_SCHEMA


def make_bundle(metadata=None):
    b = TraceBundle(metadata=metadata if metadata is not None else {
        "crash_time": 86123.5, "os_profile": "nt4"})
    b.add(TimeSeries.from_values([1.0, 2.0, 3.0, 4.0], name="avail_bytes",
                                 units="bytes"))
    b.add(TimeSeries(times=[0.0, 2.0, 4.0], values=[10.0, np.nan, 30.0],
                     name="pool/nonpaged"))
    return b


class TestColumnarRoundTrip:
    def test_values_and_times_exact(self, tmp_path):
        store = tmp_path / "run0001"
        write_columnar(make_bundle(), store)
        back = read_columnar(store)
        orig = make_bundle()
        assert back.names == orig.names
        for name in orig.names:
            np.testing.assert_array_equal(back[name].times, orig[name].times)
            np.testing.assert_array_equal(
                back[name].values, orig[name].values)
            assert back[name].units == orig[name].units

    def test_metadata_types_preserved(self, tmp_path):
        meta = {
            "crash_time": 86123.5,          # float stays float
            "os_profile": "nt4",            # string stays string
            "build": "1_000",               # decimal-lookalike stays string
            "label": "naïve ünicode ⚙",     # unicode survives
            "threshold": 0.0,
        }
        store = tmp_path / "run"
        write_columnar(make_bundle(meta), store)
        back = read_columnar(store).metadata
        assert back == meta
        assert isinstance(back["crash_time"], float)
        assert isinstance(back["build"], str)

    def test_numpy_scalar_metadata_becomes_float(self, tmp_path):
        store = tmp_path / "run"
        write_columnar(make_bundle({"crash_time": np.float64(9.5)}), store)
        value = read_columnar(store).metadata["crash_time"]
        assert value == 9.5 and isinstance(value, float)

    def test_unaligned_grids_preserved_exactly(self, tmp_path):
        # The CSV codec is row-oriented: unaligned series land on the
        # union time grid with NaN gaps.  The columnar store keeps each
        # series on its native grid, bit-exact.
        store = tmp_path / "run"
        write_columnar(make_bundle(), store)
        back = read_columnar(store)["pool/nonpaged"]
        np.testing.assert_array_equal(back.times, [0.0, 2.0, 4.0])

    def test_csv_and_columnar_agree(self, tmp_path):
        # Aligned series (one shared grid) must read back identically
        # from either codec.
        bundle = TraceBundle(metadata={"crash_time": 86123.5,
                                       "os_profile": "nt4"})
        bundle.add(TimeSeries.from_values([1.0, 2.0, np.nan, 4.0],
                                          name="avail_bytes", units="bytes"))
        bundle.add(TimeSeries.from_values([10.0, 20.0, 30.0, 40.0],
                                          name="pool/nonpaged"))
        write_csv(bundle, tmp_path / "t.csv")
        write_columnar(bundle, tmp_path / "t.store")
        from_csv = read_csv(tmp_path / "t.csv")
        from_col = read_columnar(tmp_path / "t.store")
        assert from_csv.names == from_col.names
        for name in from_csv.names:
            np.testing.assert_array_equal(
                from_csv[name].values, from_col[name].values)
            np.testing.assert_array_equal(
                from_csv[name].times, from_col[name].times)
        assert from_csv.metadata == from_col.metadata


class TestLaziness:
    def test_series_are_memory_mapped(self, tmp_path):
        store = tmp_path / "run"
        write_columnar(make_bundle(), store)
        ts = ColumnarStore(store).series("avail_bytes")
        bases = []
        base = ts.values
        while base is not None:
            bases.append(type(base).__name__)
            base = getattr(base, "base", None)
        assert "memmap" in bases, f"expected a memmap in the chain: {bases}"

    def test_open_touches_only_the_sidecar(self, tmp_path):
        store = tmp_path / "run"
        write_columnar(make_bundle(), store)
        # Corrupt one counter's shards; opening the store and reading the
        # *other* counter must still work — columns load lazily.
        reader = ColumnarStore(store)
        index = reader.names.index("pool/nonpaged")
        (store / f"c{index:04d}.values.npy").write_bytes(b"garbage")
        fresh = ColumnarStore(store)
        assert len(fresh.series("avail_bytes")) == 4
        with pytest.raises(TraceError, match="shard"):
            fresh.series("pool/nonpaged")

    def test_series_cache_returns_same_object(self, tmp_path):
        store = tmp_path / "run"
        write_columnar(make_bundle(), store)
        reader = ColumnarStore(store)
        assert reader.series("avail_bytes") is reader.series("avail_bytes")

    def test_mapped_columns_are_read_only(self, tmp_path):
        store = tmp_path / "run"
        write_columnar(make_bundle(), store)
        ts = read_columnar(store)["avail_bytes"]
        with pytest.raises((ValueError, RuntimeError)):
            ts.values[0] = -1.0


class TestAutodetection:
    def test_write_bundle_picks_codec_from_suffix(self, tmp_path):
        bundle = make_bundle()
        csv_path = write_bundle(bundle, tmp_path / "trace.csv")
        col_path = write_bundle(bundle, tmp_path / "trace.store")
        assert os.path.isfile(csv_path)
        assert is_columnar_store(col_path)

    def test_read_bundle_round_trips_both(self, tmp_path):
        bundle = make_bundle()
        for target in ("trace.csv", "run0000"):
            path = write_bundle(bundle, tmp_path / target)
            back = read_bundle(path)
            np.testing.assert_array_equal(
                back["avail_bytes"].values, bundle["avail_bytes"].values)

    def test_explicit_format_overrides_suffix(self, tmp_path):
        path = write_bundle(make_bundle(), tmp_path / "odd.csv",
                            format="columnar")
        assert is_columnar_store(path)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="unknown trace format"):
            write_bundle(make_bundle(), tmp_path / "x", format="parquet")

    def test_missing_path_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_bundle(tmp_path / "nope.csv")


class TestStoreErrors:
    def test_not_a_store(self, tmp_path):
        with pytest.raises(TraceError, match="not a columnar trace store"):
            ColumnarStore(tmp_path)

    def test_bad_schema(self, tmp_path):
        store = tmp_path / "run"
        write_columnar(make_bundle(), store)
        sidecar = json.loads((store / "meta.json").read_text())
        sidecar["schema"] = "repro.trace-store/999"
        (store / "meta.json").write_text(json.dumps(sidecar))
        with pytest.raises(TraceError, match="unsupported trace-store schema"):
            ColumnarStore(store)

    def test_corrupt_sidecar(self, tmp_path):
        store = tmp_path / "run"
        store.mkdir()
        (store / "meta.json").write_text("{not json")
        with pytest.raises(TraceError, match="unreadable trace-store sidecar"):
            ColumnarStore(store)

    def test_missing_shard(self, tmp_path):
        store = tmp_path / "run"
        write_columnar(make_bundle(), store)
        (store / "c0000.times.npy").unlink()
        with pytest.raises(TraceError, match="unreadable trace-store shard"):
            ColumnarStore(store).series("avail_bytes")

    def test_unknown_series_name(self, tmp_path):
        store = tmp_path / "run"
        write_columnar(make_bundle(), store)
        with pytest.raises(TraceError, match="no series named"):
            ColumnarStore(store).series("nope")

    def test_empty_bundle_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="empty bundle"):
            write_columnar(TraceBundle(), tmp_path / "run")

    def test_existing_file_path_rejected(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("hello")
        with pytest.raises(TraceError, match="existing file"):
            write_columnar(make_bundle(), target)

    def test_invalid_metadata_rejected_before_any_write(self, tmp_path):
        store = tmp_path / "run"
        with pytest.raises(TraceError):
            write_columnar(make_bundle({"k": "a\nb"}), store)
        assert not store.exists()

    def test_schema_constant_in_sidecar(self, tmp_path):
        store = tmp_path / "run"
        write_columnar(make_bundle(), store)
        sidecar = json.loads((store / "meta.json").read_text())
        assert sidecar["schema"] == STORE_SCHEMA


class TestColumnarProperties:
    """Property suite: arbitrary finite series and representable metadata
    survive the columnar round trip bit-exactly."""

    _values = st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1, max_size=50)

    @settings(max_examples=40, deadline=None)
    @given(values=_values, crash_time=st.floats(
        allow_nan=False, allow_infinity=False, width=64))
    def test_series_and_float_metadata_bit_exact(
            self, tmp_path_factory, values, crash_time):
        bundle = TraceBundle(metadata={"crash_time": crash_time})
        bundle.add(TimeSeries.from_values(values, name="c"))
        store = tmp_path_factory.mktemp("prop") / "run"
        write_columnar(bundle, store)
        back = read_columnar(store)
        np.testing.assert_array_equal(back["c"].values, bundle["c"].values)
        np.testing.assert_array_equal(back["c"].times, bundle["c"].times)
        assert back.metadata["crash_time"] == crash_time

    @settings(max_examples=40, deadline=None)
    @given(name=st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
        min_size=1, max_size=24).filter(lambda s: s.strip() == s and s))
    def test_arbitrary_counter_names_never_touch_the_filesystem(
            self, tmp_path_factory, name):
        bundle = TraceBundle()
        bundle.add(TimeSeries.from_values([1.0, 2.0], name=name))
        store = tmp_path_factory.mktemp("names") / "run"
        write_columnar(bundle, store)
        back = read_columnar(store)
        assert back.names == [name]
        np.testing.assert_array_equal(back[name].values, [1.0, 2.0])


class TestSimulatorStoreRoundTrip:
    def test_nt4_crash_run_survives_columnar(self, nt4_run, tmp_path):
        bundle = nt4_run.bundle
        store = tmp_path / "run"
        write_columnar(bundle, store)
        back = read_columnar(store)
        assert back.names == bundle.names
        for name in bundle.names:
            np.testing.assert_array_equal(
                back[name].values, bundle[name].values)
            np.testing.assert_array_equal(
                back[name].times, bundle[name].times)
        assert back.metadata["crash_time"] == bundle.metadata["crash_time"]
        for key, value in bundle.metadata.items():
            assert type(back.metadata[key]) is type(value), key

        # Re-analysed from either codec alone, the run scores identically.
        from repro.analysis.campaign import ExperimentSpec
        from repro.analysis.detector_registry import evaluate_detector

        write_csv(bundle, tmp_path / "run.csv")
        spec = ExperimentSpec(name="store")
        from_store, from_csv = (
            evaluate_detector(spec.detector_name, read, spec,
                              collect_scores=False).alarm_time
            for read in (back, read_csv(tmp_path / "run.csv")))
        assert from_store is not None and from_store == from_csv
