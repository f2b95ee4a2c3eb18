"""Tests for the counter-based fleet RNG and its blocked draws.

The oracle is the per-call formula: one splitmix64 pass per
``(stream, counter)`` request, with the counter arithmetic done under
``errstate``.  Blocks drawn with :meth:`FleetRng.block`, and the
``uniforms``/``normals`` calls themselves, must reproduce it bit for bit.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simkernel import FleetRng, batch_rng

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)


def _mix(x):
    with np.errstate(over="ignore"):
        z = (x + _GOLDEN).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * _MIX_A
        z = (z ^ (z >> np.uint64(27))) * _MIX_B
        return z ^ (z >> np.uint64(31))


def _tag(name):
    h = np.uint64(0xCBF29CE484222325)
    with np.errstate(over="ignore"):
        for byte in name.encode("utf-8"):
            h = (h ^ np.uint64(byte)) * np.uint64(0x100000001B3)
    return h


def oracle_uniforms(seeds, stream, counter, lanes=0):
    """Per-call uniforms: ``(n,)`` at ``counter``, or ``(n, lanes)``."""
    seeds = np.asarray(seeds, dtype=np.int64).view(np.uint64)
    key = _mix(seeds ^ _mix(np.full_like(seeds, _tag(stream))))
    if lanes:
        ctr = np.arange(counter, counter + lanes, dtype=np.int64).view(np.uint64)
        bits = _mix(key[:, None] ^ _mix(ctr)[None, :])
    else:
        ctr = np.full(1, counter, dtype=np.int64).view(np.uint64)
        bits = _mix(key ^ _mix(ctr)[0])
    return (bits >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def oracle_normals(seeds, stream, counter, lanes=0):
    """Per-call Box–Muller normals on the oracle uniforms."""
    if lanes:
        u = oracle_uniforms(seeds, stream, counter, 2 * lanes)
        u1, u2 = u[:, :lanes], u[:, lanes:]
    else:
        u1 = oracle_uniforms(seeds, stream, counter)
        u2 = oracle_uniforms(seeds, stream, counter + 1)
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def _seeds(n_hosts, base):
    return batch_rng.host_seeds(base, n_hosts).view(np.int64)


def _equal(a, b):
    """Bitwise equality, shapes included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


streams = st.one_of(
    st.sampled_from(["sess", "burst", "hold", "onoff", "leak", "frag",
                     "sampler", "pool", "thrash", "batch"]),
    st.text(min_size=1, max_size=12),
)
fleets = st.sampled_from([1, 8, 64])
bases = st.integers(min_value=0, max_value=2**31)


class TestPerCall:
    @settings(max_examples=60, deadline=None)
    @given(streams, fleets, bases, st.integers(0, 2**40), st.integers(0, 48))
    def test_uniforms_and_normals_match_oracle(self, stream, n, base, counter, lanes):
        seeds = _seeds(n, base)
        rng = FleetRng(seeds)
        assert _equal(rng.uniforms(stream, counter, lanes),
                      oracle_uniforms(seeds, stream, counter, lanes))
        assert _equal(rng.normals(stream, counter, lanes),
                      oracle_normals(seeds, stream, counter, lanes))

    def test_wrapping_counters_raise_no_warning(self):
        seeds = np.array([-1, 0, 2**63 - 1], dtype=np.int64)
        rng = FleetRng(seeds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for counter in (0, 2**62, 2**63 - 40):
                got = rng.uniforms("pool", counter, lanes=32)
                assert _equal(got, oracle_uniforms(seeds, "pool", counter, 32))
                rng.block("burst", counter // 96, 2, 3)


class TestBlocks:
    @settings(max_examples=60, deadline=None)
    @given(streams, fleets, bases, st.integers(0, 2**32), st.integers(0, 48),
           st.data())
    def test_ticks_across_block_edges_match_oracle(self, stream, n, base,
                                                   first, lanes, data):
        """Two consecutive blocks, read at ticks on either side of their
        edge, give the per-call draw of every tick."""
        seeds = _seeds(n, base)
        rng = FleetRng(seeds)
        stride = max(lanes, 1)
        nt = rng.block_ticks(stride)
        blocks = [rng.block(stream, first, nt, stride),
                  rng.block(stream, first + nt, nt, stride)]
        edge = first + nt
        ticks = {first, edge - 1, edge, min(edge + 1, edge + nt - 1),
                 data.draw(st.integers(first, edge + nt - 1))}
        for tick in sorted(ticks):
            blk = blocks[(tick - first) // nt]
            row = blk[:, (tick - first) % nt]
            if lanes:
                want = oracle_uniforms(seeds, stream, tick * stride, lanes)
                assert _equal(row, want)
            else:
                assert _equal(np.ascontiguousarray(row[:, 0]),
                              oracle_uniforms(seeds, stream, tick * stride))

    @settings(max_examples=40, deadline=None)
    @given(streams, fleets, bases, st.integers(0, 2**32), st.integers(1, 16))
    def test_box_muller_on_block_matches_oracle_normals(self, stream, n, base,
                                                        first, lanes):
        """Normals taken per block equal per-call normals, in both the
        one-counter layout (``sess``: lanes 4 and 5 of stride 8) and the
        lane layout (``burst``: lanes L..3L of stride 3L)."""
        seeds = _seeds(n, base)
        rng = FleetRng(seeds)
        nt = 3
        blk = rng.block(stream, first, nt, 8)
        z = batch_rng.box_muller(blk[..., 4], blk[..., 5])
        wide = rng.block(stream, first, nt, 3 * lanes)
        zw = batch_rng.box_muller(wide[..., lanes:2 * lanes], wide[..., 2 * lanes:])
        for t in range(nt):
            tick = first + t
            assert _equal(np.ascontiguousarray(z[:, t]),
                          oracle_normals(seeds, stream, tick * 8 + 4))
            assert _equal(np.ascontiguousarray(zw[:, t]),
                          oracle_normals(seeds, stream, tick * 3 * lanes + lanes,
                                         lanes))

    def test_block_layout(self):
        rng = FleetRng(_seeds(8, 3))
        blk = rng.block("hold", 10, 5, 16)
        assert blk.shape == (8, 5, 16)
        assert _equal(blk.reshape(8, -1), rng.uniforms("hold", 160, lanes=80))

    @pytest.mark.parametrize("n_hosts", [1, 8, 64, 10_000])
    @pytest.mark.parametrize("per_tick", [1, 8, 109, 5000])
    def test_block_size_is_bounded(self, n_hosts, per_tick):
        ticks = FleetRng(np.arange(n_hosts)).block_ticks(per_tick)
        assert 1 <= ticks <= batch_rng._BLOCK_MAX_TICKS
        assert ticks == 1 or n_hosts * per_tick * ticks <= batch_rng._BLOCK_DRAWS
