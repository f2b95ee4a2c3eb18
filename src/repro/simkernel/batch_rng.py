"""Batched, counter-based random streams for vectorised fleet simulation.

The object-model :class:`~repro.simkernel.rng.RngRegistry` hands each machine
a family of sequential ``numpy.random.Generator`` streams.  That design is
exactly right for a discrete-event loop but wrong for a struct-of-arrays
fleet engine, where every tick wants *one* draw per host as a contiguous
array and where a host's trajectory must not depend on which other hosts
happen to share the process (otherwise sharding a fleet across workers, or
comparing a batch against a singleton run, would change the numbers).

:class:`FleetRng` therefore derives every variate from a *counter-based*
construction: a splitmix64-style mixing function applied to

    ``mix(key(host_seed, stream)  ^  mix(counter))``

so the draw for host ``i`` on stream ``s`` at counter ``c`` is a pure
function of ``(base_seed + i, s, c)``.  Two consequences the fleet engine
relies on:

* **batch decomposition** — simulating host ``i`` alone yields bit-identical
  draws to simulating it inside any fleet, which is what makes the
  batch-vs-singleton equivalence oracle exact;
* **shard invariance** — splitting a fleet across worker processes cannot
  perturb results, so ``run_fleet(..., engine="vector", workers=k)`` is
  bit-identical for every ``k``.

Counters are managed by the caller: the fleet engine gives each stream a
fixed *stride* of counters per tick, so lane ``j`` of tick ``k`` is counter
``k * stride + j``.  Because a draw depends on nothing but its counter,
:meth:`FleetRng.block` can draw a whole block of ticks in one splitmix64 pass
over ``(n_hosts, ticks * stride)`` counters and hand back the same bits that
one call per tick would; :meth:`FleetRng.block_ticks` bounds the block so its
size does not grow with the fleet.  The engine keeps the blocks it draws;
this module keeps nothing but the cached per-stream keys.

The counter arithmetic wraps modulo 2**64 on uint64 *arrays*, which numpy
does silently; only numpy integer *scalars* warn on overflow, so the one
scalar loop (the stream tag) is the only place that suppresses the warning.

The derived samplers (exponential, Pareto, lognormal, geometric, Poisson,
binomial) are deliberately the inverse-CDF / moment-matched forms documented
in ``docs/PERFORMANCE.md``: they match the object model's distributions, not
its bit patterns — cross-engine equivalence is statistical by design.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = [
    "FleetRng",
    "host_seeds",
    "box_muller",
    "exponential",
    "pareto_duration",
    "lognormal",
    "geometric",
    "poisson",
    "binomial",
    "stochastic_round",
]

# splitmix64 constants (Steele, Lea & Flood 2014), as uint64 scalars.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U53 = np.float64(1.0 / (1 << 53))

_SHIFT_30, _SHIFT_27, _SHIFT_31 = np.uint64(30), np.uint64(27), np.uint64(31)

# Most draws one block holds across all hosts (float64: 512 KiB), and most
# ticks it spans; a block of a 10k-host fleet shrinks to one tick.
_BLOCK_DRAWS = 1 << 16
_BLOCK_MAX_TICKS = 256


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser over a uint64 array (a new array;
    the arithmetic wraps modulo 2**64)."""
    z = x + _GOLDEN
    z ^= z >> _SHIFT_30
    z *= _MIX_A
    z ^= z >> _SHIFT_27
    z *= _MIX_B
    z ^= z >> _SHIFT_31
    return z


def _stream_tag(name: str) -> np.uint64:
    """Stable 64-bit tag for a stream name (FNV-1a, no hash randomisation)."""
    h = np.uint64(0xCBF29CE484222325)
    prime = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for byte in name.encode("utf-8"):
            h = (h ^ np.uint64(byte)) * prime
    return h


def host_seeds(base_seed: float, n_hosts: int) -> np.ndarray:
    """Per-host seeds using the same ``base_seed + i`` derivation as
    :func:`repro.memsim.machine.run_fleet`."""
    return (np.int64(int(base_seed)) + np.arange(n_hosts, dtype=np.int64)).view(
        np.uint64
    )


class FleetRng:
    """Counter-based uniform source for a fleet of hosts.

    Parameters
    ----------
    seeds:
        Per-host integer seeds (``host_seeds(base_seed, n)`` for the standard
        derivation).  May be any integer array; values are mixed, so adjacent
        seeds yield decorrelated streams.
    """

    def __init__(self, seeds: np.ndarray) -> None:
        seeds = np.asarray(seeds)
        if seeds.ndim != 1 or seeds.size == 0:
            raise ValueError("seeds must be a non-empty 1-d array")
        self._seeds = seeds.astype(np.int64, copy=True).view(np.uint64)
        self._keys: Dict[str, np.ndarray] = {}

    @property
    def n_hosts(self) -> int:
        return int(self._seeds.size)

    def _key(self, stream: str) -> np.ndarray:
        key = self._keys.get(stream)
        if key is None:
            key = _mix64(self._seeds ^ _mix64(np.full_like(self._seeds, _stream_tag(stream))))
            self._keys[stream] = key
        return key

    def uniforms(self, stream: str, counter: int, lanes: int = 0) -> np.ndarray:
        """Uniform(0, 1) draws on ``stream`` at ``counter``.

        With ``lanes == 0`` returns shape ``(n_hosts,)`` using the single
        counter value; with ``lanes == k`` returns ``(n_hosts, k)`` using
        counters ``counter + 0 .. counter + k - 1``.  Values lie in
        ``[0, 1)`` with 53-bit resolution.
        """
        key = self._key(stream)
        if lanes:
            ctr = np.arange(counter, counter + lanes, dtype=np.int64).view(np.uint64)
            bits = _mix64(key[:, None] ^ _mix64(ctr)[None, :])
        else:
            ctr = np.full(1, counter, dtype=np.int64).view(np.uint64)
            bits = _mix64(key ^ _mix64(ctr)[0])
        bits >>= np.uint64(11)
        return bits.astype(np.float64) * _U53

    def normals(self, stream: str, counter: int, lanes: int = 0) -> np.ndarray:
        """Standard-normal draws via Box–Muller (two uniforms per normal):
        ``box_muller(u[counter], u[counter + 1])`` with ``lanes == 0``,
        lanes ``counter .. counter + lanes - 1`` against the next ``lanes``
        counters otherwise."""
        if lanes:
            u = self.uniforms(stream, counter, lanes=2 * lanes)
            return box_muller(u[:, :lanes], u[:, lanes:])
        return box_muller(self.uniforms(stream, counter),
                          self.uniforms(stream, counter + 1))

    def block_ticks(self, per_tick: int) -> int:
        """Ticks one block spans when each tick takes ``per_tick``
        counters per host: at most ``_BLOCK_DRAWS`` draws over the fleet
        and ``_BLOCK_MAX_TICKS`` ticks, and at least one tick."""
        return max(1, min(_BLOCK_MAX_TICKS,
                          _BLOCK_DRAWS // (self.n_hosts * max(1, per_tick))))

    def block(self, stream: str, tick: int, ticks: int, stride: int) -> np.ndarray:
        """Uniforms of ``ticks`` consecutive ticks from ``tick`` on a
        stream that takes ``stride`` counters per tick, in one pass.

        Shape ``(n_hosts, ticks, stride)``; element ``[:, t, j]`` is
        bit-identical to ``uniforms(stream, (tick + t) * stride + j)``.
        """
        u = self.uniforms(stream, tick * stride, lanes=ticks * stride)
        return u.reshape(self.n_hosts, ticks, stride)


def box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normals from two equal-shaped uniform arrays."""
    r = np.sqrt(-2.0 * np.log1p(-u1))
    return r * np.cos(2.0 * np.pi * u2)


# -- derived samplers (inverse CDF / moment matched) ------------------------


def exponential(u: np.ndarray, mean) -> np.ndarray:
    """Exponential with the given mean via inverse CDF."""
    return -np.log1p(-u) * mean


def pareto_duration(u: np.ndarray, shape: float, mean: float) -> np.ndarray:
    """Pareto phase duration matching ``repro.memsim.workloads._pareto``.

    The object model draws ``xm * (1 + rng.pareto(shape))`` with
    ``xm = mean * (shape - 1) / shape``; the Lomax ``1 + pareto`` form has
    CDF ``1 - x**-shape`` for ``x >= 1``, inverted here.
    """
    xm = mean * (shape - 1.0) / shape
    return xm * np.power(1.0 - u, -1.0 / shape)


def lognormal(z: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    """Lognormal from standard normals."""
    return np.exp(mu + sigma * z)


def geometric(u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Geometric (support 1, 2, ...) matching ``rng.geometric(p)``."""
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return np.floor(np.log1p(-u) / np.log1p(-p)).astype(np.int64) + 1


def poisson(lam: np.ndarray, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Poisson counts: exact inverse-CDF for small means, normal
    approximation above ``lam >= 32`` (fleet engine draws both a uniform and
    a normal per sample so the branch is vectorised, not per-host)."""
    lam = np.asarray(lam, dtype=np.float64)
    out = np.zeros(np.broadcast(lam, u).shape, dtype=np.int64)
    big = lam >= 32.0
    if big.any():
        approx = np.rint(lam + np.sqrt(np.maximum(lam, 0.0)) * z)
        out = np.where(big, np.maximum(approx, 0.0).astype(np.int64), out)
    small = ~big & (lam > 0)
    if small.any():
        # Vectorised inverse-CDF walk; bounded by mean + 12*sd + 12 terms.
        lam_s = np.where(small, lam, 0.0)
        pmf = np.exp(-lam_s)
        cdf = pmf.copy()
        k = np.zeros_like(out)
        kmax = int(np.ceil(np.max(lam_s) + 12.0 * np.sqrt(np.max(lam_s)) + 12.0))
        uu = np.broadcast_to(u, cdf.shape)
        for step in range(1, kmax + 1):
            undecided = small & (uu > cdf)
            if not undecided.any():
                break
            k = k + undecided.astype(np.int64)
            pmf = pmf * lam_s / step
            cdf = cdf + pmf
        out = np.where(small, k, out)
    return out


def binomial(n: np.ndarray, p: float, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Binomial(n, p) counts, moment-matched.

    Small-mean cells (the common case: leak fractions of a few pages per
    tick) use the Poisson limit with exact inverse CDF; larger means use the
    normal approximation.  Always clipped to ``[0, n]``.
    """
    n = np.asarray(n, dtype=np.int64)
    mean = n * p
    out = poisson(np.where(mean < 32.0, mean, 0.0), u, z)
    big = mean >= 32.0
    if big.any():
        sd = np.sqrt(np.maximum(n * p * (1.0 - p), 0.0))
        approx = np.maximum(np.rint(mean + sd * z), 0.0).astype(np.int64)
        out = np.where(big, approx, out)
    return np.clip(out, 0, n)


def stochastic_round(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Round ``x`` to an integer, up with probability ``frac(x)``."""
    lo = np.floor(x)
    return (lo + (u < (x - lo))).astype(np.int64)
