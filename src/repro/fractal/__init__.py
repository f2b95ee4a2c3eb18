"""Fractal and multifractal analysis substrate.

Everything the paper's Hölder/aging analysis rests on, built from
scratch on numpy:

Wavelets (:mod:`.wavelets`)
    Daubechies filters by spectral factorisation, periodic DWT/inverse,
    MODWT, and an FFT-based CWT (Mexican hat / derivative-of-Gaussian /
    Morlet).
Global scaling estimators
    :func:`dfa` (detrended fluctuation analysis), :func:`mfdfa`
    (its q-order multifractal generalisation), wavelet leaders
    (:func:`wavelet_leader_analysis`), and the Hurst toolbox in
    :mod:`.hurst` (R/S, aggregated variance, periodogram, wavelet
    variance).
Spectra (:mod:`.spectrum`)
    Legendre transform from tau(q) to the singularity spectrum f(alpha),
    spectrum width, and box-method partition functions for measures.
"""

from .wavelets import (
    daubechies_filter,
    dwt,
    idwt,
    dwt_max_level,
    modwt,
    cwt,
)
from .dfa import dfa, DfaResult
from .mfdfa import mfdfa, MfdfaResult
from .hurst import (
    rs_analysis,
    aggregated_variance,
    periodogram_gph,
    wavelet_variance_hurst,
    hurst_summary,
)
from .spectrum import (
    legendre_spectrum,
    SingularitySpectrum,
    partition_function_tau,
    spectrum_width,
)
from .leaders import wavelet_leaders, wavelet_leader_analysis, WaveletLeaderResult
from .sliding import sliding_mfdfa, SlidingMfdfaResult
from .surrogates import (
    shuffle,
    phase_randomized,
    iaaft,
    multifractality_test,
    SurrogateTestResult,
)

__all__ = [
    "daubechies_filter",
    "dwt",
    "idwt",
    "dwt_max_level",
    "modwt",
    "cwt",
    "dfa",
    "DfaResult",
    "mfdfa",
    "MfdfaResult",
    "rs_analysis",
    "aggregated_variance",
    "periodogram_gph",
    "wavelet_variance_hurst",
    "hurst_summary",
    "legendre_spectrum",
    "SingularitySpectrum",
    "partition_function_tau",
    "spectrum_width",
    "wavelet_leaders",
    "wavelet_leader_analysis",
    "WaveletLeaderResult",
    "sliding_mfdfa",
    "SlidingMfdfaResult",
    "shuffle",
    "phase_randomized",
    "iaaft",
    "multifractality_test",
    "SurrogateTestResult",
]
