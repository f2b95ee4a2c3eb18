"""repro — reproduction of *Software Aging and Multifractality of Memory
Resources* (Shereshevsky et al., DSN 2003).

The library has three layers:

**Substrates** (everything the analysis stands on, built from scratch):

* :mod:`repro.simkernel` — deterministic discrete-event engine.
* :mod:`repro.memsim` — OS memory-subsystem simulator with heavy-tailed
  stress workloads and aging faults; replaces the paper's Windows
  NT/2000 testbed.
* :mod:`repro.generators` — synthetic fractal signals with known
  exponents (fBm, cascades, MRW, Weierstrass).
* :mod:`repro.fractal` — wavelets (DWT/MODWT/CWT), DFA, MFDFA, wavelet
  leaders, Hurst estimators, singularity spectra.
* :mod:`repro.trace`, :mod:`repro.stats`, :mod:`repro.report` —
  time-series plumbing, statistics and text rendering.

**Core** (the paper's contribution):

* :mod:`repro.core` — local Hölder exponent estimation, the windowed
  Hölder-variance aging indicator, fractal-collapse detectors, and the
  end-to-end crash-warning pipeline.

**Baselines**:

* :mod:`repro.baselines` — trend-extrapolation exhaustion prediction
  (Vaidyanathan–Trivedi) and the naive raw-counter threshold.

**Observability**:

* :mod:`repro.obs` — structured logging, metrics registry, stage-span
  tracing and per-run manifest artifacts for the simulator and the
  analysis pipeline (disabled by default; the CLI's ``--log-level`` and
  ``--telemetry-out`` flags switch it on).

Sixty-second tour::

    from repro.memsim import Machine, MachineConfig
    from repro.core import analyze_run

    result = Machine(MachineConfig.nt4(seed=7)).run()
    report = analyze_run(result.bundle, counters=["AvailableBytes"])
    print("crash at", result.crash_time)
    print("warning at", report.first_alarm_time)
    print("lead time", report.lead_time())
"""

from .exceptions import (
    ReproError,
    ValidationError,
    AnalysisError,
    SimulationError,
    TraceError,
)
from .trace import TimeSeries, TraceBundle
from .core import (
    analyze_counter,
    analyze_run,
    local_holder,
    holder_trajectory,
    holder_variance_series,
    detect_fractal_collapse,
    DetectorConfig,
)
from .memsim import Machine, MachineConfig, run_fleet
from . import obs

__version__ = "1.1.0"

__all__ = [
    "ReproError",
    "ValidationError",
    "AnalysisError",
    "SimulationError",
    "TraceError",
    "TimeSeries",
    "TraceBundle",
    "analyze_counter",
    "analyze_run",
    "local_holder",
    "holder_trajectory",
    "holder_variance_series",
    "detect_fractal_collapse",
    "DetectorConfig",
    "Machine",
    "MachineConfig",
    "run_fleet",
    "obs",
    "__version__",
]
