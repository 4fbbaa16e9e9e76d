"""Coverage and rate analysis for a two-tier cellular network in which
full-duplex-capable pico stations self-backhaul wirelessly to the macro tier.

Layout:
  core        parameters, derived constants, planar geometry
  numerics    adaptive 1-D quadrature (finite or semi-infinite), Gauss panels
  analytic    association, joint distance pdf, coverage and rate integrals
  montecarlo  independent brute-force simulator (cross-validation oracle)
  experiments figure presets and parameter sweeps
  cli         command-line front end
"""
from .core import (
    DuplexMode,
    NetworkParams,
    Thresholds,
    delta_m,
    delta_s,
    lens_area,
)

__version__ = "0.1.0"

__all__ = [
    "NetworkParams",
    "Thresholds",
    "DuplexMode",
    "delta_m",
    "delta_s",
    "lens_area",
    "__version__",
]
