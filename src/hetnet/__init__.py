"""Coverage and rate analysis for a two-tier cellular network in which
full-duplex-capable pico stations self-backhaul wirelessly to the macro tier.

Layout:
  core        parameters, derived constants, band shares, planar geometry
  numerics    fixed vectorized quadrature rules with nested error estimates
  analytic    association, joint distance pdf, tier coverage and rate integrals
  fanout      independent jobs spread over the usable CPUs (forked processes)
  montecarlo  independent brute-force simulator (cross-validation oracle)
  experiments evaluate_point (the one analytic entry point), figure presets
              and parameter sweeps
  cli         command-line front end
"""
__version__ = "0.1.0"

__all__ = ["__version__"]
