"""Analytic (integral-based) route: association, distance law, coverage, rate.

Each solver returns IntegralResults (value, error estimate, converged
flag), with converged set from the solver's own tolerances.
experiments.evaluate_point assembles them into the reported values of one
model point; this namespace holds what it imports, and everything else is
imported from its submodule.
"""
from .association import association_probability
from .distances import topology_probabilities
from .macro import coverage_macro_batch
from .rates import rate_macro_term_result, rate_smallcell_term_result
from .smallcell import coverage_smallcell_result

__all__ = [
    "association_probability",
    "topology_probabilities",
    "coverage_macro_batch",
    "rate_macro_term_result",
    "rate_smallcell_term_result",
    "coverage_smallcell_result",
]
