"""Analytic (integral-based) route: association, distance law, coverage, rate.

This namespace holds what the commands and the README's library example
import; everything else is imported from its submodule.
"""
from .association import association_probability
from .coverage import coverage_total
from .distances import topology_probabilities
from .macro import coverage_macro_result
from .rates import (
    rate_covered,
    rate_macro_term_result,
    rate_smallcell_term_result,
)
from .smallcell import coverage_smallcell_result

__all__ = [
    "association_probability",
    "coverage_total",
    "topology_probabilities",
    "coverage_macro_result",
    "rate_covered",
    "rate_macro_term_result",
    "rate_smallcell_term_result",
    "coverage_smallcell_result",
]
