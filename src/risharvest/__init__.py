"""Placement and reflection tuning for an energy-autonomous reflecting-surface
relay on a mmWave link.

The surface relays a blocked TX-to-RX link and powers its own electronics by
absorbing part of the impinging wave. This package computes the per-element
reflection response and the horizontal placement that maximize received SNR
subject to harvesting exactly the consumed power, plus brute-force oracles
for validating the closed forms.
"""

import os

# No BLAS calls here: keep numpy's OpenBLAS from starting worker threads that
# spin for ~0.1 s of CPU per process and make short runs' wall time jumpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .link import ReflectionState, snr_cophased, snr_explicit
from .optimizer import optimal_phases, select_site, solve_placement
from .oracle import brute_force_solve, exhaustive_phase_search
from .scenario import default_scenario

__version__ = "0.1.0"

# the names the README and the demos import; everything else is imported
# from its module
__all__ = [
    "default_scenario",
    "ReflectionState", "snr_cophased", "snr_explicit",
    "optimal_phases", "select_site", "solve_placement",
    "brute_force_solve", "exhaustive_phase_search",
    "__version__",
]
