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

from .scenario import (
    ConfigError,
    PowerModel,
    Scenario,
    apply_overrides,
    build_scenario,
    default_scenario,
    load_scenario,
    noise_power_w,
    parabolic_gain,
    parse_config_text,
    ris_power_consumption,
    save_scenario,
    scenario_to_text,
)
from .geometry import (
    ElementGrid,
    center_distances,
    element_distances,
    element_grid,
    element_offsets,
)
from .link import (
    LinkReport,
    ReflectionState,
    absorbed_power_element,
    harvested_power,
    link_report,
    snr_cophased,
    snr_explicit,
)
from .optimizer import (
    PlacementSolution,
    SiteCandidate,
    SiteSelection,
    evaluate_placement,
    optimal_amplitude,
    optimal_phases,
    placement_objective,
    select_site,
    solve_placement,
)
from .oracle import OracleResult, brute_force_solve, exhaustive_phase_search

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "PowerModel", "Scenario", "default_scenario", "load_scenario",
    "noise_power_w", "parabolic_gain", "ris_power_consumption", "save_scenario",
    "apply_overrides", "build_scenario", "parse_config_text", "scenario_to_text",
    "ElementGrid", "center_distances",
    "element_distances", "element_grid", "element_offsets",
    "LinkReport", "ReflectionState", "absorbed_power_element", "harvested_power",
    "link_report", "snr_cophased", "snr_explicit",
    "PlacementSolution", "SiteCandidate", "SiteSelection",
    "evaluate_placement", "optimal_amplitude", "optimal_phases",
    "placement_objective", "select_site", "solve_placement",
    "OracleResult", "brute_force_solve", "exhaustive_phase_search",
    "__version__",
]
