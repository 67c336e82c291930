"""Brute-force validation solvers, independent of the analytic optimizer.

This module never calls into the optimizer; it reaches the same answers by
scanning lattices and enumerating phase profiles through the plain link
evaluations, so the two paths can be compared in tests and in the CLI
validate command. Not a production solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry, link
from .scenario import Scenario, format_value

# tractability guard for the exhaustive phase enumeration
_MAX_ELEMENTS = 9
_MAX_PROFILES = 10 ** 8
# profiles scored per batched snr_explicit call; bounds the search's memory
_CHUNK_PROFILES = 4096
# size guard for the (r1h, A) lattice of brute_force_solve
_MAX_LATTICE_POINTS = 10 ** 7
# lattice points per block of the amplitude pick; bounds the pick's memory,
# while each kept column keeps four floats
_CHUNK_LATTICE_POINTS = 2 ** 20


@dataclass(frozen=True)
class OracleResult:
    """Best lattice point of brute_force_solve and the columns tied with it."""

    feasible: bool
    r1h_m: float | None = None
    a: float | None = None
    snr_linear: float | None = None
    p_harv_w: float | None = None
    # first-order bound on how much the amplitude lattice can inflate SNR
    # beyond the exact-constraint value (a_step * dSNR/dA at the kept point)
    snr_slack_linear: float | None = None
    # r1h of the kept columns within snr_slack_linear of the best, in r1h order
    tied_r1h_m: np.ndarray = field(default_factory=lambda: np.empty(0), compare=False)


def lattice_columns(r1h_m, scenario: Scenario, a_step: float):
    """The lattice's rule at the placements in the array r1h_m: one is kept
    when its harvest ceiling exceeds the consumption, the analytic solver's
    autonomy test, and takes the amplitude a in a_step * k < 1 whose harvest
    ceiling * (1 - a^2) lands nearest it. Returns the kept r1h and their
    amplitudes, SNRs (one snr_cophased call at A = 1, times a^2) and harvests."""
    a_grid = a_step * np.arange(int(round(1.0 / a_step)))
    r1, _ = geometry.center_distances(r1h_m, scenario)
    ceiling = link.harvest_ceiling(r1, scenario)
    keep = ceiling > scenario.p_ris_w
    p_harv = ceiling[keep, None] * (1.0 - a_grid ** 2)
    picks = np.argmin(np.abs(p_harv - scenario.p_ris_w), axis=1)
    a = a_grid[picks]
    snr = link.snr_cophased(r1h_m[keep], 1.0, scenario) * (a * a)
    return r1h_m[keep], a, snr, p_harv[np.arange(picks.size), picks]


def brute_force_solve(scenario: Scenario, r1h_step_m: float = 0.5, a_step: float = 0.001) -> OracleResult:
    """Grid search over (r1h, uniform A) with the harvest equality enforced
    numerically.

    The r1h columns go through lattice_columns in blocks of at most
    _CHUNK_LATTICE_POINTS lattice points (one block at the default steps up
    to a 523 m span). The kept columns run from r1h = 0, as the ceiling falls;
    their first maximum wins, so ties go to the lowest r1h, and every column
    within the amplitude step's slack of it is tied with it. Steps must be
    positive and finite; a lattice above _MAX_LATTICE_POINTS points or with
    fewer than two amplitudes is refused before anything is allocated.
    """
    if not (0.0 < r1h_step_m < math.inf and 0.0 < a_step < math.inf):
        raise ValueError("lattice steps must be positive and finite")
    n_points = (scenario.txrx_horizontal_m / r1h_step_m + 1.0) / a_step
    if n_points > _MAX_LATTICE_POINTS:
        raise ValueError(f"lattice of {n_points:.3g} points exceeds the guard of {_MAX_LATTICE_POINTS:.0e}")
    n_amplitudes = int(round(1.0 / a_step))
    if n_amplitudes < 2:
        raise ValueError(f"a_step {format_value(a_step)} leaves fewer than two amplitudes in [0, 1)")
    n_columns = int(round(scenario.txrx_horizontal_m / r1h_step_m)) + 1
    block = max(1, _CHUNK_LATTICE_POINTS // n_amplitudes)
    blocks = [lattice_columns(r1h_step_m * np.arange(start, min(start + block, n_columns)), scenario,
                              a_step) for start in range(0, n_columns, block)]
    r, a, snr, p_harv = (np.concatenate(column) for column in zip(*blocks))
    if not r.size:
        return OracleResult(feasible=False)
    k = int(np.argmax(snr))
    slack = 2.0 * float(snr[k]) * a_step / max(float(a[k]), a_step)
    return OracleResult(
        feasible=True,
        r1h_m=float(r[k]),
        a=float(a[k]),
        snr_linear=float(snr[k]),
        p_harv_w=float(p_harv[k]),
        snr_slack_linear=slack,
        tied_r1h_m=r[snr >= snr[k] - slack],
    )


def exhaustive_phase_search(
    scenario: Scenario,
    r1h_m: float,
    phase_levels: int,
    uniform_a: float,
):
    """Enumerate every quantized phase profile and return the best.

    Levels are 2*pi*k/phase_levels for k = 0..phase_levels-1. The SNR is
    invariant to a global phase shift, so element 0 is held at level 0 and
    only the other M_s - 1 elements are enumerated: phase_levels ** (M_s - 1)
    profiles, in itertools.product order. Each chunk of at most
    _CHUNK_PROFILES profiles is built from an integer range and scored in one
    batched link.snr_explicit call at the given placement and uniform
    amplitude, so memory does not grow with the profile count. The first best
    profile wins. Only tractable on tiny surfaces; guarded to at most 9
    elements and 1e8 unreduced profiles. Returns (best_phases, best_snr_linear).
    """
    m_s = scenario.m_s
    if m_s > _MAX_ELEMENTS:
        raise ValueError(f"exhaustive search limited to {_MAX_ELEMENTS} elements, got {m_s}")
    if phase_levels < 1:
        raise ValueError("phase_levels must be at least 1")
    if phase_levels ** m_s > _MAX_PROFILES:
        raise ValueError("phase_levels ** m_s exceeds the tractability guard")

    shape = (scenario.ris_rows, scenario.ris_cols)
    level_values = 2.0 * math.pi * np.arange(phase_levels) / phase_levels
    # place value of each free element's level digit, most significant first
    place = phase_levels ** np.arange(m_s - 2, -1, -1)
    n_profiles = phase_levels ** (m_s - 1)

    best_snr = -math.inf
    best_phases = None
    for start in range(0, n_profiles, _CHUNK_PROFILES):
        index = np.arange(start, min(start + _CHUNK_PROFILES, n_profiles))
        digits = np.zeros((index.size, m_s), dtype=np.int64)
        digits[:, 1:] = index[:, None] // place % phase_levels
        phases = level_values[digits].reshape((index.size,) + shape)
        amplitudes = np.broadcast_to(float(uniform_a), phases.shape)
        snr = link.snr_explicit(r1h_m, link.ReflectionState(amplitudes, phases), scenario)
        k = int(np.argmax(snr))
        if snr[k] > best_snr:
            best_snr = float(snr[k])
            best_phases = phases[k]
    return best_phases, best_snr


__all__ = ["OracleResult", "brute_force_solve", "exhaustive_phase_search"]
