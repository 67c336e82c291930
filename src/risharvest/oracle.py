"""Brute-force validation solvers, independent of the analytic optimizer.

This module never calls into the optimizer; it reaches the same answers by
scanning lattices and enumerating phase profiles through the plain link
evaluations, so the two paths can be compared in tests and in the CLI
validate command. Not a production solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# lattice points per block of the amplitude pick; bounds the solver's memory
_CHUNK_LATTICE_POINTS = 2 ** 20


@dataclass(frozen=True)
class OracleResult:
    """Best lattice point found by brute_force_solve at the caller's steps."""

    feasible: bool
    r1h_m: float | None = None
    a: float | None = None
    snr_linear: float | None = None
    p_harv_w: float | None = None
    # first-order bound on how much the amplitude lattice can inflate SNR
    # beyond the exact-constraint value (a_step * dSNR/dA at the kept point)
    snr_slack_linear: float | None = None


def brute_force_solve(scenario: Scenario, r1h_step_m: float = 0.5, a_step: float = 0.001) -> OracleResult:
    """Grid search over (r1h, uniform A) with the harvest equality enforced
    numerically.

    The r1h columns go in blocks of at most _CHUNK_LATTICE_POINTS lattice
    points, one link.harvest_ceiling call each (one block at the default steps
    up to a 523 m span). A column's uniform-amplitude harvest is its ceiling
    times (1 - a^2); a column is kept only when its ceiling exceeds the
    consumption, the analytic solver's autonomy test, and keeps the lattice
    amplitude whose harvest lands nearest it; one link.snr_cophased call at
    A = 1, times a^2, scores a block, and the kept point with maximal SNR
    wins; ties go to the lowest r1h. Steps must be positive and finite; a
    lattice above _MAX_LATTICE_POINTS points or with fewer than two
    amplitudes is refused before anything is allocated.
    """
    if not (0.0 < r1h_step_m < math.inf and 0.0 < a_step < math.inf):
        raise ValueError("lattice steps must be positive and finite")
    n_points = (scenario.txrx_horizontal_m / r1h_step_m + 1.0) / a_step
    if n_points > _MAX_LATTICE_POINTS:
        raise ValueError(f"lattice of {n_points:.3g} points exceeds the guard of {_MAX_LATTICE_POINTS:.0e}")
    n_amplitudes = int(round(1.0 / a_step))
    if n_amplitudes < 2:
        raise ValueError(f"a_step {format_value(a_step)} leaves fewer than two amplitudes in [0, 1)")
    p_ris = scenario.p_ris_w
    n_columns = int(round(scenario.txrx_horizontal_m / r1h_step_m)) + 1
    a_grid = a_step * np.arange(n_amplitudes)  # [0, 1)
    block = max(1, _CHUNK_LATTICE_POINTS // n_amplitudes)

    best = None
    for start in range(0, n_columns, block):
        r_grid = r1h_step_m * np.arange(start, min(start + block, n_columns))
        r1, _ = geometry.center_distances(r_grid, scenario)
        ceiling = link.harvest_ceiling(r1, scenario)
        keep = ceiling > p_ris
        if not keep.any():
            continue
        p_harv = ceiling[keep, None] * (1.0 - a_grid ** 2)
        picks = np.argmin(np.abs(p_harv - p_ris), axis=1)
        a = a_grid[picks]
        snr = link.snr_cophased(r_grid[keep], 1.0, scenario) * (a * a)
        k = int(np.argmax(snr))
        if best is None or snr[k] > best[2]:
            best = (float(r_grid[keep][k]), float(a[k]), float(snr[k]), float(p_harv[k, picks[k]]))

    if best is None:
        return OracleResult(feasible=False)
    r, a, snr, p_harv = best
    slack = 2.0 * snr * a_step / max(a, a_step)
    return OracleResult(
        feasible=True,
        r1h_m=r,
        a=a,
        snr_linear=snr,
        p_harv_w=p_harv,
        snr_slack_linear=slack,
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
