"""Optimal reflection response and placement under the harvest-equality rule.

Phases and amplitude have closed forms once the placement r1h is fixed: the
phases cancel the per-element propagation phase, and the uniform amplitude is
pinned by requiring harvested power to equal the surface consumption exactly.
What is left is a one-dimensional search over r1h of a reduced objective, the
product of a first-hop factor that falls as r1h grows and a second-hop factor
that rises on [0, r_h]. The harvest ceiling falls with r1h too, so the search
returns infeasible without scanning when r1h = 0 is infeasible; otherwise it
splits [0, r_h] into ever finer cells and drops every cell whose bound, the
first factor at its left edge times the second at its right, cannot beat the
best value found by more than _PRUNE_REL, unless it lies next to the best
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry, link
from .scenario import Scenario, db

# upper reporting clamp; the physical amplitude interval is open (0, 1)
_EPS_A = 1e-9
# placement search: each round splits every kept cell into _SPLIT equal cells
# and scores all their edges in one array call, until the cells are _STOP_M
# wide or 2^-50 r_h, where the floats near r_h are coarser. Below about 0.1 um
# comparisons of the objective are mostly decided by rounding
_SPLIT = 100
_STOP_M = 1e-7
# a cell is kept while its bound beats the best value by more than this, or
# while its centre is within one cell width of the best point
_PRUNE_REL = 1e-3
# values within this of a scan's maximum tie, and ties go to the lowest r1h;
# the two lobes of a mirror-symmetric scene tie within rounding
_TIE_REL = 1e-15


@dataclass(frozen=True)
class PlacementSolution:
    """Result of a placement evaluation or search.

    When infeasible (the harvest ceiling does not exceed the consumption
    anywhere in the searched range), all optimum fields stay None. a_opt = 1
    marks the one degenerate endpoint, zero consumption.
    """

    feasible: bool
    r1h_opt_m: float | None = None
    a_opt: float | None = None
    snr_opt_linear: float | None = None
    snr_opt_db: float | None = None
    p_harv_w: float | None = None
    objective_curve: np.ndarray | None = None  # (r1h, objective) at the first scan's feasible points


def optimal_phases(r1h_m: float, scenario: Scenario) -> np.ndarray:
    """Per-element phases that co-phase all contributions at the receiver.

    phi_pl = -2*pi*(r1pl + r2pl)/lambda, the exact negative of the propagation
    phase used by link.snr_explicit, so substitution cancels bitwise. Returned
    unwrapped.
    """
    return -link.path_phase_rad(r1h_m, scenario)


def placement_objective(r1h_m, scenario: Scenario):
    """Reduced placement objective after phases and amplitude are eliminated,
    as its first-hop and second-hop factors from one center_distances call.

    G(r1h) = first * second
           = y_s/r1^3 * (1 - P_ris / ceiling) * y_s/(r2^3 sigma^2)
           = cos(th_i) cos(th_r) / (r1^2 r2^2 sigma^2) * (1 - P_ris / ceiling),
    with cos(th) = y_s/r, P_ris = scenario.p_ris_w and the ceiling of
    link.harvest_ceiling; one factor per hop, so (r1 r2)^3 never overflows on
    long spans. The first falls as r1h grows and the second rises on [0, r_h],
    so on any cell [u, v] G is at most first(u) * second(v). G is negative
    where the placement is infeasible; the search never selects those values.
    Returns two arrays of r1h's shape, 0-d for a scalar r1h. The optimal SNR
    is 16 P_t G_t G_r (lambda/4pi)^4 M_s^2 * G(r1h).
    """
    r1, r2 = geometry.center_distances(r1h_m, scenario)
    ys = scenario.lateral_offset_m
    first = (ys / r1) / r1 ** 2 * (1.0 - scenario.p_ris_w / link.harvest_ceiling(r1, scenario))
    return first, (ys / r2) / (r2 ** 2 * scenario.noise_w)


def evaluate_placement(scenario: Scenario, r1h_m: float) -> PlacementSolution:
    """Closed-form solution at a fixed placement (no search).

    The draw P_ris is the scenario's own consumption, scenario.p_ris_w, which
    its key ranges keep nonnegative. A* = sqrt(1 - P_ris / ceiling) and the
    harvested power (1 - A^2) * ceiling come from one value of
    link.harvest_ceiling. Feasible only when P_ris < ceiling, solve_placement's
    test at r1h = 0; then P_ris / ceiling <= 1 - 2^-53, so A* >= 1.05e-8. A*
    is a boundary value only at zero consumption (A* = 1); any other A* is
    clamped to at most 1 - _EPS_A, so a radicand that rounds to 1 still
    harvests. objective_curve stays None.
    """
    p_ris = scenario.p_ris_w
    r1, _ = geometry.center_distances(r1h_m, scenario)
    ceiling = link.harvest_ceiling(r1, scenario)
    if not p_ris < ceiling:
        return PlacementSolution(feasible=False)
    a = math.sqrt(1.0 - p_ris / ceiling)
    if p_ris > 0.0:
        a = min(a, 1.0 - _EPS_A)
    snr = float(link.snr_cophased(r1h_m, a, scenario))
    return PlacementSolution(
        feasible=True,
        r1h_opt_m=float(r1h_m),
        a_opt=a,
        snr_opt_linear=snr,
        snr_opt_db=db(snr),
        p_harv_w=float(ceiling * (1.0 - a * a)),
    )


def solve_placement(scenario: Scenario) -> PlacementSolution:
    """Search r1h in [0, r_h] for the maximum of the reduced placement objective.

    Infeasible at once when r1h = 0 cannot cover the consumption. Otherwise
    each round splits every kept cell, starting from [0, r_h], into _SPLIT
    equal cells, scores their edges in one array call and keeps a cell only
    while its bound first(left) * second(right) beats the best value by more
    than _PRUNE_REL, or while its centre is within one cell width of the best
    point. The best point moves only on a gain above _TIE_REL and is the
    lowest r1h within _TIE_REL of its scan's maximum. The rounds stop at
    _STOP_M, so the number of points does not grow with the span. Returns
    evaluate_placement at the best point with objective_curve set to the
    first scan's feasible points and their values, shape (0, 2) if infeasible.
    """
    r1_0, _ = geometry.center_distances(0.0, scenario)
    if not scenario.p_ris_w < link.harvest_ceiling(r1_0, scenario):
        return PlacementSolution(feasible=False, objective_curve=np.empty((0, 2)))

    r_h = scenario.txrx_horizontal_m
    stop = max(_STOP_M, 2.0 ** -50 * r_h)
    lefts, width = np.zeros(1), r_h
    best_r, best_g, curve = 0.0, -math.inf, None
    while True:
        width /= _SPLIT
        edges = lefts[:, None] + width * np.arange(_SPLIT + 1)
        first, second = placement_objective(edges, scenario)
        values = first * second
        if curve is None:
            feasible = values[0] > 0.0
            curve = np.column_stack((edges[0, feasible], values[0, feasible]))
        top = values.max()
        if top > best_g * (1.0 + _TIE_REL):
            best_g, best_r = top, edges[values >= top * (1.0 - _TIE_REL)].min()
        if width <= stop:
            break
        cells = edges[:, :-1]
        keep = ((first[:, :-1] * second[:, 1:] > best_g * (1.0 + _PRUNE_REL))
                | (np.abs(cells + width / 2 - best_r) <= width))
        lefts = cells[keep]
    return replace(evaluate_placement(scenario, best_r), objective_curve=curve)


def select_site(candidates):
    """Pick the best mounted site among fixed (scenario, r1h_m) pairs.

    Each pair is evaluated at its fixed placement (mounted surfaces do not
    move) and draws its own scenario's consumption. Returns (best_index,
    solutions): the index of the feasible pair with maximal SNR, None when
    every pair is infeasible, and one PlacementSolution per pair. Exact ties
    and duplicates resolve to the lowest index.
    """
    solutions = [evaluate_placement(scenario, r1h_m) for scenario, r1h_m in candidates]
    if not solutions:
        raise ValueError("candidate list is empty")
    # max keeps the first of equal values
    feasible = [idx for idx, sol in enumerate(solutions) if sol.feasible]
    return max(feasible, key=lambda idx: solutions[idx].snr_opt_linear, default=None), solutions


__all__ = [
    "PlacementSolution", "optimal_phases", "placement_objective",
    "evaluate_placement", "solve_placement", "select_site",
]
