"""Optimal reflection response and placement under the harvest-equality rule.

Phases and amplitude have closed forms once the placement r1h is fixed: the
phases cancel the per-element propagation phase, and the uniform amplitude is
pinned by requiring harvested power to equal the surface consumption exactly.
What is left is a one-dimensional search over r1h of a reduced objective.
The harvest ceiling falls monotonically with r1h, so the feasible placements
form one interval [0, r1h_f] known in closed form: the search returns
infeasible without scanning when r1h = 0 is infeasible, and otherwise scans a
coarse grid up to r1h_f and refines with golden section inside that interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, link
from .scenario import Scenario, db

# interior reporting clamp; the physical amplitude interval is open (0, 1)
_EPS_A = 1e-9
# placement search: coarse grid step from r1h = 0 and golden-section iterations;
# 26 shrink the 0.2 m bracket to 0.2 * 0.618^26 = 0.74 um, and below about 1 um
# comparisons of the objective are mostly decided by rounding
_COARSE_STEP_M = 0.1
_REFINE_ITERATIONS = 26
# the scanned span is a user number; a longer scan is refused before allocating
_MAX_COARSE_POINTS = 1_000_000


@dataclass(frozen=True)
class PlacementSolution:
    """Result of a placement evaluation or search.

    When infeasible (consumption exceeds the harvest ceiling everywhere in
    the searched range), all optimum fields stay None. a_boundary marks the
    degenerate endpoints: a_opt = 1 at zero consumption, a_opt = 0 when the
    harvest ceiling is met exactly.
    """

    feasible: bool
    p_ris_w: float
    r1h_opt_m: float | None = None
    a_opt: float | None = None
    a_boundary: bool = False
    snr_opt_linear: float | None = None
    snr_opt_db: float | None = None
    p_harv_w: float | None = None
    objective_curve: np.ndarray | None = None  # (r1h, objective) at feasible grid points


@dataclass(frozen=True)
class SiteCandidate:
    """A mounted (immovable) surface site: scenario variant plus fixed r1h."""

    scenario: Scenario
    r1h_m: float


@dataclass(frozen=True)
class SiteSelection:
    best_index: int | None
    solutions: tuple


def optimal_phases(r1h_m: float, scenario: Scenario) -> np.ndarray:
    """Per-element phases that co-phase all contributions at the receiver.

    phi_pl = -2*pi*(r1pl + r2pl)/lambda, the exact negative of the propagation
    phase used by link.snr_explicit, so substitution cancels bitwise. Returned
    unwrapped.
    """
    grid = geometry.element_grid(scenario)
    return -link.path_phase_rad(r1h_m, grid, scenario)


def placement_objective(r1h_m, p_ris_w: float, scenario: Scenario):
    """Reduced placement objective after phases and amplitude are eliminated.

    G(r1h) = cos(th_i) cos(th_r) / (r1^2 r2^2 sigma^2) * (1 - P_ris / ceiling)
           = y_s^2 / (sigma^2 (r1 r2)^3) * (1 - P_ris / ceiling),
    with cos(th) = y_s/r and the ceiling of link.harvest_ceiling; one
    center_distances call per point feeds both factors, and the first form's
    order keeps (r1 r2)^3 from overflowing on long spans. Negative where the
    placement is infeasible; the search never selects those values. Accepts
    scalar or array r1h. The optimal SNR is
    16 P_t G_t G_r (lambda/4pi)^4 M_s^2 * G(r1h).
    """
    r1, r2 = geometry.center_distances(r1h_m, scenario)
    ys = scenario.lateral_offset_m
    snr_shape = (ys / r1) * (ys / r2) / (r1 ** 2 * r2 ** 2 * scenario.noise_w)
    return snr_shape * (1.0 - p_ris_w / link.harvest_ceiling(r1, scenario))


def evaluate_placement(
    scenario: Scenario,
    r1h_m: float,
    p_ris_w: float | None = None,
    objective_curve: np.ndarray | None = None,
) -> PlacementSolution:
    """Closed-form solution at a fixed placement (no search).

    A* = sqrt(1 - P_ris / ceiling) and the harvested power (1 - A^2) * ceiling
    come from one value of link.harvest_ceiling. Infeasible when P_ris exceeds
    the ceiling; the comparison comes first, so the quotient is at most 1.
    A* is a boundary value only at zero consumption (A* = 1) and when the
    radicand is exactly 0 (A* = 0); any other A* is clamped into
    [_EPS_A, 1 - _EPS_A], so a radicand that rounds to 1 still harvests.
    """
    p_ris = scenario.p_ris_w if p_ris_w is None else p_ris_w
    if p_ris < 0:
        raise ValueError("p_ris_w must be nonnegative")
    r1, _ = geometry.center_distances(r1h_m, scenario)
    ceiling = link.harvest_ceiling(r1, scenario)
    if p_ris > ceiling:
        return PlacementSolution(
            feasible=False, p_ris_w=p_ris, objective_curve=objective_curve,
        )
    a = math.sqrt(1.0 - p_ris / ceiling)
    boundary = p_ris == 0.0 or a == 0.0
    if not boundary:
        a = min(max(a, _EPS_A), 1.0 - _EPS_A)
    snr = link.snr_cophased(r1h_m, a, scenario)
    return PlacementSolution(
        feasible=True,
        p_ris_w=p_ris,
        r1h_opt_m=float(r1h_m),
        a_opt=a,
        a_boundary=boundary,
        snr_opt_linear=snr,
        snr_opt_db=db(snr) if snr > 0.0 else float("-inf"),
        p_harv_w=float(ceiling * (1.0 - a * a)),
        objective_curve=objective_curve,
    )


def _golden_section_max(g, lo: float, hi: float, iterations: int) -> float:
    # shrink the bracket around the maximum; ties keep the left interval so
    # the lowest placement wins
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = g(x1), g(x2)
    for _ in range(iterations):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = g(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = g(x2)
    return 0.5 * (lo + hi)


def _feasible_limit_m(p_ris_w: float, scenario: Scenario) -> float | None:
    """Largest feasible r1h, or None when not even r1h = 0 is feasible.

    The harvest ceiling C*y_s/r1^3 falls as r1h grows, so the feasible
    placements are [0, r1h_f]: r1_f = r1(0) * (ceiling(0)/P_ris)^(1/3) and
    r1h_f^2 = r1_f^2 - r1(0)^2. Infinite at zero consumption. P_ris is
    compared with the ceiling before either divides the other.
    """
    r1_0, _ = geometry.center_distances(0.0, scenario)
    ceiling_0 = link.harvest_ceiling(r1_0, scenario)
    if not p_ris_w < ceiling_0:
        return None
    if p_ris_w == 0.0:
        return math.inf
    # Python floats: a vanishing P_ris gives inf, not a numpy overflow warning
    r1_f = r1_0 * (ceiling_0 / p_ris_w) ** (1.0 / 3.0)
    return math.sqrt(max(r1_f * r1_f - r1_0 * r1_0, 0.0))


def solve_placement(scenario: Scenario) -> PlacementSolution:
    """Search r1h in [0, r_h] for the maximum of the reduced placement objective.

    Infeasible at once when r1h = 0 cannot cover the consumption. Otherwise
    the 0.1 m grid is scanned up to the closed-form feasible limit r1h_f, and
    golden section refines the bracket one grid step each side of the coarse
    argmax, clamped to [0, min(r_h, r1h_f)]. Exact grid ties go to the lowest
    r1h. The solution carries the feasible grid points with their objective
    values as objective_curve, empty (shape (0, 2)) when infeasible.
    """
    p_ris = scenario.p_ris_w
    limit = _feasible_limit_m(p_ris, scenario)
    if limit is None:
        return PlacementSolution(feasible=False, p_ris_w=p_ris, objective_curve=np.empty((0, 2)))

    r_h = scenario.txrx_horizontal_m
    span = min(r_h, limit)
    if span / _COARSE_STEP_M >= _MAX_COARSE_POINTS:
        raise ValueError(f"the coarse placement scan up to {span!r} m needs more than "
                         f"{_MAX_COARSE_POINTS} points of {_COARSE_STEP_M} m")
    # the grid is the step multiples up to r_h (within 1e-9 of a step), then
    # r_h itself. Only the multiples up to span and two more are built; the
    # cut keeps one point past r1h_f, which absorbs its rounding and which the
    # objective > 0 mask drops
    n_last = math.floor(min(r_h / _COARSE_STEP_M + 1e-9, span / _COARSE_STEP_M + 2.0))
    grid = _COARSE_STEP_M * np.arange(n_last + 1)
    if grid[-1] < r_h - 1e-12:
        grid = np.append(grid, r_h)
    grid = grid[: np.searchsorted(grid, limit, side="right") + 1]
    objective = placement_objective(grid, p_ris, scenario)
    feasible = objective > 0.0
    curve = np.column_stack((grid[feasible], objective[feasible]))

    # np.argmax takes the first (lowest-r) max
    r_best = curve[int(np.argmax(curve[:, 1])), 0]

    def g(r):
        return float(placement_objective(r, p_ris, scenario))

    lo = max(r_best - _COARSE_STEP_M, 0.0)
    hi = min(r_best + _COARSE_STEP_M, r_h, limit)
    r_star = _golden_section_max(g, lo, hi, _REFINE_ITERATIONS)
    return evaluate_placement(scenario, r_star, p_ris, objective_curve=curve)


def select_site(candidates, p_ris_w: float | None = None) -> SiteSelection:
    """Pick the best mounted site among fixed (scenario, r1h) candidates.

    Each candidate is evaluated at its fixed placement (mounted surfaces do
    not move). Returns the feasible candidate with maximal SNR; exact ties
    and duplicates resolve to the lowest index. best_index is None when every
    candidate is infeasible.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate list is empty")
    solutions = []
    best_index = None
    best_snr = -math.inf
    for idx, cand in enumerate(candidates):
        sol = evaluate_placement(cand.scenario, cand.r1h_m, p_ris_w)
        solutions.append(sol)
        if sol.feasible and sol.snr_opt_linear > best_snr:
            best_index = idx
            best_snr = sol.snr_opt_linear
    return SiteSelection(best_index=best_index, solutions=tuple(solutions))


__all__ = [
    "PlacementSolution", "SiteCandidate", "SiteSelection",
    "optimal_phases", "placement_objective",
    "evaluate_placement", "solve_placement", "select_site",
]
