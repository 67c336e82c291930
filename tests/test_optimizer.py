"""Closed-form phases/amplitude, reduced placement objective, search, site pick."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risharvest import (
    PowerModel,
    ReflectionState,
    SiteCandidate,
    absorbed_power_element,
    default_scenario,
    element_grid,
    evaluate_placement,
    harvested_power,
    optimal_amplitude,
    optimal_phases,
    placement_objective,
    select_site,
    snr_cophased,
    snr_explicit,
    solve_placement,
)
from risharvest.geometry import center_distances, departure_angle, incidence_angle
from risharvest.link import path_phase_rad
from risharvest.oracle import brute_force_solve


def with_chip_power(scenario, p_chip_w):
    return replace(
        scenario,
        power_model=PowerModel(n_rectifiers=100, p_rectifier_w=0.0, p_chip_w=p_chip_w),
    )


def harvest_ceiling(r1h_m, scenario):
    # same float the amplitude closed form divides by (product, not array sum)
    p_inc = absorbed_power_element(0.0, r1h_m, scenario)
    return scenario.conversion_efficiency * scenario.m_s * p_inc


# --------------------------------------------------------------------- phases


def test_single_element_optimal_phase():
    sc = default_scenario(ris_rows=1, ris_cols=1)
    r1, r2 = center_distances(4.0, sc)
    expected = -2 * math.pi * (r1 + r2) / sc.wavelength_m
    assert optimal_phases(4.0, sc)[0, 0] == pytest.approx(expected, rel=1e-12)


def test_optimal_phases_cancel_path_phase(scenario):
    phases = optimal_phases(7.3, scenario)
    psi = path_phase_rad(7.3, element_grid(scenario), scenario)
    assert np.all(phases + psi == 0.0)


def test_optimal_phases_reproduce_cophased(scenario):
    for r1h in (0.5, 7.3, 42.0):
        state = ReflectionState(
            amplitudes=np.full((50, 50), 0.7), phases=optimal_phases(r1h, scenario)
        )
        assert snr_explicit(r1h, state, scenario) == pytest.approx(
            snr_cophased(r1h, 0.7, scenario), rel=1e-9
        )


# ------------------------------------------------------------------ amplitude


def test_zero_consumption_full_reflection(scenario):
    assert optimal_amplitude(10.0, 0.0, scenario) == 1.0


def test_amplitude_at_exact_ceiling(scenario):
    ceiling = harvest_ceiling(10.0, scenario)
    assert optimal_amplitude(10.0, ceiling, scenario) == 0.0


def test_amplitude_above_ceiling_infeasible(scenario):
    ceiling = harvest_ceiling(10.0, scenario)
    above = float(np.nextafter(ceiling, np.inf))
    assert optimal_amplitude(10.0, above, scenario) is None


def test_amplitude_at_half_ceiling(scenario):
    ceiling = harvest_ceiling(10.0, scenario)
    a = optimal_amplitude(10.0, ceiling / 2, scenario)
    assert a == math.sqrt(0.5)


def test_amplitude_rejects_negative_consumption(scenario):
    with pytest.raises(ValueError):
        optimal_amplitude(10.0, -1e-9, scenario)


def test_amplitude_meets_harvest_equality(scenario):
    a = optimal_amplitude(10.0, scenario.p_ris_w, scenario)
    harv = harvested_power(10.0, np.full((50, 50), a), scenario)
    assert harv == pytest.approx(scenario.p_ris_w, rel=1e-12)


# ------------------------------------------------------------------ objective


def test_objective_reduces_to_pure_snr_shape(scenario):
    r = np.linspace(0.5, 99.5, 31)
    r1, r2 = center_distances(r, scenario)
    pure = (
        np.cos(incidence_angle(r, scenario))
        * np.cos(departure_angle(r, scenario))
        / (r1**2 * r2**2 * scenario.noise_w)
    )
    got = placement_objective(r, 0.0, scenario)
    assert got == pytest.approx(pure, rel=1e-12)


def test_objective_snr_identity(scenario):
    # closed-form SNR equals the scaled reduced objective wherever feasible
    lam = scenario.wavelength_m
    scale = (
        16
        * scenario.transmit_power_w
        * scenario.tx_gain
        * scenario.rx_gain
        * (lam / (4 * math.pi)) ** 4
        * scenario.m_s**2
    )
    for r1h in (0.5, 1.0, 5.0, 20.0, 30.0):
        sol = evaluate_placement(scenario, r1h)
        assert sol.feasible
        g = float(placement_objective(r1h, scenario.p_ris_w, scenario))
        assert sol.snr_opt_linear == pytest.approx(scale * g, rel=1e-9)


def test_objective_negative_when_infeasible(scenario):
    ceiling = harvest_ceiling(50.0, scenario)
    assert placement_objective(50.0, 2 * ceiling, scenario) < 0


def test_objective_continuity(scenario):
    jumps = []
    for step in (0.4, 0.2, 0.1):
        r = np.arange(0.0, 100.0 + step / 2, step)
        g = placement_objective(r, scenario.p_ris_w, scenario)
        jumps.append(np.abs(np.diff(g)).max())
    assert jumps[1] < jumps[0] and jumps[2] < jumps[1]


# ----------------------------------------------------------------- evaluation


def test_evaluate_placement_feasible(scenario):
    sol = evaluate_placement(scenario, 10.0)
    assert sol.feasible
    assert sol.r1h_opt_m == 10.0
    assert not sol.a_boundary
    assert sol.p_harv_w == pytest.approx(sol.p_ris_w, rel=1e-9)
    state = ReflectionState(
        amplitudes=np.full((50, 50), sol.a_opt), phases=sol.phases_opt
    )
    assert snr_explicit(10.0, state, scenario) == pytest.approx(
        sol.snr_opt_linear, rel=1e-9
    )


def test_evaluate_placement_infeasible(scenario):
    sol = evaluate_placement(scenario, 10.0, p_ris_w=10.0)
    assert not sol.feasible
    assert sol.r1h_opt_m is None and sol.a_opt is None
    assert sol.snr_opt_linear is None and sol.p_harv_w is None


def test_evaluate_placement_zero_consumption_boundary(scenario):
    sol = evaluate_placement(scenario, 10.0, p_ris_w=0.0)
    assert sol.feasible and sol.a_opt == 1.0 and sol.a_boundary
    assert sol.p_harv_w == 0.0


def test_evaluate_placement_ceiling_boundary(scenario):
    ceiling = harvest_ceiling(10.0, scenario)
    sol = evaluate_placement(scenario, 10.0, p_ris_w=ceiling)
    assert sol.feasible and sol.a_opt == 0.0 and sol.a_boundary
    assert sol.snr_opt_linear == 0.0 and sol.snr_opt_db == float("-inf")


# --------------------------------------------------------------------- search


def test_solve_placement_default_point(scenario):
    sol = solve_placement(scenario)
    assert sol.feasible
    assert sol.r1h_opt_m == pytest.approx(1.0455442861154873, abs=1e-6)
    assert sol.a_opt == pytest.approx(0.9882027677134215, rel=1e-9)
    assert sol.snr_opt_db == pytest.approx(56.39080519538952, abs=1e-6)
    assert sol.p_harv_w == pytest.approx(sol.p_ris_w, rel=1e-9)
    assert sol.objective_curve.shape[1] == 2


def test_solve_placement_infeasible(scenario):
    sc = with_chip_power(scenario, 1e-3)
    sol = solve_placement(sc)
    assert not sol.feasible
    assert sol.p_ris_w == pytest.approx(2.5, rel=1e-12)
    assert sol.r1h_opt_m is None
    assert sol.objective_curve.shape == (0, 2)


def test_solve_placement_zero_draw_boundary(scenario):
    sol = solve_placement(with_chip_power(scenario, 0.0))
    assert sol.feasible and sol.a_opt == 1.0 and sol.a_boundary
    assert sol.r1h_opt_m == pytest.approx(1.071480884916273, abs=1e-6)


def test_refinement_beats_coarse_grid(scenario):
    sol = solve_placement(scenario)
    curve = sol.objective_curve
    feasible_best = curve[:, 1].max()
    refined = float(placement_objective(sol.r1h_opt_m, sol.p_ris_w, scenario))
    assert refined >= feasible_best * (1 - 1e-12)


def test_near_1nw_tracks_pure_snr_optimum(scenario):
    # a vanishing chip draw must not move the optimum measurably; with equal
    # TX/RX heights the zero-draw objective is mirror symmetric about the
    # midpoint, so compare against the optimum pair
    pure = brute_force_solve(with_chip_power(scenario, 0.0), r1h_step_m=0.005, a_step=0.5)
    sol = solve_placement(with_chip_power(scenario, 1e-9))
    assert pure.feasible and sol.feasible
    mirrored = scenario.txrx_horizontal_m - pure.r1h_m
    assert min(abs(sol.r1h_opt_m - pure.r1h_m), abs(sol.r1h_opt_m - mirrored)) <= 0.01


# ------------------------------------------------- closed-form and metamorphic

# street geometries with the surface above ground (50 elements at 28 GHz)
geometries = st.fixed_dictionaries({
    "lateral_offset_m": st.floats(1.0, 40.0),
    "txrx_horizontal_m": st.floats(20.0, 400.0),
    "tx_height_m": st.floats(1.0, 20.0),
    "rx_height_m": st.floats(1.0, 20.0),
    "ris_height_m": st.floats(1.0, 30.0),
})


def with_power(scenario, n_rectifiers, p_rectifier_w, p_chip_w):
    return replace(scenario, power_model=PowerModel(
        n_rectifiers=n_rectifiers, p_rectifier_w=p_rectifier_w, p_chip_w=p_chip_w))


@settings(max_examples=50, deadline=None)
@given(geometries, st.integers(1, 200), st.floats(0.0, 0.5))
def test_autonomy_threshold_closed_form(geometry, n_rectifiers, rectifier_share):
    # P_c,max = (ceiling(0) - n_rect*P_rect)/M_s, with the chips drawing at
    # least half the ceiling so a 1e-9 step in P_c moves P_ris by >= 5e-10
    sc = default_scenario(**geometry)
    ceiling = harvest_ceiling(0.0, sc)
    p_rect = rectifier_share * ceiling / n_rectifiers
    p_c_max = (ceiling - n_rectifiers * p_rect) / sc.m_s
    below = solve_placement(with_power(sc, n_rectifiers, p_rect, p_c_max * (1 - 1e-9)))
    above = solve_placement(with_power(sc, n_rectifiers, p_rect, p_c_max * (1 + 1e-9)))
    assert below.feasible and below.a_opt > 0.0
    assert not above.feasible


def assert_same_placement(base, moved, scenario):
    # a flat maximum leaves the refined r1h some rounding freedom (1.1e-6 m
    # at y_s = 38 m), so both placements must score the same objective
    assert moved.feasible == base.feasible
    if base.feasible:
        g = placement_objective(np.array([base.r1h_opt_m, moved.r1h_opt_m]), base.p_ris_w, scenario)
        assert g[1] == pytest.approx(g[0], rel=1e-12)
        assert moved.r1h_opt_m == pytest.approx(base.r1h_opt_m, abs=1e-4)
        assert moved.a_opt == pytest.approx(base.a_opt, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(geometries, st.floats(1e-9, 1e-4), st.floats(0.0, 1e-3), st.floats(1e-3, 1e3))
def test_power_scaling_keeps_placement(geometry, p_chip_w, p_rect_w, k):
    # A* and the objective's shape depend on P_ris/P_t only, and the SNR is
    # proportional to P_t
    sc = with_power(default_scenario(**geometry), 10, p_rect_w, p_chip_w)
    scaled = with_power(replace(sc, transmit_power_w=k * sc.transmit_power_w),
                        10, k * p_rect_w, k * p_chip_w)
    base, moved = solve_placement(sc), solve_placement(scaled)
    assert_same_placement(base, moved, sc)
    if base.feasible:
        assert moved.snr_opt_db == pytest.approx(base.snr_opt_db + 10 * math.log10(k), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(geometries, st.floats(1e-9, 1e-5), st.floats(-20.0, 20.0))
def test_noise_figure_shifts_snr_only(geometry, p_chip_w, x_db):
    sc = with_chip_power(default_scenario(**geometry), p_chip_w)
    noisier = replace(sc, noise_figure_db=sc.noise_figure_db + x_db)
    base, moved = solve_placement(sc), solve_placement(noisier)
    assert_same_placement(base, moved, sc)
    if base.feasible:
        assert moved.snr_opt_db == pytest.approx(base.snr_opt_db - x_db, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(geometries, st.floats(0.0, 1.0))
def test_zero_draw_objective_mirror_symmetry(geometry, fraction):
    # P_ris = 0 and h_t = h_r: G(r1h) = G(r_h - r1h)
    geometry = dict(geometry, rx_height_m=geometry["tx_height_m"])
    sc = with_chip_power(default_scenario(**geometry), 0.0)
    r_h = sc.txrx_horizontal_m
    r = fraction * r_h
    g = placement_objective(r, 0.0, sc)
    assert placement_objective(r_h - r, 0.0, sc) == pytest.approx(g, rel=1e-12)


# ------------------------------------------------------------- site selection


def test_single_feasible_site_selected(scenario):
    sel = select_site([SiteCandidate(scenario=scenario, r1h_m=10.0)])
    assert sel.best_index == 0
    assert sel.solutions[0].feasible


def test_smaller_offset_wins_at_high_draw(scenario):
    near = with_chip_power(scenario, 4e-5)
    far = default_scenario(
        lateral_offset_m=15.0,
        power_model=PowerModel(n_rectifiers=100, p_rectifier_w=0.0, p_chip_w=4e-5),
    )
    sel = select_site(
        [SiteCandidate(far, r1h_m=1.0), SiteCandidate(near, r1h_m=1.0)]
    )
    assert not sel.solutions[0].feasible
    assert sel.solutions[1].feasible
    assert sel.best_index == 1


def test_duplicate_sites_tie_to_first(scenario):
    cand = SiteCandidate(scenario=scenario, r1h_m=10.0)
    sel = select_site([cand, cand, cand])
    assert sel.best_index == 0


def test_all_sites_infeasible(scenario):
    sel = select_site([SiteCandidate(scenario, 10.0)], p_ris_w=10.0)
    assert sel.best_index is None
    assert all(not s.feasible for s in sel.solutions)


def test_empty_candidate_list_rejected():
    with pytest.raises(ValueError):
        select_site([])
