"""Closed-form phases/amplitude, reduced placement objective, search, site pick."""

import inspect
import itertools
import math
from dataclasses import replace
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from risharvest import geometry as geometry_module
from risharvest import link
from risharvest import optimizer as optimizer_module
from risharvest.cli import sweep_rows
from risharvest.geometry import center_distances
from risharvest.link import ReflectionState, path_phase_rad, snr_cophased, snr_explicit
from risharvest.optimizer import (
    evaluate_placement,
    optimal_phases,
    placement_objective,
    select_site,
    solve_placement,
)
from risharvest.oracle import brute_force_solve
from risharvest.scenario import SPEED_OF_LIGHT_M_S, ConfigError, default_scenario

from conftest import objective


def with_chip_power(scenario, p_chip_w):
    return replace(scenario, n_rectifiers=100, p_rectifier_w=0.0, p_chip_w=p_chip_w)


def with_draw(scenario, p_ris_w):
    # 0 W per chip plus one rectifier drawing p_ris_w: P_ris == p_ris_w exactly
    return replace(scenario, p_chip_w=0.0, n_rectifiers=1, p_rectifier_w=p_ris_w)


def harvest_ceiling(r1h_m, scenario):
    # same float the amplitude closed form divides by (product, not array sum)
    r1, _ = center_distances(r1h_m, scenario)
    return link.harvest_ceiling(r1, scenario)


def element_sum_harvest(r1h_m, a, scenario):
    # eps_conv * sum_pl (1 - A^2) * P_inc, term by term in numpy's pairwise sum
    r1, _ = center_distances(r1h_m, scenario)
    amp = np.full((scenario.ris_rows, scenario.ris_cols), a)
    per_element = (1.0 - amp ** 2) * link.incident_power(r1, scenario)
    return float(scenario.conversion_efficiency * np.sum(per_element))


# --------------------------------------------------------------------- phases


def test_single_element_optimal_phase():
    sc = default_scenario(ris_rows=1, ris_cols=1)
    r1, r2 = center_distances(4.0, sc)
    expected = -2 * math.pi * (r1 + r2) / sc.wavelength_m
    assert optimal_phases(4.0, sc)[0, 0] == pytest.approx(expected, rel=1e-12)


def test_optimal_phases_cancel_path_phase(scenario):
    phases = optimal_phases(7.3, scenario)
    psi = path_phase_rad(7.3, scenario)
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
    for r1h in (0.0, 10.0, 99.0):
        sol = evaluate_placement(with_draw(scenario, 0.0), r1h)
        assert sol.a_opt == 1.0
        assert sol.snr_opt_linear == snr_cophased(r1h, 1.0, scenario)


def test_amplitude_at_exact_ceiling(scenario):
    # P_ris == ceiling leaves no margin: not self-powered, as in solve_placement
    ceiling = harvest_ceiling(10.0, scenario)
    sol = evaluate_placement(with_draw(scenario, ceiling), 10.0)
    assert not sol.feasible
    assert sol.a_opt is None and sol.p_harv_w is None


def test_amplitude_above_ceiling_infeasible(scenario):
    ceiling = harvest_ceiling(10.0, scenario)
    above = float(np.nextafter(ceiling, np.inf))
    assert not evaluate_placement(with_draw(scenario, above), 10.0).feasible


def test_amplitude_at_half_ceiling(scenario):
    ceiling = harvest_ceiling(10.0, scenario)
    assert evaluate_placement(with_draw(scenario, ceiling / 2), 10.0).a_opt == math.sqrt(0.5)


def test_amplitude_rejects_negative_consumption(scenario):
    # every consumption key's range starts at 0, so no scenario draws less
    with pytest.raises(ValueError, match="p_rectifier_w = -1e-09 lies outside its range"):
        evaluate_placement(with_draw(scenario, -1e-9), 10.0)


def test_amplitude_meets_harvest_equality(scenario):
    a = evaluate_placement(scenario, 10.0).a_opt
    harv = element_sum_harvest(10.0, a, scenario)
    assert harv == pytest.approx(scenario.p_ris_w, rel=1e-12)


def test_amplitude_clamped_when_radicand_rounds_to_one(scenario):
    # P_ris / ceiling below 2^-53 leaves a radicand of 1.0: A* is clamped below
    # 1, so the surface still harvests at least its consumption
    ceiling = harvest_ceiling(10.0, scenario)
    drawn = with_draw(scenario, 1e-17 * ceiling)
    sol = evaluate_placement(drawn, 10.0)
    assert sol.feasible and sol.a_opt != 1.0
    assert sol.a_opt == 1.0 - 1e-9
    assert sol.p_harv_w >= drawn.p_ris_w > 0.0


# ------------------------------------------------------------------ objective


def test_objective_reduces_to_pure_snr_shape(scenario):
    # at zero draw G = cos(th_i) cos(th_r) / (r1^2 r2^2 sigma^2), with the
    # angles formed here by arctan
    r = np.linspace(0.5, 99.5, 31)
    r1, r2 = center_distances(r, scenario)
    ys = scenario.lateral_offset_m
    th_i = np.arctan(np.sqrt(r**2 + (scenario.ris_height_m - scenario.tx_height_m) ** 2) / ys)
    th_r = np.arctan(np.sqrt((scenario.txrx_horizontal_m - r) ** 2
                             + (scenario.ris_height_m - scenario.rx_height_m) ** 2) / ys)
    pure = np.cos(th_i) * np.cos(th_r) / (r1**2 * r2**2 * scenario.noise_w)
    got = objective(r, with_draw(scenario, 0.0))
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
        g = float(objective(r1h, scenario))
        assert sol.snr_opt_linear == pytest.approx(scale * g, rel=1e-9)


def test_objective_negative_when_infeasible(scenario):
    ceiling = harvest_ceiling(50.0, scenario)
    assert objective(50.0, with_draw(scenario, 2 * ceiling)) < 0


def test_objective_continuity(scenario):
    jumps = []
    for step in (0.4, 0.2, 0.1):
        r = np.arange(0.0, 100.0 + step / 2, step)
        g = objective(r, scenario)
        jumps.append(np.abs(np.diff(g)).max())
    assert jumps[1] < jumps[0] and jumps[2] < jumps[1]


def count_geometry_calls(monkeypatch):
    # every public geometry function, wrapped to record its name per call
    calls = []
    for name in geometry_module.__all__:
        fn = getattr(geometry_module, name)
        if inspect.isfunction(fn):
            def counted(*args, name=name, fn=fn, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(geometry_module, name, counted)
    return calls


@pytest.mark.parametrize("r1h", [7.3, np.linspace(0.0, 100.0, 11)], ids=["scalar", "array"])
def test_objective_evaluates_center_geometry_once(monkeypatch, scenario, r1h):
    # the SNR shape and the harvest ceiling share one (r1, r2) evaluation
    calls = count_geometry_calls(monkeypatch)
    placement_objective(r1h, scenario)
    assert calls == ["center_distances"]


@pytest.mark.parametrize("evaluate", [
    lambda sc: snr_cophased(7.3, 0.5, sc),
    lambda sc: evaluate_placement(sc, 7.3),
], ids=["snr_cophased", "evaluate_placement"])
def test_closed_forms_reach_geometry_only_through_center_distances(monkeypatch, scenario,
                                                                    evaluate):
    calls = count_geometry_calls(monkeypatch)
    evaluate(scenario)
    assert calls and set(calls) == {"center_distances"}


# ----------------------------------------------------------------- evaluation


def test_evaluate_placement_feasible(scenario):
    sol = evaluate_placement(scenario, 10.0)
    assert sol.feasible
    assert sol.r1h_opt_m == 10.0
    assert sol.a_opt != 1.0
    assert sol.p_harv_w == pytest.approx(scenario.p_ris_w, rel=1e-9)
    state = ReflectionState(
        amplitudes=np.full((50, 50), sol.a_opt), phases=optimal_phases(10.0, scenario)
    )
    assert snr_explicit(10.0, state, scenario) == pytest.approx(
        sol.snr_opt_linear, rel=1e-9
    )


def test_evaluate_placement_infeasible(scenario):
    sol = evaluate_placement(with_draw(scenario, 10.0), 10.0)
    assert not sol.feasible
    assert sol.r1h_opt_m is None and sol.a_opt is None
    assert sol.snr_opt_linear is None and sol.p_harv_w is None


def test_evaluate_placement_zero_consumption_boundary(scenario):
    sol = evaluate_placement(with_draw(scenario, 0.0), 10.0)
    assert sol.feasible and sol.a_opt == 1.0
    assert sol.p_harv_w == 0.0


def test_evaluate_placement_ceiling_boundary(scenario):
    # the ceiling met exactly is infeasible; one float below it, P_ris / ceiling
    # is at most 1 - 2^-53, so A* is interior and at least 2^-26.5
    ceiling = harvest_ceiling(10.0, scenario)
    assert not evaluate_placement(with_draw(scenario, ceiling), 10.0).feasible
    sol = evaluate_placement(with_draw(scenario, float(np.nextafter(ceiling, 0.0))), 10.0)
    assert sol.feasible and sol.a_opt != 1.0
    assert sol.a_opt > 1.05e-8
    assert sol.snr_opt_linear > 0.0 and sol.snr_opt_db > float("-inf")


@pytest.mark.parametrize("draw, self_powered", [
    (lambda ceiling: ceiling * (1.0 - 2.0 ** -52), True),
    (lambda ceiling: ceiling, False),
    (lambda ceiling: float(np.nextafter(ceiling, math.inf)), False),
], ids=["below", "exact", "above"])
def test_one_autonomy_test_at_the_ceiling(scenario, draw, self_powered):
    # the search, a fixed placement at r1h = 0 and the oracle all call the
    # surface self-powered only when P_ris < ceiling(0)
    sc = with_draw(scenario, draw(harvest_ceiling(0.0, scenario)))
    assert solve_placement(sc).feasible == self_powered
    assert evaluate_placement(sc, 0.0).feasible == self_powered
    assert brute_force_solve(sc).feasible == self_powered


# --------------------------------------------------------------------- search


def test_solve_placement_default_point(scenario):
    sol = solve_placement(scenario)
    assert sol.feasible
    assert sol.r1h_opt_m == pytest.approx(1.0455442861154873, abs=1e-6)
    assert sol.a_opt == pytest.approx(0.9882027677134215, rel=1e-9)
    assert sol.snr_opt_db == pytest.approx(56.39080519538952, abs=1e-6)
    assert sol.p_harv_w == pytest.approx(scenario.p_ris_w, rel=1e-9)
    assert sol.objective_curve.shape[1] == 2


def test_solve_placement_infeasible(scenario):
    sc = with_chip_power(scenario, 1e-3)
    sol = solve_placement(sc)
    assert not sol.feasible
    assert sc.p_ris_w == pytest.approx(2.5, rel=1e-12)
    assert sol.r1h_opt_m is None
    assert sol.objective_curve.shape == (0, 2)


def test_solve_placement_zero_draw_boundary(scenario):
    sol = solve_placement(with_chip_power(scenario, 0.0))
    assert sol.feasible and sol.a_opt == 1.0
    assert sol.r1h_opt_m == pytest.approx(1.071480884916273, abs=1e-6)


def test_refinement_beats_coarse_grid(scenario):
    sol = solve_placement(scenario)
    curve = sol.objective_curve
    feasible_best = curve[:, 1].max()
    refined = float(objective(sol.r1h_opt_m, scenario))
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


def count_objective_calls(monkeypatch):
    # the search scores placements only through placement_objective
    calls = {"array": 0, "scalar": 0, "points": 0}
    fn = optimizer_module.placement_objective

    def counted(r1h_m, *args):
        calls["array" if np.ndim(r1h_m) else "scalar"] += 1
        calls["points"] += np.size(r1h_m)
        return fn(r1h_m, *args)

    monkeypatch.setattr(optimizer_module, "placement_objective", counted)
    return calls


def test_feasible_solve_objective_calls(monkeypatch, scenario):
    # one array call per round, each round cutting the cells _SPLIT times
    # finer from [0, r_h] down to _STOP_M; no placement is ever scored alone
    calls = count_objective_calls(monkeypatch)
    assert solve_placement(scenario).feasible
    rounds = math.ceil(math.log(scenario.txrx_horizontal_m / optimizer_module._STOP_M)
                       / math.log(optimizer_module._SPLIT))
    assert calls["scalar"] == 0
    assert 1 <= calls["array"] <= rounds


CORNERS = (1e-9, 1e-3, 1.0, 1e3, 1e9)


def test_range_corners_solve_in_bounded_points(monkeypatch, scenario):
    # span, y_s and the three heights each at five corners of their ranges,
    # at zero, half and nearly all of the autonomy threshold: every scene
    # Scenario accepts solves, the number of points does not grow with the
    # span, and r_h = 1e9 m takes at most twice the rounds of r_h = 100 m
    calls = count_objective_calls(monkeypatch)
    solve_placement(scenario)
    rounds_100m = calls["array"]
    solved, most_points, most_rounds_1e9 = 0, 0, 0
    for span, ys, h_t, h_r, h_s in itertools.product(CORNERS, repeat=5):
        try:
            sc = default_scenario(txrx_horizontal_m=span, lateral_offset_m=ys, tx_height_m=h_t,
                                  rx_height_m=h_r, ris_height_m=h_s)
        except ConfigError as exc:
            assert "below ground" in str(exc)
            continue
        for share in (0.0, 0.5, 0.999):
            try:
                drawn = with_chip_power(sc, share * float(harvest_ceiling(0.0, sc)) / sc.m_s)
            except ConfigError as exc:
                assert str(exc).startswith("p_chip_w = ")
                continue
            calls.update(array=0, scalar=0, points=0)
            sol = solve_placement(drawn)
            assert sol.feasible and sol.objective_curve.shape[1] == 2
            assert calls["array"] >= 1 and calls["scalar"] == 0
            solved += 1
            most_points = max(most_points, calls["points"])
            if span == 1e9:
                most_rounds_1e9 = max(most_rounds_1e9, calls["array"])
    assert solved == 5475
    assert most_points <= 4000
    assert most_rounds_1e9 <= 2 * rounds_100m


def stationarity(x, scenario):
    # dG/dr1h = 3 y_s^2 / (sigma^2 r1^5 r2^5) * F(x) for the objective G.
    # Returns F(x) and its radicand 1 - P_ris / ceiling(x) as 60-digit
    # decimals from the scenario's fields, each read exactly, so neither
    # cancels as the float objective does. ceiling = C y_s / r1^3 with
    # C = eps M_s (lambda/4pi)^2 P_t G_t 4 = eps M_s P_t e_t D_t^2 / 4
    with localcontext(Context(prec=60)):
        f = {name: Decimal(getattr(scenario, name)) for name in (
            "txrx_horizontal_m", "lateral_offset_m", "tx_height_m", "rx_height_m", "ris_height_m",
            "conversion_efficiency", "transmit_power_w", "tx_efficiency", "tx_diameter_m",
            "p_chip_w", "n_rectifiers", "p_rectifier_w", "ris_rows", "ris_cols")}
        x, r_h, ys = Decimal(x), f["txrx_horizontal_m"], f["lateral_offset_m"]
        r1_sq = x * x + ys * ys + (f["ris_height_m"] - f["tx_height_m"]) ** 2
        r2_sq = (r_h - x) ** 2 + ys * ys + (f["ris_height_m"] - f["rx_height_m"]) ** 2
        m_s = f["ris_rows"] * f["ris_cols"]
        p_ris = m_s * f["p_chip_w"] + f["n_rectifiers"] * f["p_rectifier_w"]
        c = (f["conversion_efficiency"] * m_s * f["transmit_power_w"] * f["tx_efficiency"]
             * f["tx_diameter_m"] ** 2 / 4)
        radicand = 1 - p_ris * r1_sq * r1_sq.sqrt() / (c * ys)
        return (r_h - x) * r1_sq * radicand - x * r2_sq, radicand


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({
    "txrx_horizontal_m": st.floats(10.0, 5000.0),
    "lateral_offset_m": st.floats(0.3, 50.0),
    "tx_height_m": st.floats(1.0, 40.0),
    "rx_height_m": st.floats(1.0, 40.0),
    "ris_height_m": st.floats(1.0, 40.0),
}), st.floats(0.0, 0.99))
# a far-field corner, r2/y_s = 15,000
@example({"txrx_horizontal_m": 4771.0, "lateral_offset_m": 0.3125, "tx_height_m": 10.0,
          "rx_height_m": 2.0, "ris_height_m": 9.526867885115209}, 0.0)
# a mirror-symmetric zero-draw scene whose maximum at the midpoint is quartic:
# the search reports the midpoint itself, 2.6e-5 m from the bisection's x*
@example({"txrx_horizontal_m": 10.0, "lateral_offset_m": 3.0, "tx_height_m": 1.0,
          "rx_height_m": 1.0, "ris_height_m": 5.0}, 0.0)
# stopping one round early, at 50 um cells, loses 3.0e-10 of the SNR here
@example({"txrx_horizontal_m": 5000.0, "lateral_offset_m": 0.5, "tx_height_m": 1.0,
          "rx_height_m": 2.0, "ris_height_m": 1.5}, 0.99)
def test_refined_placement_meets_true_optimum(geometry, share):
    # the true optimum x* is the root of F, found by a 60-digit decimal
    # bisection. The search must stop within the objective's rounding floor,
    # which finer cells do not beat: its SNR within 1e-11 of the optimum's,
    # and its placement error costing at most 1e-11 of the SNR by the
    # curvature G''/G at x*, so a flat maximum leaves r1h free and a sharp
    # one does not
    sc = default_scenario(**geometry)
    # a Python float, as parse_number gives
    sc = with_chip_power(sc, float(share * harvest_ceiling(0.0, sc) / sc.m_s))
    sol = solve_placement(sc)
    assert sol.feasible
    lo = max(sol.r1h_opt_m - 0.1, 0.0)
    hi = min(sol.r1h_opt_m + 0.1, sc.txrx_horizontal_m)
    # an optimum inside the bracket around the reported r1h; past r1h_f F is negative
    assume(stationarity(lo, sc)[0] > 0 > stationarity(hi, sc)[0])
    with localcontext(Context(prec=60)):
        lo, hi = Decimal(lo), Decimal(hi)
        # 0.2 m halved 200 times: a bracket of 1.2e-61 m
        for _ in range(200):
            mid = (lo + hi) / 2
            if stationarity(mid, sc)[0] > 0:
                lo = mid
            else:
                hi = mid
        x_star = lo
        best = evaluate_placement(sc, float(x_star))
        assert sol.snr_opt_linear >= (1.0 - 1e-11) * best.snr_opt_linear
        # G''/G = 3 |F'| / (r1^2 r2^2 (1 - P_ris / ceiling)) at the root of F
        r1, r2 = (Decimal(float(r)) for r in center_distances(float(x_star), sc))
        h = r1 / 1000
        slope = (stationarity(x_star + h, sc)[0] - stationarity(x_star - h, sc)[0]) / (2 * h)
        curvature = 3 * abs(slope) / (r1**2 * r2**2 * stationarity(x_star, sc)[1])
        assert curvature / 2 * (Decimal(sol.r1h_opt_m) - x_star) ** 2 <= Decimal("1e-11")


def scan_maximum(scenario, points=200_001):
    # the objective's maximum over [0, r_h]: a uniform scan, then two rescans
    # of 2,001 points across each of its three highest local maxima
    r = np.linspace(0.0, scenario.txrx_horizontal_m, points)
    g = objective(r, scenario)
    padded = np.concatenate(([-np.inf], g, [-np.inf]))
    peaks = np.flatnonzero((g >= padded[:-2]) & (g >= padded[2:]))
    best = -np.inf
    for k in peaks[np.argsort(g[peaks])[-3:]]:
        lo, hi = r[max(k - 1, 0)], r[min(k + 1, points - 1)]
        for _ in range(2):
            x = np.linspace(lo, hi, 2001)
            gx = objective(x, scenario)
            j = int(np.argmax(gx))
            lo, hi = x[max(j - 1, 0)], x[min(j + 1, x.size - 1)]
        best = max(best, float(gx.max()))
    return best


@settings(max_examples=100, deadline=None)
@given(st.fixed_dictionaries({
    "txrx_horizontal_m": st.floats(10.0, 5000.0),
    "lateral_offset_m": st.floats(0.3, 50.0),
    "tx_height_m": st.floats(1.0, 40.0),
    "ris_height_m": st.floats(1.0, 40.0),
}), st.floats(1e-9, 1.0), st.floats(0.0, 0.99))
def test_near_mirror_scenes_find_the_higher_lobe(geometry, epsilon, share):
    # rx_height = tx_height (1 + eps): the lobes near the TX and the RX nearly
    # tie, and the search must not settle on the lower one
    sc = default_scenario(**geometry, rx_height_m=geometry["tx_height_m"] * (1.0 + epsilon))
    sc = with_chip_power(sc, float(share * harvest_ceiling(0.0, sc) / sc.m_s))
    sol = solve_placement(sc)
    assert sol.feasible
    got = float(objective(sol.r1h_opt_m, sc))
    assert got >= (1.0 - 1e-12) * scan_maximum(sc)


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
    return replace(scenario, n_rectifiers=n_rectifiers, p_rectifier_w=p_rectifier_w,
                   p_chip_w=p_chip_w)


@settings(max_examples=100, deadline=None)
@given(geometries, st.fixed_dictionaries({
    "ris_rows": st.integers(1, 60),
    "ris_cols": st.integers(1, 60),
    "transmit_power_w": st.floats(1e-3, 10.0),
    "conversion_efficiency": st.floats(0.05, 0.95),
    "noise_figure_db": st.floats(0.0, 15.0),
}), st.floats(0.0, 1e-4), st.floats(0.0, 1.0))
def test_objective_angle_free_identity(geometry, radio, p_chip_w, fraction):
    # cos(th_i) cos(th_r) = y_s^2/(r1 r2) and the ceiling is C*y_s/r1^3, so
    # G = y_s^2/(sigma^2 r2^3) * (r1^-3 - P_ris/(C*y_s)) needs no angle
    sc = with_chip_power(default_scenario(**geometry, **radio), p_chip_w)
    r1h = fraction * sc.txrx_horizontal_m
    ys = sc.lateral_offset_m
    r1 = math.sqrt(r1h**2 + ys**2 + (sc.ris_height_m - sc.tx_height_m) ** 2)
    r2 = math.sqrt((sc.txrx_horizontal_m - r1h) ** 2 + ys**2 + (sc.ris_height_m - sc.rx_height_m) ** 2)
    c = (sc.conversion_efficiency * sc.m_s * (sc.wavelength_m / (4 * math.pi)) ** 2
         * sc.transmit_power_w * sc.tx_gain * 4)
    lead = ys**2 / (sc.noise_w * r2**3)
    expected = lead * (r1**-3 - sc.p_ris_w / (c * ys))
    got = float(objective(r1h, sc))
    # relative to the larger term: the two cancel where r1h meets r1h_f
    assert abs(got - expected) <= 1e-12 * lead * max(r1**-3, sc.p_ris_w / (c * ys))


DEFAULT_GEOMETRY = {"lateral_offset_m": 5.0, "txrx_horizontal_m": 100.0, "tx_height_m": 3.0,
                    "rx_height_m": 3.0, "ris_height_m": 12.0}


@settings(max_examples=50, deadline=None)
@given(geometries, st.integers(1, 60), st.integers(1, 60), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(DEFAULT_GEOMETRY, 50, 50, 0.1, 0.0)  # P_ris = 0: A = 1
@example(DEFAULT_GEOMETRY, 50, 50, 0.1, 1.0)  # P_ris = ceiling: infeasible
def test_evaluate_placement_harvest_is_element_sum(geometry, rows, cols, fraction, share):
    # the closed form (1 - A^2) * ceiling equals the per-element pairwise sum
    sc = default_scenario(**geometry, ris_rows=rows, ris_cols=cols)
    r1h = fraction * sc.txrx_horizontal_m
    sol = evaluate_placement(with_draw(sc, share * harvest_ceiling(r1h, sc)), r1h)
    if share == 1.0:
        # the ceiling met exactly leaves no margin: not self-powered
        assert not sol.feasible
        return
    assert sol.feasible
    assert sol.a_opt == 1.0 or share != 0.0
    summed = element_sum_harvest(r1h, sol.a_opt, sc)
    assert sol.p_harv_w == pytest.approx(summed, rel=1e-14, abs=0.0)


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


def p_c_max_closed_form(scenario, y_s):
    # P_c,max(y_s) = (C y_s / (y_s^2 + dh_t^2)^(3/2) - n_rect P_rect) / M_s with
    # C = eps M_s (lambda/4pi)^2 P_t G_t 4, read from the fields, not from link
    lam = SPEED_OF_LIGHT_M_S / scenario.carrier_frequency_hz
    g_t = scenario.tx_efficiency * (math.pi * scenario.tx_diameter_m / lam) ** 2
    m_s = scenario.ris_rows * scenario.ris_cols
    c = (scenario.conversion_efficiency * m_s * (lam / (4.0 * math.pi)) ** 2
         * scenario.transmit_power_w * g_t * 4.0)
    dh_t = scenario.ris_height_m - scenario.tx_height_m
    return (c * y_s / (y_s ** 2 + dh_t ** 2) ** 1.5
            - scenario.n_rectifiers * scenario.p_rectifier_w) / m_s


def best_offset(scenario):
    # y_s* = |h_s - h_t| / sqrt(2) maximizes y_s / (y_s^2 + dh_t^2)^(3/2)
    return abs(scenario.ris_height_m - scenario.tx_height_m) / math.sqrt(2.0)


def test_autonomy_threshold_of_the_default_scene(scenario):
    assert p_c_max_closed_form(scenario, 5.0) == pytest.approx(4.3296e-5, rel=1e-4)
    assert best_offset(scenario) == pytest.approx(6.364, abs=1e-3)
    assert p_c_max_closed_form(scenario, best_offset(scenario)) == pytest.approx(4.4905e-5,
                                                                                 rel=1e-4)


@settings(max_examples=50, deadline=None)
@given(geometries, st.lists(st.floats(1.0, 40.0), min_size=1, max_size=3),
       st.integers(1, 200), st.floats(0.0, 0.5))
@example(DEFAULT_GEOMETRY, [5.0], 100, 0.0)
def test_sweep_is_feasible_exactly_below_the_closed_form_threshold(geometry, offsets, n_rect,
                                                                    rectifier_share):
    # every row outside a 1e-9 relative band around P_c,max(y_s) is feasible
    # exactly when P_c < P_c,max(y_s); the rectifiers draw at most half the
    # smallest ceiling, so every threshold stays positive. No offset beats y_s*
    sc = default_scenario(**geometry)
    y_best = best_offset(sc)
    assume(y_best >= 0.1)
    offsets = [*offsets, y_best]
    ceiling = min(p_c_max_closed_form(sc, y_s) for y_s in offsets) * sc.m_s
    sc = replace(sc, n_rectifiers=n_rect, p_rectifier_w=rectifier_share * ceiling / n_rect)
    thresholds = {y_s: p_c_max_closed_form(sc, y_s) for y_s in offsets}
    assert all(thresholds[y_best] >= (1.0 - 1e-12) * t for t in thresholds.values())
    p_c_list = [t * f for t in thresholds.values() for f in (0.5, 1.0 - 1e-7, 1.0, 1.0 + 1e-7)]
    rows = list(sweep_rows(sc, p_c_list, offsets))
    assert len(rows) == len(p_c_list) * len(offsets)
    for row in rows:
        threshold = thresholds[row.y_s_m]
        if abs(row.p_c_w - threshold) > 1e-9 * threshold:
            assert row.feasible == (row.p_c_w < threshold), (row, threshold)
    # so the feasible set at y_s* holds every other offset's
    feasible_at_best = {row.p_c_w for row in rows if row.y_s_m == y_best and row.feasible}
    assert {row.p_c_w for row in rows if row.feasible} <= feasible_at_best


def assert_same_placement(base, moved, scenario):
    # a flat maximum leaves the refined r1h some rounding freedom (1.1e-6 m
    # at y_s = 38 m), so both placements must score the same objective
    assert moved.feasible == base.feasible
    if base.feasible:
        g = objective(np.array([base.r1h_opt_m, moved.r1h_opt_m]), scenario)
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
    g = objective(r, sc)
    assert objective(r_h - r, sc) == pytest.approx(g, rel=1e-12)


# ------------------------------------------------------------- site selection


def test_single_feasible_site_selected(scenario):
    best_index, solutions = select_site([(scenario, 10.0)])
    assert best_index == 0
    assert solutions[0].feasible


def test_smaller_offset_wins_at_high_draw(scenario):
    near = with_chip_power(scenario, 4e-5)
    far = default_scenario(lateral_offset_m=15.0, n_rectifiers=100, p_rectifier_w=0.0,
                           p_chip_w=4e-5)
    best_index, solutions = select_site([(far, 1.0), (near, 1.0)])
    assert not solutions[0].feasible
    assert solutions[1].feasible
    assert best_index == 1


def test_duplicate_sites_tie_to_first(scenario):
    best_index, _ = select_site([(scenario, 10.0)] * 3)
    assert best_index == 0


def test_all_sites_infeasible(scenario):
    best_index, solutions = select_site([(with_draw(scenario, 10.0), 10.0)])
    assert best_index is None
    assert all(not s.feasible for s in solutions)


def test_empty_candidate_list_rejected():
    with pytest.raises(ValueError):
        select_site([])
