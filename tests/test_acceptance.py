"""Acceptance gate: eight criteria, one test and one printed pass line each.

Run as `pytest tests/test_acceptance.py -v` (add -s to see the printed
detail lines on success; they always appear for failures).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from risharvest.cli import EXIT_OK, main, sweep_rows
from risharvest.geometry import center_distances
from risharvest.link import ReflectionState, harvest_ceiling, snr_cophased, snr_explicit
from risharvest.optimizer import optimal_phases, placement_objective, solve_placement
from risharvest.oracle import exhaustive_phase_search
from risharvest.scenario import default_scenario

CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "default.cfg")

YS_VALUES = (5.0, 10.0, 20.0)
PC_VALUES_W = (1e-7, 1e-6, 5e-6)
# 30-point trend grid; the log step is finer than the gap between adjacent
# feasibility thresholds so the per-offset feasible sets nest strictly
TREND_PC_GRID = [float(v) for v in np.logspace(-5, -4, 30)]


def with_chip_power(scenario, p_c_w):
    return default_scenario(
        lateral_offset_m=scenario.lateral_offset_m,
        n_rectifiers=100,
        p_rectifier_w=0.0,
        p_chip_w=p_c_w,
    )


@pytest.fixture(scope="module")
def table_scenario():
    return default_scenario()


@pytest.fixture(scope="module")
def trend_rows(table_scenario):
    return sweep_rows(table_scenario, TREND_PC_GRID, list(YS_VALUES))


@pytest.fixture(scope="module")
def tiny_solution():
    sc = default_scenario(ris_rows=2, ris_cols=2)
    sol = solve_placement(sc)
    assert sol.feasible
    return sc, sol


def test_criterion_1_autonomy_threshold(table_scenario):
    start = time.perf_counter()
    pc_grid = [float(v) for v in np.logspace(-8, -4, 30)]
    rows = sweep_rows(table_scenario, pc_grid, [5.0])
    elapsed = time.perf_counter() - start
    feasible_pc = [row.p_c_w for row in rows if row.feasible]
    assert feasible_pc, "no feasible chip power found at all"
    max_pc = max(feasible_pc)
    assert 1e-6 <= max_pc <= 1e-4
    assert elapsed < 10.0
    # closed form P_c,max = (ceiling(0) - n_rect*P_rect)/M_s: the sweep's
    # feasible set ends at the last grid value at or below it
    sc = table_scenario  # y_s = 5 m
    ceiling = harvest_ceiling(center_distances(0.0, sc)[0], sc)
    p_c_max = (ceiling - sc.n_rectifiers * sc.p_rectifier_w) / sc.m_s
    assert p_c_max == pytest.approx(43.3e-6, abs=0.05e-6)
    assert max_pc <= p_c_max < pc_grid[pc_grid.index(max_pc) + 1]
    print(
        f"PASS criterion 1: max feasible chip power {max_pc:.4e} W "
        f"lies in [1e-06, 1e-04] W and is the last grid value below the "
        f"closed-form threshold {p_c_max:.4e} W ({elapsed:.2f} s < 10 s)"
    )


def test_criterion_2_analytic_vs_oracle(capsys):
    worst_db = worst_r = worst_elapsed = 0.0
    for y_s in YS_VALUES:
        for p_c in PC_VALUES_W:
            start = time.perf_counter()
            code = main([
                "validate", "--config", CONFIG,
                "--override", f"lateral_offset_m={y_s}",
                "--override", f"p_chip_w={p_c}",
                "--r1h-step", "0.5", "--a-step", "0.001",
            ])
            elapsed = time.perf_counter() - start
            out = capsys.readouterr().out
            assert code == EXIT_OK, (y_s, p_c, out)
            report = {}
            for line in out.splitlines():
                if " = " in line:
                    key, value = line.split(" = ", 1)
                    report[key] = value.split(" (")[0]
            assert report["verdict"] == "pass"
            delta_db = float(report["delta_snr_db"])
            delta_r = float(report["delta_r1h_m"])
            assert delta_db <= 0.1, (y_s, p_c, delta_db)
            assert delta_r <= 0.5, (y_s, p_c, delta_r)
            assert elapsed < 60.0
            worst_db = max(worst_db, delta_db)
            worst_r = max(worst_r, delta_r)
            worst_elapsed = max(worst_elapsed, elapsed)
    print(
        "PASS criterion 2: validate agrees within 0.1 dB / 0.5 m at all 9 "
        f"(y_s, P_c) points (worst {worst_db:.4f} dB, {worst_r:.3f} m, "
        f"{worst_elapsed:.1f} s < 60 s per point)"
    )


def test_criterion_3_cophasing_identity(table_scenario):
    rng = np.random.default_rng(314159)
    shape = (table_scenario.ris_rows, table_scenario.ris_cols)
    worst = 0.0
    for _ in range(100):
        r1h = float(rng.uniform(0.1, 99.9))
        a = float(rng.uniform(0.0, 1.0))
        state = ReflectionState(
            amplitudes=np.full(shape, a),
            phases=optimal_phases(r1h, table_scenario),
        )
        explicit = snr_explicit(r1h, state, table_scenario)
        closed = snr_cophased(r1h, a, table_scenario)
        if closed > 0:
            worst = max(worst, abs(explicit - closed) / closed)
    assert worst <= 1e-9

    # the solved SNR must equal the scaled reduced objective at the optimum
    lam = table_scenario.wavelength_m
    scale = (
        16 * table_scenario.transmit_power_w * table_scenario.tx_gain
        * table_scenario.rx_gain * (lam / (4 * math.pi)) ** 4
        * table_scenario.m_s ** 2
    )
    for y_s in YS_VALUES:
        for p_c in PC_VALUES_W:
            sc = with_chip_power(default_scenario(lateral_offset_m=y_s), p_c)
            sol = solve_placement(sc)
            assert sol.feasible
            g = float(placement_objective(sol.r1h_opt_m, sol.p_ris_w, sc))
            assert sol.snr_opt_linear == pytest.approx(scale * g, rel=1e-9)
    print(
        f"PASS criterion 3: co-phasing identity within 1e-9 at 100 random "
        f"points (worst {worst:.2e}) and optimal-SNR identity at 9 optima"
    )


def test_criterion_4_constraint_satisfaction(trend_rows, table_scenario):
    checked = 0
    worst = 0.0
    for row in trend_rows:
        if not row.feasible:
            continue
        rel = abs(row.p_harv_w - row.p_ris_w) / row.p_ris_w
        worst = max(worst, rel)
        checked += 1
    sol = solve_placement(table_scenario)
    worst = max(worst, abs(sol.p_harv_w - sol.p_ris_w) / sol.p_ris_w)
    checked += 1
    assert checked > 40
    assert worst <= 1e-6
    print(
        f"PASS criterion 4: harvest equality met to 1e-6 on {checked} "
        f"feasible solutions (worst relative gap {worst:.2e})"
    )


def test_criterion_5_trend_suite(trend_rows):
    by_ys = {y_s: [r for r in trend_rows if r.y_s_m == y_s] for y_s in YS_VALUES}
    feasible_sets = {}
    for y_s, rows in by_ys.items():
        assert [r.p_c_w for r in rows] == TREND_PC_GRID
        feas = [r for r in rows if r.feasible]
        assert feas, f"no feasible rows at y_s = {y_s}"
        snrs = [r.snr_opt_db for r in feas]
        r1hs = [r.r1h_opt_m for r in feas]
        amps = [r.a_opt for r in feas]
        assert all(b <= a + 1e-9 for a, b in zip(snrs, snrs[1:])), f"SNR trend broken at {y_s}"
        assert all(b <= a + 1e-4 for a, b in zip(r1hs, r1hs[1:])), f"r1h trend broken at {y_s}"
        assert all(b <= a + 1e-9 for a, b in zip(amps, amps[1:])), f"amplitude trend broken at {y_s}"
        feasible_sets[y_s] = {r.p_c_w for r in feas}
    assert feasible_sets[20.0] < feasible_sets[10.0] < feasible_sets[5.0]
    sizes = tuple(len(feasible_sets[y]) for y in YS_VALUES)
    print(
        "PASS criterion 5: SNR/r1h/amplitude all non-increasing in chip power "
        f"and feasible sets strictly nested (sizes {sizes} for y_s {YS_VALUES})"
    )


def test_criterion_6_phase_optimality(tiny_solution):
    sc, sol = tiny_solution
    r_star, a_star = sol.r1h_opt_m, sol.a_opt
    ideal = snr_cophased(r_star, a_star, sc)
    _, best_quantized = exhaustive_phase_search(sc, r_star, 16, a_star)
    floor = math.cos(math.pi / 16) ** 2
    assert best_quantized <= ideal * (1 + 1e-9)
    assert best_quantized >= ideal * floor * (1 - 1e-9)

    shape = (2, 2)
    star_state = ReflectionState(np.full(shape, a_star), optimal_phases(r_star, sc))
    snr_star = snr_explicit(r_star, star_state, sc)
    rng = np.random.default_rng(2718281)
    for _ in range(200):
        state = ReflectionState(
            np.full(shape, a_star), rng.uniform(0, 2 * math.pi, size=shape)
        )
        assert snr_explicit(r_star, state, sc) <= snr_star * (1 + 1e-9)
    print(
        "PASS criterion 6: 16-level exhaustive best within "
        f"[cos^2(pi/16), 1] of co-phased ({best_quantized / ideal:.6f}) and "
        "200 random phase profiles never beat the closed form"
    )


def test_criterion_7_amplitude_uniformity(tiny_solution):
    sc, sol = tiny_solution
    r_star = sol.r1h_opt_m
    eps_p_inc = harvest_ceiling(center_distances(r_star, sc)[0], sc) / sc.m_s
    s_target = sc.m_s - sol.p_ris_w / eps_p_inc  # required sum of squares
    tol = 0.02  # one 0.01 amplitude step of sum-of-squares resolution

    vals = np.linspace(0.0, 1.0, 101)
    pair = np.stack(np.meshgrid(vals, vals, indexing="ij"), axis=-1).reshape(-1, 2)
    pair_s = (pair ** 2).sum(axis=1)
    pair_t = pair.sum(axis=1)
    best_t = -math.inf
    chunk = 512
    for i in range(0, pair_s.size, chunk):
        s_block = pair_s[i : i + chunk, None] + pair_s[None, :]
        mask = np.abs(s_block - s_target) <= tol
        if mask.any():
            t_block = pair_t[i : i + chunk, None] + pair_t[None, :]
            best_t = max(best_t, float(t_block[mask].max()))
    assert best_t > 0, "no lattice point satisfies the harvest equality"

    per_unit = snr_cophased(r_star, 1.0, sc) / sc.m_s ** 2
    best_lattice_snr = per_unit * best_t ** 2
    margin_db = 10 * math.log10(best_lattice_snr / sol.snr_opt_linear)
    assert margin_db <= 0.05
    print(
        "PASS criterion 7: best independent-amplitude lattice profile exceeds "
        f"the uniform optimum by {margin_db:+.4f} dB <= 0.05 dB"
    )


def test_criterion_8_determinism(tmp_path, capsys):
    args = [
        "sweep", "--config", CONFIG,
        "--pc-log", "1e-7", "1e-4", "6", "--ys-list", "5,10,20",
    ]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(args + ["--out", str(first)]) == EXIT_OK
    assert main(args + ["--out", str(second)]) == EXIT_OK
    capsys.readouterr()
    same = first.read_bytes() == second.read_bytes()
    assert same
    print("PASS criterion 8: consecutive sweep runs are byte-identical")
