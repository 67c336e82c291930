"""Brute-force lattice/enumeration solvers and their agreement with closed forms."""

import cmath
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from risharvest import oracle
from risharvest.link import ReflectionState, path_phase_rad, snr_cophased, snr_explicit
from risharvest.optimizer import solve_placement
from risharvest.oracle import _MAX_ELEMENTS, brute_force_solve, exhaustive_phase_search
from risharvest.scenario import default_scenario


def with_chip_power(p_chip_w):
    return default_scenario(n_rectifiers=100, p_rectifier_w=0.0, p_chip_w=p_chip_w)


# ---------------------------------------------------------------- brute force


def test_bad_steps_rejected(scenario):
    with pytest.raises(ValueError):
        brute_force_solve(scenario, r1h_step_m=0.0)
    with pytest.raises(ValueError):
        brute_force_solve(scenario, a_step=-0.1)
    # a lattice of round(1 / a_step) < 2 amplitudes cannot meet the harvest equality
    for a_step in (0.9, 3.0):
        with pytest.raises(ValueError, match=rf"^a_step {a_step!r} leaves fewer than two amplitudes"):
            brute_force_solve(scenario, a_step=a_step)
    assert brute_force_solve(scenario, a_step=0.5).feasible


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
def test_non_finite_steps_rejected(scenario, step):
    with pytest.raises(ValueError, match="finite"):
        brute_force_solve(scenario, r1h_step_m=step)
    with pytest.raises(ValueError, match="finite"):
        brute_force_solve(scenario, a_step=step)


@pytest.mark.parametrize("r1h_step_m, a_step", [(0.5, 1e-12), (1e-9, 0.001), (5e-324, 1.0)])
def test_oversized_lattice_rejected(scenario, r1h_step_m, a_step):
    # refused before any lattice is allocated
    with pytest.raises(ValueError, match="guard"):
        brute_force_solve(scenario, r1h_step_m=r1h_step_m, a_step=a_step)


def test_zero_draw_keeps_top_lattice_amplitude():
    res = brute_force_solve(with_chip_power(0.0), r1h_step_m=0.5, a_step=0.001)
    assert res.feasible
    # with nothing to harvest the best lattice amplitude is the largest one
    assert res.a == pytest.approx(0.999, rel=1e-12)
    # optimum pair is mirror symmetric; either peak is one grid step out
    analytic = solve_placement(with_chip_power(0.0))
    mirrored = 100.0 - analytic.r1h_opt_m
    assert min(abs(res.r1h_m - analytic.r1h_opt_m), abs(res.r1h_m - mirrored)) <= 0.5


def test_default_point_frozen_values(scenario):
    a_step = 0.001
    res = brute_force_solve(scenario, r1h_step_m=0.5, a_step=a_step)
    assert res.feasible
    assert res.r1h_m == 1.0
    assert res.a == pytest.approx(0.988, rel=1e-12)
    assert 10 * math.log10(res.snr_linear) == pytest.approx(56.38876124761986, abs=1e-9)
    assert res.snr_slack_linear == pytest.approx(
        2 * res.snr_linear * a_step / res.a, rel=1e-12
    )


def test_oracle_agrees_with_analytic(scenario):
    res = brute_force_solve(scenario, r1h_step_m=0.5, a_step=0.001)
    sol = solve_placement(scenario)
    assert abs(res.r1h_m - sol.r1h_opt_m) <= 0.5
    delta_db = abs(10 * math.log10(res.snr_linear) - sol.snr_opt_db)
    assert delta_db <= 0.1


def test_oracle_never_beats_analytic(scenario):
    # the lattice point satisfies the constraint only approximately, so give
    # it the first-order amplitude slack
    res = brute_force_solve(scenario, r1h_step_m=0.5, a_step=0.001)
    sol = solve_placement(scenario)
    assert res.snr_linear <= sol.snr_opt_linear + res.snr_slack_linear


def test_step_shrink_converges(scenario):
    sol = solve_placement(scenario)
    coarse = brute_force_solve(scenario, r1h_step_m=1.0, a_step=0.002)
    fine = brute_force_solve(scenario, r1h_step_m=0.5, a_step=0.001)
    assert abs(fine.r1h_m - sol.r1h_opt_m) <= abs(coarse.r1h_m - sol.r1h_opt_m) + 1e-12
    coarse_gap = abs(coarse.snr_linear - sol.snr_opt_linear)
    fine_gap = abs(fine.snr_linear - sol.snr_opt_linear)
    assert fine_gap <= coarse_gap + 1e-12


def test_infeasible_everywhere():
    res = brute_force_solve(with_chip_power(1e-3), r1h_step_m=1.0, a_step=0.01)
    assert not res.feasible
    assert res.r1h_m is None and res.snr_linear is None


@pytest.mark.parametrize("p_chip_w", [1e-6, 0.0])
@pytest.mark.parametrize("chunk", [1, 999, 4000])
def test_lattice_blocks_keep_the_pick(monkeypatch, p_chip_w, chunk):
    # blocks of one column (a bound of 1 or 999 points rounds up to one
    # 1000-amplitude column) and of four columns pick the same first best
    # point as one whole-grid block
    scenario = with_chip_power(p_chip_w)
    whole = brute_force_solve(scenario, r1h_step_m=0.5, a_step=0.001)
    monkeypatch.setattr(oracle, "_CHUNK_LATTICE_POINTS", chunk)
    assert brute_force_solve(scenario, r1h_step_m=0.5, a_step=0.001) == whole


def test_harvest_matches_constraint_within_lattice(scenario):
    a_step = 0.001
    res = brute_force_solve(scenario, r1h_step_m=0.5, a_step=a_step)
    # nearest-lattice harvest: off by at most one amplitude step's worth
    ceiling = res.p_harv_w / (1 - res.a**2)
    gap = abs(res.p_harv_w - scenario.p_ris_w)
    worst_step = ceiling * abs((1 - res.a**2) - (1 - (res.a + a_step) ** 2))
    assert gap <= worst_step


# ------------------------------------------------------------ exhaustive phase


def test_single_level_is_all_zero(tiny_scenario):
    phases, snr = exhaustive_phase_search(tiny_scenario, 3.0, phase_levels=1, uniform_a=0.9)
    assert np.all(phases == 0.0)
    state = ReflectionState(np.full((2, 2), 0.9), np.zeros((2, 2)))
    assert snr == snr_explicit(3.0, state, tiny_scenario)


def test_single_element_phase_invariance():
    # a lone element cannot interfere with anything: |sum|^2 ignores its
    # phase, every level ties, and the enumerator keeps the first level
    sc = default_scenario(ris_rows=1, ris_cols=1)
    levels = 16
    phases, best = exhaustive_phase_search(sc, 5.0, phase_levels=levels, uniform_a=1.0)
    assert phases[0, 0] == 0.0
    grid = 2 * math.pi * np.arange(levels) / levels
    for level in grid:
        state = ReflectionState(np.ones((1, 1)), np.array([[level]]))
        assert snr_explicit(5.0, state, sc) == pytest.approx(best, rel=1e-12)
    # quantization therefore costs a single element nothing at all
    assert best == pytest.approx(snr_cophased(5.0, 1.0, sc), rel=1e-12)


def test_2x2_16_levels_brackets_cophased(tiny_scenario):
    _, best = exhaustive_phase_search(tiny_scenario, 3.0, phase_levels=16, uniform_a=0.8)
    ideal = snr_cophased(3.0, 0.8, tiny_scenario)
    floor = math.cos(math.pi / 16) ** 2
    assert best <= ideal * (1 + 1e-9)
    assert best >= ideal * floor * (1 - 1e-9)


def itertools_best_snr(sc, r1h, levels, a):
    """Best SNR over every unreduced profile, scored one by one in plain Python."""
    psi = path_phase_rad(r1h, sc)
    const = snr_explicit(r1h, ReflectionState(np.ones(psi.shape), -psi), sc) / sc.m_s**2
    level_values = [2 * math.pi * k / levels for k in range(levels)]
    phasors = [[a * cmath.exp(-1j * (v + p)) for v in level_values] for p in psi.ravel()]
    best = -math.inf
    for combo in itertools.product(range(levels), repeat=sc.m_s):
        total = sum(phasors[e][k] for e, k in enumerate(combo))
        best = max(best, const * abs(total) ** 2)
    return best


@pytest.mark.parametrize("rows, cols, levels, chunk", [
    (1, 1, 16, None), (2, 2, 1, None), (2, 2, 16, None), (2, 2, 16, 100),
])
def test_search_matches_itertools_loop(monkeypatch, rows, cols, levels, chunk):
    if chunk is not None:  # 4,096 reduced profiles over 41 chunks, the last one partial
        monkeypatch.setattr(oracle, "_CHUNK_PROFILES", chunk)
    sc = default_scenario(ris_rows=rows, ris_cols=cols)
    phases, best = exhaustive_phase_search(sc, 3.0, phase_levels=levels, uniform_a=0.8)
    assert phases[0, 0] == 0.0
    assert best == pytest.approx(itertools_best_snr(sc, 3.0, levels, 0.8), rel=1e-12)
    assert snr_explicit(3.0, ReflectionState(np.full((rows, cols), 0.8), phases), sc) == best


def test_search_enumerates_in_product_order_one_call_per_chunk(monkeypatch):
    # 5**2 profiles with element 0 at level 0, in chunks of 7: calls of 7, 7, 7, 4
    monkeypatch.setattr(oracle, "_CHUNK_PROFILES", 7)
    scored = []

    def recording_snr_explicit(r1h_m, reflection, scenario):
        scored.append(reflection.phases.reshape(-1, 3))
        return snr_explicit(r1h_m, reflection, scenario)

    monkeypatch.setattr(oracle.link, "snr_explicit", recording_snr_explicit)
    sc = default_scenario(ris_rows=1, ris_cols=3)
    exhaustive_phase_search(sc, 3.0, phase_levels=5, uniform_a=0.8)
    assert [len(chunk) for chunk in scored] == [7, 7, 7, 4]
    expected = [(0, *combo) for combo in itertools.product(range(5), repeat=2)]
    assert np.array_equal(np.concatenate(scored), 2 * math.pi * np.array(expected) / 5)


def test_first_best_profile_wins_across_chunks(monkeypatch, tiny_scenario):
    # at zero amplitude every profile ties, so the all-level-0 profile is kept
    monkeypatch.setattr(oracle, "_CHUNK_PROFILES", 1)
    phases, best = exhaustive_phase_search(tiny_scenario, 3.0, phase_levels=4, uniform_a=0.0)
    assert np.all(phases == 0.0) and best == 0.0


def test_3x3_6_levels_brackets_cophased():
    # 6**8 reduced profiles; a list of all of them would take over 100 MB
    sc = default_scenario(ris_rows=3, ris_cols=3)
    tracemalloc.start()
    try:
        phases, best = exhaustive_phase_search(sc, 3.0, phase_levels=6, uniform_a=0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert phases[0, 0] == 0.0
    ideal = snr_cophased(3.0, 0.8, sc)
    assert best <= ideal * (1 + 1e-9)
    assert best >= ideal * math.cos(math.pi / 6) ** 2 * (1 - 1e-9)


def test_exhaustive_guards():
    sc = default_scenario(ris_rows=2, ris_cols=5)  # 10 elements
    with pytest.raises(ValueError, match="elements"):
        exhaustive_phase_search(sc, 3.0, phase_levels=2, uniform_a=1.0)
    sc9 = default_scenario(ris_rows=3, ris_cols=3)
    with pytest.raises(ValueError, match="guard"):
        exhaustive_phase_search(sc9, 3.0, phase_levels=16, uniform_a=1.0)
    assert 16**9 > 10**8  # the guard really is the binding limit here
    with pytest.raises(ValueError):
        exhaustive_phase_search(sc9, 3.0, phase_levels=0, uniform_a=1.0)


def test_max_elements_guard_value():
    assert _MAX_ELEMENTS == 9


# --------------------------------------------------------------- independence


def test_oracle_module_does_not_import_optimizer():
    import ast

    src = Path(__file__).resolve().parent.parent / "src" / "risharvest" / "oracle.py"
    tree = ast.parse(src.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    assert "optimizer" not in imported
    assert "link" in imported
