"""SNR routes (explicit complex sum vs co-phased closed form) and harvest model."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risharvest.geometry import center_distances, element_distances, element_grid
from risharvest.link import (
    ReflectionState,
    harvest_ceiling,
    incident_power,
    path_phase_rad,
    snr_cophased,
    snr_explicit,
)
from risharvest.optimizer import evaluate_placement
from risharvest.scenario import default_scenario


def arctan_cosines(r1h_m, scenario):
    # cos(th_i), cos(th_r) from the incidence and departure angles, formed
    # with arctan as an independent route to the kernel's y_s/r1 and y_s/r2
    ys = scenario.lateral_offset_m
    dz_t = scenario.ris_height_m - scenario.tx_height_m
    dz_r = scenario.ris_height_m - scenario.rx_height_m
    th_i = math.atan(math.sqrt(r1h_m**2 + dz_t**2) / ys)
    th_r = math.atan(math.sqrt((scenario.txrx_horizontal_m - r1h_m) ** 2 + dz_r**2) / ys)
    return math.cos(th_i), math.cos(th_r)


def element_sum_harvest(r1h_m, amplitudes, scenario):
    # eps_conv * sum_pl (1 - A_pl^2) * P_inc, term by term over the surface
    r1, _ = center_distances(r1h_m, scenario)
    per_element = (1.0 - np.asarray(amplitudes) ** 2) * incident_power(r1, scenario)
    return float(scenario.conversion_efficiency * np.sum(per_element))


def co_phased_state(r1h_m, a, scenario):
    grid = element_grid(scenario)
    psi = path_phase_rad(r1h_m, grid, scenario)
    return ReflectionState(amplitudes=np.full(grid.shape, a), phases=-psi)


# ------------------------------------------------------------ reflection state


def test_reflection_state_validation():
    with pytest.raises(ValueError, match="shape"):
        ReflectionState(amplitudes=np.zeros((2, 2)), phases=np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ReflectionState(amplitudes=np.full((1, 1), 1.5), phases=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="finite"):
        ReflectionState(amplitudes=np.ones((1, 1)), phases=np.full((1, 1), np.nan))


def test_element_gain_values():
    # the element gain 4 cos(th_i) is 4 at broadside and 2 at 60 degrees
    sc = default_scenario(lateral_offset_m=5.0, ris_height_m=3.0, tx_height_m=3.0)
    lam = sc.wavelength_m
    for r1h, gain in ((0.0, 4.0), (math.sqrt(75.0), 2.0)):
        r1, _ = center_distances(r1h, sc)
        free_space = (lam / (4 * math.pi)) ** 2 * sc.transmit_power_w * sc.tx_gain / r1**2
        assert incident_power(r1, sc) == pytest.approx(gain * free_space, rel=1e-14)


# -------------------------------------------------------------- explicit SNR


def test_zero_amplitudes_zero_snr(scenario):
    state = ReflectionState(
        amplitudes=np.zeros((50, 50)), phases=np.zeros((50, 50))
    )
    assert snr_explicit(10.0, state, scenario) == 0.0


def test_shape_mismatch_rejected(scenario):
    state = ReflectionState(amplitudes=np.ones((2, 2)), phases=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="shape"):
        snr_explicit(10.0, state, scenario)


def test_batched_profiles_equal_scalar_calls(scenario, tiny_scenario):
    # leading batch axes are scored in one call, entry by entry bitwise equal
    rng = np.random.default_rng(5)
    for sc in (tiny_scenario, scenario):
        shape = (3, 2, sc.ris_rows, sc.ris_cols)
        amps = rng.uniform(0, 1, size=shape)
        phases = rng.uniform(-10, 10, size=shape)
        batch = snr_explicit(10.0, ReflectionState(amps, phases), sc)
        assert isinstance(batch, np.ndarray) and batch.shape == (3, 2)
        for i in range(3):
            for j in range(2):
                single = snr_explicit(10.0, ReflectionState(amps[i, j], phases[i, j]), sc)
                assert isinstance(single, float)
                assert batch[i, j] == single


def test_batched_wrong_trailing_shape_rejected(tiny_scenario):
    for shape in ((5, 2, 3), (5, 3, 2), (4,), (2, 2, 1)):
        state = ReflectionState(amplitudes=np.ones(shape), phases=np.zeros(shape))
        with pytest.raises(ValueError, match="shape"):
            snr_explicit(3.0, state, tiny_scenario)


def test_cophased_sum_is_coherent(scenario):
    # path-cancelling phases collapse the sum to |M_s * A|^2
    for r1h, a in ((1.0, 1.0), (10.0, 0.5), (60.0, 0.9)):
        explicit = snr_explicit(r1h, co_phased_state(r1h, a, scenario), scenario)
        closed = snr_cophased(r1h, a, scenario)
        assert explicit == pytest.approx(closed, rel=1e-9)


def test_2x2_matches_handrolled_oracle(tiny_scenario):
    rng = np.random.default_rng(7)
    grid = element_grid(tiny_scenario)
    lam = tiny_scenario.wavelength_m
    r1, r2 = center_distances(3.0, tiny_scenario)
    cos_i, cos_r = arctan_cosines(3.0, tiny_scenario)
    r1pl, r2pl = element_distances(3.0, grid, tiny_scenario)
    const = (
        (lam / (4 * math.pi)) ** 4
        * tiny_scenario.transmit_power_w
        * tiny_scenario.tx_gain
        * tiny_scenario.rx_gain
        * (4 * cos_i)
        * (4 * cos_r)
        / (r1**2 * r2**2 * tiny_scenario.noise_w)
    )
    for _ in range(25):
        amps = rng.uniform(0, 1, size=(2, 2))
        phases = rng.uniform(-10, 10, size=(2, 2))
        total = 0 + 0j
        for p in range(2):
            for l in range(2):
                phase = phases[p, l] + 2 * math.pi * (r1pl[p, l] + r2pl[p, l]) / lam
                total += amps[p, l] * cmath.exp(-1j * phase)
        expected = const * abs(total) ** 2
        state = ReflectionState(amplitudes=amps, phases=phases)
        assert snr_explicit(3.0, state, tiny_scenario) == pytest.approx(expected, rel=1e-12)


def test_random_phases_never_beat_cophased(scenario):
    # Cauchy-Schwarz: any phase profile is bounded by the coherent sum
    rng = np.random.default_rng(11)
    best = snr_cophased(10.0, 0.8, scenario)
    for _ in range(20):
        state = ReflectionState(
            amplitudes=np.full((50, 50), 0.8),
            phases=rng.uniform(0, 2 * math.pi, size=(50, 50)),
        )
        assert snr_explicit(10.0, state, scenario) <= best * (1 + 1e-12)


def test_pairwise_sum_agrees_with_fsum(scenario):
    # 2500-term reduction stays within float accumulation noise of exact fsum
    rng = np.random.default_rng(23)
    amps = rng.uniform(0, 1, size=(50, 50))
    phases = rng.uniform(0, 2 * math.pi, size=(50, 50))
    grid = element_grid(scenario)
    psi = path_phase_rad(10.0, grid, scenario)
    angle = phases + psi
    re = math.fsum((amps * np.cos(-angle)).ravel().tolist())
    im = math.fsum((amps * np.sin(-angle)).ravel().tolist())
    state = ReflectionState(amplitudes=amps, phases=phases)
    got = snr_explicit(10.0, state, scenario)
    zero = ReflectionState(amplitudes=np.ones((50, 50)), phases=-psi)
    const = snr_explicit(10.0, zero, scenario) / scenario.m_s**2
    assert got == pytest.approx(const * (re**2 + im**2), rel=1e-10)


# -------------------------------------------------------------- co-phased SNR


def test_cophased_zero_amplitude(scenario):
    assert snr_cophased(10.0, 0.0, scenario) == 0.0


def test_cophased_amplitude_out_of_range(scenario):
    with pytest.raises(ValueError):
        snr_cophased(10.0, 1.2, scenario)


def test_cophased_quadratic_in_amplitude(scenario):
    for a in (0.2, 0.5, 0.9, 1.0):
        assert snr_cophased(5.0, a, scenario) / snr_cophased(5.0, a / 2, scenario) == 4.0


# ----------------------------------------------------------------- absorption


def test_absorbed_power_table_point(scenario):
    lam = scenario.wavelength_m
    r1, _ = center_distances(10.0, scenario)
    cos_i, _ = arctan_cosines(10.0, scenario)
    expected = (
        (lam / (4 * math.pi)) ** 2
        * scenario.transmit_power_w
        * scenario.tx_gain
        * 4
        * cos_i
        / r1**2
    )
    got = incident_power(r1, scenario)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(2.6634817900711117e-05, rel=1e-12)


def test_power_split_identity(scenario):
    # the harvested (1 - A^2) share and the reflected A^2 share add up to the ceiling
    r1, _ = center_distances(10.0, scenario)
    ceiling = harvest_ceiling(r1, scenario)
    for share in (0.1, 0.5, 0.99):
        sol = evaluate_placement(scenario, 10.0, p_ris_w=share * ceiling)
        assert sol.p_harv_w + sol.a_opt ** 2 * ceiling == pytest.approx(ceiling, rel=1e-12)


# -------------------------------------------------------------------- harvest


def test_full_reflection_harvests_nothing(scenario):
    assert element_sum_harvest(10.0, np.ones((50, 50)), scenario) == 0.0


def test_uniform_harvest_collapse(scenario):
    # the term-by-term sum at a uniform amplitude is (1 - A^2) of the ceiling
    r1, _ = center_distances(10.0, scenario)
    for a in (0.0, 0.3, 0.9):
        total = element_sum_harvest(10.0, np.full((50, 50), a), scenario)
        assert total == pytest.approx((1 - a * a) * harvest_ceiling(r1, scenario), rel=1e-12)


def test_harvest_ceiling_near_tx(scenario):
    # term-by-term oracle at the foot of the surface, full absorption
    lam = scenario.wavelength_m
    total = 0.0
    for _ in range(scenario.m_s):
        r1sq = scenario.lateral_offset_m**2 + (scenario.ris_height_m - scenario.tx_height_m) ** 2
        cos_ti = scenario.lateral_offset_m / math.sqrt(r1sq)
        total += (
            scenario.conversion_efficiency
            * (lam / (4 * math.pi)) ** 2
            * scenario.transmit_power_w
            * scenario.tx_gain
            * 4
            * cos_ti
            / r1sq
        )
    got = harvest_ceiling(center_distances(0.0, scenario)[0], scenario)
    assert got == pytest.approx(total, rel=1e-9)
    assert got == pytest.approx(0.10823881367070927, rel=1e-9)
    assert 0.05 < got < 0.2


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({
    "lateral_offset_m": st.floats(1.0, 40.0),
    "txrx_horizontal_m": st.floats(20.0, 400.0),
    "tx_height_m": st.floats(1.0, 20.0),
    "rx_height_m": st.floats(1.0, 20.0),
    "ris_height_m": st.floats(1.0, 30.0),
    "ris_rows": st.integers(1, 60),
    "ris_cols": st.integers(1, 60),
    "transmit_power_w": st.floats(1e-3, 10.0),
    "conversion_efficiency": st.floats(0.05, 0.95),
}), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
# a^2 is subnormal here, where no product order keeps 1e-12 relative
@example({"ris_rows": 1, "ris_cols": 1}, 0.0, 2.3228010533463882e-161)
def test_kernel_matches_arctan_route(params, fraction, a):
    # the harvest ceiling and the co-phased SNR at A = 1 from (r1, r2) alone
    # equal the angle-based closed forms; at r/y_s <= 400, cos(arctan(.))
    # itself is within about 1e-13
    sc = default_scenario(**params)
    r1h = fraction * sc.txrx_horizontal_m
    r1, r2 = center_distances(r1h, sc)
    cos_i, cos_r = arctan_cosines(r1h, sc)
    free_space = (sc.wavelength_m / (4 * math.pi)) ** 2
    ceiling = (sc.conversion_efficiency * sc.m_s * free_space * sc.transmit_power_w
               * sc.tx_gain * 4 * cos_i / r1**2)
    snr = (16 * sc.transmit_power_w * sc.tx_gain * sc.rx_gain * free_space**2 * sc.m_s**2
           * cos_i * cos_r / (r1**2 * r2**2 * sc.noise_w))
    assert harvest_ceiling(r1, sc) == pytest.approx(ceiling, rel=1e-12)
    assert snr_cophased(r1h, 1.0, sc) == pytest.approx(snr, rel=1e-12, abs=0.0)
    # the A^2 law is exact for every amplitude, subnormal a^2 included
    assert snr_cophased(r1h, a, sc) == snr_cophased(r1h, 1.0, sc) * (a * a)


def test_harvest_monotone_in_amplitude(scenario):
    rng = np.random.default_rng(3)
    amps = rng.uniform(0, 1, size=(50, 50))
    lower = element_sum_harvest(10.0, amps, scenario)
    ceiling = harvest_ceiling(center_distances(10.0, scenario)[0], scenario)
    assert 0.0 <= lower <= ceiling
