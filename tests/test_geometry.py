"""Offset grids, center/per-element distances, and the center cosines
cos(th) = y_s/r vs a 3-D coordinate oracle.

The oracle places TX at (0, 0, h_t), element (p, l) at (r1h - d_p, y_s, h_s - d_l)
and RX at (r_h, 0, h_r), then measures plain Euclidean distances.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risharvest.geometry import ElementGrid, center_distances, element_distances, element_grid
from risharvest.scenario import ConfigError, default_scenario

LAM = 299_792_458.0 / 28e9


# -------------------------------------------------------------- offset grids


def test_single_element_grid():
    g = element_grid(default_scenario(ris_rows=1, ris_cols=1))
    assert g.d_p.shape == (1, 1)
    assert g.d_p[0, 0] == 0.0
    assert g.d_l[0, 0] == 0.0


def test_two_element_row_symmetric():
    g = element_grid(default_scenario(ris_rows=2, ris_cols=1))
    assert sorted(g.d_p[:, 0]) == [-LAM / 4, LAM / 4]


def test_50x50_grid_centering(scenario):
    g = element_grid(scenario)
    assert g.d_p.shape == (50, 50)
    assert g.d_p.max() == pytest.approx(24.5 * scenario.element_dx_m, rel=1e-15)
    assert g.d_p.min() == pytest.approx(-24.5 * scenario.element_dx_m, rel=1e-15)
    assert abs(g.d_p.mean()) < 1e-12
    assert abs(g.d_l.mean()) < 1e-12


def test_degenerate_dimensions_rejected():
    # no grid is built for an empty surface: the scenario refuses it
    for dims in ({"ris_rows": 0}, {"ris_cols": 0}):
        with pytest.raises(ConfigError):
            default_scenario(**dims)


# ----------------------------------------------------------- center distances


def test_center_distance_single_term():
    sc = default_scenario(lateral_offset_m=3.0, ris_height_m=3.0, tx_height_m=3.0)
    r1, _ = center_distances(0.0, sc)
    assert r1 == pytest.approx(3.0, rel=1e-15)


def test_center_distance_table_point(scenario):
    r1, _ = center_distances(10.0, scenario)
    assert r1 == pytest.approx(math.sqrt(100 + 25 + 81), rel=1e-12)
    assert r1 == pytest.approx(14.353, abs=5e-4)


def test_midpoint_mirror_symmetry(scenario):
    # equal TX/RX heights make the two hops congruent at the midpoint
    assert scenario.tx_height_m == scenario.rx_height_m
    r1, r2 = center_distances(scenario.txrx_horizontal_m / 2, scenario)
    assert r1 == r2


def test_center_distances_array_path(scenario):
    r1h = np.array([0.0, 10.0, 50.0, 100.0])
    r1_arr, r2_arr = center_distances(r1h, scenario)
    for i, r in enumerate(r1h):
        r1, r2 = center_distances(float(r), scenario)
        assert r1_arr[i] == r1 and r2_arr[i] == r2


# ------------------------------------------------------ per-element distances


def test_center_element_equals_center_distance(scenario):
    # the center is the element at offset (0, 0), bit for bit
    r1h = np.array([0.0, 1e-7, 10.0, math.pi, 37.3, scenario.txrx_horizontal_m])
    g = ElementGrid(d_p=np.zeros(r1h.shape), d_l=np.zeros(r1h.shape))
    r1pl, r2pl = element_distances(r1h, g, scenario)
    r1, r2 = center_distances(r1h, scenario)
    assert np.array_equal(r1pl, r1)
    assert np.array_equal(r2pl, r2)


@settings(max_examples=100, deadline=None)
@given(st.fixed_dictionaries({
    "lateral_offset_m": st.floats(1.0, 40.0),
    "txrx_horizontal_m": st.floats(20.0, 400.0),
    "tx_height_m": st.floats(1.0, 20.0),
    "rx_height_m": st.floats(1.0, 20.0),
    "ris_height_m": st.floats(5.0, 30.0),
    "ris_rows": st.integers(1, 8),
    "ris_cols": st.integers(1, 8),
    "element_dx_m": st.floats(1e-3, 1.0),
    "element_dy_m": st.floats(1e-3, 1.0),
}), st.floats(0.0, 1.0))
def test_element_is_center_of_shifted_surface(params, fraction):
    # element (p, l) at r1h is the center of a one-element surface mounted at
    # r1h - d_p and ris_height_m - d_l, the rest of the scene unchanged
    sc = default_scenario(**params)
    r1h = fraction * sc.txrx_horizontal_m
    g = element_grid(sc)
    r1pl, r2pl = element_distances(r1h, g, sc)
    for p, l in np.ndindex(g.d_p.shape):
        shifted = replace(sc, ris_rows=1, ris_cols=1, ris_height_m=sc.ris_height_m - g.d_l[p, l])
        r1, r2 = center_distances(r1h - g.d_p[p, l], shifted)
        assert r1pl[p, l] == pytest.approx(r1, rel=1e-12)
        assert r2pl[p, l] == pytest.approx(r2, rel=1e-12)


def test_mirror_elements_swap_distances(scenario):
    # +-(d_p, d_l) pairs swap hop lengths at the midpoint when h_t = h_r
    g = ElementGrid(
        d_p=np.array([[LAM / 4], [-LAM / 4]]),
        d_l=np.array([[LAM / 8], [LAM / 8]]),
    )
    mid = scenario.txrx_horizontal_m / 2
    r1pl, r2pl = element_distances(mid, g, scenario)
    assert r1pl[0, 0] == pytest.approx(r2pl[1, 0], rel=1e-15)
    assert r1pl[1, 0] == pytest.approx(r2pl[0, 0], rel=1e-15)


def test_element_distances_table_point(scenario):
    dp = dl = LAM / 4
    g = ElementGrid(d_p=np.array([[dp]]), d_l=np.array([[dl]]))
    r1pl, r2pl = element_distances(10.0, g, scenario)
    tx = np.array([0.0, 0.0, scenario.tx_height_m])
    rx = np.array([scenario.txrx_horizontal_m, 0.0, scenario.rx_height_m])
    el = np.array([10.0 - dp, scenario.lateral_offset_m, scenario.ris_height_m - dl])
    assert r1pl[0, 0] == pytest.approx(np.linalg.norm(el - tx), rel=1e-12)
    assert r2pl[0, 0] == pytest.approx(np.linalg.norm(rx - el), rel=1e-12)


def test_element_distances_random_configs():
    rng = np.random.default_rng(20260814)
    for _ in range(100):
        sc = default_scenario(
            tx_height_m=float(rng.uniform(1, 10)),
            rx_height_m=float(rng.uniform(1, 10)),
            ris_height_m=float(rng.uniform(6, 30)),
            lateral_offset_m=float(rng.uniform(0.5, 40)),
            txrx_horizontal_m=float(rng.uniform(20, 300)),
            ris_rows=int(rng.integers(1, 6)),
            ris_cols=int(rng.integers(1, 6)),
            element_dx_m=float(rng.uniform(0.2, 3) * LAM),
            element_dy_m=float(rng.uniform(0.2, 3) * LAM),
        )
        r1h = float(rng.uniform(0, sc.txrx_horizontal_m))
        g = element_grid(sc)
        r1pl, r2pl = element_distances(r1h, g, sc)
        tx = np.array([0.0, 0.0, sc.tx_height_m])
        rx = np.array([sc.txrx_horizontal_m, 0.0, sc.rx_height_m])
        for p in range(sc.ris_rows):
            for l in range(sc.ris_cols):
                el = np.array([
                    r1h - g.d_p[p, l],
                    sc.lateral_offset_m,
                    sc.ris_height_m - g.d_l[p, l],
                ])
                assert r1pl[p, l] == pytest.approx(np.linalg.norm(el - tx), rel=1e-12)
                assert r2pl[p, l] == pytest.approx(np.linalg.norm(rx - el), rel=1e-12)


def test_triangle_inequality_against_center(scenario):
    g = element_grid(scenario)
    bound = np.sqrt(g.d_p ** 2 + g.d_l ** 2) + 1e-9
    for r1h in (0.0, 1.0, 10.0, 50.0, 99.0):
        r1, r2 = center_distances(r1h, scenario)
        r1pl, r2pl = element_distances(r1h, g, scenario)
        assert np.all(np.abs(r1pl - r1) <= bound)
        assert np.all(np.abs(r2pl - r2) <= bound)


# ------------------------------------------------ center cosines y_s/r1, y_s/r2


def test_broadside_incidence():
    # TX level with the surface and r1h = 0: the TX lies on the normal
    sc = default_scenario(ris_height_m=3.0, tx_height_m=3.0)
    r1, _ = center_distances(0.0, sc)
    assert sc.lateral_offset_m / r1 == 1.0


def test_incidence_angle_table_point(scenario):
    # th_i = atan(sqrt(r1h^2 + dz_t^2) / y_s) at r1h = 10 m, dz_t = 9 m, y_s = 5 m
    r1, _ = center_distances(10.0, scenario)
    cos_i = scenario.lateral_offset_m / r1
    assert cos_i == pytest.approx(math.cos(math.atan(math.sqrt(100 + 81) / 5)), rel=1e-12)
    assert cos_i == pytest.approx(math.cos(1.2149684442983177), rel=1e-12)
    assert cos_i == pytest.approx(5 / math.sqrt(206), rel=1e-15)


def test_broadside_departure():
    sc = default_scenario(ris_height_m=6.0, rx_height_m=6.0)
    _, r2 = center_distances(sc.txrx_horizontal_m, sc)
    assert sc.lateral_offset_m / r2 == 1.0


def test_angle_monotonicity(scenario):
    # moving toward the RX tilts the TX away from the normal and the RX toward it
    r = np.linspace(0.0, scenario.txrx_horizontal_m, 401)
    r1, r2 = center_distances(r, scenario)
    cos_i, cos_r = scenario.lateral_offset_m / r1, scenario.lateral_offset_m / r2
    assert np.all(np.diff(cos_i) < 0)
    assert np.all(np.diff(cos_r) > 0)
    assert np.all((cos_i > 0) & (cos_i <= 1)) and np.all((cos_r > 0) & (cos_r <= 1))
