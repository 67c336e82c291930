"""Placement geometry: element offsets and distances.

Coordinate model: TX at (0, 0, h_t), RX at (r_h, 0, h_r), surface center at
(r1h, y_s, h_s) with y_s > 0. Element (p, l) sits at
(r1h - d_p, y_s, h_s - d_l), so d_l > 0 means below the center. The center
is the element at offset (0, 0): it and every element share one distance
formula, and the offset grid is the plain named pair (d_p, d_l). The surface
normal is the y axis, so the incidence and departure cosines at the center
are cos(th_i) = y_s/r1 and cos(th_r) = y_s/r2: center_distances is the whole
center geometry, and no angle is ever formed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .scenario import Scenario


class ElementGrid(NamedTuple):
    """Per-element lateral offsets from the surface center, each of shape
    (M_x, M_y): d_p horizontal, d_l vertical. Centered, so both sum to zero."""

    d_p: np.ndarray
    d_l: np.ndarray


def element_grid(scenario: Scenario) -> ElementGrid:
    """Centered offset grid matching the scenario's surface.

    1-indexed convention: element (p, l) has offsets
    d_p = (p - (M_x + 1)/2) * d_x and d_l = (l - (M_y + 1)/2) * d_y,
    which puts the grid centroid exactly at the surface center.
    """
    m_x, m_y = scenario.ris_rows, scenario.ris_cols
    dp = (np.arange(1, m_x + 1, dtype=float) - (m_x + 1) / 2.0) * scenario.element_dx_m
    dl = (np.arange(1, m_y + 1, dtype=float) - (m_y + 1) / 2.0) * scenario.element_dy_m
    return ElementGrid(*np.meshgrid(dp, dl, indexing="ij"))


def _hop_distances(run_t, run_r, rise_t, rise_r, scenario: Scenario):
    """TX-to-point and point-to-RX distances of a point y_s off the TX-RX line,
    run_t / run_r along it from the TX / RX and rise_t / rise_r above them."""
    ys = scenario.lateral_offset_m
    return (np.sqrt(run_t ** 2 + ys ** 2 + rise_t ** 2),
            np.sqrt(run_r ** 2 + ys ** 2 + rise_r ** 2))


def center_distances(r1h_m, scenario: Scenario):
    """TX-to-center and center-to-RX distances (r1, r2), the one center-geometry
    kernel. Returns arrays of r1h's shape, 0-d for a scalar r1h."""
    r1h = np.asarray(r1h_m, dtype=float)
    dz_t = scenario.ris_height_m - scenario.tx_height_m
    dz_r = scenario.ris_height_m - scenario.rx_height_m
    return _hop_distances(r1h, scenario.txrx_horizontal_m - r1h, dz_t, dz_r, scenario)


def element_distances(r1h_m: float, grid: ElementGrid, scenario: Scenario):
    """Per-element TX-to-element and element-to-RX distances.

    The element offset d_p points toward the TX in the horizontal term of the
    first hop, so it enters the second hop with the opposite sign; d_l lowers
    the element on both hops.
    """
    dz_t = scenario.ris_height_m - scenario.tx_height_m
    dz_r = scenario.ris_height_m - scenario.rx_height_m
    return _hop_distances(r1h_m - grid.d_p, scenario.txrx_horizontal_m - r1h_m + grid.d_p,
                          dz_t - grid.d_l, dz_r - grid.d_l, scenario)


__all__ = ["ElementGrid", "element_grid", "center_distances", "element_distances"]
