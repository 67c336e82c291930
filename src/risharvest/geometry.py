"""Placement geometry: element offsets and distances.

Coordinate model: TX at (0, 0, h_t), RX at (r_h, 0, h_r), surface center at
(r1h, y_s, h_s) with y_s > 0. Element (p, l) sits at
(r1h - d_p, y_s, h_s - d_l), so d_l > 0 means below the center. The surface
normal is the y axis, so the incidence and departure cosines at the center
are cos(th_i) = y_s/r1 and cos(th_r) = y_s/r2: center_distances is the whole
center geometry, and no angle is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import Scenario


@dataclass(frozen=True)
class ElementGrid:
    """Per-element lateral offsets from the surface center.

    d_p: horizontal offsets, shape (M_x, M_y); d_l: vertical offsets, same
    shape. The grid is centered, so both arrays sum to zero.
    """

    d_p: np.ndarray
    d_l: np.ndarray

    def __post_init__(self):
        if self.d_p.shape != self.d_l.shape:
            raise ValueError("d_p and d_l must have the same shape")

    @property
    def shape(self):
        return self.d_p.shape


def element_grid(scenario: Scenario) -> ElementGrid:
    """Centered offset grid matching the scenario's surface.

    1-indexed convention: element (p, l) has offsets
    d_p = (p - (M_x + 1)/2) * d_x and d_l = (l - (M_y + 1)/2) * d_y,
    which puts the grid centroid exactly at the surface center.
    """
    m_x, m_y = scenario.ris_rows, scenario.ris_cols
    dp = (np.arange(1, m_x + 1, dtype=float) - (m_x + 1) / 2.0) * scenario.element_dx_m
    dl = (np.arange(1, m_y + 1, dtype=float) - (m_y + 1) / 2.0) * scenario.element_dy_m
    d_p, d_l = np.meshgrid(dp, dl, indexing="ij")
    return ElementGrid(d_p=d_p, d_l=d_l)


def center_distances(r1h_m, scenario: Scenario):
    """TX-to-center and center-to-RX distances (r1, r2), the one center-geometry
    kernel. Returns arrays of r1h's shape, 0-d for a scalar r1h."""
    r1h = np.asarray(r1h_m, dtype=float)
    ys = scenario.lateral_offset_m
    dz_t = scenario.ris_height_m - scenario.tx_height_m
    dz_r = scenario.ris_height_m - scenario.rx_height_m
    r1 = np.sqrt(r1h ** 2 + ys ** 2 + dz_t ** 2)
    r2 = np.sqrt((scenario.txrx_horizontal_m - r1h) ** 2 + ys ** 2 + dz_r ** 2)
    return r1, r2


def element_distances(r1h_m: float, grid: ElementGrid, scenario: Scenario):
    """Per-element TX-to-element and element-to-RX distances.

    The element offset d_p points toward the TX in the horizontal term of the
    first hop, so it enters the second hop with the opposite sign; d_l lowers
    the element on both hops.
    """
    ys = scenario.lateral_offset_m
    dz_t = scenario.ris_height_m - scenario.tx_height_m
    dz_r = scenario.ris_height_m - scenario.rx_height_m
    rh = scenario.txrx_horizontal_m
    r1pl = np.sqrt((r1h_m - grid.d_p) ** 2 + ys ** 2 + (dz_t - grid.d_l) ** 2)
    r2pl = np.sqrt((rh - r1h_m + grid.d_p) ** 2 + ys ** 2 + (dz_r - grid.d_l) ** 2)
    return r1pl, r2pl


__all__ = ["ElementGrid", "element_grid", "center_distances", "element_distances"]
