"""Link budget through the reflecting surface: SNR and harvested power.

Two SNR routes are provided. snr_explicit evaluates the full per-element
complex sum with exact element distances in the phase terms. snr_cophased is
the closed form that assumes per-element phases already co-phase every
contribution and a uniform reflection amplitude. Amplitude terms always use
the center distances r1, r2 for every element (far-field collapse), with the
element gain 4*cos(th) and cos(th) = y_s/r; only phases keep per-element
distances. The config ranges of Scenario keep every SNR factor inside the
normal floats, so neither route checks for over- or underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .scenario import Scenario


@dataclass(frozen=True)
class ReflectionState:
    """Per-element reflection coefficients A * exp(-j*phi).

    Amplitudes are accepted on the closed interval [0, 1]; the physical
    constraint is open but the boundary values are the useful limits in
    tests. Phases are stored unwrapped and only ever compared modulo 2*pi.
    """

    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=float)
        ph = np.asarray(self.phases, dtype=float)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "phases", ph)
        if amp.shape != ph.shape:
            raise ValueError("amplitudes and phases must have the same shape")
        if amp.size and (amp.min() < 0.0 or amp.max() > 1.0):
            raise ValueError("amplitudes must lie in [0, 1]")
        if not np.all(np.isfinite(ph)):
            raise ValueError("phases must be finite")

    @property
    def shape(self):
        return self.amplitudes.shape


def path_phase_rad(r1h_m: float, scenario: Scenario):
    """Per-element propagation phase 2*pi*(r1pl + r2pl)/lambda over the element grid.

    Shared by snr_explicit and the phase optimizer so that the optimal phases
    cancel this term bitwise, not just approximately.
    """
    r1pl, r2pl = geometry.element_distances(r1h_m, geometry.element_grid(scenario), scenario)
    return 2.0 * math.pi * (r1pl + r2pl) / scenario.wavelength_m


def incident_power(r1, scenario: Scenario):
    """Power impinging on one element, (lambda/4pi)^2 P_t G_t 4 cos(th_i) / r1^2
    with cos(th_i) = y_s/r1, elementwise over the center distances r1."""
    lam = scenario.wavelength_m
    return ((lam / (4.0 * math.pi)) ** 2 * scenario.transmit_power_w * scenario.tx_gain
            * 4.0 * (scenario.lateral_offset_m / r1) / r1 ** 2)


def harvest_ceiling(r1, scenario: Scenario):
    """Harvested power when every element absorbs fully (A = 0):
    eps_conv * M_s * P_inc = C * y_s / r1^3. A uniform amplitude A harvests
    (1 - A^2) of it."""
    return scenario.conversion_efficiency * scenario.m_s * incident_power(r1, scenario)


def _snr_constant(r1h_m: float, scenario: Scenario) -> float:
    """Per-element incident power times the second hop's
    G_r (lambda/4pi)^2 4 cos(th_r) / r2^2 over the noise power, with
    cos(th_r) = y_s/r2."""
    lam = scenario.wavelength_m
    r1, r2 = geometry.center_distances(r1h_m, scenario)
    hop2_gain = ((lam / (4.0 * math.pi)) ** 2 * scenario.rx_gain * 4.0
                 * (scenario.lateral_offset_m / r2))
    return incident_power(r1, scenario) * (hop2_gain / r2 ** 2) / scenario.noise_w


def snr_explicit(r1h_m: float, reflection: ReflectionState, scenario: Scenario):
    """Received SNR with the explicit per-element complex sum.

    snr = (lambda/4pi)^4 * P_t G_t G_r G_s(th_i) G_s(th_r) / (r1^2 r2^2 sigma^2)
          * |sum_pl A_pl exp(-j(phi_pl + 2pi(r1pl + r2pl)/lambda))|^2

    with G_s(th) = 4 cos(th) at the center. Reflection arrays of shape
    (..., rows, cols) hold a batch of profiles; only the trailing two axes
    must match the surface. Geometry, constant and propagation phase are
    computed once per call and the sum runs over the last two axes. Returns a
    float for one (rows, cols) profile, else an array of shape (...). The
    reduction is numpy's pairwise summation in a fixed order, so results are
    reproducible bit-for-bit, batched or not.
    """
    expected = (scenario.ris_rows, scenario.ris_cols)
    if reflection.shape[-2:] != expected:
        raise ValueError(f"reflection state shape {reflection.shape[-2:]} does not match "
                         f"surface {expected}")
    const = _snr_constant(r1h_m, scenario)
    psi = path_phase_rad(r1h_m, scenario)
    terms = reflection.amplitudes * np.exp(-1j * (reflection.phases + psi))
    total = np.sum(terms, axis=(-2, -1))
    snr = const * (total.real ** 2 + total.imag ** 2)
    return float(snr) if terms.ndim == 2 else snr


def snr_cophased(r1h_m, uniform_a: float, scenario: Scenario):
    """Received SNR when all elements are co-phased at uniform amplitude.

    Closed form 16 * P_t G_t G_r (lambda/4pi)^4 M_s^2 A^2
    * cos(th_i) cos(th_r) / (r1^2 r2^2 sigma^2), computed as the SNR at A = 1
    times A^2 so the quadratic amplitude law is exact, elementwise over r1h.
    """
    if not 0.0 <= uniform_a <= 1.0:
        raise ValueError("uniform_a must lie in [0, 1]")
    m_s = float(scenario.m_s)
    return _snr_constant(r1h_m, scenario) * m_s * m_s * (uniform_a * uniform_a)


__all__ = ["ReflectionState", "path_phase_rad", "snr_explicit", "snr_cophased"]
