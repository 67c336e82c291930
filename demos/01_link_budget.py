"""Walk through the link budget of a surface-assisted mmWave hop.

Builds the stock street-canyon scenario, inspects the derived radio
quantities, then evaluates the received SNR for three reflection settings at
the same placement: random phases, co-phased elements, and co-phased elements
that also absorb part of the wave for harvesting.
"""

import numpy as np

from risharvest import ReflectionState, default_scenario, optimal_phases, snr_explicit
from risharvest.geometry import center_distances
from risharvest.link import harvest_ceiling
from risharvest.scenario import db

sc = default_scenario()
print("carrier frequency      :", sc.carrier_frequency_hz / 1e9, "GHz")
print("wavelength             :", round(sc.wavelength_m * 1e3, 3), "mm")
print("surface                :", f"{sc.ris_rows} x {sc.ris_cols} = {sc.m_s} elements")
print("dish gains             :", round(db(sc.tx_gain), 2), "dBi each end")
print("noise power            :", round(db(sc.noise_w) + 30.0, 2), "dBm")
print("surface consumption    :", sc.p_ris_w * 1e3, "mW")
print()

r1h = 10.0  # place the surface 10 m down the street from the TX
shape = (sc.ris_rows, sc.ris_cols)
rng = np.random.default_rng(1)

# scattering with arbitrary phases wastes almost all of the array gain
scattered = ReflectionState(
    amplitudes=np.ones(shape), phases=rng.uniform(0, 2 * np.pi, shape)
)
print("random phases, A = 1   :", round(db(snr_explicit(r1h, scattered, sc)), 2), "dB")

# co-phasing lines up all 2500 contributions at the receiver
focused = ReflectionState(amplitudes=np.ones(shape), phases=optimal_phases(r1h, sc))
print("co-phased, A = 1       :", round(db(snr_explicit(r1h, focused, sc)), 2), "dB")

# backing the amplitude off to 0.9 diverts power into the harvesting circuit:
# each element rectifies 1 - 0.9^2 of the full-absorption ceiling
harvesting = ReflectionState(
    amplitudes=np.full(shape, 0.9), phases=optimal_phases(r1h, sc)
)
p_harv_w = (1.0 - 0.9 ** 2) * harvest_ceiling(center_distances(r1h, sc)[0], sc)
print("co-phased, A = 0.9     :", round(db(snr_explicit(r1h, harvesting, sc)), 2), "dB,",
      round(p_harv_w * 1e3, 3), "mW harvested")
print()
print("the surface needs", sc.p_ris_w * 1e3, "mW, so A = 0.9 over-harvests here;")
print("the optimizer demo picks the amplitude that matches consumption exactly.")
