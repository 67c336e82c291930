"""Find the placement and reflection response that maximize SNR while the
surface harvests exactly what it consumes.

The phases and the uniform amplitude have closed forms once the placement is
fixed, so the search is one-dimensional: a coarse scan of the reduced
objective plus golden-section refinement. The sampled curve comes back with
the solution, which makes the two-lobed shape easy to inspect.
"""

import numpy as np

from risharvest import default_scenario, solve_placement

sc = default_scenario()
sol = solve_placement(sc)

print("consumption to cover   :", sol.p_ris_w * 1e3, "mW")
print("feasible               :", sol.feasible)
print("optimal placement      :", round(sol.r1h_opt_m, 4), "m from the TX")
print("optimal amplitude      :", round(sol.a_opt, 6))
print("optimal SNR            :", round(sol.snr_opt_db, 3), "dB")
print("harvested power        :", sol.p_harv_w * 1e3, "mW (= consumption)")
print()

# the coarse trace shows why the search is near the TX: the harvest ceiling
# falls off with distance much faster than the SNR shape changes
curve = sol.objective_curve
feasible = curve[:, 1] > 0
r_lo, r_hi = curve[feasible, 0].min(), curve[feasible, 0].max()
print(f"feasible placements    : {r_lo:.1f} m .. {r_hi:.1f} m")

print()
print("objective along the street (normalized, 12 samples):")
peak = curve[:, 1].max()
for r in np.linspace(r_lo, r_hi, 12):
    idx = int(np.argmin(np.abs(curve[:, 0] - r)))
    val = max(curve[idx, 1], 0.0) / peak
    print(f"  r1h = {curve[idx, 0]:6.2f} m  |{'#' * int(round(40 * val)):<40s}|")

# an infeasible configuration reports cleanly instead of guessing; hungrier
# chips push the per-element draw past the harvest ceiling everywhere
hungry = solve_placement(default_scenario(p_chip_w=1e-4))
print()
print("100 uW chips:", "feasible" if hungry.feasible else "infeasible",
      f"(surface draw {hungry.p_ris_w * 1e3:.0f} mW exceeds any harvest here)")
