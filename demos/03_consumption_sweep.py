"""Sweep per-element chip power and street offset, watching the optimum move.

Reproduces the characteristic trends: as chips consume more, the optimum
slides toward the transmitter (stronger field to harvest), the reflection
amplitude drops (more absorption), the SNR falls, and past a threshold the
surface cannot power itself at all. Wider street offsets shrink the feasible
chip-power range.

The same sweep is available from the command line:
    risharvest sweep --config configs/default.cfg --out sweep.csv
"""

import numpy as np

from risharvest.cli import sweep_rows
from risharvest import default_scenario

sc = default_scenario()
chip_powers = [float(v) for v in np.logspace(-6, -4, 9)]
offsets = [5.0, 10.0, 20.0]

rows = list(sweep_rows(sc, chip_powers, offsets))

for y_s in offsets:
    print(f"lateral offset y_s = {y_s:.0f} m")
    print("  chip power      placement    amplitude    SNR")
    for row in rows:
        if row.y_s_m != y_s:
            continue
        if row.feasible:
            print(
                f"  {row.p_c_w:10.3e} W  {row.r1h_opt_m:8.3f} m  "
                f"{row.a_opt:9.5f}  {row.snr_opt_db:7.2f} dB"
            )
        else:
            print(f"  {row.p_c_w:10.3e} W  -- infeasible: cannot self-power --")
    feasible_pc = [r.p_c_w for r in rows if r.y_s_m == y_s and r.feasible]
    if feasible_pc:
        print(f"  autonomy holds up to about {max(feasible_pc):.2e} W per chip")
    print()

print("reading the table: each offset tolerates chips up to a few tens of")
print("microwatts, and every column is monotone in the chip power.")
