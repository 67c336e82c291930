"""Choose between a handful of mounting sites for an immovable surface.

Deployments rarely get to slide the surface along the street; walls, poles
and permits fix a few candidate spots. Each candidate pins the placement and
possibly its own offset and height; the selector evaluates the closed form at
every site and keeps the feasible one with the best SNR.

The CLI equivalent reads the same data from a sites file:
    risharvest select-site --config configs/default.cfg \
        --sites configs/sites_example.cfg
"""

from dataclasses import replace

from risharvest import default_scenario, select_site

base = default_scenario()

# (scenario, r1h_m) pairs: each site draws its own scenario's consumption
candidates = [
    # far down the street at the stock offset and height
    (base, 10.0),
    # close to the TX, same wall
    (base, 2.0),
    # close to the TX on the opposite, wider side, mounted lower
    (replace(base, lateral_offset_m=12.0, ris_height_m=9.0), 2.0),
]

best_index, solutions = select_site(candidates)

for idx, ((sc, r1h), sol) in enumerate(zip(candidates, solutions)):
    marker = " <- selected" if idx == best_index else ""
    result = f"{sol.snr_opt_db:6.2f} dB" if sol.feasible else "infeasible"
    print(
        f"site {idx}: r1h = {r1h:5.1f} m, "
        f"y_s = {sc.lateral_offset_m:4.1f} m, "
        f"h_s = {sc.ris_height_m:4.1f} m -> {result}{marker}"
    )

print()
print("site 2 wins despite the wider street: mounting lower shortens both")
print("hops enough to beat the nearer-wall candidates.")

# power-hungrier chips knock out sites one by one; the selector degrades
# gracefully and reports when nothing can self-power. 32 uW on each of the
# 2500 elements is an 80 mW surface (the stock rectifiers draw nothing)
hungry = [(replace(sc, p_chip_w=32e-6), r1h) for sc, r1h in candidates]
hungry_best, hungry_solutions = select_site(hungry)
print()
print("at an 80 mW draw the feasible set shrinks to:",
      [i for i, s in enumerate(hungry_solutions) if s.feasible],
      "- best is", hungry_best)
