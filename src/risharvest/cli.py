"""Command-line front end: solve, sweep, validate, select-site.

Exit status taxonomy: 0 feasible/pass, 2 infeasible, 3 configuration or usage
error, 4 validation failure. All emitted numbers carry unit suffixes in their
labels and CSV headers; output is deterministic byte-for-byte for identical
inputs.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import oracle, optimizer
from .link import snr_cophased
from .scenario import (KEY_RANGES, ConfigError, Scenario, db, key_value_lines, load_scenario,
                       parse_number, range_error)
from .scenario import format_value as _fmt

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3
EXIT_VALIDATION = 4

# documented agreement tolerances for `validate`
SNR_TOLERANCE_DB = 0.1
R1H_TOLERANCE_M = 0.5
PHASE_LEVELS = 16

# default sweep grids (the y_s values are artifact defaults, overridable)
DEFAULT_YS_M = (5.0, 10.0, 20.0)
DEFAULT_PC_LOG = (1e-8, 1e-4, 30)
MAX_PC_POINTS = 10_000


@dataclass(frozen=True)
class SweepRow:
    """One sweep lattice point; infeasible rows keep their optimum cells empty."""

    p_c_w: float
    y_s_m: float
    feasible: bool
    r1h_opt_m: float | None
    a_opt: float | None
    snr_opt_db: float | None
    p_harv_w: float | None
    p_ris_w: float

    FIELDS = ("p_c_w", "y_s_m", "feasible", "r1h_opt_m", "a_opt",
              "snr_opt_db", "p_harv_w", "p_ris_w")

    def csv_cells(self):
        return [_fmt(getattr(self, name), none="") for name in self.FIELDS]


def _write_csv(path, header, rows) -> None:
    """Write one header and the rows; an unwritable path is a ConfigError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            # through the module name, which the benchmark's tracer swaps
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(row)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from None


# ---------------------------------------------------------------- solve

def cmd_solve(args) -> int:
    scenario = load_scenario(args.config, args.override)
    solution = optimizer.solve_placement(scenario)
    print(f"p_c_w = {_fmt(scenario.chip_power_w)}")
    print(f"y_s_m = {_fmt(scenario.lateral_offset_m)}")
    print(f"p_ris_w = {_fmt(solution.p_ris_w)}")
    print(f"feasible = {_fmt(solution.feasible)}")
    if solution.feasible:
        print(f"r1h_opt_m = {_fmt(solution.r1h_opt_m)}")
        print(f"a_opt = {_fmt(solution.a_opt)}")
        print(f"a_boundary = {_fmt(solution.a_boundary)}")
        print(f"snr_opt_linear = {_fmt(solution.snr_opt_linear)}")
        print(f"snr_opt_db = {_fmt(solution.snr_opt_db)}")
        print(f"p_harv_w = {_fmt(solution.p_harv_w)}")
    if args.out:
        _write_csv(args.out, ["r1h_m", "objective"],
                   ([repr(float(r)), repr(float(g))] for r, g in solution.objective_curve))
        print(f"objective_curve_csv = {args.out}")
    return EXIT_OK if solution.feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------- sweep

def _sweep_row(variant: Scenario) -> SweepRow:
    sol = optimizer.solve_placement(variant)
    # the optimum cells share their names with the solution's fields
    return SweepRow(variant.p_chip_w, variant.lateral_offset_m,
                    *(getattr(sol, name) for name in SweepRow.FIELDS[2:]))


def _parse_float_list(text: str, flag: str):
    values = [parse_number(f"{flag} value", part) for part in text.split(",") if part.strip()]
    if not values:
        raise ConfigError(f"{flag} is empty")
    return values


def sweep_rows(scenario: Scenario, p_c_list, y_s_list):
    """All sweep rows ordered by (y_s, P_c) ascending; one Scenario per row."""
    return [
        _sweep_row(replace(scenario, lateral_offset_m=y_s, p_chip_w=p_c))
        for y_s in sorted(y_s_list)
        for p_c in sorted(p_c_list)
    ]


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.config, args.override)
    if args.pc_list:
        p_c_list = _parse_float_list(args.pc_list, "--pc-list")
    else:
        start, stop, count = args.pc_log if args.pc_log else DEFAULT_PC_LOG
        # checked before np.logspace allocates anything
        if not (math.isfinite(start) and math.isfinite(stop)
                and float(count).is_integer() and count <= MAX_PC_POINTS):
            raise ConfigError(f"--pc-log needs finite START/STOP and an integer N of at most "
                              f"{MAX_PC_POINTS}")
        count = int(count)
        if start <= 0 or stop <= 0 or count < 1:
            raise ConfigError("--pc-log needs positive START/STOP and at least 1 point")
        p_c_list = [float(v) for v in np.logspace(math.log10(start), math.log10(stop), count)]
    y_s_list = _parse_float_list(args.ys_list, "--ys-list") if args.ys_list else list(DEFAULT_YS_M)
    rows = sweep_rows(scenario, p_c_list, y_s_list)
    _write_csv(args.out, SweepRow.FIELDS, (row.csv_cells() for row in rows))
    n_feasible = sum(row.feasible for row in rows)
    print(f"rows = {len(rows)}")
    print(f"feasible_rows = {n_feasible}")
    print(f"csv = {args.out}")
    return EXIT_OK if n_feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------- validate

def cmd_validate(args) -> int:
    # the oracle's amplitude lattice holds round(1 / a_step) values in [0, 1),
    # fewer than two exactly when 1 / a_step < 1.5; such a lattice cannot meet
    # the harvest equality
    if 0.0 < args.a_step < math.inf and 1.0 / args.a_step < 1.5:
        raise ConfigError(f"--a-step {args.a_step!r} leaves fewer than two amplitudes in [0, 1)")
    # the lattice's pick can sit a whole step from the optimum, so a step
    # coarser than the placement tolerance makes the verdict meaningless
    if R1H_TOLERANCE_M < args.r1h_step < math.inf:
        raise ConfigError(f"--r1h-step {args.r1h_step!r} is coarser than the "
                          f"{R1H_TOLERANCE_M!r} m placement tolerance")
    scenario = load_scenario(args.config, args.override)
    analytic = optimizer.solve_placement(scenario)
    lattice = oracle.brute_force_solve(scenario, args.r1h_step, args.a_step)
    print(f"oracle_r1h_step_m = {_fmt(args.r1h_step)}")
    print(f"oracle_a_step = {_fmt(args.a_step)}")
    print(f"analytic_feasible = {_fmt(analytic.feasible)}")
    print(f"oracle_feasible = {_fmt(lattice.feasible)}")

    failures = []
    if analytic.feasible != lattice.feasible:
        failures.append("feasibility disagreement")
    elif analytic.feasible:
        delta_r = abs(analytic.r1h_opt_m - lattice.r1h_m)
        oracle_snr_db = db(lattice.snr_linear) if lattice.snr_linear > 0.0 else -math.inf
        delta_snr_db = abs(analytic.snr_opt_db - oracle_snr_db)
        print(f"analytic_r1h_opt_m = {_fmt(analytic.r1h_opt_m)}")
        print(f"oracle_r1h_m = {_fmt(lattice.r1h_m)}")
        print(f"analytic_snr_opt_db = {_fmt(analytic.snr_opt_db)}")
        print(f"oracle_snr_db = {_fmt(oracle_snr_db)}")
        print(f"delta_r1h_m = {_fmt(delta_r)} (tolerance {_fmt(R1H_TOLERANCE_M)})")
        print(f"delta_snr_db = {_fmt(delta_snr_db)} (tolerance {_fmt(SNR_TOLERANCE_DB)})")
        if delta_r > R1H_TOLERANCE_M:
            failures.append("placement delta exceeds tolerance")
        if delta_snr_db > SNR_TOLERANCE_DB:
            failures.append("SNR delta exceeds tolerance")

    # quantized-phase cross-check on a 2x2 shrink of the same scenario
    small = replace(scenario, ris_rows=2, ris_cols=2)
    small_sol = optimizer.solve_placement(small)
    if small_sol.feasible:
        ideal = snr_cophased(small_sol.r1h_opt_m, small_sol.a_opt, small)
        _, best_snr = oracle.exhaustive_phase_search(
            small, small_sol.r1h_opt_m, PHASE_LEVELS, small_sol.a_opt,
        )
        floor = math.cos(math.pi / PHASE_LEVELS) ** 2
        ratio = best_snr / ideal
        print(f"phase_levels = {PHASE_LEVELS}")
        print(f"phase_check_ratio = {_fmt(ratio)} (floor {_fmt(floor)})")
        if not (floor <= ratio <= 1.0 + 1e-9):
            failures.append("quantized-phase check outside bounds")
    else:
        print("phase_check_ratio = none (2x2 shrink infeasible)")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        print("verdict = fail")
        return EXIT_VALIDATION
    print("verdict = pass")
    return EXIT_OK


# ---------------------------------------------------------------- select-site

_SITE_KEY = re.compile(r"^site\.(\d+)\.(r1h_m|lateral_offset_m|ris_height_m)$")


def parse_sites_text(text: str):
    """Parse the indexed sites file into a list of per-site field dicts.

    r1h_m never passes through Scenario: it is a horizontal length of either
    sign, bounded by the upper end of txrx_horizontal_m's range.
    """
    r1h_max = KEY_RANGES["txrx_horizontal_m"][1]
    entries: dict[int, dict[str, float]] = {}
    for lineno, key, value in key_value_lines(text):
        match = _SITE_KEY.match(key)
        if not match:
            raise ConfigError(f"line {lineno}: unknown sites key '{key}'")
        index, field = int(match.group(1)), match.group(2)
        entries.setdefault(index, {})
        if field in entries[index]:
            raise ConfigError(f"line {lineno}: duplicate sites key '{key}'")
        number = parse_number(f"line {lineno}: value for '{key}'", value)
        if field == "r1h_m" and not -r1h_max <= number <= r1h_max:
            raise range_error(f"line {lineno}: {key}", number, -r1h_max, r1h_max)
        entries[index][field] = number
    if not entries:
        raise ConfigError("sites file defines no sites")
    indices = sorted(entries)
    if indices != list(range(len(indices))):
        raise ConfigError("site indices must be contiguous starting at 0")
    sites = []
    for index in indices:
        fields = entries[index]
        for required in ("r1h_m", "lateral_offset_m", "ris_height_m"):
            if required not in fields:
                raise ConfigError(f"site.{index} is missing '{required}'")
        sites.append(fields)
    return sites


def cmd_select_site(args) -> int:
    scenario = load_scenario(args.config, args.override)
    try:
        with open(args.sites, "r", encoding="utf-8") as fh:
            sites = parse_sites_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read sites file {args.sites}: {exc}") from None
    candidates = [
        optimizer.SiteCandidate(
            scenario=replace(
                scenario,
                lateral_offset_m=site["lateral_offset_m"],
                ris_height_m=site["ris_height_m"],
            ),
            r1h_m=site["r1h_m"],
        )
        for site in sites
    ]
    selection = optimizer.select_site(candidates)
    print("index,r1h_m,lateral_offset_m,ris_height_m,feasible,snr_opt_db")
    for idx, (site, sol) in enumerate(zip(sites, selection.solutions)):
        snr = _fmt(sol.snr_opt_db) if sol.feasible else ""
        print(
            f"{idx},{_fmt(site['r1h_m'])},{_fmt(site['lateral_offset_m'])},"
            f"{_fmt(site['ris_height_m'])},{_fmt(sol.feasible)},{snr}"
        )
    if selection.best_index is None:
        print("selected_index = none")
        return EXIT_INFEASIBLE
    print(f"selected_index = {selection.best_index}")
    return EXIT_OK


# ---------------------------------------------------------------- entry

class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_CONFIG with one line; exit 2 means infeasible."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="risharvest",
        description="Placement and reflection tuning for an energy-autonomous "
                    "reflecting-surface relay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")

    p_solve = sub.add_parser("solve", help="optimal placement for one configuration")
    add_common(p_solve)
    p_solve.add_argument("--out", help="write the sampled objective curve as CSV")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="chip-power / lateral-offset sweep to CSV")
    add_common(p_sweep)
    p_sweep.add_argument("--pc-log", nargs=3, type=float, metavar=("START", "STOP", "N"),
                         help="log-spaced chip powers in watts (default 1e-8 1e-4 30)")
    p_sweep.add_argument("--pc-list", help="comma-separated chip powers in watts")
    p_sweep.add_argument("--ys-list", help="comma-separated lateral offsets in meters "
                                           "(default 5,10,20)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="compare the analytic solution to brute force")
    add_common(p_val)
    p_val.add_argument("--r1h-step", type=float, default=0.5, help="oracle placement step, m")
    p_val.add_argument("--a-step", type=float, default=0.001, help="oracle amplitude step")
    p_val.set_defaults(func=cmd_validate)

    p_site = sub.add_parser("select-site", help="pick the best mounted site from a sites file")
    add_common(p_site)
    p_site.add_argument("--sites", required=True,
                        help="sites file (site.N.r1h_m / .lateral_offset_m / .ris_height_m)")
    p_site.set_defaults(func=cmd_select_site)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
