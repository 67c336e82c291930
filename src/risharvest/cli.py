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
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

from . import oracle, optimizer
from .scenario import (KEY_RANGES, ConfigError, Scenario, db, key_value_lines, load_scenario,
                       parse_number, range_error, read_input_file)
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
MAX_PC_POINTS = 10_000


@dataclass(frozen=True)
class SweepRow:
    """One sweep lattice point; its fields are the CSV columns, the optimum empty if infeasible."""

    p_c_w: float
    y_s_m: float
    feasible: bool
    r1h_opt_m: float | None
    a_opt: float | None
    snr_opt_db: float | None
    p_harv_w: float | None
    p_ris_w: float

    def csv_cells(self):
        return [_fmt(getattr(self, name), none="") for name in SWEEP_COLUMNS]


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


@contextmanager
def _csv_writer(path, header):
    """A CSV writer on path, its header written; an unwritable path is a ConfigError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            # through the module name, which the benchmark's tracer swaps
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            yield writer
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from None


# ---------------------------------------------------------------- solve

def cmd_solve(args) -> int:
    scenario = load_scenario(args.config, args.override)
    solution = optimizer.solve_placement(scenario)
    # written first, so an unwritable path leaves stdout empty, as in sweep
    if args.out:
        with _csv_writer(args.out, ["r1h_m", "objective"]) as writer:
            for r, g in solution.objective_curve:
                writer.writerow([_fmt(r), _fmt(g)])
    print(f"p_c_w = {_fmt(scenario.chip_power_w)}")
    print(f"y_s_m = {_fmt(scenario.lateral_offset_m)}")
    print(f"p_ris_w = {_fmt(scenario.p_ris_w)}")
    print(f"feasible = {_fmt(solution.feasible)}")
    if solution.feasible:
        print(f"r1h_opt_m = {_fmt(solution.r1h_opt_m)}")
        print(f"a_opt = {_fmt(solution.a_opt)}")
        print(f"a_boundary = {_fmt(solution.a_opt == 1.0)}")
        print(f"snr_opt_linear = {_fmt(solution.snr_opt_linear)}")
        print(f"snr_opt_db = {_fmt(solution.snr_opt_db)}")
        print(f"p_harv_w = {_fmt(solution.p_harv_w)}")
    if args.out:
        print(f"objective_curve_csv = {args.out}")
    return EXIT_OK if solution.feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------- sweep

def _sweep_row(variant: Scenario) -> SweepRow:
    sol = optimizer.solve_placement(variant)
    # the optimum cells share their names with the solution's fields
    return SweepRow(variant.p_chip_w, variant.lateral_offset_m,
                    *(getattr(sol, name) for name in SWEEP_COLUMNS[2:-1]), variant.p_ris_w)


def _parse_float_list(text: str, flag: str):
    return [parse_number(f"{flag} value", part) for part in text.split(",")]


def sweep_rows(scenario: Scenario, p_c_list, y_s_list):
    """Check every P_c and y_s, one Scenario per value in the order the rows
    meet them, then return a generator that solves each row as it is taken,
    ordered by (y_s, P_c) ascending."""
    p_c_list, y_s_list = sorted(p_c_list), sorted(y_s_list)
    for p_c in p_c_list:
        replace(scenario, lateral_offset_m=y_s_list[0], p_chip_w=p_c)
    for y_s in y_s_list[1:]:
        replace(scenario, lateral_offset_m=y_s, p_chip_w=p_c_list[0])
    return (_sweep_row(replace(scenario, lateral_offset_m=y_s, p_chip_w=p_c))
            for y_s in y_s_list for p_c in p_c_list)


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.config, args.override)
    if args.pc_list is not None:
        p_c_list = _parse_float_list(args.pc_list, "--pc-list")
    else:
        start, stop, count = (parse_number(f"--pc-log {name}", text, integer=name == "N")
                              for name, text in zip(("START", "STOP", "N"), args.pc_log))
        # checked before np.logspace allocates anything
        if not (start > 0 and stop > 0 and 1 <= count <= MAX_PC_POINTS):
            raise ConfigError(f"--pc-log needs START > 0, STOP > 0 and 1 <= N <= {MAX_PC_POINTS}")
        p_c_list = [float(v) for v in np.logspace(math.log10(start), math.log10(stop), count)]
    y_s_list = (list(DEFAULT_YS_M) if args.ys_list is None
                else _parse_float_list(args.ys_list, "--ys-list"))
    n_feasible = 0
    rows = sweep_rows(scenario, p_c_list, y_s_list)
    # each row is written as it is solved, so memory stays flat in the row count
    with _csv_writer(args.out, SWEEP_COLUMNS) as writer:
        for row in rows:
            writer.writerow(row.csv_cells())
            n_feasible += row.feasible
    print(f"rows = {len(p_c_list) * len(y_s_list)}")
    print(f"feasible_rows = {n_feasible}")
    print(f"csv = {args.out}")
    return EXIT_OK if n_feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------- validate

def cmd_validate(args) -> int:
    r1h_step = parse_number("--r1h-step", args.r1h_step)
    a_step = parse_number("--a-step", args.a_step)
    # the lattice's pick can sit a whole step from the optimum, so a step
    # coarser than the placement tolerance makes the verdict meaningless
    if r1h_step > R1H_TOLERANCE_M:
        raise ConfigError(f"--r1h-step {_fmt(r1h_step)} is coarser than the "
                          f"{_fmt(R1H_TOLERANCE_M)} m placement tolerance")
    scenario = load_scenario(args.config, args.override)
    analytic = optimizer.solve_placement(scenario)
    try:
        lattice = oracle.brute_force_solve(scenario, r1h_step, a_step)
    except ValueError as exc:  # the oracle's step and size guards
        raise ConfigError(f"--r1h-step {_fmt(r1h_step)} and --a-step {_fmt(a_step)}: {exc}") from None
    if analytic.feasible and lattice.a == 0.0:  # A* below about a_step/2: a lattice SNR of 0
        raise ConfigError(f"--a-step {_fmt(a_step)} cannot resolve the optimal amplitude "
                          f"A* = {_fmt(analytic.a_opt)}: every feasible lattice column picks A = 0")
    print(f"oracle_r1h_step_m = {_fmt(r1h_step)}")
    print(f"oracle_a_step = {_fmt(a_step)}")
    print(f"analytic_feasible = {_fmt(analytic.feasible)}")
    print(f"oracle_feasible = {_fmt(lattice.feasible)}")

    failures = []
    if analytic.feasible != lattice.feasible:
        failures.append("feasibility disagreement")
    elif analytic.feasible:
        delta_r = abs(analytic.r1h_opt_m - lattice.r1h_m)
        oracle_snr_db = db(lattice.snr_linear)
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

    # quantized-phase cross-check on the same scenario shrunk to at most 2x2
    rows, cols = min(scenario.ris_rows, 2), min(scenario.ris_cols, 2)
    small = replace(scenario, ris_rows=rows, ris_cols=cols)
    small_sol = optimizer.solve_placement(small)
    if small_sol.feasible:
        _, best_snr = oracle.exhaustive_phase_search(
            small, small_sol.r1h_opt_m, PHASE_LEVELS, small_sol.a_opt,
        )
        floor = math.cos(math.pi / PHASE_LEVELS) ** 2
        ratio = best_snr / small_sol.snr_opt_linear
        print(f"phase_levels = {PHASE_LEVELS}")
        print(f"phase_check_ratio = {_fmt(ratio)} (floor {_fmt(floor)})")
        if not (floor <= ratio <= 1.0 + 1e-9):
            failures.append("quantized-phase check outside bounds")
    else:
        print(f"phase_check_ratio = none ({rows}x{cols} shrink infeasible)")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        print("verdict = fail")
        return EXIT_VALIDATION
    print("verdict = pass")
    return EXIT_OK


# ---------------------------------------------------------------- select-site

# a site's placement and two Scenario fields: its sites-file keys and output columns
SITE_FIELDS = ("r1h_m", "lateral_offset_m", "ris_height_m")
# one spelling per site: canonical ASCII indices, so a repeated field is a repeated key
_SITE_KEY = re.compile(rf"site\.(0|[1-9][0-9]*)\.({'|'.join(SITE_FIELDS)})")


def parse_sites_text(text: str):
    """Parse the indexed sites file into one tuple of values per site, in
    SITE_FIELDS order.

    r1h_m never passes through Scenario: it is a horizontal length of either
    sign, bounded by the upper end of txrx_horizontal_m's range.
    """
    r1h_max = KEY_RANGES["txrx_horizontal_m"][1]
    entries: dict[int, dict[str, float]] = {}
    for label, key, value in key_value_lines(text):
        match = _SITE_KEY.fullmatch(key)
        if not match:
            raise ConfigError(f"{label}: unknown sites key '{key}'")
        index, field = int(match.group(1)), match.group(2)
        number = parse_number(f"{label}: value for '{key}'", value)
        if field == SITE_FIELDS[0] and not -r1h_max <= number <= r1h_max:
            raise range_error(f"{label}: {key}", number, -r1h_max, r1h_max)
        entries.setdefault(index, {})[field] = number
    if not entries:
        raise ConfigError("sites file defines no sites")
    indices = sorted(entries)
    if indices != list(range(len(indices))):
        raise ConfigError("site indices must be contiguous starting at 0")
    for index in indices:
        for required in SITE_FIELDS:
            if required not in entries[index]:
                raise ConfigError(f"site.{index} is missing '{required}'")
    return [tuple(entries[index][name] for name in SITE_FIELDS) for index in indices]


def cmd_select_site(args) -> int:
    scenario = load_scenario(args.config, args.override)
    sites = parse_sites_text(read_input_file(args.sites, "sites"))
    candidates = []
    for index, (r1h, *mount) in enumerate(sites):
        try:
            candidates.append((replace(scenario, **dict(zip(SITE_FIELDS[1:], mount))), r1h))
        except ConfigError as exc:
            raise ConfigError(f"site.{index}: {exc}") from None
    best_index, solutions = optimizer.select_site(candidates)
    print(",".join(("index", *SITE_FIELDS, "feasible", "snr_opt_db")))
    for idx, (site, sol) in enumerate(zip(sites, solutions)):
        snr = _fmt(sol.snr_opt_db) if sol.feasible else ""
        print(",".join((str(idx), *map(_fmt, site), _fmt(sol.feasible), snr)))
    if best_index is None:
        print("selected_index = none")
        return EXIT_INFEASIBLE
    print(f"selected_index = {best_index}")
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
    pc_flags = p_sweep.add_mutually_exclusive_group()
    pc_flags.add_argument("--pc-log", nargs=3, default=("1e-8", "1e-4", "30"),
                          metavar=("START", "STOP", "N"),
                          help="log-spaced chip powers in watts (default 1e-8 1e-4 30)")
    pc_flags.add_argument("--pc-list", help="comma-separated chip powers in watts")
    p_sweep.add_argument("--ys-list", help="comma-separated lateral offsets in meters "
                                           "(default 5,10,20)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="compare the analytic solution to brute force")
    add_common(p_val)
    p_val.add_argument("--r1h-step", default="0.5", help="oracle placement step, m")
    p_val.add_argument("--a-step", default="0.001", help="oracle amplitude step")
    p_val.set_defaults(func=cmd_validate)

    p_site = sub.add_parser("select-site", help="pick the best mounted site from a sites file")
    add_common(p_site)
    p_site.add_argument("--sites", required=True,
                        help=f"sites file (site.N.{' / .'.join(SITE_FIELDS)})")
    p_site.set_defaults(func=cmd_select_site)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # a warning the filters let through, once per message by default, is one line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
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
