"""CLI behavior: output contracts, exit codes, determinism, error paths."""

import importlib
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import pytest

import risharvest
from risharvest import cli, geometry, link, oracle
from risharvest.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VALIDATION,
    SWEEP_COLUMNS,
    SweepRow,
    main,
    sweep_rows,
)
from risharvest.scenario import KEY_RANGES, MAX_INPUT_CHARS, load_scenario

CSV_HEADER = "p_c_w,y_s_m,feasible,r1h_opt_m,a_opt,snr_opt_db,p_harv_w,p_ris_w"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(stdout):
    pairs = {}
    for line in stdout.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            pairs[key] = value.split(" (")[0]  # strip trailing annotations
    return pairs


# ---------------------------------------------------------------------- solve


def test_solve_default(default_config_path, capsys):
    code, out, _ = run_cli(capsys, "solve", "--config", str(default_config_path))
    assert code == EXIT_OK
    kv = parse_kv(out)
    assert kv["feasible"] == "true"
    assert kv["p_c_w"] == "1e-06"
    assert kv["p_ris_w"] == "0.0025"
    assert float(kv["r1h_opt_m"]) == pytest.approx(1.0455442861154873, abs=1e-6)
    assert float(kv["a_opt"]) == pytest.approx(0.9882027677134215, rel=1e-9)
    assert float(kv["snr_opt_db"]) == pytest.approx(56.39080519538952, abs=1e-6)
    assert list(kv) == [
        "p_c_w", "y_s_m", "p_ris_w", "feasible", "r1h_opt_m", "a_opt",
        "a_boundary", "snr_opt_linear", "snr_opt_db", "p_harv_w",
    ]


def test_solve_infeasible(default_config_path, capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--config", str(default_config_path),
        "--override", "p_chip_w=1.0",
    )
    assert code == EXIT_INFEASIBLE
    kv = parse_kv(out)
    assert kv["feasible"] == "false"
    assert "r1h_opt_m" not in kv


def test_solve_zero_draw_boundary(default_config_path, capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--config", str(default_config_path),
        "--override", "p_chip_w=0",
    )
    assert code == EXIT_OK
    kv = parse_kv(out)
    assert kv["a_opt"] == "1.0"
    assert kv["a_boundary"] == "true"
    assert kv["p_harv_w"] == "0.0"


def test_solve_static_dynamic_average(default_config_path, capsys, tmp_path):
    # with no p_chip_w the chip draws P_c = p_static + tau * p_dynamic, and the
    # surface M_s * P_c + n_rect * P_rect
    config = tmp_path / "average.cfg"
    config.write_text("".join(line for line in default_config_path.read_text().splitlines(True)
                              if not line.startswith("p_chip_w")))
    code, out, _ = run_cli(
        capsys, "solve", "--config", str(config), "--override", "p_static_w=2e-7",
        "--override", "p_dynamic_w=8e-6", "--override", "reconfig_fraction=0.1",
        "--override", "p_rectifier_w=1e-5",
    )
    assert code == EXIT_OK
    kv = parse_kv(out)
    p_c = 2e-7 + 0.1 * 8e-6
    assert kv["p_c_w"] == repr(p_c)
    assert kv["p_ris_w"] == repr(2500 * p_c + 100 * 1e-5)


def test_solve_objective_curve(default_config_path, capsys, tmp_path):
    out_csv = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys, "solve", "--config", str(default_config_path), "--out", str(out_csv),
    )
    assert code == EXIT_OK
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "r1h_m,objective"
    # the first scan's feasible points only: 0..34 m at r_h/100 = 1 m, short
    # of r1h_f = 34.655 m
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert [r for r, _ in rows] == [float(k) for k in range(35)]
    assert all(g > 0.0 for _, g in rows)
    assert f"objective_curve_csv = {out_csv}" in out

    code, _, _ = run_cli(
        capsys, "solve", "--config", str(default_config_path),
        "--override", "p_chip_w=1.0", "--out", str(out_csv),
    )
    assert code == EXIT_INFEASIBLE
    assert out_csv.read_text() == "r1h_m,objective\n"


def test_small_dish_warning_is_one_line(default_config_path, capsys, tmp_path):
    # a library warning reaches stderr as one line without a source location,
    # once although every sweep row builds a Scenario; stdout and the exit code
    # are those of the same run unwarned
    small = ("--override", "tx_diameter_m=0.01")
    warning = ("warning: tx_diameter_m is below 10 wavelengths; the parabolic gain "
               "formula assumes an electrically large dish\n")
    solve = ("solve", "--config", str(default_config_path), *small)
    sweep = ("sweep", "--config", str(default_config_path), "--pc-list", "1e-9,1e-8",
             "--ys-list", "5,10", "--out", str(tmp_path / "x.csv"), *small)
    for argv in (solve, sweep):
        code, out, err = run_cli(capsys, *argv)
        assert err == warning
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert run_cli(capsys, *argv) == (code, out, "")


def test_solve_missing_config(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", "--config", str(tmp_path / "nope.cfg"))
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_solve_bad_override(default_config_path, capsys):
    code, _, err = run_cli(
        capsys, "solve", "--config", str(default_config_path),
        "--override", "not_a_key=1",
    )
    assert code == EXIT_CONFIG
    assert "not_a_key" in err


# ---------------------------------------------------------------------- sweep


def test_sweep_single_point_matches_solve(default_config_path, capsys, tmp_path):
    out_csv = tmp_path / "one.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--config", str(default_config_path),
        "--pc-list", "1e-6", "--ys-list", "5", "--out", str(out_csv),
    )
    assert code == EXIT_OK
    solve_code, solve_out, _ = run_cli(
        capsys, "solve", "--config", str(default_config_path)
    )
    assert solve_code == EXIT_OK
    kv = parse_kv(solve_out)
    header, row = out_csv.read_text().splitlines()
    assert header == CSV_HEADER
    cells = dict(zip(SWEEP_COLUMNS, row.split(",")))
    assert cells["p_c_w"] == "1e-06"
    assert cells["y_s_m"] == "5.0"
    assert cells["feasible"] == "true"
    # repr round-trip makes these byte-identical, not merely close
    assert cells["r1h_opt_m"] == kv["r1h_opt_m"]
    assert cells["a_opt"] == kv["a_opt"]
    assert cells["snr_opt_db"] == kv["snr_opt_db"]
    assert cells["p_harv_w"] == kv["p_harv_w"]


def test_sweep_grid_shape_and_trends(default_config_path, capsys, tmp_path):
    out_csv = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--config", str(default_config_path),
        "--pc-log", "1e-6", "1e-3", "6", "--ys-list", "5,10", "--out", str(out_csv),
    )
    assert code == EXIT_OK
    kv = parse_kv(out)
    assert kv["rows"] == "12"
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 13
    rows = [dict(zip(SWEEP_COLUMNS, ln.split(","))) for ln in lines[1:]]
    # infeasible tail rows are flagged and keep empty optimum cells
    assert any(r["feasible"] == "false" for r in rows)
    for r in rows:
        if r["feasible"] == "false":
            assert r["r1h_opt_m"] == "" and r["a_opt"] == "" and r["snr_opt_db"] == ""
        assert r["p_ris_w"] != ""
    for y_s in ("5.0", "10.0"):
        snrs = [float(r["snr_opt_db"]) for r in rows if r["y_s_m"] == y_s and r["feasible"] == "true"]
        assert all(a >= b for a, b in zip(snrs, snrs[1:]))
        # feasibility is a prefix in P_c: once infeasible, stays infeasible
        flags = [r["feasible"] == "true" for r in rows if r["y_s_m"] == y_s]
        assert flags == sorted(flags, reverse=True)


def test_sweep_all_infeasible(default_config_path, capsys, tmp_path):
    out_csv = tmp_path / "none.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--config", str(default_config_path),
        "--pc-list", "1.0", "--ys-list", "5", "--out", str(out_csv),
    )
    assert code == EXIT_INFEASIBLE
    assert parse_kv(out)["feasible_rows"] == "0"


def test_sweep_deterministic_bytes(default_config_path, capsys, tmp_path):
    args = [
        "sweep", "--config", str(default_config_path),
        "--pc-log", "1e-7", "1e-4", "5", "--ys-list", "5,20",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(first))[0] == EXIT_OK
    assert run_cli(capsys, *args, "--out", str(second))[0] == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


# (function, position, name) of each argument that bench/tracer.py reads
TRACED_ARGUMENTS = (
    ("geometry.center_distances", 0, "r1h_m"),
    ("geometry.element_distances", 1, "grid"),
    ("link.snr_explicit", 1, "reflection"),
    ("optimizer.placement_objective", 0, "r1h_m"),
    ("oracle.exhaustive_phase_search", 0, "scenario"),
    ("oracle.exhaustive_phase_search", 2, "phase_levels"),
)


def test_traced_names_resolve(scenario):
    # the benchmark's tracer wraps every name in these __all__ lists and reads
    # the attributes below; a half-done deletion fails here, not only in a traced run
    layers = {layer: importlib.import_module(f"risharvest.{layer}") for layer in
              ("scenario", "geometry", "link", "optimizer", "oracle", "cli")}
    for module in (risharvest, *layers.values()):
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
    for qualified, position, name in TRACED_ARGUMENTS:
        layer, fname = qualified.split(".")
        signature = inspect.signature(getattr(layers[layer], fname))
        assert list(signature.parameters)[position] == name, qualified
    grid = geometry.element_grid(scenario)
    r1pl, _ = geometry.element_distances(1.0, grid, scenario)
    assert r1pl.shape == grid.d_p.shape == (scenario.ris_rows, scenario.ris_cols)
    assert layers["link"].ReflectionState([[1.0]], [[0.0]]).amplitudes.size == 1
    curve = layers["optimizer"].solve_placement(scenario).objective_curve
    assert curve.ndim == 2 and curve.shape[1] == 2
    for name in ("main", "sweep_rows", "parse_sites_text"):
        assert callable(getattr(cli, name)), name
    assert callable(SweepRow.csv_cells)


def test_sweep_rows_build_no_per_element_arrays(monkeypatch, scenario):
    # a row reports A*, the SNR and P_harv, none of which needs a surface-sized array
    calls = []
    for module, name in ((geometry, "element_grid"), (geometry, "element_distances")):
        def counted(*args, name=name, fn=getattr(module, name), **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    rows = list(sweep_rows(scenario, [1e-6, 1e-5, 1e-3], [5.0, 10.0]))
    assert sum(row.feasible for row in rows) == 4
    assert calls == []


def test_sweep_bad_pc_list(default_config_path, capsys, tmp_path):
    # non-finite values would otherwise run as infeasible rows (exit 2), and
    # an empty list is refused, not taken for the default grid
    out_csv = tmp_path / "x.csv"
    for pc_list, ys_list, flag in [("1e-6,abc", "5", "--pc-list"), ("nan", "5", "--pc-list"),
                                   ("1e-6", "5,inf", "--ys-list"), (",", "5", "--pc-list"),
                                   ("", "5", "--pc-list"), ("1e-6", "", "--ys-list")]:
        code, out, err = run_cli(
            capsys, "sweep", "--config", str(default_config_path),
            "--pc-list", pc_list, "--ys-list", ys_list, "--out", str(out_csv),
        )
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {flag} ") and err.count("\n") == 1
        assert out == "" and not out_csv.exists()


_PC_LOG_RANGE = "config error: --pc-log needs START > 0, STOP > 0 and 1 <= N <= 10000\n"
# --pc-log START STOP N -> the one stderr line that refuses it
PC_LOG_REFUSALS = {
    ("1e-8", "1e-4", "inf"): "config error: --pc-log N must be finite: 'inf'\n",
    ("1e-8", "1e-4", "nan"): "config error: --pc-log N must be finite: 'nan'\n",
    ("1e-8", "1e-4", "2.5"): "config error: --pc-log N must be an integer: '2.5'\n",
    ("1e-8", "1e-4", "1e9"): _PC_LOG_RANGE, ("1e-8", "1e-4", "10001"): _PC_LOG_RANGE,
    ("inf", "1e-4", "5"): "config error: --pc-log START must be finite: 'inf'\n",
    ("1e-8", "nan", "5"): "config error: --pc-log STOP must be finite: 'nan'\n",
    ("0", "1e-4", "5"): _PC_LOG_RANGE, ("1e-8", "1e-4", "0"): _PC_LOG_RANGE,
}


@pytest.mark.parametrize("pc_log", list(PC_LOG_REFUSALS))
def test_sweep_pc_log_bounded(default_config_path, capsys, tmp_path, pc_log):
    # every value here is refused before np.logspace runs
    out_csv = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--config", str(default_config_path),
        "--pc-log", *pc_log, "--out", str(out_csv),
    )
    assert code == EXIT_CONFIG
    assert err == PC_LOG_REFUSALS[pc_log]
    assert out == "" and not out_csv.exists()


# ------------------------------------------------------------------- validate


def test_validate_default_passes(default_config_path, capsys):
    code, out, err = run_cli(capsys, "validate", "--config", str(default_config_path))
    assert code == EXIT_OK
    kv = parse_kv(out)
    assert kv["verdict"] == "pass"
    assert float(kv["delta_r1h_m"]) <= 0.5
    assert float(kv["delta_snr_db"]) <= 0.1
    ratio = float(kv["phase_check_ratio"])
    assert 0.9619397662556434 <= ratio <= 1 + 1e-9
    assert err == ""


def test_validate_zero_draw_passes(default_config_path, capsys):
    # equal TX and RX heights: at zero draw the two lobes tie within rounding,
    # and the search, like the oracle, takes the one nearer the TX
    code, out, err = run_cli(capsys, "validate", "--config", str(default_config_path),
                             "--override", "p_chip_w=0")
    assert code == EXIT_OK and err == ""
    kv = parse_kv(out)
    assert kv["verdict"] == "pass"


def test_validate_loose_grid_fails_classified(default_config_path, capsys):
    # a 2 m lattice cannot land within the 0.5 m placement tolerance, so it
    # is refused as a usage error before anything runs
    code, out, err = run_cli(
        capsys, "validate", "--config", str(default_config_path), "--r1h-step", "2.0",
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "config error: --r1h-step 2.0 is coarser than the 0.5 m placement tolerance\n"


@pytest.mark.parametrize("value", ["0.5000000000000001", "1000"])
def test_validate_r1h_step_above_tolerance_refused(default_config_path, capsys, value):
    code, out, err = run_cli(capsys, "validate", "--config", str(default_config_path),
                             "--r1h-step", value)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"config error: --r1h-step {float(value)!r} is coarser")
    assert err.count("\n") == 1


def test_validate_zero_oracle_snr_fails_classified(default_config_path, capsys):
    # just below the autonomy threshold A* is under half the amplitude step, so
    # every feasible lattice column keeps A = 0, an oracle SNR of 0: the step
    # is refused before any stdout line, rather than a correct solve failed
    sc = load_scenario(default_config_path)
    ceiling = float(link.harvest_ceiling(geometry.center_distances(0.0, sc)[0], sc))
    below_ceiling = ["p_chip_w=0", "n_rectifiers=1", f"p_rectifier_w={ceiling * (1 - 1e-7)!r}"]
    for overrides, a_star in ((["p_chip_w=4.329552e-5"], "0.000355"), (below_ceiling, "0.000316")):
        argv = [arg for value in overrides for arg in ("--override", value)]
        code, out, err = run_cli(capsys, "validate", "--config", str(default_config_path), *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error: --a-step 0.001 cannot resolve the optimal amplitude "
                              f"A* = {a_star}")
        assert err.endswith(": every feasible lattice column picks A = 0\n") and err.count("\n") == 1


def test_validate_infeasible_shrink_skips_phase_check(default_config_path, capsys):
    # 100 rectifiers at 10 uW are more than a 2x2 shrink can harvest, so the
    # quantized-phase check is skipped and the verdict rests on the lattice
    code, out, err = run_cli(capsys, "validate", "--config", str(default_config_path),
                             "--override", "p_rectifier_w=1e-5")
    assert code == EXIT_OK and err == ""
    assert "phase_check_ratio = none (2x2 shrink infeasible)\n" in out
    assert parse_kv(out)["verdict"] == "pass"


@pytest.mark.parametrize("overrides, ratio", [
    # one column of 1 m elements at 0.4 m: a 2x2 shrink would reach below ground
    (("ris_cols=1", "element_dy_m=1", "ris_height_m=0.4"), 0.9917726039003204),
    # one element has one phase to pick, so the quantized profile is ideal
    (("ris_rows=1", "ris_cols=1"), 1.0),
], ids=["one_column", "one_element"])
def test_validate_shrink_never_exceeds_surface(default_config_path, capsys, overrides, ratio):
    argv = [arg for value in overrides for arg in ("--override", value)]
    code, out, err = run_cli(capsys, "validate", "--config", str(default_config_path), *argv)
    assert (code, err) == (EXIT_OK, "")
    kv = parse_kv(out)
    assert len(kv) == 13 and kv["verdict"] == "pass"
    assert float(kv["phase_check_ratio"]) == pytest.approx(ratio, rel=1e-9)


def test_validate_placement_delta_fails_classified(default_config_path, capsys):
    # a near-mirror scene at zero draw: the analytic search takes the lobe
    # near the RX and the 0.5 m lattice the one near the TX, whose SNRs agree
    # within 0.01 dB
    code, out, err = run_cli(capsys, "validate", "--config", str(default_config_path),
                             "--override", "rx_height_m=3.0001", "--override", "p_chip_w=0",
                             "--override", "txrx_horizontal_m=37.3")
    assert code == EXIT_VALIDATION
    kv = parse_kv(out)
    assert float(kv["analytic_r1h_opt_m"]) == pytest.approx(34.2007, abs=1e-4)
    assert kv["oracle_r1h_m"] == "3.0"
    assert float(kv["delta_snr_db"]) <= 0.01
    assert kv["verdict"] == "fail"
    assert err == "FAIL: placement delta exceeds tolerance\n"


def lattice_snr_0_2_db_high(*args, real=oracle.brute_force_solve):
    # the real lattice optimum with its SNR raised by 0.2 dB
    result = real(*args)
    return replace(result, snr_linear=result.snr_linear * 10.0 ** 0.02)


def phase_search_below_floor(small, r1h_m, phase_levels, uniform_a):
    # a best quantized SNR 1 % under the cos^2(pi / levels) floor
    floor = math.cos(math.pi / phase_levels) ** 2
    return None, 0.99 * floor * float(link.snr_cophased(r1h_m, uniform_a, small))


# a broken oracle function and the one FAIL line that validate prints for it
BROKEN_ORACLES = {
    "infeasible_lattice": ("brute_force_solve", lambda *args: oracle.OracleResult(feasible=False),
                           "feasibility disagreement"),
    "snr_off_0.2_db": ("brute_force_solve", lattice_snr_0_2_db_high, "SNR delta exceeds tolerance"),
    "phase_below_floor": ("exhaustive_phase_search", phase_search_below_floor,
                          "quantized-phase check outside bounds"),
}


@pytest.mark.parametrize("name", list(BROKEN_ORACLES))
def test_validate_fails_on_a_broken_oracle(default_config_path, capsys, monkeypatch, name):
    target, broken, failure = BROKEN_ORACLES[name]
    monkeypatch.setattr(oracle, target, broken)
    code, out, err = run_cli(capsys, "validate", "--config", str(default_config_path))
    assert code == EXIT_VALIDATION
    assert parse_kv(out)["verdict"] == "fail"
    assert err == f"FAIL: {failure}\n"


# validate flag and value -> the one stderr line that refuses it
LATTICE_REFUSALS = {
    ("--a-step", "1e-12"): "config error: --r1h-step 0.5 and --a-step 1e-12: "
                           "lattice of 2.01e+14 points exceeds the guard of 1e+07\n",
    ("--r1h-step", "1e-9"): "config error: --r1h-step 1e-09 and --a-step 0.001: "
                            "lattice of 1e+14 points exceeds the guard of 1e+07\n",
    ("--r1h-step", "0"): "config error: --r1h-step 0.0 and --a-step 0.001: "
                         "lattice steps must be positive and finite\n",
    ("--a-step", "-1"): "config error: --r1h-step 0.5 and --a-step -1.0: "
                        "lattice steps must be positive and finite\n",
    ("--a-step", "nan"): "config error: --a-step must be finite: 'nan'\n",
    ("--r1h-step", "inf"): "config error: --r1h-step must be finite: 'inf'\n",
    ("--r1h-step", "abc"): "config error: --r1h-step is not a number: 'abc'\n",
}


@pytest.mark.parametrize("flag, value", list(LATTICE_REFUSALS))
def test_validate_unbounded_lattice_rejected(default_config_path, capsys, flag, value):
    # every value here is refused before the lattice is allocated
    code, out, err = run_cli(capsys, "validate", "--config", str(default_config_path), flag, value)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == LATTICE_REFUSALS[flag, value]


@pytest.mark.parametrize("value", ["0.67", "0.7", "3"])
def test_validate_coarse_a_step_refused(default_config_path, capsys, value):
    # fewer than two lattice amplitudes in [0, 1) cannot meet the harvest equality
    code, out, err = run_cli(capsys, "validate", "--config", str(default_config_path),
                             "--a-step", value)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == (f"config error: --r1h-step 0.5 and --a-step {float(value)!r}: "
                   f"a_step {float(value)!r} leaves fewer than two amplitudes in [0, 1)\n")


def test_exact_ceiling_is_not_self_powered(default_config_path, capsys, tmp_path):
    # P_ris == ceiling(r1h = 0): solve, validate and a site at r1h = 0 all
    # find the surface not self-powered, so validate has nothing to disagree on
    sc = load_scenario(default_config_path)
    ceiling = float(link.harvest_ceiling(geometry.center_distances(0.0, sc)[0], sc))
    argv = ["--config", str(default_config_path), "--override", "p_chip_w=0",
            "--override", "n_rectifiers=1", "--override", f"p_rectifier_w={ceiling!r}"]
    assert run_cli(capsys, "solve", *argv)[0] == EXIT_INFEASIBLE
    code, out, err = run_cli(capsys, "validate", *argv)
    kv = parse_kv(out)
    assert (code, err) == (EXIT_OK, "")
    assert kv["analytic_feasible"] == kv["oracle_feasible"] == "false"
    assert kv["verdict"] == "pass"
    sites = tmp_path / "sites.cfg"
    sites.write_text(f"site.0.r1h_m = 0\nsite.0.lateral_offset_m = {sc.lateral_offset_m!r}\n"
                     f"site.0.ris_height_m = {sc.ris_height_m!r}\n")
    code, out, _ = run_cli(capsys, "select-site", *argv, "--sites", str(sites))
    assert code == EXIT_INFEASIBLE
    assert out.endswith("0,0.0,5.0,12.0,false,\nselected_index = none\n")


# ---------------------------------------------------------------- select-site


def test_select_site_example(default_config_path, sites_config_path, capsys):
    code, out, _ = run_cli(
        capsys, "select-site", "--config", str(default_config_path),
        "--sites", str(sites_config_path),
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "index,r1h_m,lateral_offset_m,ris_height_m,feasible,snr_opt_db"
    assert len(lines) == 5  # header + three sites + selection
    assert parse_kv(out)["selected_index"] == "2"


def test_select_site_all_infeasible(default_config_path, sites_config_path, capsys):
    code, out, _ = run_cli(
        capsys, "select-site", "--config", str(default_config_path),
        "--sites", str(sites_config_path), "--override", "p_chip_w=1.0",
    )
    assert code == EXIT_INFEASIBLE
    assert parse_kv(out)["selected_index"] == "none"
    for line in out.splitlines()[1:4]:
        assert line.endswith("false,")


def test_select_site_duplicates_tie_to_first(default_config_path, capsys, tmp_path):
    sites = tmp_path / "dup.cfg"
    sites.write_text(
        "site.0.r1h_m = 2.0\nsite.0.lateral_offset_m = 5.0\nsite.0.ris_height_m = 12.0\n"
        "site.1.r1h_m = 2.0\nsite.1.lateral_offset_m = 5.0\nsite.1.ris_height_m = 12.0\n"
    )
    code, out, _ = run_cli(
        capsys, "select-site", "--config", str(default_config_path), "--sites", str(sites),
    )
    assert code == EXIT_OK
    assert parse_kv(out)["selected_index"] == "0"


# sites file text -> a fragment of the message it must be refused with
BAD_SITES_FILES = {
    "": "defines no sites",
    "site.1.r1h_m = 1\nsite.1.lateral_offset_m = 5\nsite.1.ris_height_m = 12\n": "contiguous",
    "site.0.r1h_m = 1\nsite.0.lateral_offset_m = 5\n": "missing 'ris_height_m'",
    "site.0.r1h_m = 1\nsite.0.r1h_m = 2\n": "config error: line 2: duplicate key 'site.0.r1h_m'\n",
    "site.0.r1h_m =\n": "config error: line 1: empty value for 'site.0.r1h_m'\n",
    # one spelling per index, so a repeated field is always a repeated key
    "site.00.r1h_m = 1\n": "config error: line 1: unknown sites key 'site.00.r1h_m'\n",
    "site.\u0660.r1h_m = 1\n": "config error: line 1: unknown sites key 'site.\u0660.r1h_m'\n",
    "site.0.tilt_deg = 3\n": "unknown sites key",
    "just some text\n": "line 1",
    "site.0.r1h_m = nan\nsite.0.lateral_offset_m = 5\nsite.0.ris_height_m = 12\n": "must be finite",
    "site.0.r1h_m = inf\nsite.0.lateral_offset_m = 5\nsite.0.ris_height_m = 12\n": "must be finite",
    "site.0.r1h_m = 1\nsite.0.lateral_offset_m = inf\nsite.0.ris_height_m = 12\n": "must be finite",
    # r1h_m is a horizontal length of either sign, bounded like the span
    "site.0.lateral_offset_m = 5\nsite.0.r1h_m = 1e200\nsite.0.ris_height_m = 12\n":
        "config error: line 2: site.0.r1h_m = 1e+200 lies outside its range [-1000000000.0, ",
    "site.0.r1h_m = -1e160\nsite.0.lateral_offset_m = 5\nsite.0.ris_height_m = 12\n":
        "config error: line 1: site.0.r1h_m = -1e+160 lies outside its range",
    # a refusal from a site's Scenario names the site
    "site.0.r1h_m = 1\nsite.0.lateral_offset_m = 5\nsite.0.ris_height_m = 12\n"
    "site.1.r1h_m = 1\nsite.1.lateral_offset_m = 0\nsite.1.ris_height_m = 12\n":
        "config error: site.1: lateral_offset_m = 0.0 lies outside its range [1e-09, ",
    "site.0.r1h_m = 1\nsite.0.lateral_offset_m = 5\nsite.0.ris_height_m = 0.001\n":
        "config error: site.0: ris_height_m must exceed the surface's lower half-aperture ",
}


@pytest.mark.parametrize("content", list(BAD_SITES_FILES))
def test_select_site_bad_files(default_config_path, capsys, tmp_path, content):
    sites = tmp_path / "bad.cfg"
    sites.write_text(content)
    code, _, err = run_cli(
        capsys, "select-site", "--config", str(default_config_path), "--sites", str(sites),
    )
    assert code == EXIT_CONFIG
    assert "config error" in err
    assert BAD_SITES_FILES[content] in err


def test_select_site_negative_r1h_accepted(default_config_path, capsys, tmp_path):
    # a surface mounted behind the transmitter
    sites = tmp_path / "behind.cfg"
    sites.write_text("site.0.r1h_m = -5\nsite.0.lateral_offset_m = 5\nsite.0.ris_height_m = 12\n")
    code, out, err = run_cli(
        capsys, "select-site", "--config", str(default_config_path), "--sites", str(sites),
    )
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[1].startswith("0,-5.0,5.0,12.0,true,")


# ------------------------------------------------------------- surface height


def test_surface_below_ground_in_config_file(default_config_path, capsys, tmp_path):
    # 50 columns at 5.35 mm reach 0.131 m below the center
    low = tmp_path / "low.cfg"
    low.write_text(default_config_path.read_text().replace(
        "ris_height_m = 12.0", "ris_height_m = 0.1"))
    code, out, err = run_cli(capsys, "solve", "--config", str(low))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("config error: ris_height_m must exceed")
    assert err.count("\n") == 1


@pytest.mark.parametrize("override", ["ris_height_m=0.001", "ris_cols=5000"])
def test_surface_below_ground_by_override(default_config_path, capsys, override):
    code, out, err = run_cli(
        capsys, "solve", "--config", str(default_config_path), "--override", override,
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert "below ground" in err
    assert err.count("\n") == 1


# ------------------------------------------------------------ numeric bounds


def _assert_range_refusal(code, out, err, key):
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"config error: {key} = ") and err.count("\n") == 1
    assert " lies outside its range [" in err


# values whose dB conversion or square overflows a float
@pytest.mark.parametrize("override", [
    "noise_figure_db=1e6", "carrier_frequency_hz=1e308", "lateral_offset_m=1e308",
    "ris_height_m=1e308", "tx_height_m=1e308", "rx_height_m=1e308",
])
def test_numeric_overflow_is_one_line_error(default_config_path, capsys, override):
    code, out, err = run_cli(
        capsys, "solve", "--config", str(default_config_path), "--override", override,
    )
    _assert_range_refusal(code, out, err, override.split("=")[0])


# (command, options, key the refusal names). An option is an override
# KEY=VALUE or, starting with --, a flag=value. The first 20 inputs once
# reached guards against over- and underflow in scenario, link and optimizer,
# which the ranges have made unreachable; the last four squared a length
# past the float maximum and named no key.
OUT_OF_RANGE = [
    ("solve", "bandwidth_hz=1e-320", "bandwidth_hz"),
    ("solve", "element_dx_m=1e308", "element_dx_m"),
    ("solve", "element_dy_m=1e308", "element_dy_m"),
    ("solve", "element_dx_m=1e200", "element_dx_m"),
    ("solve", "transmit_power_w=1e308", "transmit_power_w"),
    ("solve", "transmit_power_w=1e-320", "transmit_power_w"),
    ("solve", "conversion_efficiency=1e-320", "conversion_efficiency"),
    ("solve", "lateral_offset_m=1e-320", "lateral_offset_m"),
    ("solve", "txrx_horizontal_m=1e300", "txrx_horizontal_m"),
    ("solve", "p_chip_w=1e304", "p_chip_w"),
    ("select-site", "p_chip_w=1e304", "p_chip_w"),
    ("solve", "transmit_power_w=1e300", "transmit_power_w"),
    ("validate", "transmit_power_w=1e300", "transmit_power_w"),
    ("solve", "transmit_power_w=1e303", "transmit_power_w"),
    ("solve", "txrx_horizontal_m=1e60", "txrx_horizontal_m"),
    ("solve", "txrx_horizontal_m=1e100", "txrx_horizontal_m"),
    ("solve", "txrx_horizontal_m=1e105", "txrx_horizontal_m"),
    ("solve", "txrx_horizontal_m=1e108", "txrx_horizontal_m"),
    ("solve", "transmit_power_w=1e-305 p_chip_w=0", "transmit_power_w"),
    ("solve", "txrx_horizontal_m=1e120", "txrx_horizontal_m"),
    ("solve", "lateral_offset_m=1e200", "lateral_offset_m"),
    ("solve", "ris_height_m=1e200", "ris_height_m"),
    ("solve", "tx_height_m=1e160", "tx_height_m"),
    ("sweep", "--ys-list=1e200", "lateral_offset_m"),
]


def _argv(default_config_path, sites_config_path, tmp_path, command, options):
    argv = [command, "--config", str(default_config_path)]
    for item in options.split():
        argv += [item] if item.startswith("--") else ["--override", item]
    if command == "select-site":
        argv += ["--sites", str(sites_config_path)]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "sweep.csv")]
    return argv


@pytest.mark.parametrize("command, options, key", OUT_OF_RANGE,
                         ids=[f"{c}:{o.replace(' ', ',')}" for c, o, _ in OUT_OF_RANGE])
def test_out_of_range_values_refused(default_config_path, sites_config_path, capsys, tmp_path,
                                     command, options, key):
    argv = _argv(default_config_path, sites_config_path, tmp_path, command, options)
    _assert_range_refusal(*run_cli(capsys, *argv), key)


# in-range corners of the ranges keep their results
@pytest.mark.parametrize("command, options, code, expected", [
    # P_ris / ceiling below 2^-53: A* is clamped below 1 and still harvests
    ("solve", "p_chip_w=1e-30", EXIT_OK, "a_opt = 0.999999999\na_boundary = false\n"),
    # P_ris far above the ceiling is compared with it, never divided by it
    ("solve", "p_chip_w=1e9", EXIT_INFEASIBLE, "feasible = false\n"),
    ("select-site", "p_chip_w=1e9", EXIT_INFEASIBLE, "selected_index = none\n"),
    # r2/y_s past 1e16: the SNR follows cos(th_r) = y_s/r2
    ("solve", "txrx_horizontal_m=1e9 lateral_offset_m=1e-8 p_chip_w=1e-20", EXIT_OK,
     "snr_opt_db = -325.7331642388936\n"),
    # a subnormal P_ris: ceiling / P_ris is never formed, so nothing overflows
    ("solve", "p_chip_w=5e-324", EXIT_OK, "feasible = true\n"),
    # zero draw searches the whole span, in as many points at 100 km as at 100 m
    ("solve", "p_chip_w=0 txrx_horizontal_m=100001", EXIT_OK, "feasible = true\n"),
    ("solve", "txrx_horizontal_m=1e9 p_chip_w=0", EXIT_OK, "feasible = true\n"),
], ids=["amplitude_clamp", "solve_huge_draw", "select_site_huge_draw", "far_span",
        "subnormal_draw", "long_zero_draw_scan", "longest_zero_draw_scan"])
def test_range_corners_solve_cleanly(default_config_path, sites_config_path, capsys, tmp_path,
                                     command, options, code, expected):
    argv = _argv(default_config_path, sites_config_path, tmp_path, command, options)
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert expected in out and err == ""


@pytest.mark.parametrize("overrides, message", [
    (("ris_rows=1000001", "ris_cols=1"), "config error: ris_rows = 1000001 lies outside its range"),
    # each side in its range, the product over the element cap
    (("ris_rows=1000", "ris_cols=1001"), "config error: the surface has 1001000 elements"),
], ids=["million_plus_elements", "million_plus_element_product"])
def test_user_sized_allocations_refused(default_config_path, capsys, overrides, message):
    argv = ["solve", "--config", str(default_config_path)]
    for item in overrides:
        argv += ["--override", item]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1


HOSTILE_TOKENS = ("nan", "inf", "-inf", "-1", "0", "", "abc", "2.5")


@pytest.mark.filterwarnings("ignore:.*below 10 wavelengths:UserWarning")
def test_hostile_values_exit_cleanly(default_config_path, sites_config_path, capsys, tmp_path):
    # every case must end in 0, 2 or 3, and 3 with exactly one stderr line
    # and nothing on stdout
    def check(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # a usage error that argparse ends itself
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_CONFIG), argv
        if code == EXIT_CONFIG:
            assert err.count("\n") == 1 and out == "", (argv, out, err)

    def with_value(path, key, token):
        # the file with the key's line, if any, replaced by `key = token`
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith(f"{key} =")]
        return "\n".join(lines + [f"{key} = {token}"]) + "\n"

    cfg = tmp_path / "hostile.cfg"
    for key in sorted(KEY_RANGES):
        for token in HOSTILE_TOKENS:
            cfg.write_text(with_value(default_config_path, key, token))
            check("solve", "--config", str(cfg))

    sites = tmp_path / "hostile_sites.cfg"
    for field in ("r1h_m", "lateral_offset_m", "ris_height_m"):
        for token in HOSTILE_TOKENS:
            sites.write_text(with_value(sites_config_path, f"site.0.{field}", token))
            check("select-site", "--config", str(default_config_path), "--sites", str(sites))

    out_csv = str(tmp_path / "x.csv")
    for token in HOSTILE_TOKENS:
        check("sweep", "--config", str(default_config_path), "--pc-list", f"1e-6,{token}",
              "--ys-list", "5", "--out", out_csv)
        check("sweep", "--config", str(default_config_path), "--pc-list", "1e-6",
              "--ys-list", f"5,{token}", "--out", out_csv)
        for position in range(3):
            pc_log = ["1e-6", "1e-4", "3"]
            pc_log[position] = token
            check("sweep", "--config", str(default_config_path), "--pc-log", *pc_log,
                  "--ys-list", "5", "--out", out_csv)
        for flag in ("--r1h-step", "--a-step"):
            check("validate", "--config", str(default_config_path), f"{flag}={token}")


# (command and options, start of the one stderr line that refuses them);
# {tmp}/missing is a directory that does not exist
NO_OUTPUT_REFUSALS = [
    (["solve", "--out", "{tmp}/missing/curve.csv"], "config error: cannot write output file "),
    (["sweep", "--out", "{tmp}/missing/sweep.csv"], "config error: cannot write output file "),
    (["select-site", "--sites", "{tmp}/missing/sites.cfg"], "config error: cannot read sites file "),
    (["solve", "--override", "p_chip_w="], "config error: --override: empty value for 'p_chip_w'\n"),
    (["solve", "--override", "p_chip_w"],
     "config error: --override: expected 'key = value', got 'p_chip_w'\n"),
    (["solve", "--override", "nope=1"], "config error: --override: unknown config key 'nope'\n"),
    # the bad value sorts last: it is refused before the first row is written
    (["sweep", "--pc-list", "1e-6,1e304", "--out", "{tmp}/sweep.csv"],
     "config error: p_chip_w = 1e+304 lies outside its range "),
    (["solve", "--override", "n_rectifiers=1.5"],
     "config error: value for 'n_rectifiers' must be an integer: '1.5'"),
    (["sweep", "--pc-list", "1e-6,", "--out", "{tmp}/sweep.csv"],
     "config error: --pc-list value is not a number: ''\n"),
]


@pytest.mark.parametrize("argv, message", NO_OUTPUT_REFUSALS,
                         ids=["solve_out", "sweep_out", "select_site_sites", "empty_override",
                              "override_without_equals", "unknown_override",
                              "sweep_pc_out_of_range", "fractional_integer_key",
                              "pc_list_trailing_comma"])
def test_refusals_print_and_write_nothing(default_config_path, capsys, tmp_path, argv, message):
    # the refusal comes before any stdout line, and no file is left behind
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, out, err = run_cli(capsys, argv[0], "--config", str(default_config_path), *argv[1:])
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--config", "--sites"])
def test_input_file_over_the_cap_refused(default_config_path, sites_config_path, capsys, tmp_path,
                                         flag):
    # a file of MAX_INPUT_CHARS characters is parsed; one character more is refused
    paths = {"--config": default_config_path, "--sites": sites_config_path}
    for size, refused in ((MAX_INPUT_CHARS, False), (MAX_INPUT_CHARS + 1, True)):
        paths[flag] = tmp_path / f"{size}.cfg"
        paths[flag].write_text("#" * (size - 1) + "\n")
        code, out, err = run_cli(capsys, "select-site", "--config", str(paths["--config"]),
                                 "--sites", str(paths["--sites"]))
        assert code == EXIT_CONFIG and out == ""
        over = f"config error: {flag[2:]} file {paths[flag]} is longer than {MAX_INPUT_CHARS} characters\n"
        assert (err == over) == refused


@pytest.mark.parametrize("flag", ["--config", "--sites"])
def test_undecodable_input_file_named(default_config_path, sites_config_path, capsys, tmp_path, flag):
    # a byte that is not UTF-8 is refused in a line that names the file
    paths = {"--config": default_config_path, "--sites": sites_config_path, flag: tmp_path / "bad.cfg"}
    paths[flag].write_bytes(b"# \xff\n")
    code, out, err = run_cli(capsys, "select-site", "--config", str(paths["--config"]),
                             "--sites", str(paths["--sites"]))
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith(f"config error: cannot read {flag[2:]} file {paths[flag]}: 'utf-8' codec ")
    assert err.count("\n") == 1


def test_sweep_memory_flat_in_row_count(default_config_path, capsys, tmp_path):
    # rows are written as they are solved, so the traced peak does not grow
    # with the row count; at 1 W per chip every row is infeasible and quick
    def peak(n_p_c, n_y_s):
        p_c = ",".join(str(1.0 + k) for k in range(n_p_c))
        y_s = ",".join(str(5.0 + k) for k in range(n_y_s))
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "sweep", "--config", str(default_config_path), "--pc-list",
                                 p_c, "--ys-list", y_s, "--out", str(tmp_path / "sweep.csv"))
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (code_small, small), (code_large, large) = peak(50, 50), peak(100, 100)
    assert code_small == code_large == EXIT_INFEASIBLE
    assert large < small + 64 * 1024, (small, large)


# ---------------------------------------------------------------- usage errors


def exit_of(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_missing_required_flag_is_config_error(default_config_path, capsys):
    code, _, err = exit_of(capsys, "sweep", "--config", str(default_config_path))
    assert code == EXIT_CONFIG
    assert err == "risharvest sweep: error: the following arguments are required: --out\n"


def test_non_numeric_pc_log_is_config_error(default_config_path, capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "sweep", "--config", str(default_config_path),
        "--pc-log", "1e-8", "abc", "5", "--out", str(tmp_path / "x.csv"),
    )
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "config error: --pc-log STOP is not a number: 'abc'\n"


def test_pc_log_and_pc_list_exclusive(default_config_path, capsys, tmp_path):
    # one of the two chip-power lists, never both with one silently dropped
    out_csv = tmp_path / "x.csv"
    code, out, err = exit_of(
        capsys, "sweep", "--config", str(default_config_path), "--pc-log", "1e-8", "1e-4", "3",
        "--pc-list", "1e-6", "--out", str(out_csv),
    )
    assert code == EXIT_CONFIG
    assert err == "risharvest sweep: error: argument --pc-list: not allowed with argument --pc-log\n"
    assert out == "" and not out_csv.exists()


def test_help_exits_zero(capsys):
    code, out, _ = exit_of(capsys, "sweep", "--help")
    assert code == 0
    assert "--pc-log" in out


# ----------------------------------------------------------------- entrypoint


def test_module_entrypoint_subprocess(default_config_path):
    proc = subprocess.run(
        [sys.executable, "-m", "risharvest.cli", "solve", "--config", str(default_config_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert "feasible = true" in proc.stdout


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_keeps_blas_single_threaded_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", "import os, risharvest; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected
