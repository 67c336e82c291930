"""CLI behavior: output contracts, exit codes, determinism, error paths."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

import risharvest
from risharvest import cli, geometry
from risharvest.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VALIDATION,
    SweepRow,
    main,
    sweep_rows,
)
from risharvest.scenario import KNOWN_KEYS

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
    # the feasible grid points only: 0..34.6 m at 0.1 m, short of r1h_f = 34.655 m
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert [r for r, _ in rows] == [0.1 * k for k in range(347)]
    assert all(g > 0.0 for _, g in rows)
    assert f"objective_curve_csv = {out_csv}" in out

    code, _, _ = run_cli(
        capsys, "solve", "--config", str(default_config_path),
        "--override", "p_chip_w=1.0", "--out", str(out_csv),
    )
    assert code == EXIT_INFEASIBLE
    assert out_csv.read_text() == "r1h_m,objective\n"


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
    cells = dict(zip(SweepRow.FIELDS, row.split(",")))
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
    rows = [dict(zip(SweepRow.FIELDS, ln.split(","))) for ln in lines[1:]]
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
    rows = sweep_rows(scenario, [1e-6, 1e-5, 1e-3], [5.0, 10.0])
    assert sum(row.feasible for row in rows) == 4
    assert calls == []


def test_sweep_bad_pc_list(default_config_path, capsys, tmp_path):
    # non-finite values would otherwise run as infeasible rows (exit 2)
    out_csv = tmp_path / "x.csv"
    for pc_list, ys_list, flag in [("1e-6,abc", "5", "--pc-list"), ("nan", "5", "--pc-list"),
                                   ("1e-6", "5,inf", "--ys-list")]:
        code, out, err = run_cli(
            capsys, "sweep", "--config", str(default_config_path),
            "--pc-list", pc_list, "--ys-list", ys_list, "--out", str(out_csv),
        )
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {flag} ") and err.count("\n") == 1
        assert out == "" and not out_csv.exists()


@pytest.mark.parametrize("pc_log", [
    ("1e-8", "1e-4", "inf"), ("1e-8", "1e-4", "nan"), ("1e-8", "1e-4", "2.5"),
    ("1e-8", "1e-4", "1e9"), ("1e-8", "1e-4", "10001"), ("inf", "1e-4", "5"),
    ("1e-8", "nan", "5"),
])
def test_sweep_pc_log_bounded(default_config_path, capsys, tmp_path, pc_log):
    # every value here is refused before np.logspace runs
    out_csv = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--config", str(default_config_path),
        "--pc-log", *pc_log, "--out", str(out_csv),
    )
    assert code == EXIT_CONFIG
    assert err == ("config error: --pc-log needs finite START/STOP and an integer N "
                   "of at most 10000\n")
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
    # just below the autonomy threshold every feasible lattice column keeps
    # A = 0, so the oracle's best SNR is 0: -inf dB, a failed SNR check
    code, out, err = run_cli(capsys, "validate", "--config", str(default_config_path),
                             "--override", "p_chip_w=4.329552e-5")
    assert code == EXIT_VALIDATION
    kv = parse_kv(out)
    assert kv["oracle_snr_db"] == "-inf" and kv["delta_snr_db"] == "inf"
    assert kv["verdict"] == "fail"
    assert err == "FAIL: SNR delta exceeds tolerance\n"


@pytest.mark.parametrize("flag, value", [
    ("--a-step", "1e-12"), ("--r1h-step", "1e-9"), ("--a-step", "nan"), ("--r1h-step", "inf"),
])
def test_validate_unbounded_lattice_rejected(default_config_path, capsys, flag, value):
    # every value here is refused before the lattice is allocated
    code, out, err = run_cli(capsys, "validate", "--config", str(default_config_path), flag, value)
    assert code == EXIT_CONFIG
    assert err.startswith("error: lattice")
    assert "verdict" not in out


@pytest.mark.parametrize("value", ["0.67", "0.7", "3"])
def test_validate_coarse_a_step_refused(default_config_path, capsys, value):
    # fewer than two lattice amplitudes in [0, 1) cannot meet the harvest equality
    code, out, err = run_cli(capsys, "validate", "--config", str(default_config_path),
                             "--a-step", value)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"config error: --a-step {float(value)!r}") and err.count("\n") == 1


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
    "site.0.r1h_m = 1\nsite.0.r1h_m = 2\n": "duplicate sites key",
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
], ids=["amplitude_clamp", "solve_huge_draw", "select_site_huge_draw", "far_span"])
def test_range_corners_solve_cleanly(default_config_path, sites_config_path, capsys, tmp_path,
                                     command, options, code, expected):
    argv = _argv(default_config_path, sites_config_path, tmp_path, command, options)
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert expected in out and err == ""


@pytest.mark.parametrize("overrides, message", [
    # zero draw scans the whole span: 1,000,010 grid points at 0.1 m
    (("p_chip_w=0", "txrx_horizontal_m=100001"), "error: the coarse placement scan"),
    (("ris_rows=1000001", "ris_cols=1"), "config error: ris_rows = 1000001 lies outside its range"),
    # each side in its range, the product over the element cap
    (("ris_rows=1000", "ris_cols=1001"), "config error: the surface has 1001000 elements"),
], ids=["long_zero_draw_scan", "million_plus_elements", "million_plus_element_product"])
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
    def check(*argv):
        code, _, err = run_cli(capsys, *argv)
        assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_CONFIG), argv
        if code == EXIT_CONFIG:
            assert err.count("\n") == 1, (argv, err)

    def with_value(path, key, token):
        # the file with the key's line, if any, replaced by `key = token`
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith(f"{key} =")]
        return "\n".join(lines + [f"{key} = {token}"]) + "\n"

    cfg = tmp_path / "hostile.cfg"
    for key in sorted(KNOWN_KEYS):
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
    code, _, err = exit_of(
        capsys, "sweep", "--config", str(default_config_path),
        "--pc-log", "1e-8", "abc", "5", "--out", str(tmp_path / "x.csv"),
    )
    assert code == EXIT_CONFIG
    assert err == "risharvest sweep: error: argument --pc-log: invalid float value: 'abc'\n"


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
