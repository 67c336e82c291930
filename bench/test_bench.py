"""Tests of the benchmark's own tools.

    python -m pytest bench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


# ------------------------------------------------------------------ compare

def _record(workload, seed, metrics, fail_ratio=0.0):
    return {
        "workload": workload, "trace": 0, "seed": seed,
        "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()},
        "better": {"op_p50_s": "lower", "items_per_s": "higher"},
        "extra": {"fail_ratio": fail_ratio},
    }


def _runs(values, metric="op_p50_s", workload="sweep"):
    return [_record(workload, seed, {metric: v}) for seed, v in enumerate(values, start=1)]


def _only(rows, metric="op_p50_s"):
    (row,) = [r for r in rows if r["metric"] == metric]
    return row


BASE = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.02]


def test_clear_gain_is_improved():
    change = [v * 0.8 for v in BASE]
    row = _only(compare.compare(_runs(BASE), _runs(change), {"op_p50_s": 0.1}))
    assert row["verdict"] == "improved"
    assert row["win_fraction"] == 1.0
    assert row["pairs"] == 10


def test_slowdown_beyond_bound_is_worse():
    change = [v * 1.2 for v in BASE]
    row = _only(compare.compare(_runs(BASE), _runs(change), {"op_p50_s": 0.1}))
    assert row["verdict"] == "worse"


def test_small_shift_within_bound_is_unchanged():
    change = [v * 1.02 for v in BASE]
    row = _only(compare.compare(_runs(BASE), _runs(change), {"op_p50_s": 0.1}))
    assert row["verdict"] == "unchanged"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [1.0, 1.5, 0.7, 1.4, 0.8, 1.3, 0.9, 1.6, 0.6, 1.2]
    change = list(reversed(noisy))
    row = _only(compare.compare(_runs(noisy), _runs(change), {"op_p50_s": 0.1}))
    assert row["verdict"] == "unresolved"


def test_gain_needs_nine_in_ten_pairs():
    # medians differ by far more than the spread, but two pairs go the other way
    change = [v * 0.8 for v in BASE]
    change[0], change[1] = 1.5, 1.5
    row = _only(compare.compare(_runs(BASE), _runs(change), {"op_p50_s": 0.1}))
    assert row["win_fraction"] == 0.8
    assert row["verdict"] != "improved"


def test_higher_is_better_metric_and_ties():
    base = [100.0] * 10
    change = [100.0] * 8 + [130.0] * 2
    row = _only(compare.compare(_runs(base, "items_per_s"), _runs(change, "items_per_s"),
                                {"items_per_s": 0.1}), "items_per_s")
    assert row["win_fraction"] == 0.2  # ties count for neither side
    assert row["verdict"] == "unchanged"


def test_pairs_are_matched_by_seed():
    base = _runs(BASE)
    change = list(reversed(_runs([v * 0.8 for v in BASE])))
    row = _only(compare.compare(base, change, {"op_p50_s": 0.1}))
    assert row["win_fraction"] == 1.0


def test_new_failures_are_worse():
    base = _runs(BASE)
    change = _runs(BASE)
    change[3]["extra"]["fail_ratio"] = 0.1
    change[4]["extra"]["fail_ratio"] = 0.1
    change[5]["extra"]["fail_ratio"] = 0.1
    assert _only(compare.compare(base, change, {}), "fail_ratio")["verdict"] == "worse"
    assert _only(compare.compare(base, base, {}), "fail_ratio")["verdict"] == "unchanged"


def test_compare_reads_results_directories(tmp_path, capsys):
    for side, scale in (("a", 1.0), ("b", 0.8)):
        (tmp_path / side).mkdir()
        for rec in _runs([v * scale for v in BASE]):
            (tmp_path / side / f"r{rec['seed']}.json").write_text(json.dumps(rec))
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [{"name": "op_p50_s", "bound": 0.1}]}))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b"), "--benchmark", str(bench)]) == 0
    assert "improved" in capsys.readouterr().out


# ------------------------------------------------------------------ benchmark definition

def test_benchmark_json_matches_run_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(gen.GENERATORS)


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 41))
    value, q = run.tail(values)
    assert q == 75
    assert sum(v > value for v in values) >= 10
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50)


def test_cycle_rates_count_each_input_once():
    def op(key, items, wall):
        return {"key": key, "items": items, "wall_s": wall, "cpu_s": 2 * wall}

    # two full cycles, then a partial one that reaches only the big input
    results = [op(0, 100, 1.0), op(1, 1, 0.5), op(0, 100, 3.0), op(1, 1, 0.5), op(0, 100, 2.0)]
    items, wall, cpu = run.cycle_rates(results)
    assert items == 101
    assert wall == pytest.approx(2.0 + 0.5)
    assert cpu == pytest.approx(2 * wall)


# ------------------------------------------------------------------ generator

@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    def files(out):
        gen.generate(workload, 7, str(out))
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    first, second = files(tmp_path / "a"), files(tmp_path / "b")
    assert first == second
    assert files(tmp_path / "c") == first
    other = tmp_path / "d"
    gen.generate(workload, 8, str(other))
    assert {p.relative_to(other): p.read_bytes() for p in other.rglob("*") if p.is_file()} != first


def test_sweep_inputs_straddle_the_feasibility_boundary(tmp_path):
    ops, _ = gen.generate("sweep", 3, str(tmp_path))
    for op in ops:
        spec = op["spec"]
        link = reference.Link(spec["cfg"])
        flags = [link.with_(lateral_offset_m=ys, p_chip_w=pc).feasible()
                 for ys in spec["ys_list"] for pc in spec["pc_list"]]
        assert any(flags) and not all(flags)
        assert op["items"] == len(flags)


# ------------------------------------------------------------------ reference

DEFAULT_CFG = {
    "carrier_frequency_hz": 28e9, "transmit_power_w": 1.0, "bandwidth_hz": 2e9,
    "noise_figure_db": 10.0, "tx_diameter_m": 0.3, "rx_diameter_m": 0.3,
    "tx_efficiency": 0.7, "rx_efficiency": 0.7, "tx_height_m": 3.0, "rx_height_m": 3.0,
    "ris_height_m": 12.0, "txrx_horizontal_m": 100.0, "lateral_offset_m": 5.0,
    "ris_rows": 50, "ris_cols": 50, "element_dx_m": 0.00535343675,
    "element_dy_m": 0.00535343675, "conversion_efficiency": 0.6,
    "n_rectifiers": 100, "p_rectifier_w": 0.0, "p_chip_w": 1e-6,
}


def test_reference_reproduces_the_documented_default_optimum():
    # README quick start: r1h 1.0455..., A 0.98820..., SNR 56.3908... dB
    link = reference.Link(DEFAULT_CFG)
    r1h, snr = link.optimum()
    assert r1h == pytest.approx(1.0455442861154873, abs=1e-4)
    assert reference.db(snr) == pytest.approx(56.39080519538952, abs=1e-6)
    assert np.sqrt(link.radicand(r1h)) == pytest.approx(0.9882027677134215, rel=1e-6)


def test_reference_flags_a_wrong_optimum():
    link = reference.Link(DEFAULT_CFG)
    r1h, snr = link.optimum()
    a = float(np.sqrt(link.radicand(r1h)))
    good = (r1h, a, reference.db(snr), link.p_ris)
    assert reference.check_optimum(link, True, *good) == []
    assert reference.check_optimum(link, True, 3.0, *good[1:])
    assert reference.check_optimum(link, False, None, None, None, None)


# ------------------------------------------------------------------ tracer

def test_self_time_excludes_child_spans(tmp_path):
    rec = tracer.Recorder()

    def leaf():
        t = tracer.time.perf_counter()
        while tracer.time.perf_counter() - t < 0.01:
            pass

    leaf = rec.wrap("geometry.element_grid", leaf)

    def outer():
        leaf()
        leaf()

    outer = rec.wrap("optimizer.evaluate_placement", outer)
    rec.save(tmp_path / "spans.npz", 3)  # empty store is writable too
    outer()
    rec.save(tmp_path / "spans.npz", 3)
    s = tracer.summarize(tmp_path / "spans.npz")
    assert s["count"] == {"geometry.element_grid": 2, "optimizer.evaluate_placement": 1}
    assert s["self_s"]["geometry"] >= 0.02
    assert s["self_s"]["optimizer"] < 0.01
    assert s["calls"]["geometry"] == 2
