"""Benchmark of the risharvest CLI, end to end and layer by layer.

    python3 bench/run.py --workload {sweep,validate} --seed N \
        --seconds S --trace {0,1} [--results DIR]

Run from the repository root. Inputs come from bench/gen.py and the seed.
One client runs a closed loop: each op is one CLI invocation in a fresh
process (`python -m risharvest.cli ...` with src/ on PYTHONPATH), started
only after the previous one ended, until S seconds have passed. Every output
is checked against bench/reference.py after the loop; a wrong exit code, a
reference mismatch, a rerun whose bytes differ or a timeout counts as a
failed op.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
each op twice, untraced and through bench/tracer.py (alternating which goes
first), checks that both outputs are identical, and reports the per-layer
metrics from the traced runs. The last line of stdout is one JSON object;
the full record, with the run environment, goes to DIR (bench/results).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402

SETUP_REPS = 7
OP_TIMEOUT_S = 90.0
TAIL_SAMPLES = 10

# name -> (unit, better); --trace 0 prints END_TO_END, --trace 1 PER_LAYER
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "cpu_per_item_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "cli.csv_write_s": ("s", "lower"),
    "scenario.self_s": ("s", "lower"),
    "scenario.calls": ("count", "lower"),
    "geometry.self_s": ("s", "lower"),
    "geometry.center_points": ("count", "lower"),
    "geometry.element_points": ("count", "lower"),
    "geometry.bytes_computed": ("bytes", "lower"),
    "geometry.center_calls_per_point": ("ratio", "lower"),
    "link.self_s": ("s", "lower"),
    "link.snr_explicit_calls": ("count", "lower"),
    "link.elements_summed": ("count", "lower"),
    "optimizer.self_s": ("s", "lower"),
    "optimizer.solves": ("count", "higher"),
    "optimizer.objective_calls": ("count", "lower"),
    "optimizer.objective_points_per_solve": ("count", "lower"),
    "optimizer.coarse_feasible_ratio": ("ratio", "higher"),
    "oracle.self_s": ("s", "lower"),
    "oracle.profiles_scored": ("count", "lower"),
    "oracle.profile_useful_ratio": ("ratio", "higher"),
    "oracle.column_feasible_ratio": ("ratio", "higher"),
    **{f"{label}.p50_s": ("s", "lower") for label in tracer.PER_CALL},
    "trace_overhead_ratio": ("ratio", "lower"),
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, cwd, env, log_dir: Path) -> dict:
    """Run one child to completion; wall time, CPU, peak RSS, exit code, output."""
    out_path, err_path = log_dir / "stdout", log_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def kill():
            with lock:
                if not state["reaped"]:
                    state["killed"] = True
                    proc.kill()

        killer = threading.Timer(OP_TIMEOUT_S, kill)
        killer.start()
        try:
            # wait without reaping, so a late kill() can only hit our zombie
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                state["reaped"] = True
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "code": proc.returncode,
        "timed_out": state["killed"],
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes(),
    }


def run_op(op, env, work: Path, spans=None) -> dict:
    out_file = Path(op["dir"]) / "out.csv"
    if out_file.exists():
        out_file.unlink()
    if spans is None:
        cmd = [sys.executable, "-m", "risharvest.cli", *op["argv"]]
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), str(op["key"]), *op["argv"]]
    res = run_child(cmd, op["dir"], env, work)
    res["out"] = out_file.read_bytes() if out_file.exists() else b""
    res["key"] = op["key"]
    res["kind"] = op["kind"]
    res["items"] = op["items"]
    return res


def check(op, res) -> list:
    """Reference problems with one op's output (empty when correct)."""
    if res["timed_out"]:
        return [f"timed out after {OP_TIMEOUT_S} s"]
    spec = op["spec"]
    if res["code"] != spec["expected_code"]:
        return [f"exit code {res['code']}, expected {spec['expected_code']}"]
    link = reference.Link(spec["cfg"])
    stdout = res["stdout"].decode("utf-8", "replace")
    try:
        if op["kind"] == "sweep":
            return reference.check_sweep(link, spec["pc_list"], spec["ys_list"], stdout,
                                         res["out"].decode("utf-8", "replace"))
        return reference.check_validate(link, spec["a_step"], spec["ref"], stdout)
    except (KeyError, ValueError, IndexError) as exc:
        return [f"unparsable output: {exc!r}"]


def _fingerprint(res):
    return res["code"], res["stdout"], res["out"]


def check_all(ops, results) -> None:
    """Set res['problems'] on every result.

    The first run of each input is checked against the reference; every
    later run of the same input must reproduce its bytes exactly, and then
    shares its verdict.
    """
    first = {}
    for res in results:
        if res.get("traced"):
            continue
        key = res["key"]
        if key not in first:
            first[key] = res
            res["problems"] = check(ops[key], res)
        elif res["timed_out"]:
            res["problems"] = [f"timed out after {OP_TIMEOUT_S} s"]
        elif _fingerprint(res) != _fingerprint(first[key]):
            res["problems"] = ["rerun of the same input gave different output"]
        else:
            res["problems"] = list(first[key]["problems"])


def tail(values):
    """(value, percentile): the highest percentile with >= 10 samples beyond
    it; below 20 samples no such percentile above the median exists, so the
    median is reported."""
    n = len(values)
    q = max(50, int(np.floor(100.0 * (1.0 - TAIL_SAMPLES / n)))) if n else 50
    return float(np.percentile(values, q)), q


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        git_env = {**os.environ, "GIT_DIR": str(ROOT / ".git"), "GIT_WORK_TREE": str(ROOT)}
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], env=git_env, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain"], env=git_env, capture_output=True,
                                        text=True, timeout=30, check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "platform": platform.platform(), "git_commit": commit,
        "git_dirty": dirty, "seed": seed,
    }


def measure_setup(env, work: Path, reps: int) -> list:
    """Wall times of fresh processes that import risharvest.cli and exit."""
    cmd = [sys.executable, "-c", "import risharvest.cli"]
    walls = []
    for _ in range(reps):
        res = run_child(cmd, str(ROOT), env, work)
        if res["code"] != 0:
            raise RuntimeError("importing risharvest.cli failed:\n" + res["stderr"].decode("utf-8", "replace"))
        walls.append(res["wall_s"])
    return walls


def loop(ops, env, work: Path, seconds: float, traced: bool):
    """Closed loop over the op cycle until `seconds` have passed."""
    results, pairs = [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        if not traced:
            results.append(run_op(op, env, work))
        else:
            spans = work / "spans.npz"
            pair = {}
            for mode in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
                res = run_op(op, env, work, spans if mode == "traced" else None)
                res["traced"] = mode == "traced"
                if mode == "traced" and spans.exists():
                    res["summary"] = tracer.summarize(spans)
                    spans.unlink()
                pair[mode] = res
                results.append(res)
            pairs.append(pair)
        i += 1
    return results, pairs, time.perf_counter() - start


def cycle_rates(results):
    """(items, wall, cpu) of one pass over the distinct inputs the run saw.

    Each input counts once, with its mean wall and CPU time over its runs,
    so a run that stops part-way through a cycle does not over-weight the
    inputs it happened to reach.
    """
    by_key = {}
    for r in results:
        by_key.setdefault(r["key"], []).append(r)
    items = sum(runs[0]["items"] for runs in by_key.values())
    wall = sum(np.mean([r["wall_s"] for r in runs]) for runs in by_key.values())
    cpu = sum(np.mean([r["cpu_s"] for r in runs]) for runs in by_key.values())
    return items, float(wall), float(cpu)


def end_to_end(results, setup_walls, loop_s) -> dict:
    walls = [r["wall_s"] for r in results]
    tail_value, q = tail(walls)
    items, cycle_wall, cycle_cpu = cycle_rates(results)
    return {
        "setup_s": float(np.median(setup_walls)),
        "op_p50_s": float(np.median(walls)),
        "op_tail_s": tail_value,
        "items_per_s": items / cycle_wall,
        "cpu_per_item_s": cycle_cpu / items,
        "peak_rss_mb": max(r["rss_kb"] for r in results) / 1024.0,
    }, {"tail_percentile": q, "samples": len(walls), "cycle_items": items, "cycle_wall_s": cycle_wall,
        "items": sum(r["items"] for r in results), "loop_s": loop_s}


def per_layer(pairs) -> dict:
    summaries = [p["traced"]["summary"] for p in pairs if "summary" in p["traced"]]
    ops = max(len(summaries), 1)

    def mean(fn):
        return sum(fn(s) for s in summaries) / ops

    def total(fn):
        return sum(fn(s) for s in summaries)

    def ratio(num, den):
        d = total(den)
        return total(num) / d if d else 0.0

    def count(label):
        return lambda s: s["count"].get(label, 0)

    def n(label):
        return lambda s: s["n"].get(label, 0)

    def m(label):
        return lambda s: s["m"].get(label, 0)

    def center_points(s):
        return sum(s["n"].get(label, 0) for label in tracer.CENTER_LABELS)

    def geometry_bytes(s):
        # float64 outputs: r1 and r2, one angle each, r1pl and r2pl, d_p and d_l
        g = s["n"]
        values = (2 * g.get("geometry.center_distances", 0) + g.get("geometry.incidence_angle", 0)
                  + g.get("geometry.departure_angle", 0) + 2 * g.get("geometry.element_distances", 0)
                  + 2 * g.get("geometry.element_offsets", 0))
        return 8 * values

    metrics = {f"{layer}.self_s": mean(lambda s, layer=layer: s["self_s"][layer]) for layer in tracer.LAYERS}
    metrics.update({
        "cli.csv_write_s": mean(lambda s: s["self_s"]["csv"]),
        "scenario.calls": mean(lambda s: s["calls"]["scenario"]),
        "geometry.center_points": mean(center_points),
        "geometry.element_points": mean(n("geometry.element_distances")),
        "geometry.bytes_computed": mean(geometry_bytes),
        "geometry.center_calls_per_point": ratio(center_points, n("optimizer.placement_objective")),
        "link.snr_explicit_calls": mean(count("link.snr_explicit")),
        "link.elements_summed": mean(lambda s: s["n"].get("link.snr_explicit", 0)
                                     + s["n"].get("link.harvested_power", 0)),
        "optimizer.solves": mean(count("optimizer.solve_placement")),
        "optimizer.objective_calls": mean(count("optimizer.placement_objective")),
        "optimizer.objective_points_per_solve": ratio(n("optimizer.placement_objective"),
                                                      count("optimizer.solve_placement")),
        "optimizer.coarse_feasible_ratio": ratio(m("optimizer.solve_placement"), n("optimizer.solve_placement")),
        "oracle.profiles_scored": mean(lambda s: s["profiles_scored"]),
        "oracle.profile_useful_ratio": ratio(m("oracle.exhaustive_phase_search"), lambda s: s["profiles_scored"]),
        "oracle.column_feasible_ratio": ratio(lambda s: s["columns_feasible"], lambda s: s["columns"]),
    })
    for label in tracer.PER_CALL:
        durations = np.concatenate([s["durations"][label] for s in summaries] or [np.zeros(0)])
        metrics[f"{label}.p50_s"] = float(np.median(durations)) if durations.size else 0.0
    overhead = [p["traced"]["wall_s"] / p["plain"]["wall_s"] for p in pairs]
    metrics["trace_overhead_ratio"] = float(np.median(overhead))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="risharvest CLI benchmark")
    parser.add_argument("--workload", choices=sorted(gen.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(BENCH / "results"), help="directory for results files")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "risharvest" / "cli.py").is_file():
        print(f"error: no program to benchmark at {ROOT / 'src' / 'risharvest'}", file=sys.stderr)
        return 2
    work = BENCH / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = child_env()
        ops, dims = gen.generate(args.workload, args.seed, str(work / "inputs"))
        # the first import compiles bytecode and warms the file cache
        setup_walls = measure_setup(env, work, 1 + (0 if args.trace else SETUP_REPS))[1:]
        results, pairs, loop_s = loop(ops, env, work, args.seconds, bool(args.trace))
        check_all(ops, results)
        for pair in pairs:
            same = _fingerprint(pair["traced"]) == _fingerprint(pair["plain"])
            pair["traced"]["problems"] = [] if same else ["traced output differs from untraced output"]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(bool(r["problems"]) for r in results)
    if args.trace:
        values = per_layer(pairs)
        table, extra = PER_LAYER, {"pairs": len(pairs)}
    else:
        values, extra = end_to_end(results, setup_walls, loop_s)
        table = END_TO_END
        extra["setup_samples_s"] = setup_walls
    # fail_ratio goes to the results file and stdout, not the JSON line: it is
    # 0 on a correct program, and the line carries attempted and failed
    extra["fail_ratio"] = failed / len(results)
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()}

    record = {
        "benchmark": "risharvest-cli", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": environment(args.seed),
        "dims": dims, "metrics": metrics, "better": {name: b for name, (_, b) in table.items()},
        "extra": extra, "attempted": len(results), "failed": failed,
        "ops": [{k: r[k] for k in ("key", "kind", "items", "wall_s", "cpu_s", "rss_kb", "code")}
                | {"traced": r.get("traced", False), "problems": r["problems"]} for r in results],
    }
    results_dir = Path(args.results)
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = results_dir / f"{args.workload}-t{args.trace}-s{args.seed}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for r in results:
        for problem in r["problems"][:5]:
            print(f"FAIL op {r['key']} ({r['kind']}{', traced' if r.get('traced') else ''}): {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    if not args.trace:
        print(f"fail_ratio = {extra['fail_ratio']!r} ratio")
        print(f"op_tail_s is p{extra['tail_percentile']} of {extra['samples']} ops")
    print(f"results = {path}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
