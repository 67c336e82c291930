"""Traced run of the risharvest CLI, and the summary of its spans.

    python bench/tracer.py SPANS_FILE OP_ID ARGS...

behaves like `python -m risharvest.cli ARGS`, except that every function
named in a layer module's __all__, plus cli.main, cli.sweep_rows,
cli.parse_sites_text and the CSV emission in cli, is replaced on its module
object (and wherever it was imported by value) with a wrapper that records a
span: name, start, end and parent. Spans stay in memory and are written to
SPANS_FILE (.npz, tagged with OP_ID) when the command ends. Nothing is
printed, so traced output can be compared byte for byte with untraced output.
Classes and constants in __all__ are left alone: wrapping a class would break
isinstance checks and `except ConfigError`.

summarize() turns one spans file into per-layer numbers; self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("scenario", "geometry", "link", "optimizer", "oracle", "cli")
CLI_EXTRA = ("main", "sweep_rows", "parse_sites_text")
CSV_LABELS = ("cli.csv.writerow", "cli.SweepRow.csv_cells")
CENTER_LABELS = ("geometry.center_distances", "geometry.incidence_angle", "geometry.departure_angle")
# functions whose per-call duration distribution is reported
PER_CALL = (
    "optimizer.solve_placement", "optimizer.placement_objective", "link.snr_explicit",
    "oracle.brute_force_solve", "oracle.exhaustive_phase_search",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _r1h_size(args, kwargs, result):
    return np.size(_arg(args, kwargs, 0, "r1h_m")), 0


def _coarse(args, kwargs, result):
    curve = result.objective_curve
    return len(curve), int(np.count_nonzero(curve[:, 1] > 0.0))


def _profiles(args, kwargs, result):
    m_s = _arg(args, kwargs, 0, "scenario").m_s
    levels = _arg(args, kwargs, 2, "phase_levels")
    return levels ** m_s, levels ** (m_s - 1)


# (n, m) recorded per span, computed after the span's end time is taken
COUNTS = {
    "geometry.center_distances": _r1h_size,
    "geometry.incidence_angle": _r1h_size,
    "geometry.departure_angle": _r1h_size,
    "geometry.element_distances": lambda a, k, r: (_arg(a, k, 1, "grid").d_p.size, 0),
    "geometry.element_offsets": lambda a, k, r: (r.d_p.size, 0),
    "link.snr_explicit": lambda a, k, r: (_arg(a, k, 1, "reflection").amplitudes.size, 0),
    "link.harvested_power": lambda a, k, r: (np.size(_arg(a, k, 1, "amplitudes")), 0),
    "optimizer.placement_objective": _r1h_size,
    "optimizer.solve_placement": _coarse,
    "oracle.exhaustive_phase_search": _profiles,
}


class Recorder:
    """In-memory span store: one row per call, appended at call entry."""

    def __init__(self):
        self.labels = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.n = array("q")
        self.m = array("q")
        self._stack = [-1]

    def wrap(self, label, fn):
        label_id = len(self.labels)
        self.labels.append(label)
        count = COUNTS.get(label)
        name, parent, start, end, n, m = self.name, self.parent, self.start, self.end, self.n, self.m
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(label_id)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            n.append(0)
            m.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                n[idx], m[idx] = count(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def save(self, path, op_id):
        def col(values, dtype):
            return np.frombuffer(values, dtype=dtype) if len(values) else np.zeros(0, dtype)

        np.savez(
            path, op=np.int64(op_id), labels=np.array(self.labels, dtype=str),
            name=col(self.name, np.int32), parent=col(self.parent, np.int32),
            start=col(self.start, np.int64), end=col(self.end, np.int64),
            n=col(self.n, np.int64), m=col(self.m, np.int64),
        )


class _TracedCsv:
    """Stand-in for the csv module inside cli: writer rows become spans."""

    def __init__(self, recorder):
        self._writerow = recorder.wrap("cli.csv.writerow", lambda writer, row: writer.writerow(row))

    def writer(self, fh, **kwargs):
        return _Writer(csv.writer(fh, **kwargs), self._writerow)


class _Writer:
    def __init__(self, writer, writerow):
        self._writer = writer
        self._traced = writerow

    def writerow(self, row):
        return self._traced(self._writer, row)


def install(recorder: Recorder):
    """Replace the public functions of every layer with traced wrappers."""
    package = importlib.import_module("risharvest")
    modules = {layer: importlib.import_module(f"risharvest.{layer}") for layer in LAYERS}
    originals = {}
    for layer, module in modules.items():
        names = tuple(getattr(module, "__all__", ())) + (CLI_EXTRA if layer == "cli" else ())
        for fname in names:
            fn = getattr(module, fname)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                originals[id(fn)] = (fn, recorder.wrap(f"{layer}.{fname}", fn))
    # rebind on the defining module and wherever it was imported by value
    for module in (package, *modules.values()):
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    cli = modules["cli"]
    cli.SweepRow.csv_cells = recorder.wrap("cli.SweepRow.csv_cells", cli.SweepRow.csv_cells)
    cli.csv = _TracedCsv(recorder)
    return cli


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spans_path, op_id, cli_args = argv[0], int(argv[1]), argv[2:]
    recorder = Recorder()
    cli = install(recorder)
    try:
        return cli.main(cli_args)
    finally:
        recorder.save(spans_path, op_id)


# ------------------------------------------------------------------ summary

def _group(label: str) -> str:
    return "csv" if label in CSV_LABELS else label.split(".", 1)[0]


def summarize(path) -> dict:
    """Per-layer numbers of one traced op."""
    with np.load(path) as data:
        labels = [str(x) for x in data["labels"]]
        name, parent = data["name"], data["parent"]
        dur = (data["end"] - data["start"]) / 1e9
        n, m = data["n"], data["m"]
    has_parent = parent >= 0
    covered = np.zeros(dur.size)
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_s = dur - covered
    parent_name = np.full(name.size, -1)
    parent_name[has_parent] = name[parent[has_parent]]
    index = {label: k for k, label in enumerate(labels)}
    group_of = np.array([_group(label) for label in labels] or [""])

    def is_(label):
        return name == index.get(label, -2)

    def under(label, parent_label):
        return int(np.count_nonzero(is_(label) & (parent_name == index.get(parent_label, -2))))

    groups = group_of[name] if name.size else np.zeros(0, dtype=str)
    return {
        "self_s": {g: float(self_s[groups == g].sum()) for g in LAYERS + ("csv",)},
        "calls": {g: int(np.count_nonzero(groups == g)) for g in LAYERS},
        "count": {label: int(np.count_nonzero(is_(label))) for label in labels},
        "n": {label: int(n[is_(label)].sum()) for label in labels},
        "m": {label: int(m[is_(label)].sum()) for label in labels},
        "profiles_scored": under("link.snr_explicit", "oracle.exhaustive_phase_search"),
        "columns": under("link.harvested_power", "oracle.brute_force_solve"),
        "columns_feasible": under("link.snr_cophased", "oracle.brute_force_solve"),
        "durations": {label: dur[is_(label)] for label in PER_CALL},
    }


if __name__ == "__main__":
    sys.exit(main())
