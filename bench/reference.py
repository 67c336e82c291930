"""Independent reference model and output checker for the benchmark.

Uses numpy only and never imports risharvest: every quantity is re-derived
from the flat config values with the paper's closed forms. Center geometry
uses cos(theta_i) = y_s / r1 and cos(theta_r) = y_s / r2 directly instead of
the program's arctan route, and optima come from a dense grid plus a local
fine grid instead of golden-section search, so agreement is a real check.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0

# dense-grid optimum: coarse step, then a fine grid across +-one step
DENSE_STEP_M = 0.02
FINE_POINTS = 2001

# agreement tolerances between the program's output and this reference
SNR_OPT_TOL_DB = 1e-4       # program optimum vs dense-grid optimum
SNR_SELF_TOL_DB = 1e-6      # program SNR vs reference SNR at the program's r1h
REL_TOL = 1e-9              # reported harvest vs consumption
PHASE_RATIO_TOL = 1e-6

# the program's amplitude clamp and validate thresholds (documented CLI contract)
EPS_A = 1e-9
VALIDATE_R1H_TOL_M = 0.5
VALIDATE_SNR_TOL_DB = 0.1
PHASE_LEVELS = 16


def db(x: float) -> float:
    return 10.0 * math.log10(x)


class Link:
    """Closed-form link model of one scenario, built from flat config values."""

    def __init__(self, cfg: dict):
        self.cfg = dict(cfg)
        c = self.cfg
        lam = SPEED_OF_LIGHT_M_S / c["carrier_frequency_hz"]
        g_t = c["tx_efficiency"] * (math.pi * c["tx_diameter_m"] / lam) ** 2
        g_r = c["rx_efficiency"] * (math.pi * c["rx_diameter_m"] / lam) ** 2
        noise_dbm = -174.0 + 10.0 * math.log10(c["bandwidth_hz"]) + c["noise_figure_db"]
        self.noise_w = 10.0 ** ((noise_dbm - 30.0) / 10.0)
        self.lam = lam
        self.m_s = int(c["ris_rows"]) * int(c["ris_cols"])
        if "p_chip_w" in c:
            chip = c["p_chip_w"]
        else:
            chip = c.get("p_static_w", 0.0) + c.get("reconfig_fraction", 0.0) * c.get("p_dynamic_w", 0.0)
        self.p_ris = self.m_s * chip + c.get("n_rectifiers", 1) * c.get("p_rectifier_w", 0.0)
        k = (lam / (4.0 * math.pi)) ** 2
        # incident power on one element is inc_scale * cos_i / r1^2
        self.inc_scale = k * c["transmit_power_w"] * g_t * 4.0
        # co-phased SNR is snr_scale * cos_i * cos_r / (r1^2 r2^2) * A^2
        self.snr_scale = 16.0 * c["transmit_power_w"] * g_t * g_r * k * k * self.m_s ** 2 / self.noise_w

    def with_(self, **changes) -> "Link":
        return Link({**self.cfg, **changes})

    def center(self, r):
        """r1, r2, cos(theta_i), cos(theta_r) for placements r (array)."""
        c = self.cfg
        r = np.asarray(r, dtype=float)
        ys = c["lateral_offset_m"]
        r1 = np.sqrt(r * r + ys * ys + (c["ris_height_m"] - c["tx_height_m"]) ** 2)
        r2 = np.sqrt((c["txrx_horizontal_m"] - r) ** 2 + ys * ys + (c["ris_height_m"] - c["rx_height_m"]) ** 2)
        return r1, r2, ys / r1, ys / r2

    def ceiling(self, r):
        """Harvested power at full absorption (A = 0)."""
        r1, _, cos_i, _ = self.center(r)
        return self.cfg["conversion_efficiency"] * self.m_s * self.inc_scale * cos_i / (r1 * r1)

    def radicand(self, r):
        """1 - P_ris / ceiling: the squared optimal amplitude."""
        return 1.0 - self.p_ris / self.ceiling(r)

    def objective(self, r):
        """Reduced placement objective G(r1h)."""
        r1, r2, cos_i, cos_r = self.center(r)
        return cos_i * cos_r / (r1 * r1 * r2 * r2 * self.noise_w) * self.radicand(r)

    def snr(self, r, a2):
        """Co-phased SNR at placement r with squared uniform amplitude a2."""
        r1, r2, cos_i, cos_r = self.center(r)
        return self.snr_scale * cos_i * cos_r / (r1 * r1 * r2 * r2) * a2

    def feasible(self):
        # the ceiling falls monotonically in r >= 0, so r = 0 decides
        return bool(self.radicand(0.0) > 0.0)

    def optimum(self):
        """Dense-grid optimum: (r1h, snr_linear), or None when infeasible."""
        if not self.feasible():
            return None
        span = self.cfg["txrx_horizontal_m"]
        grid = np.append(DENSE_STEP_M * np.arange(int(span / DENSE_STEP_M) + 1), span)
        best = _argmax_feasible(self, grid)
        fine = np.linspace(max(best - DENSE_STEP_M, 0.0), min(best + DENSE_STEP_M, span), FINE_POINTS)
        r = _argmax_feasible(self, fine)
        return r, float(self.snr(r, self.radicand(r)))


def _argmax_feasible(link: Link, grid):
    g = np.where(link.radicand(grid) > 0.0, link.objective(grid), -np.inf)
    return float(grid[int(np.argmax(g))])


def reported_amplitude(radicand: float) -> float:
    """The amplitude the program reports: sqrt(radicand), clamped inside (0, 1)."""
    a = math.sqrt(radicand)
    if a in (0.0, 1.0):
        return a
    return min(max(a, EPS_A), 1.0 - EPS_A)


# ------------------------------------------------------------------ validate

def lattice_optimum(link: Link, r_step: float, a_step: float):
    """Brute-force (r1h, A) lattice optimum with the harvest equality enforced
    numerically: (r1h, a, snr_linear) or None."""
    span = link.cfg["txrx_horizontal_m"]
    r = r_step * np.arange(int(round(span / r_step)) + 1)
    a = a_step * np.arange(int(round(1.0 / a_step)))
    ceiling = link.ceiling(r)
    keep = ceiling >= link.p_ris
    if not keep.any():
        return None
    r, ceiling = r[keep], ceiling[keep]
    k = np.argmin(np.abs(ceiling[:, None] * (1.0 - a[None, :] ** 2) - link.p_ris), axis=1)
    snr = link.snr(r, a[k] ** 2)
    best = int(np.argmax(snr))
    return float(r[best]), float(a[k[best]]), float(snr[best])


def phase_ratio(link: Link, r1h: float, levels: int) -> float:
    """Best quantized-phase SNR over the co-phased SNR on this surface.

    Uniform amplitude cancels, so the ratio is max |sum exp(-j(phi + psi))|^2
    / M^2 over every profile of `levels` phase levels.
    """
    c = link.cfg
    rows, cols = int(c["ris_rows"]), int(c["ris_cols"])
    d_p = (np.arange(1, rows + 1) - (rows + 1) / 2.0) * c["element_dx_m"]
    d_l = (np.arange(1, cols + 1) - (cols + 1) / 2.0) * c["element_dy_m"]
    d_p, d_l = (x.ravel() for x in np.meshgrid(d_p, d_l, indexing="ij"))
    ys = c["lateral_offset_m"]
    dz_t = c["ris_height_m"] - c["tx_height_m"]
    dz_r = c["ris_height_m"] - c["rx_height_m"]
    r1 = np.sqrt((r1h - d_p) ** 2 + ys * ys + (dz_t - d_l) ** 2)
    r2 = np.sqrt((c["txrx_horizontal_m"] - r1h + d_p) ** 2 + ys * ys + (dz_r - d_l) ** 2)
    psi = 2.0 * math.pi * (r1 + r2) / link.lam
    m = psi.size
    combos = np.stack(np.meshgrid(*([np.arange(levels)] * m), indexing="ij"), -1).reshape(-1, m)
    total = np.exp(-1j * (2.0 * math.pi * combos / levels + psi)).sum(axis=1)
    return float(np.max(total.real ** 2 + total.imag ** 2) / (m * m))


def validate_reference(link: Link, r_step: float, a_step: float) -> dict:
    """Everything `validate` reports, recomputed, plus the expected verdict and
    how close each check is to its threshold."""
    analytic = link.optimum()
    lattice = lattice_optimum(link, r_step, a_step)
    ref = {"analytic": analytic, "lattice": lattice, "ratio": None}
    verdict = (analytic is None) == (lattice is None)
    margin = 1.0
    if verdict and analytic is not None:
        d_r = abs(analytic[0] - lattice[0])
        d_snr = abs(db(analytic[1]) - db(lattice[2]))
        verdict = d_r <= VALIDATE_R1H_TOL_M and d_snr <= VALIDATE_SNR_TOL_DB
        margin = min(1.0 - d_r / VALIDATE_R1H_TOL_M, 1.0 - d_snr / VALIDATE_SNR_TOL_DB)
    small = link.with_(ris_rows=2, ris_cols=2)
    small_opt = small.optimum()
    if small_opt is not None:
        ratio = phase_ratio(small, small_opt[0], PHASE_LEVELS)
        floor = math.cos(math.pi / PHASE_LEVELS) ** 2
        verdict = verdict and floor <= ratio <= 1.0 + 1e-9
        margin = min(margin, (ratio - floor) / (1.0 - floor))
        ref["ratio"] = ratio
    ref["pass"] = bool(verdict)
    ref["margin"] = margin
    return ref


# ------------------------------------------------------------------ parsing

def parse_kv(text: str) -> dict:
    pairs = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            pairs[key] = value.split(" (")[0]
    return pairs


def _close_db(a_db: float, b_db: float, tol_db: float) -> bool:
    return abs(a_db - b_db) <= tol_db


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def check_optimum(link: Link, feasible: bool, r1h, a, snr_db, p_harv) -> list:
    """Problems with one reported optimum (one sweep row)."""
    problems = []
    expected = link.optimum()
    if feasible != (expected is not None):
        return [f"feasible={feasible}, reference says {expected is not None}"]
    if expected is None:
        if any(v is not None for v in (r1h, a, snr_db, p_harv)):
            problems.append("infeasible result carries optimum values")
        return problems
    radicand = float(link.radicand(r1h))
    if not radicand > 0.0:
        return [f"r1h_opt_m={r1h!r} is not feasible per reference"]
    a_ref = reported_amplitude(radicand)
    if not _rel_close(a, a_ref, 1e-7):
        problems.append(f"a_opt={a!r}, reference {a_ref!r} at the same r1h")
    snr_here = db(float(link.snr(r1h, a * a)))
    if not _close_db(snr_db, snr_here, SNR_SELF_TOL_DB):
        problems.append(f"snr_opt_db={snr_db!r}, reference {snr_here!r} at the same r1h")
    if not _close_db(snr_db, db(expected[1]), SNR_OPT_TOL_DB):
        problems.append(f"snr_opt_db={snr_db!r}, dense-grid optimum {db(expected[1])!r}")
    harv_ref = float(link.ceiling(r1h)) * (1.0 - a * a)
    if not _rel_close(p_harv, link.p_ris, REL_TOL) or not _rel_close(harv_ref, link.p_ris, 1e-6):
        problems.append(f"harvest residual: p_harv_w={p_harv!r}, reference {harv_ref!r}, p_ris_w={link.p_ris!r}")
    return problems


def _opt(value: str):
    return None if value == "" else float(value)


def sweep_exit_code(link: Link, pc_list, ys_list) -> int:
    feasible = any(link.with_(lateral_offset_m=ys, p_chip_w=pc).feasible() for ys in ys_list for pc in pc_list)
    return 0 if feasible else 2


def check_sweep(link: Link, pc_list, ys_list, stdout: str, csv_text: str) -> list:
    """Problems with one `sweep` run: row order, every row, the summary."""
    lines = csv_text.splitlines()
    header = "p_c_w,y_s_m,feasible,r1h_opt_m,a_opt,snr_opt_db,p_harv_w,p_ris_w"
    if not lines or lines[0] != header:
        return ["CSV header missing or wrong"]
    keys = [(ys, pc) for ys in sorted(ys_list) for pc in sorted(pc_list)]
    if len(lines) - 1 != len(keys):
        return [f"{len(lines) - 1} rows, expected {len(keys)}"]
    problems = []
    n_feasible = 0
    for line, (ys, pc) in zip(lines[1:], keys):
        cells = line.split(",")
        if len(cells) != 8 or float(cells[0]) != pc or float(cells[1]) != ys:
            problems.append(f"row {line!r} out of order, expected p_c_w={pc!r} y_s_m={ys!r}")
            continue
        row_link = link.with_(lateral_offset_m=ys, p_chip_w=pc)
        feasible = cells[2] == "true"
        n_feasible += feasible
        p_ris = float(cells[7])
        if not _rel_close(p_ris, row_link.p_ris, 1e-12):
            problems.append(f"p_ris_w={p_ris!r}, reference {row_link.p_ris!r}")
        for problem in check_optimum(row_link, feasible, *(_opt(c) for c in cells[3:7])):
            problems.append(f"row p_c_w={pc!r} y_s_m={ys!r}: {problem}")
    kv = parse_kv(stdout)
    if kv.get("rows") != str(len(keys)) or kv.get("feasible_rows") != str(n_feasible):
        problems.append("summary lines disagree with the CSV")
    return problems


def check_validate(link: Link, a_step: float, ref: dict, stdout: str) -> list:
    kv = parse_kv(stdout)
    if kv.get("verdict") != ("pass" if ref["pass"] else "fail"):
        return [f"verdict {kv.get('verdict')!r}, reference pass={ref['pass']}"]
    problems = []
    analytic, lattice = ref["analytic"], ref["lattice"]
    if kv.get("analytic_feasible") != ("true" if analytic else "false"):
        problems.append("analytic feasibility disagrees with reference")
    if kv.get("oracle_feasible") != ("true" if lattice else "false"):
        problems.append("oracle feasibility disagrees with reference")
    if analytic and lattice and not problems:
        snr_db = float(kv["analytic_snr_opt_db"])
        if not _close_db(snr_db, db(analytic[1]), SNR_OPT_TOL_DB):
            problems.append(f"analytic_snr_opt_db={snr_db!r}, dense-grid optimum {db(analytic[1])!r}")
        r1h = float(kv["analytic_r1h_opt_m"])
        here = db(float(link.snr(r1h, reported_amplitude(float(link.radicand(r1h))) ** 2)))
        if not _close_db(snr_db, here, SNR_SELF_TOL_DB):
            problems.append(f"analytic_snr_opt_db={snr_db!r}, reference {here!r} at the same r1h")
        # the amplitude lattice can move the oracle's pick by up to its own slack
        slack_db = db(1.0 + 4.0 * a_step / max(lattice[1], a_step))
        if not _close_db(float(kv["oracle_snr_db"]), db(lattice[2]), slack_db):
            problems.append(f"oracle_snr_db={kv['oracle_snr_db']}, reference lattice {db(lattice[2])!r}")
    if ref["ratio"] is not None:
        ratio = float(kv["phase_check_ratio"])
        if abs(ratio - ref["ratio"]) > PHASE_RATIO_TOL:
            problems.append(f"phase_check_ratio={ratio!r}, reference {ref['ratio']!r}")
    elif kv.get("phase_check_ratio") != "none":
        problems.append("phase check ran on a 2x2 shrink the reference finds infeasible")
    return problems
