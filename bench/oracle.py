"""Independent reference model and the per-op correctness checks.

Everything here is written from the model's definitions (array gain
sin(N*pi*x/2) / (sqrt(N)*sin(pi*x/2)), the symmetric subcarrier grid, and
the averaged Shannon rate), not from the package, so a wrong package
result cannot pass by agreeing with itself.  Tolerances are physical
(relative capacity, solver angular resolution), never byte comparisons,
so an edge moving at the 1e-10 level does not count as a failure.

Each check returns ``None`` when the output is correct and a one-line
reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

R_3DB = math.sqrt(2.0) / 2.0
# Relative capacity tolerance for a solved coverage edge.
EDGE_REL_TOL = 1e-9
# Angular resolution of the package's bisections; an edge is also accepted
# when c_t lies within the capacity change over this distance (the flat
# 1e-9 alone rejects correct N > 90 designs: measured 1.4e-9 at N=128).
SOLVER_ANGLE_TOL = 1e-10
# Largest chunk of (points x subcarriers) the oracle materialises.
_CHUNK_ELEMS = 1 << 16


def gain_mag(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    den = np.sin(0.5 * math.pi * x)
    small = np.abs(den) < 1e-9
    num = np.sin(0.5 * n * math.pi * x)
    g = num / (math.sqrt(n) * np.where(small, 1.0, den))
    return np.abs(np.where(small, math.sqrt(n), g))


def ratios(b: float, n_f: int) -> np.ndarray:
    k = np.arange(n_f)
    return 1.0 + (2 * k - n_f + 1) * b / (2 * n_f)


def capacity(psi_f, psi, n: int, b: float, n_f: int, snr: float,
             bandwidth: float = 1.0) -> np.ndarray:
    """Squinted capacity; ``psi_f`` and ``psi`` broadcast against each other."""
    psi_f, psi = np.broadcast_arrays(np.atleast_1d(np.asarray(psi_f, float)),
                                     np.atleast_1d(np.asarray(psi, float)))
    xi = ratios(b, n_f)
    out = np.empty(psi.shape)
    step = max(1, _CHUNK_ELEMS // n_f)
    for i in range(0, psi.size, step):
        x = xi[None, :] * psi[i:i + step, None] - psi_f[i:i + step, None]
        out[i:i + step] = np.mean(np.log2(1.0 + snr * gain_mag(x, n) ** 2), axis=1)
    return bandwidth * out


def capacity_nbs(psi_f, psi, n: int, snr: float, bandwidth: float = 1.0):
    g = gain_mag(np.asarray(psi, float) - psi_f, n)
    return bandwidth * np.log2(1.0 + snr * g * g)


def threshold(r: float, n: int, snr: float, bandwidth: float = 1.0) -> float:
    return bandwidth * math.log2(1.0 + r * r * n * snr)


def halfwidth(r: float, n: int) -> float:
    """Main-lobe half-width where the gain equals r*sqrt(N)."""
    lo, hi = 0.0, 2.0 / n
    target = r * math.sqrt(n)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gain_mag(mid, n) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def improvement(psi_f: np.ndarray, r: float, n: int, b: float, n_f: int,
                snr: float) -> np.ndarray:
    w = halfwidth(r, n)
    pf = np.asarray(psi_f, float)
    lo = np.maximum(pf - w, -1.0)
    hi = np.minimum(pf + w, 1.0)
    c_min = np.minimum(capacity(pf, lo, n, b, n_f, snr),
                       capacity(pf, hi, n, b, n_f, snr))
    return (threshold(r, n, snr) - c_min) / c_min


# --- output parsing ---------------------------------------------------------

def csv_table(text: str) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, np.array(body, dtype=float).reshape(len(body), len(header))


def table(text: str, fmt: str) -> np.ndarray:
    """Rows of a sweep-style output."""
    if fmt == "json":
        doc = json.loads(text)
        return np.array(doc["rows"], dtype=float).reshape(len(doc["rows"]), len(doc["columns"]))
    return csv_table(text)[1]


def _close(a, b, rel: float, abs_: float = 0.0) -> bool:
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return bool(np.all(np.abs(a - b) <= abs_ + rel * np.abs(b)))


# --- per-op checks ----------------------------------------------------------

def check_codebook(foci, lefts, rights, widths, psi_m: float, n: int, b: float,
                   n_f: int, snr: float, bandwidth: float, c_t: float) -> str | None:
    """Abutment, mirror symmetry, coverage of [-psi_m, psi_m] and every
    solved edge meeting ``c_t``."""
    f, lft, rgt, wid = (np.asarray(v, float) for v in (foci, lefts, rights, widths))
    if f.size == 0:
        return "empty codebook"
    if not (np.all(lft <= f) and np.all(f <= rgt)):
        return "a focus lies outside its own coverage"
    if not np.all(np.abs(wid - (rgt - lft)) <= 1e-12):
        return "width differs from right - left"
    if not np.all(np.abs(rgt[:-1] - lft[1:]) <= 1e-12):
        return "adjacent beams do not abut"
    if not (np.allclose(f, -f[::-1], rtol=0, atol=1e-12)
            and np.allclose(lft, -rgt[::-1], rtol=0, atol=1e-12)):
        return "codebook is not mirror-symmetric about broadside"
    if lft[0] > -psi_m or rgt[-1] < psi_m:
        return f"coverage [{lft[0]}, {rgt[-1]}] misses [-{psi_m}, {psi_m}]"
    # Every edge is solved except an even codebook's shared 0.0 edge, where
    # the focus was solved instead; checking C(focus, 0) = c_t covers both.
    edges = np.concatenate([lft, rgt])
    foc = np.concatenate([f, f])
    err = np.abs(capacity(foc, edges, n, b, n_f, snr, bandwidth) - c_t)
    near = np.flatnonzero(err > EDGE_REL_TOL * c_t)
    h = SOLVER_ANGLE_TOL
    slope = np.abs(capacity(foc[near], edges[near] + h, n, b, n_f, snr, bandwidth)
                   - capacity(foc[near], edges[near] - h, n, b, n_f, snr, bandwidth)) / 2.0
    bad = near[err[near] > EDGE_REL_TOL * c_t + slope]
    if bad.size:
        i = int(bad[0])
        return (f"edge {edges[i]!r} of focus {foc[i]!r} misses c_t by "
                f"{err[i] / c_t:.3e} relative")
    return None


def check_design(req, out: str) -> str | None:
    if req.expect_infeasible:
        return None if out == "" else "infeasible design printed output"
    if req.fmt == "json":
        doc = json.loads(out)
        beams = doc["beams"]
        f = [bm["focus"] for bm in beams]
        for key, want in (("n", req.n), ("n_f", req.n_f), ("psi_m", req.psi_m)):
            if doc[key] != want:
                return f"header {key}={doc[key]!r}, expected {want!r}"
        if abs(doc["b"] - req.b) > 1e-15 or abs(doc["snr"] - req.snr) > 1e-12 * req.snr:
            return "header band fields differ from the request"
        for bm in beams:
            want = math.pi * bm["focus"] * np.arange(req.n)
            if not _close(bm["phases"], want, 1e-12, 1e-12):
                return f"phases of focus {bm['focus']!r} do not steer to it"
        lft, rgt, wid = ([bm[k] for bm in beams] for k in ("left", "right", "width"))
    else:
        labels, rows = csv_table(out)
        if labels != ["focus[-]", "left[-]", "right[-]", "width[-]"]:
            return f"unexpected CSV header {labels}"
        f, lft, rgt, wid = rows.T
    return check_codebook(f, lft, rgt, wid, req.psi_m, req.n, req.b, req.n_f,
                          req.snr, req.bandwidth, req.c_t)


def check_gain(req, out: str) -> str | None:
    rows = table(out, req.fmt)
    if rows.shape != (req.steps, 2):
        return f"gain table shape {rows.shape}, expected ({req.steps}, 2)"
    xs = np.linspace(req.x_min, req.x_max, req.steps)
    if not _close(rows[:, 0], xs, 0.0, 1e-12):
        return "gain x grid differs from linspace"
    if not _close(rows[:, 1], gain_mag(xs, req.n), 1e-9, 1e-9):
        return "gain magnitudes differ from the reference"
    return None


def check_capacity_vs_bandwidth(req, out: str) -> str | None:
    rows = table(out, req.fmt)
    if rows.shape != (req.steps, 1 + 2 * len(req.n_list)):
        return f"table shape {rows.shape} is wrong"
    bws = np.logspace(math.log10(req.bw_min), math.log10(req.bw_max), req.steps)
    if not _close(rows[:, 0], bws, 1e-12):
        return "bandwidth grid differs from logspace"
    for j, n in enumerate(req.n_list):
        snr = req.p_over_sigma2 / bws
        bs = np.array([capacity(req.psi_f, req.psi, n, bw / req.carrier, req.n_f, s, bw)[0]
                       for bw, s in zip(bws, snr)])
        nbs = capacity_nbs(req.psi_f, req.psi, n, snr, bws)
        if not (_close(rows[:, 1 + 2 * j], bs, 1e-9) and _close(rows[:, 2 + 2 * j], nbs, 1e-9)):
            return f"capacities for N={n} differ from the reference"
    return None


def check_improvement_vs_focus(req, out: str) -> str | None:
    rows = table(out, req.fmt)
    grid = np.arange(0.0, 1.0 + req.psi_f_step / 2.0, req.psi_f_step)
    if rows.shape != (grid.size, 1 + len(req.n_list)):
        return f"table shape {rows.shape} is wrong"
    if not _close(rows[:, 0], grid, 0.0, 1e-12):
        return "focus grid is wrong"
    for j, n in enumerate(req.n_list):
        want = improvement(grid, R_3DB, n, req.b, req.n_f, req.snr)
        if not _close(rows[:, 1 + j], want, 1e-6, 1e-8):
            return f"improvement ratios for N={n} differ from the reference"
    return None


def check_improvement_max_vs_b(req, out: str) -> str | None:
    rows = table(out, req.fmt)
    if rows.shape != (len(req.b_list), 1 + len(req.n_list)):
        return f"table shape {rows.shape} is wrong"
    grid = np.arange(0.0, 1.0 + 0.005, 0.01)
    for i, b in enumerate(req.b_list):
        for j, n in enumerate(req.n_list):
            want = float(np.max(improvement(grid, R_3DB, n, b, req.n_f, req.snr)))
            if not _close(rows[i, 1 + j], want, 1e-6, 1e-8):
                return f"improvement max for N={n}, b={b} differs from the reference"
    return None


def check_verify(req, out: str) -> str | None:
    rows = table(out, req.fmt)
    want = np.array([[1, req.samples1, 0], [2, req.samples2, 0], [3, 0, 0]], float)
    if rows.shape != (3, 4) or not np.array_equal(rows[:, :3], want):
        return f"verify ledger {rows[:, :3].tolist()} reports violations or wrong counts"
    return None


def check_size_sweep(req, out: str) -> str | None:
    """Cells clear below the b_sup band hold a codebook size, cells clear
    above it hold the infeasible marker."""
    rows = table(out, req.fmt)
    if rows.shape != (len(req.n_list), 1 + len(req.b_list)):
        return f"table shape {rows.shape} is wrong"
    for i, n in enumerate(req.n_list):
        for j, b in enumerate(req.b_list):
            cell = rows[i, 1 + j]
            if b * n > req.infeasible_above:
                if cell != -1.0:
                    return f"N={n}, b={b} (b*N={b * n:.3f}) should be infeasible, got {cell}"
            elif not (cell >= 2 and cell == int(cell)):
                return f"N={n}, b={b} (b*N={b * n:.3f}) should be feasible, got {cell}"
    return None


def coverage_deficit(cb, n: int, b: float, n_f: int, snr: float, bandwidth: float,
                     grid_step: float) -> tuple[float, float]:
    """Worst (absolute, relative) shortfall below c_t over the check grid,
    each point served by the beam whose [left, right] holds it."""
    grid = np.arange(-cb.psi_m, cb.psi_m + grid_step / 2.0, grid_step)
    lefts = np.array([bm.left for bm in cb.beams])
    foci = np.array([bm.focus for bm in cb.beams])
    own = np.clip(np.searchsorted(lefts, grid, side="right") - 1, 0, len(foci) - 1)
    prev = np.clip(own - 1, 0, len(foci) - 1)
    best = np.maximum(capacity(foci[own], grid, n, b, n_f, snr, bandwidth),
                      capacity(foci[prev], grid, n, b, n_f, snr, bandwidth))
    worst = float(np.max(cb.c_t - best))
    return worst, worst / cb.c_t
