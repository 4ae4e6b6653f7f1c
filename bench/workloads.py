"""Seeded request cycles for the three workloads.

A workload is an endless sequence of cycles.  Every cycle has the same
composition (the same strata of array size, bandwidth, unit mode, format
and operation kind) with fresh values drawn from the seed inside each
stratum, in a seeded random order.  A run executes whole cycles, so it
sees the same mix on every seed, which keeps the run-to-run spread small.

Requests carry everything the checks need; the package only ever receives
the CLI argv or, for ``coverage``, the codebook built during set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import oracle

# Requests per cycle.  Runs are whole cycles, so with 2 to 4 cycles a run
# the p50 and the p75 tail each fall inside one request class.
CYCLE = {"design": 20, "feasibility": 20, "scan": 24}
CARRIERS_HZ = (28e9, 39e9, 60e9, 73e9)
# b*N products kept clear of the [2.94, 3.14] band where b_sup sits (down
# to 2.875 at N=128 and 3 dB), so the expected outcome is never in doubt.
FEASIBLE_BN = (0.25, 2.6)
INFEASIBLE_BN = (3.3, 4.5)
# n2/n1 of a codebook-size sweep; above 3.3/2.6 so one b fits both sides.
SWEEP_N_RATIO = (1.35, 1.6)

WHY = {
    "design": "headline path: minimum codebooks from scalar n_f=2048 capacity "
              "root solves; ~15% infeasible requests exit 3",
    "feasibility": "bsup and codebook-size sweeps where half the designs are "
                   "infeasible: probe and discarded-parity waste, and the sweep pool",
    "scan": "coverage checks, gain, verify and focus/bandwidth sweeps: vector "
            "capacity, many small n_f=256 calls and large outputs, no root solving",
}


@dataclass(frozen=True)
class Scale:
    """Sizes of one stream; ``FULL`` is the benchmark, ``TINY`` the self-test."""

    n_f: int
    design_n: tuple[int, int]
    bsup_n: tuple[tuple[int, int, float], ...]  # (lo, hi, tol_b) per bsup slot
    sweep_n: tuple[int, int]
    scan_books: tuple[int, ...]
    grid_step: float
    gain_steps: tuple[int, int]
    verify_samples: tuple[int, int]
    scan_n: tuple[int, int]


FULL = Scale(n_f=2048, design_n=(16, 128), bsup_n=((8, 10, 1e-6), (16, 20, 1e-4)),
             sweep_n=(8, 64), scan_books=(64, 32), grid_step=1e-4,
             gain_steps=(90_000, 100_000), verify_samples=(1000, 1500),
             scan_n=(16, 128))
TINY = Scale(n_f=256, design_n=(8, 16), bsup_n=((8, 8, 1e-2), (8, 10, 1e-3)),
             sweep_n=(8, 24), scan_books=(8, 10), grid_step=1e-3,
             gain_steps=(500, 1000), verify_samples=(20, 40), scan_n=(8, 16))


def strata(rng: np.random.Generator, lo: float, hi: float, m: int) -> np.ndarray:
    """One value per equal-width stratum of [lo, hi], in stratum order."""
    return lo + (np.arange(m) + rng.random(m)) * (hi - lo) / m


def balanced(rng: np.random.Generator, choices, m: int) -> list:
    """m values that use every choice equally often, in random order."""
    out = [choices[i % len(choices)] for i in range(m)]
    return [out[i] for i in rng.permutation(m)]


def _ints(rng, lo: int, hi: int, m: int) -> list[int]:
    return [min(hi, int(v)) for v in strata(rng, lo, hi + 1, m)]


def _band_argv(rng, b: float, hz: bool) -> tuple[list[str], float, float]:
    """Band flags in either unit mode; returns (argv, b as parsed, bandwidth)."""
    if not hz:
        return ["--frac-bandwidth", repr(b)], b, 1.0
    fc = float(rng.choice(CARRIERS_HZ))
    bw = b * fc
    return ["--bandwidth-hz", repr(bw), "--carrier-hz", repr(fc)], bw / fc, bw


def _snr(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def design_cycle(rng, sc: Scale) -> list[SimpleNamespace]:
    m_ok, m_bad = 17, 3
    ns = _ints(rng, *sc.design_n, m_ok) + _ints(rng, *sc.design_n, m_bad)
    bn = list(rng.permutation(strata(rng, *FEASIBLE_BN, m_ok)))
    bn += list(rng.uniform(*INFEASIBLE_BN, m_bad))
    m = m_ok + m_bad
    hz, fmt, snr_db = (balanced(rng, c, m) for c in
                       ((False, True), ("csv", "json"), (0.0, 3.0)))
    reqs = []
    for i in range(m):
        n = ns[i]
        band, b, bw = _band_argv(rng, float(bn[i]) / n, hz[i])
        snr = _snr(snr_db[i])
        argv = (["design", "--antennas", str(n)] + band +
                ["--snr-db", repr(snr_db[i]), "--subcarriers", str(sc.n_f),
                 "--format", fmt[i]])
        reqs.append(SimpleNamespace(
            kind="design", argv=argv, fmt=fmt[i], n=n, b=b, n_f=sc.n_f, snr=snr,
            psi_m=1.0, bandwidth=bw, c_t=oracle.threshold(oracle.R_3DB, n, snr, bw),
            expect_infeasible=i >= m_ok, expect_code=3 if i >= m_ok else 0))
    return reqs


def feasibility_cycle(rng, sc: Scale) -> list[SimpleNamespace]:
    reqs = []
    for lo, hi, tol in sc.bsup_n:
        n = int(rng.integers(lo, hi + 1))
        snr_db = float(rng.choice((0.0, 3.0)))
        fmt = str(rng.choice(("csv", "json")))
        reqs.append(SimpleNamespace(
            kind="bsup", fmt=fmt, n=n, tol_b=tol, snr=_snr(snr_db), n_f=sc.n_f,
            expect_code=0,
            argv=["bsup", "--antennas", str(n), "--snr-db", repr(snr_db),
                  "--tol-b", repr(tol), "--subcarriers", str(sc.n_f), "--format", fmt]))
    m = CYCLE["feasibility"] - len(reqs)
    lo, hi = sc.sweep_n
    n1s = _ints(rng, lo, int(hi / SWEEP_N_RATIO[1]), m)
    fmts, snrs = balanced(rng, ("csv", "json"), m), balanced(rng, (0.0, 3.0), m)
    sweeps = []
    for i in range(m):
        # One b per sweep, clear below the b_sup band for n1 and clear above
        # it for n2, so half the designed cells are infeasible.
        n1 = n1s[i]
        n2 = round(n1 * rng.uniform(*SWEEP_N_RATIO))
        b = float(rng.uniform(INFEASIBLE_BN[0] / n2, FEASIBLE_BN[1] / n1))
        sweeps.append(SimpleNamespace(
            kind="size-sweep", fmt=fmts[i], n_list=[n1, n2], b_list=[b],
            infeasible_above=INFEASIBLE_BN[0] - 0.01, expect_code=0,
            argv=["sweep", "--kind", "codebook-size-vs-n", "--n-list", f"{n1},{n2}",
                  "--b-list", repr(b), "--snr-db", repr(snrs[i]),
                  "--subcarriers", str(sc.n_f), "--format", fmts[i]]))
    return reqs + sweeps


def scan_books(sc: Scale) -> list[SimpleNamespace]:
    """Fixed codebook set for the coverage checks: the paper's 2.5 GHz /
    73 GHz band at each size, in both unit modes.  It does not depend on the
    seed, so the share of checks hit by the known Hz-mode defect is the same
    on every run."""
    return [SimpleNamespace(n=n, hz=hz, bandwidth_hz=2.5e9, carrier_hz=73e9,
                            n_f=sc.n_f, snr=1.0, psi_m=1.0)
            for n in sc.scan_books for hz in (True, False)]


def scan_cycle(rng, sc: Scale, n_books: int) -> list[SimpleNamespace]:
    """Request classes in rising cost: 4 focus sweeps, 3 bandwidth sweeps,
    7 improvement-max sweeps, 1 verify ledger, 5 JSON gain runs, then the
    coverage checks.  With whole cycles the p50 falls in the middle of the
    improvement-max class (29-58% of requests) and the p75 in the middle
    of the gain class (63-83%)."""
    lo, hi = sc.scan_n
    small = []
    for ns, fmt in zip(_pairs(rng, lo, hi, 4), balanced(rng, ("csv", "json"), 4)):
        b = float(rng.uniform(0.01, 0.05))
        small.append(SimpleNamespace(
            kind="improvement-vs-focus", fmt=fmt, n_list=ns, b=b, snr=1.0,
            n_f=sc.n_f, psi_f_step=0.01,
            argv=["sweep", "--kind", "improvement-vs-focus", "--n-list",
                  f"{ns[0]},{ns[1]}", "--frac-bandwidth", repr(b), "--snr-db", "0.0",
                  "--subcarriers", str(sc.n_f), "--format", fmt]))
    for ns, fmt in zip(_pairs(rng, lo, hi, 3), balanced(rng, ("csv", "json"), 3)):
        steps = int(rng.integers(50, 151))
        psi = float(rng.uniform(0.5, 0.95))
        small.append(SimpleNamespace(
            kind="capacity-vs-bandwidth", fmt=fmt, n_list=ns, steps=steps,
            psi_f=psi, psi=psi, p_over_sigma2=2e9, bw_min=1e8, bw_max=7e9,
            carrier=73e9, n_f=sc.n_f,
            argv=["sweep", "--kind", "capacity-vs-bandwidth", "--n-list",
                  f"{ns[0]},{ns[1]}", "--psi-f", repr(psi), "--psi", repr(psi),
                  "--steps", str(steps), "--subcarriers", str(sc.n_f),
                  "--snr-db", "0.0", "--format", fmt]))
    for n, fmt in zip(_ints(rng, lo, hi, 7), balanced(rng, ("csv", "json"), 7)):
        bl = sorted(float(v) for v in rng.uniform(0.0, 0.05, 6))
        small.append(SimpleNamespace(
            kind="improvement-max-vs-b", fmt=fmt, n_list=[n], b_list=bl, snr=1.0,
            n_f=sc.n_f,
            argv=["sweep", "--kind", "improvement-max-vs-b", "--n-list", str(n),
                  "--b-list", ",".join(repr(b) for b in bl), "--snr-db", "0.0",
                  "--subcarriers", str(sc.n_f), "--format", fmt]))
    for fmt in [str(rng.choice(("csv", "json")))]:
        s1, s2 = (int(v) for v in rng.integers(*sc.verify_samples, 2))
        small.append(SimpleNamespace(
            kind="verify", fmt=fmt, samples1=s1, samples2=s2,
            argv=["verify", "--fact1-samples", str(s1), "--fact2-samples", str(s2),
                  "--seed", str(int(rng.integers(1, 2**31))), "--subcarriers", "256",
                  "--fact3-n-list", "", "--format", fmt]))
    for n in _ints(rng, lo, hi, 5):
        steps = int(rng.integers(*sc.gain_steps))
        small.append(SimpleNamespace(
            kind="gain", fmt="json", n=n, steps=steps, x_min=-1.0, x_max=1.0,
            argv=["gain", "--antennas", str(n), "--steps", str(steps), "--format", "json"]))
    for r in small:
        r.expect_code = 0
    return small + [SimpleNamespace(kind="coverage", book=k, grid_step=sc.grid_step,
                                    expect_code=0, argv=None) for k in range(n_books)]


def _pairs(rng, lo: int, hi: int, m: int) -> list[list[int]]:
    return [sorted(int(v) for v in rng.integers(lo, hi + 1, 2)) for _ in range(m)]


def cycles(workload: str, seed: int, sc: Scale, n_books: int = 0):
    """Endless iterator over the workload's request cycles."""
    rng = np.random.default_rng(seed)
    make = {"design": lambda: design_cycle(rng, sc),
            "feasibility": lambda: feasibility_cycle(rng, sc),
            "scan": lambda: scan_cycle(rng, sc, n_books)}[workload]
    while True:
        cycle = make()
        assert len(cycle) == CYCLE[workload], (workload, len(cycle))
        yield [cycle[i] for i in rng.permutation(len(cycle))]
