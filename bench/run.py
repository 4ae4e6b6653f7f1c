"""End-to-end benchmark of the beamsquint package.

    python3 bench/run.py --workload {design,feasibility,scan,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One closed-loop caller issues the workload's seeded requests
through ``beamsquint.cli.main`` (``coverage_check`` for coverage requests)
one after another for ``--seconds``, checks every output against an
independent reference outside the timed region, and prints the metrics as
the last line of stdout.  ``--trace 1`` instead runs one fixed cycle of
requests with every layer's public functions wrapped and prints the
per-layer metrics.  See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("design", "feasibility", "scan")
IMPORT_SAMPLES = 7
BUILD_SAMPLES = 3
# The tail is the highest of these percentiles with TAIL_BEYOND samples
# beyond it; a fixed ladder keeps the same percentile when a run's sample
# count changes by a cycle.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# coverage_check's default absolute tolerance in the package.
COVERAGE_ABS_TOL = 1e-6

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "cpu_ms_per_op": "ms", "peak_rss_mb": "MB",
    "success_share": "share",
}

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); "
                 "t = time.perf_counter(); import beamsquint.cli; "
                 "print(time.perf_counter() - t)")


def import_package():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import beamsquint.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import beamsquint from {src}: {exc}")
    pkg_dir = Path(beamsquint.cli.__file__).resolve().parent.parent
    if pkg_dir != src.resolve():
        raise SystemExit(f"error: imported beamsquint from {pkg_dir}, not {src}")
    return beamsquint


def time_imports(k: int) -> float:
    """Median wall time of ``import beamsquint.cli`` in k fresh interpreters."""
    samples = []
    for _ in range(k):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def build_books(bs, specs) -> list[SimpleNamespace]:
    """Design the scan workload's codebooks through the library entry point."""
    books = []
    for s in specs:
        arr = bs.ArrayConfig(s.n)
        if s.hz:
            band = bs.BandConfig.from_hz(s.bandwidth_hz, s.carrier_hz, s.n_f, s.snr)
        else:
            band = bs.BandConfig(b=s.bandwidth_hz / s.carrier_hz, n_f=s.n_f, snr=s.snr)
        c_t = bs.capacity_threshold_3db(band, arr)
        cb = bs.design_codebook(s.psi_m, c_t, band, arr)
        books.append(SimpleNamespace(spec=s, cb=cb, band=band, arr=arr, deficit=None))
    return books


def setup(bs, workload: str, sc) -> tuple[float, list]:
    """Set-up time (median import + median pre-loop build) and the books."""
    import_s = time_imports(IMPORT_SAMPLES)
    if workload != "scan":
        return import_s, []
    build = []
    for _ in range(BUILD_SAMPLES):
        t0 = time.perf_counter()
        books = build_books(bs, workloads.scan_books(sc))
        build.append(time.perf_counter() - t0)
    return import_s + statistics.median(build), books


def execute(bs, req, books) -> tuple[int, str]:
    if req.kind == "coverage":
        book = books[req.book]
        ok = bs.coverage_check(book.cb, book.band, book.arr, grid_step=req.grid_step)
        return 0, repr(ok)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bs.cli.main(req.argv)
    return code, out.getvalue()


def check_bsup(bs, req, out: str) -> str | None:
    """A design exists at the reported b_sup and none at b_sup + tol_b."""
    bsup = float(oracle.table(out, req.fmt)[0, 1])
    arr = bs.ArrayConfig(req.n)
    for b, want in ((bsup, True), (bsup + req.tol_b, False)):
        band = bs.BandConfig(b=b, n_f=req.n_f, snr=req.snr)
        report = bs.assess_feasibility(1.0, bs.capacity_threshold_3db(band, arr), band, arr)
        if report.feasible != want:
            return f"b_sup={bsup!r} but feasibility at b={b!r} is {report.feasible}"
    return None


CHECKS = {
    "design": oracle.check_design,
    "gain": oracle.check_gain,
    "verify": oracle.check_verify,
    "improvement-vs-focus": oracle.check_improvement_vs_focus,
    "improvement-max-vs-b": oracle.check_improvement_max_vs_b,
    "capacity-vs-bandwidth": oracle.check_capacity_vs_bandwidth,
    "size-sweep": oracle.check_size_sweep,
}


def check(bs, req, code: int, out: str, books) -> tuple[str | None, bool]:
    """(failure reason or None, whether the failure is the known defect)."""
    if code != req.expect_code:
        return f"exit code {code}, expected {req.expect_code}", False
    if req.kind == "bsup":
        return check_bsup(bs, req, out), False
    if req.kind != "coverage":
        return CHECKS[req.kind](req, out), False
    if out == "True":
        return None, False
    # Known defect: an absolute 1e-6 tolerance against a c_t of ~1e10 bit/s
    # rejects Hz-mode codebooks whose relative shortfall is only solver
    # resolution.  Anything else is a real coverage failure.
    book = books[req.book]
    if book.deficit is None:
        s = book.spec
        book.deficit = oracle.coverage_deficit(
            book.cb, s.n, book.band.b, s.n_f, s.snr, book.band.bandwidth, req.grid_step)
    worst_abs, worst_rel = book.deficit
    known = (book.spec.hz and worst_abs > COVERAGE_ABS_TOL
             and 0.0 < worst_rel <= oracle.EDGE_REL_TOL)
    return (f"coverage_check False (N={book.spec.n}, hz={book.spec.hz}, worst "
            f"relative shortfall {worst_rel:.2e})"), known


def tail(lat: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest ladder percentile with TAIL_BEYOND
    samples beyond it; the median when there are too few samples."""
    n = len(lat)
    pct = next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= TAIL_BEYOND), 50.0)
    return float(np.percentile(lat, pct)), pct


def run_ops(bs, cycles, books, seconds: float, tracer=None,
            verify: bool = True) -> SimpleNamespace:
    """Closed loop, one caller: issue whole cycles of requests until their
    request time reaches ``seconds`` (one cycle when ``seconds`` is 0).

    Outputs are checked between requests, outside the timed region and with
    tracing paused.
    """
    st = SimpleNamespace(lat=[], cpu=[], digests=[], failed=0, known=0, reasons=[],
                         reqs=[], hz_coverage=[0, 0])
    for cycle in cycles:
        for req in cycle:
            run_one(bs, req, books, st, tracer, verify)
        if sum(st.lat) >= seconds:
            return st


def run_one(bs, req, books, st, tracer, verify: bool) -> None:
    """Time one request, then check it; its output is freed on return so
    it does not add to the next request's peak memory."""
    i = len(st.reqs)
    st.reqs.append(req)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        code, out = execute(bs, req, books)
    except Exception as exc:  # a traceback is a failed op, not a crash
        code, out = -1, f"{type(exc).__name__}: {exc}"
    t1, c1 = time.perf_counter(), time.process_time()
    st.lat.append(t1 - t0)
    st.cpu.append(c1 - c0)
    st.digests.append([i, req.kind, hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]])
    if not verify:
        return
    if tracer is not None:
        tracer.on = False
    reason, known = (f"raised {out}", False) if code == -1 else check(bs, req, code, out, books)
    if tracer is not None:
        tracer.on = True
    if req.kind == "coverage" and books[req.book].spec.hz:
        st.hz_coverage[0] += 1
        st.hz_coverage[1] += reason is not None
    if reason is not None:
        st.failed += 1
        st.known += known
        if reason not in st.reasons:
            st.reasons.append(reason)


def run(workload: str, seed: int, seconds: float, trace: bool,
        sc=workloads.FULL) -> dict:
    bs = import_package()
    os.environ["BEAMSQUINT_THREADS"] = str(len(os.sched_getaffinity(0)))
    setup_s, books = setup(bs, workload, sc)
    for book in books:
        s = book.spec
        beams = np.array([(b.focus, b.left, b.right, b.width) for b in book.cb.beams])
        bad = oracle.check_codebook(*beams.T, s.psi_m, s.n, book.band.b, s.n_f, s.snr,
                                    book.band.bandwidth, book.cb.c_t)
        if bad:
            raise SystemExit(f"error: set-up codebook N={s.n} hz={s.hz}: {bad}")
    cycles = workloads.cycles(workload, seed, sc, len(books))
    if trace:
        import tracing
        tracer = tracing.Tracer(bs)
        tracer.install()
        try:
            st = run_ops(bs, cycles, books, 0.0, tracer)
        finally:
            tracer.uninstall()
        replay = run_ops(bs, iter([st.reqs]), books, 0.0, verify=False)
        metrics = tracer.metrics()
        metrics["trace.overhead_share"] = (sum(st.lat) / sum(replay.lat) - 1.0, "share")
    else:
        st = run_ops(bs, cycles, books, seconds)
    n = len(st.lat)
    record = {
        "workload": workload, "seed": seed, "why": workloads.WHY[workload],
        "loop": "closed, 1 caller", "trace": int(trace), "ops": n,
        "fail_share": st.failed / n, "known_defect_failures": st.known,
        "hz_coverage_requests_failed": st.hz_coverage,
        "failure_reasons": st.reasons[:10],
        "machine": {"cores": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "BEAMSQUINT_THREADS": os.environ["BEAMSQUINT_THREADS"]},
    }
    if not trace:
        tail_ms, tail_pct = tail(st.lat)
        record["latency_tail"] = {"percentile": tail_pct, "samples": n}
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": n / sum(st.lat),
            "latency_p50_ms": 1e3 * statistics.median(st.lat),
            "latency_tail_ms": 1e3 * tail_ms,
            "cpu_ms_per_op": 1e3 * sum(st.cpu) / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_share": 1.0 - st.failed / n,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return {
        "record": record,
        "digests": st.digests,
        "result": {"correct": st.failed == st.known, "attempted": n,
                   "failed": st.failed,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
    }


def report(out: dict) -> None:
    rec, res = out["record"], out["result"]
    print(f"[{rec['workload']}] seed={rec['seed']} ops={rec['ops']} "
          f"failed={res['failed']} (known defect: {rec['known_defect_failures']}) "
          f"correct={res['correct']}", file=sys.stderr)
    for reason in rec["failure_reasons"]:
        print(f"  failure: {reason}", file=sys.stderr)
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    if "latency_tail" in rec:
        t = rec["latency_tail"]
        print(f"  latency_tail_ms is p{t['percentile']} of {t['samples']} samples",
              file=sys.stderr)
    print(json.dumps({"record": rec}))
    print(json.dumps({"digests": out["digests"]}))


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS does not carry over."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        res = json.loads(last)
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the self-test scale")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sc = workloads.TINY if args.size == "tiny" else workloads.FULL
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), sc)
    report(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
