"""Fast self-test of the benchmark itself.

    python3 bench/selftest.py [--size tiny|full]

Run from the root of a source checkout.  Checks, at the tiny scale unless
``--size full`` is given for the count check:

1. every end-to-end and per-layer metric in BENCHMARK.json is emitted,
   with the unit given there, for every workload;
2. a deliberately wrong output (perturbed serialised numbers, or a coverage
   check answering False) is counted as failed and clears ``correct``;
3. two traced runs with the same seed give identical per-layer counts;
4. without the package source next to it the benchmark exits non-zero and
   prints no result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

# Per-layer metrics that are counts of work, not times: they must repeat
# exactly between runs with the same seed.
TIMED = ("busy_s", "self_s", "us_per_scalar_call", "overhead_share")


def bench(workload: str, trace: int, size: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok: {what}")


def check_metrics(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in run.WORKLOADS:
            res = result(bench(w, trace, "tiny"))
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            expect(got == want, f"{w} --trace {trace} emits every {key} metric with its unit")
            expect(res["correct"] and res["attempted"] >= 1,
                   f"{w} --trace {trace} is correct at the tiny scale")


def check_fault_counted() -> None:
    bs = run.import_package()
    real_format, real_cover = bs.serialize.format_float, bs.coverage_check
    bs.serialize.format_float = lambda x: real_format(float(x) * (1.0 + 1e-6) + 1e-9)
    bs.coverage_check = lambda *a, **k: False
    try:
        for w in run.WORKLOADS:
            res = run.run(w, 3, 0.0, False, workloads.TINY)["result"]
            expect(res["failed"] >= 1 and not res["correct"],
                   f"{w}: wrong outputs counted as failed ({res['failed']} of "
                   f"{res['attempted']}) and correct is false")
    finally:
        bs.serialize.format_float, bs.coverage_check = real_format, real_cover


def check_counts_repeat(size: str) -> None:
    for w in run.WORKLOADS:
        a, b = (result(bench(w, 1, size))["metrics"] for _ in range(2))
        counts = {k for k in a if not k.endswith(TIMED)}
        diff = {k: (a[k]["value"], b[k]["value"]) for k in counts
                if a[k]["value"] != b[k]["value"]}
        expect(not diff, f"{w}: per-layer counts repeat exactly at {size} scale {diff or ''}")


def check_refuses_without_source() -> None:
    tmp = ROOT / ".bench_selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        shutil.copytree(BENCH, tmp / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc = bench("design", 0, "tiny", cwd=tmp)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "without src/ the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--size", choices=("tiny", "full"), default="tiny",
                   help="scale of the traced runs whose counts must repeat")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_metrics(spec)
        check_fault_counted()
        check_counts_repeat(args.size)
        check_refuses_without_source()
    except AssertionError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
