"""Command-line interface.

Exit codes: 0 success, 2 invalid flags or configuration, 3 no codebook
exists (infeasible design), so bandwidth-limit scripts can branch on
infeasibility without parsing messages.  SNR is taken in dB on the command
line and converted to a linear ratio internally.  Output is byte-identical
across repeated runs with identical flags.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from .array_model import ArrayConfig
from .capacity import (BandConfig, capacity_bs, capacity_nbs, capacity_threshold,
                       spectral_efficiency_bs)
from .codebook import (design_codebook, estimate_bsup, fit_bsup_constant,
                       improvement_max, improvement_ratio)
from .errors import ConfigError, DomainError, InfeasibleError
from .experiments import (SweepResult, sweep_capacity_vs_bandwidth,
                          sweep_codebook_size_vs_n, sweep_gain_pattern,
                          sweep_improvement_max_vs_b, sweep_improvement_vs_focus,
                          verify_facts)
from .serialize import codebook_to_csv, codebook_to_json, sweep_to_csv, sweep_to_json

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class RunConfig:
    """Validated array/band/threshold settings for one point-style command.

    Built from the parsed flags: exactly one of the fractional-bandwidth or
    absolute-frequency forms must be given, SNR arrives in dB and is stored
    linear, and the gain-ratio and explicit-capacity threshold flags are
    mutually exclusive (the 3 dB ratio is the default).
    """

    arr: ArrayConfig
    band: BandConfig
    c_t: float
    r: float | None


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_array_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--antennas", type=int, required=True,
                   help="number of array elements")


def _add_band_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frac-bandwidth", type=float, default=None,
                   help="fractional bandwidth b (exclusive with --bandwidth-hz/--carrier-hz)")
    p.add_argument("--bandwidth-hz", type=float, default=None, help="absolute bandwidth B")
    p.add_argument("--carrier-hz", type=float, default=None, help="carrier frequency f_c")
    p.add_argument("--subcarriers", type=int, default=2048,
                   help="OFDM subcarrier count (even, default 2048)")
    p.add_argument("--snr-db", type=float, required=True,
                   help="P/(B*sigma^2) in dB")


def _add_threshold_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--r", type=float, default=None,
                   help="gain-ratio threshold in (0,1); default sqrt(2)/2")
    g.add_argument("--ct", type=float, default=None,
                   help="explicit capacity threshold (same units as capacities)")


def _snr_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def _array_from_flag(n_antennas: int, flag: str = "--antennas") -> ArrayConfig:
    try:
        return ArrayConfig(n_antennas)
    except ConfigError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _arrays_from_list(raw: str, flag: str) -> list[ArrayConfig]:
    return [_array_from_flag(n, flag) for n in _parse_int_list(raw, flag)]


def _band_from_args(args: argparse.Namespace) -> BandConfig:
    has_frac = args.frac_bandwidth is not None
    has_hz = args.bandwidth_hz is not None or args.carrier_hz is not None
    if has_frac and has_hz:
        raise ConfigError(
            "--frac-bandwidth is mutually exclusive with --bandwidth-hz/--carrier-hz")
    if args.subcarriers < 2 or args.subcarriers % 2:
        raise ConfigError(
            f"--subcarriers must be an even integer >= 2, got {args.subcarriers}")
    snr = _snr_linear(args.snr_db)
    if has_frac:
        if not 0.0 <= args.frac_bandwidth < 2.0:
            raise ConfigError(
                f"--frac-bandwidth must be in [0, 2), got {args.frac_bandwidth}")
        return BandConfig(b=args.frac_bandwidth, n_f=args.subcarriers, snr=snr)
    if args.bandwidth_hz is None or args.carrier_hz is None:
        raise ConfigError(
            "provide either --frac-bandwidth or both --bandwidth-hz and --carrier-hz")
    return BandConfig.from_hz(args.bandwidth_hz, args.carrier_hz,
                              n_f=args.subcarriers, snr=snr)


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects a comma-separated integer list") from exc


def _parse_float_list(raw: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects a comma-separated number list") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamsquint",
        description="Beam squint analysis and capacity-constrained codebook design "
                    "for wideband uniform linear arrays")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gain", help="sample the array gain pattern")
    _add_array_arg(p)
    p.add_argument("--x-min", type=float, default=-1.0)
    p.add_argument("--x-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=1001)
    _add_output_args(p)

    p = sub.add_parser("capacity", help="evaluate capacities at one (psi_f, psi)")
    _add_array_arg(p)
    _add_band_args(p)
    p.add_argument("--psi-f", type=float, required=True, help="beam focus angle")
    p.add_argument("--psi", type=float, required=True, help="arrival angle")
    _add_output_args(p)

    p = sub.add_parser("design", help="synthesise a minimum-size codebook")
    _add_array_arg(p)
    _add_band_args(p)
    _add_threshold_args(p)
    p.add_argument("--psi-m", type=float, default=1.0, help="coverage half-range")
    _add_output_args(p)

    p = sub.add_parser("improvement",
                       help="capacity improvement ratio over a squint-ignoring beam")
    _add_array_arg(p)
    _add_band_args(p)
    p.add_argument("--r", type=float, default=None,
                   help="gain-ratio threshold; default sqrt(2)/2")
    p.add_argument("--psi-f", type=float, default=None,
                   help="evaluate at this focus; omit for the maximum over foci")
    _add_output_args(p)

    p = sub.add_parser("bsup", help="largest workable fractional bandwidth")
    p.add_argument("--antennas", type=int, default=None)
    p.add_argument("--n-list", default=None,
                   help="comma-separated array sizes; fits the a/N constant")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--psi-m", type=float, default=1.0)
    p.add_argument("--tol-b", type=float, default=1e-6)
    p.add_argument("--subcarriers", type=int, default=2048)
    _add_output_args(p)

    p = sub.add_parser("sweep", help="run a labelled parameter sweep")
    p.add_argument("--kind", required=True,
                   choices=("gain-pattern", "capacity-vs-bandwidth",
                            "improvement-vs-focus", "improvement-max-vs-b",
                            "codebook-size-vs-n"))
    p.add_argument("--antennas", type=int, default=None)
    p.add_argument("--n-list", default=None, help="comma-separated array sizes")
    p.add_argument("--b-list", default=None, help="comma-separated fractional bandwidths")
    p.add_argument("--frac-bandwidth", type=float, default=None)
    p.add_argument("--x-min", type=float, default=-1.0)
    p.add_argument("--x-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--psi-f", type=float, default=0.9)
    p.add_argument("--psi", type=float, default=0.9)
    p.add_argument("--psi-f-step", type=float, default=0.01)
    p.add_argument("--p-over-sigma2", type=float, default=2e9,
                   help="P/sigma^2 in Hz for the bandwidth sweep")
    p.add_argument("--bw-min-hz", type=float, default=1e8)
    p.add_argument("--bw-max-hz", type=float, default=7e9)
    p.add_argument("--carrier-hz", type=float, default=73e9)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--snr-db", type=float, default=0.0)
    p.add_argument("--psi-m", type=float, default=1.0)
    p.add_argument("--subcarriers", type=int, default=2048)
    _add_output_args(p)

    p = sub.add_parser("verify", help="randomised checks of the structural claims")
    p.add_argument("--fact1-samples", type=int, default=2000)
    p.add_argument("--fact2-samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=20240809)
    p.add_argument("--subcarriers", type=int, default=256)
    p.add_argument("--snr-db", type=float, default=0.0)
    p.add_argument("--b-max", type=float, default=0.1)
    p.add_argument("--fact3-n-list", default="16,32,64")
    p.add_argument("--tol-b", type=float, default=1e-4)
    _add_output_args(p)

    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    """Resolve the shared array, band and capacity-threshold settings."""
    arr = _array_from_flag(args.antennas)
    band = _band_from_args(args)
    if getattr(args, "ct", None) is not None:
        return RunConfig(arr=arr, band=band, c_t=args.ct, r=None)
    r = getattr(args, "r", None)
    if r is None:
        r = SQRT2_OVER_2
    return RunConfig(arr=arr, band=band, c_t=capacity_threshold(r, band, arr), r=r)


def _point_result(name: str, columns, row, params) -> SweepResult:
    return SweepResult(name=name, columns=tuple(columns), rows=(tuple(row),),
                       params=params)


def _cmd_gain(args) -> str:
    if args.steps < 2:
        raise ConfigError(f"--steps must be >= 2, got {args.steps}")
    sr = sweep_gain_pattern(_array_from_flag(args.antennas),
                            x_range=(args.x_min, args.x_max), steps=args.steps)
    return _render(sr, args.format)


def _cmd_capacity(args) -> str:
    for flag, value in (("--psi-f", args.psi_f), ("--psi", args.psi)):
        if not -1.0 <= value <= 1.0:
            raise DomainError(f"{flag} must be in [-1, 1], got {value}")
    cfg = _run_config(args)
    arr, band = cfg.arr, cfg.band
    unit = "bit/s" if band.bandwidth_hz is not None else "bit/s/Hz"
    cbs = capacity_bs(args.psi_f, args.psi, band, arr)
    cnbs = capacity_nbs(args.psi_f, args.psi, band, arr)
    eff = spectral_efficiency_bs(args.psi_f, args.psi, band, arr)
    sr = _point_result(
        "capacity-point",
        [("psi_f", "-"), ("psi", "-"), ("b", "-"),
         ("capacity_bs", unit), ("capacity_nbs", unit),
         ("spectral_efficiency_bs", "bit/s/Hz")],
        [args.psi_f, args.psi, band.b, cbs, cnbs, eff],
        {"command": "capacity", "n_antennas": arr.n_antennas, "b": band.b,
         "n_f": band.n_f, "snr": band.snr, "bandwidth_hz": band.bandwidth_hz,
         "carrier_hz": band.carrier_hz, "psi_f": args.psi_f, "psi": args.psi})
    return _render(sr, args.format)


def _cmd_design(args) -> str:
    cfg = _run_config(args)
    cb = design_codebook(args.psi_m, cfg.c_t, cfg.band, cfg.arr)
    if args.format == "json":
        return codebook_to_json(cb, cfg.band, cfg.arr, r=cfg.r)
    return codebook_to_csv(cb)


def _cmd_improvement(args) -> str:
    cfg = _run_config(args)
    arr, band, r = cfg.arr, cfg.band, cfg.r
    params = {"command": "improvement", "n_antennas": arr.n_antennas,
              "b": band.b, "n_f": band.n_f, "snr": band.snr, "r": r}
    if args.psi_f is not None:
        value = improvement_ratio(args.psi_f, r, band, arr)
        params["psi_f"] = args.psi_f
        sr = _point_result("improvement",
                           [("psi_f", "-"), ("improvement", "-")],
                           [args.psi_f, value], params)
    else:
        value = improvement_max(r, band, arr)
        sr = _point_result("improvement-max", [("improvement_max", "-")],
                           [value], params)
    return _render(sr, args.format)


def _cmd_bsup(args) -> str:
    r = args.r if args.r is not None else SQRT2_OVER_2
    snr = _snr_linear(args.snr_db)
    base_params = {"command": "bsup", "r": r, "snr": snr, "psi_m": args.psi_m,
                   "tol_b": args.tol_b, "n_f": args.subcarriers}
    if args.n_list is not None:
        ns = _parse_int_list(args.n_list, "--n-list")
        fit = fit_bsup_constant(ns, r, snr, psi_m=args.psi_m, tol_b=args.tol_b,
                                n_f=args.subcarriers)
        rows = [(float(n), fit.bsup_by_n[n], n * fit.bsup_by_n[n], fit.a)
                for n in ns]
        sr = SweepResult(
            name="bsup-fit",
            columns=(("n_antennas", "count"), ("bsup", "-"),
                     ("bsup_times_n", "-"), ("fitted_a", "-")),
            rows=tuple(rows),
            params={**base_params, "n_values": ns, "a": fit.a,
                    "mean_deviation": fit.mean_deviation,
                    "max_deviation": fit.max_deviation})
        return _render(sr, args.format)
    if args.antennas is None:
        raise ConfigError("provide --antennas or --n-list")
    arr = _array_from_flag(args.antennas)
    value = estimate_bsup(arr, r, snr, psi_m=args.psi_m, tol_b=args.tol_b,
                          n_f=args.subcarriers)
    sr = _point_result("bsup", [("n_antennas", "count"), ("bsup", "-")],
                       [float(args.antennas), value],
                       {**base_params, "n_antennas": args.antennas})
    return _render(sr, args.format)


def _require(value, flag: str):
    if value is None:
        raise ConfigError(f"missing {flag} for this sweep kind")
    return value


def _cmd_sweep(args) -> str:
    kind = args.kind
    r = args.r if args.r is not None else SQRT2_OVER_2
    snr = _snr_linear(args.snr_db)
    if args.steps is not None and args.steps < 2:
        raise ConfigError(f"--steps must be >= 2, got {args.steps}")
    if kind == "gain-pattern":
        arr = _array_from_flag(_require(args.antennas, "--antennas"))
        sr = sweep_gain_pattern(arr, x_range=(args.x_min, args.x_max),
                                steps=args.steps if args.steps else 1001)
    elif kind == "capacity-vs-bandwidth":
        arrays = _arrays_from_list(_require(args.n_list, "--n-list"), "--n-list")
        sr = sweep_capacity_vs_bandwidth(
            arrays, psi_f=args.psi_f, psi=args.psi,
            p_over_sigma2_hz=args.p_over_sigma2, n_f=args.subcarriers,
            bandwidth_range_hz=(args.bw_min_hz, args.bw_max_hz),
            steps=args.steps if args.steps else 50, carrier_hz=args.carrier_hz)
    elif kind == "improvement-vs-focus":
        arrays = _arrays_from_list(_require(args.n_list, "--n-list"), "--n-list")
        b = _require(args.frac_bandwidth, "--frac-bandwidth")
        sr = sweep_improvement_vs_focus(arrays, b=b, r=r,
                                        snr=snr, n_f=args.subcarriers,
                                        psi_f_step=args.psi_f_step)
    elif kind == "improvement-max-vs-b":
        arrays = _arrays_from_list(_require(args.n_list, "--n-list"), "--n-list")
        bl = (_parse_float_list(args.b_list, "--b-list")
              if args.b_list is not None else None)
        sr = sweep_improvement_max_vs_b(arrays, b_values=bl, r=r, snr=snr,
                                        n_f=args.subcarriers)
    elif kind == "codebook-size-vs-n":
        ns = _parse_int_list(_require(args.n_list, "--n-list"), "--n-list")
        bl = _parse_float_list(_require(args.b_list, "--b-list"), "--b-list")
        sr = sweep_codebook_size_vs_n(b_values=bl, n_values=ns, r=r, snr=snr,
                                      psi_m=args.psi_m, n_f=args.subcarriers)
    else:  # unreachable behind argparse choices
        raise ConfigError(f"unknown sweep kind {kind!r}")
    return _render(sr, args.format)


def _cmd_verify(args) -> str:
    sr = verify_facts(fact1_samples=args.fact1_samples,
                      fact2_samples=args.fact2_samples, seed=args.seed,
                      n_f=args.subcarriers, snr=_snr_linear(args.snr_db),
                      b_max=args.b_max,
                      fact3_n_values=_parse_int_list(args.fact3_n_list,
                                                     "--fact3-n-list"),
                      fact3_tol_b=args.tol_b)
    return _render(sr, args.format)


def _render(sr: SweepResult, fmt: str) -> str:
    return sweep_to_json(sr) if fmt == "json" else sweep_to_csv(sr)


_COMMANDS = {
    "gain": _cmd_gain,
    "capacity": _cmd_capacity,
    "design": _cmd_design,
    "improvement": _cmd_improvement,
    "bsup": _cmd_bsup,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        text = _COMMANDS[args.command](args)
    except InfeasibleError as exc:
        focus = exc.failing_focus
        where = f" (failing focus angle: {focus!r})" if focus is not None else ""
        print(f"no codebook exists{where}", file=sys.stderr)
        return 3
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return 0


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))
