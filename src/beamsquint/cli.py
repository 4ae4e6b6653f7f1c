"""Command-line interface.

Exit codes: 0 success, 2 invalid flags or configuration, 3 no codebook
exists (infeasible design), so bandwidth-limit scripts can branch on
infeasibility without parsing messages.  SNR is taken in dB on the command
line and converted to a linear ratio internally.  Output is byte-identical
across repeated runs with identical flags.
"""

from __future__ import annotations

import argparse
import sys

from .array_model import ArrayConfig
from .capacity import (R_3DB, BandConfig, _require_visible, capacity_bs,
                       capacity_nbs, capacity_threshold, spectral_efficiency_bs)
from .codebook import (design_codebook, estimate_bsup, fit_bsup_constant,
                       improvement_max, improvement_ratio)
from .errors import ConfigError, DomainError, InfeasibleError
from .experiments import SweepResult, rerun
from .serialize import codebook_to_csv, codebook_to_json, sweep_to_csv, sweep_to_json


def _snr_linear(snr_db: float) -> float:
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ConfigError(f"--snr-db {snr_db} overflows a float") from None


def _gain_ratio(args: argparse.Namespace) -> float:
    return R_3DB if args.r is None else args.r


def _array_from_flag(n_antennas: int, flag: str = "--antennas") -> ArrayConfig:
    try:
        return ArrayConfig(n_antennas)
    except ConfigError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


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


def _parse_list(raw: str, flag: str, kind: type) -> list:
    try:
        return [kind(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        noun = "integer" if kind is int else "number"
        raise ConfigError(f"{flag} expects a comma-separated {noun} list") from exc


def _require(value, flag: str):
    if value is None:
        raise ConfigError(f"missing {flag} for this sweep kind")
    return value


def _array_sizes(args: argparse.Namespace) -> list[int]:
    """The required --n-list, each entry checked as an array size."""
    sizes = _parse_list(_require(args.n_list, "--n-list"), "--n-list", int)
    return [_array_from_flag(n, "--n-list").n_antennas for n in sizes]


def _point_result(name: str, columns, row, params) -> SweepResult:
    return SweepResult(name=name, columns=tuple(columns), rows=(tuple(row),),
                       params=params)


def _cmd_capacity(args) -> SweepResult:
    _require_visible("--psi-f", args.psi_f)
    _require_visible("--psi", args.psi)
    arr, band = _array_from_flag(args.antennas), _band_from_args(args)
    unit = "bit/s" if band.bandwidth_hz is not None else "bit/s/Hz"
    cbs = capacity_bs(args.psi_f, args.psi, band, arr)
    cnbs = capacity_nbs(args.psi_f, args.psi, band, arr)
    eff = spectral_efficiency_bs(args.psi_f, args.psi, band, arr)
    return _point_result(
        "capacity-point",
        [("psi_f", "-"), ("psi", "-"), ("b", "-"),
         ("capacity_bs", unit), ("capacity_nbs", unit),
         ("spectral_efficiency_bs", "bit/s/Hz")],
        [args.psi_f, args.psi, band.b, cbs, cnbs, eff],
        {"command": "capacity", "n_antennas": arr.n_antennas, "b": band.b,
         "n_f": band.n_f, "snr": band.snr, "bandwidth_hz": band.bandwidth_hz,
         "carrier_hz": band.carrier_hz, "psi_f": args.psi_f, "psi": args.psi})


def _cmd_design(args) -> str:
    arr, band = _array_from_flag(args.antennas), _band_from_args(args)
    r = None if args.ct is not None else _gain_ratio(args)
    c_t = args.ct if r is None else capacity_threshold(r, band, arr)
    cb = design_codebook(args.psi_m, c_t, band, arr)
    if args.format == "json":
        return codebook_to_json(cb, band, arr, r=r)
    return codebook_to_csv(cb)


def _cmd_improvement(args) -> SweepResult:
    arr, band, r = _array_from_flag(args.antennas), _band_from_args(args), _gain_ratio(args)
    params = {"command": "improvement", "n_antennas": arr.n_antennas,
              "b": band.b, "n_f": band.n_f, "snr": band.snr, "r": r}
    if args.psi_f is None:
        return _point_result("improvement-max", [("improvement_max", "-")],
                             [improvement_max(r, band, arr)], params)
    value = improvement_ratio(args.psi_f, r, band, arr)
    return _point_result("improvement", [("psi_f", "-"), ("improvement", "-")],
                         [args.psi_f, value], {**params, "psi_f": args.psi_f})


def _cmd_bsup(args) -> SweepResult:
    r, snr = _gain_ratio(args), _snr_linear(args.snr_db)
    params = {"command": "bsup", "r": r, "snr": snr, "psi_m": args.psi_m,
              "tol_b": args.tol_b, "n_f": args.subcarriers}
    if args.n_list is not None:
        ns = _parse_list(args.n_list, "--n-list", int)
        fit = fit_bsup_constant(ns, r, snr, psi_m=args.psi_m, tol_b=args.tol_b,
                                n_f=args.subcarriers)
        return SweepResult(
            name="bsup-fit",
            columns=(("n_antennas", "count"), ("bsup", "-"),
                     ("bsup_times_n", "-"), ("fitted_a", "-")),
            rows=tuple((float(n), fit.bsup_by_n[n], n * fit.bsup_by_n[n], fit.a)
                       for n in ns),
            params={**params, "n_values": ns, "a": fit.a,
                    "mean_deviation": fit.mean_deviation,
                    "max_deviation": fit.max_deviation})
    if args.antennas is None:
        raise ConfigError("provide --antennas or --n-list")
    value = estimate_bsup(_array_from_flag(args.antennas), r, snr, psi_m=args.psi_m,
                          tol_b=args.tol_b, n_f=args.subcarriers)
    return _point_result("bsup", [("n_antennas", "count"), ("bsup", "-")],
                         [float(args.antennas), value],
                         {**params, "n_antennas": args.antennas})


# Sweep kind -> its inputs, built from the flags and named as in the
# ``params`` of its JSON output; a None entry is left out so the sweep's
# own default applies.
_SWEEP_PARAMS = {
    "gain-pattern": lambda a: {
        "n_antennas": _array_from_flag(_require(a.antennas, "--antennas")).n_antennas,
        "x_range": [a.x_min, a.x_max], "steps": a.steps},
    "capacity-vs-bandwidth": lambda a: {
        "n_antennas": _array_sizes(a), "psi_f": a.psi_f, "psi": a.psi,
        "p_over_sigma2_hz": a.p_over_sigma2, "n_f": a.subcarriers,
        "bandwidth_range_hz": [a.bw_min_hz, a.bw_max_hz], "steps": a.steps,
        "carrier_hz": a.carrier_hz},
    "improvement-vs-focus": lambda a: {
        "n_antennas": _array_sizes(a),
        "b": _require(a.frac_bandwidth, "--frac-bandwidth"), "r": _gain_ratio(a),
        "snr": _snr_linear(a.snr_db), "n_f": a.subcarriers,
        "psi_f_step": a.psi_f_step},
    "improvement-max-vs-b": lambda a: {
        "n_antennas": _array_sizes(a),
        "b_values": None if a.b_list is None else _parse_list(a.b_list, "--b-list", float),
        "r": _gain_ratio(a), "snr": _snr_linear(a.snr_db), "n_f": a.subcarriers},
    "codebook-size-vs-n": lambda a: {
        "n_values": _parse_list(_require(a.n_list, "--n-list"), "--n-list", int),
        "b_values": _parse_list(_require(a.b_list, "--b-list"), "--b-list", float),
        "r": _gain_ratio(a), "snr": _snr_linear(a.snr_db), "psi_m": a.psi_m,
        "n_f": a.subcarriers},
    "verify-facts": lambda a: {
        "fact1_samples": a.fact1_samples, "fact2_samples": a.fact2_samples,
        "seed": a.seed, "n_f": a.subcarriers, "snr": _snr_linear(a.snr_db),
        "b_max": a.b_max,
        "fact3_n_values": _parse_list(a.fact3_n_list, "--fact3-n-list", int),
        "fact3_tol_b": a.tol_b},
}


def _cmd_sweep(args) -> SweepResult:
    steps = getattr(args, "steps", None)
    if steps is not None and steps < 2:
        raise ConfigError(f"--steps must be >= 2, got {steps}")
    params = _SWEEP_PARAMS[args.kind](args)
    return rerun({"sweep": args.kind,
                  **{k: v for k, v in params.items() if v is not None}})


# Every flag's type, default and help, declared once.
_FLAGS: dict[str, dict] = {
    "--kind": dict(required=True,
                   choices=[k for k in _SWEEP_PARAMS if k != "verify-facts"]),
    "--antennas": dict(type=int, help="number of array elements"),
    "--n-list": dict(help="comma-separated array sizes"),
    "--b-list": dict(help="comma-separated fractional bandwidths"),
    "--frac-bandwidth": dict(
        type=float,
        help="fractional bandwidth b (exclusive with --bandwidth-hz/--carrier-hz)"),
    "--bandwidth-hz": dict(type=float, help="absolute bandwidth B"),
    "--carrier-hz": dict(type=float, help="carrier frequency f_c"),
    "--subcarriers": dict(type=int, default=2048,
                          help="OFDM subcarrier count (even, default %(default)s)"),
    "--snr-db": dict(type=float, default=0.0, help="P/(B*sigma^2) in dB"),
    "--r": dict(type=float, help="gain-ratio threshold in (0,1); default sqrt(2)/2"),
    "--ct": dict(type=float,
                 help="explicit capacity threshold (same units as capacities)"),
    "--psi-f": dict(type=float, help="beam focus angle"),
    "--psi": dict(type=float, help="arrival angle"),
    "--psi-m": dict(type=float, default=1.0, help="coverage half-range"),
    "--x-min": dict(type=float, default=-1.0),
    "--x-max": dict(type=float, default=1.0),
    "--steps": dict(type=int),
    "--psi-f-step": dict(type=float, default=0.01),
    "--p-over-sigma2": dict(type=float, default=2e9,
                            help="P/sigma^2 in Hz for the bandwidth sweep"),
    "--bw-min-hz": dict(type=float, default=1e8),
    "--bw-max-hz": dict(type=float, default=7e9),
    "--tol-b": dict(type=float),
    "--fact1-samples": dict(type=int, default=2000),
    "--fact2-samples": dict(type=int, default=2000),
    "--seed": dict(type=int, default=20240809),
    "--b-max": dict(type=float, default=0.1),
    "--fact3-n-list": dict(default="16,32,64"),
    "--format": dict(choices=("csv", "json"), default="csv",
                     help="output format (default csv)"),
    "--out": dict(help="output path (default stdout)"),
}

_REQUIRED = {"required": True}
_POINT = [("--antennas", _REQUIRED), "--frac-bandwidth", "--bandwidth-hz",
          "--carrier-hz", "--subcarriers", ("--snr-db", _REQUIRED)]

# Subcommand -> (help, parser defaults, flags).  A flag is its name or a
# (name, overrides) pair; a list of names is a mutually exclusive group.
# Every subcommand also takes --format and --out.
_SUBCOMMANDS = {
    "gain": ("sample the array gain pattern", {"kind": "gain-pattern"},
             [("--antennas", _REQUIRED), "--x-min", "--x-max", "--steps"]),
    "capacity": ("evaluate capacities at one (psi_f, psi)", {"run": _cmd_capacity},
                 _POINT + [("--psi-f", _REQUIRED), ("--psi", _REQUIRED)]),
    "design": ("synthesise a minimum-size codebook", {"run": _cmd_design},
               _POINT + [["--r", "--ct"], "--psi-m"]),
    "improvement": (
        "capacity improvement ratio over a squint-ignoring beam",
        {"run": _cmd_improvement},
        _POINT + ["--r", ("--psi-f", {
            "help": "evaluate at this focus; omit for the maximum over foci"})]),
    "bsup": ("largest workable fractional bandwidth", {"run": _cmd_bsup},
             ["--antennas",
              ("--n-list", {"help": "comma-separated array sizes; fits the a/N constant"}),
              "--r", ("--snr-db", _REQUIRED), "--psi-m", ("--tol-b", {"default": 1e-6}),
              "--subcarriers"]),
    "sweep": ("run a labelled parameter sweep", {},
              ["--kind", "--antennas", "--n-list", "--b-list",
               ("--frac-bandwidth", {"help": "fractional bandwidth b"}), "--x-min", "--x-max", "--steps", ("--psi-f", {"default": 0.9}),
               ("--psi", {"default": 0.9}), "--psi-f-step", "--p-over-sigma2",
               "--bw-min-hz", "--bw-max-hz", ("--carrier-hz", {"default": 73e9}),
               "--r", "--snr-db", "--psi-m", "--subcarriers"]),
    "verify": ("randomised checks of the structural claims", {"kind": "verify-facts"},
               ["--fact1-samples", "--fact2-samples", "--seed",
                ("--subcarriers", {"default": 256}), "--snr-db", "--b-max",
                "--fact3-n-list", ("--tol-b", {"default": 1e-4})]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamsquint",
        description="Beam squint analysis and capacity-constrained codebook design "
                    "for wideband uniform linear arrays")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, defaults, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(**{"run": _cmd_sweep, **defaults})
        for flag in flags + ["--format", "--out"]:
            if isinstance(flag, list):
                group = p.add_mutually_exclusive_group()
                for option in flag:
                    group.add_argument(option, **_FLAGS[option])
            else:
                option, overrides = (flag, {}) if isinstance(flag, str) else flag
                p.add_argument(option, **{**_FLAGS[option], **overrides})
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        result = args.run(args)
    except InfeasibleError as exc:
        focus = exc.failing_focus
        where = f" (failing focus angle: {focus!r})" if focus is not None else ""
        print(f"no codebook exists{where}", file=sys.stderr)
        return 3
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, SweepResult):
        result = sweep_to_json(result) if args.format == "json" else sweep_to_csv(result)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(result.encode("utf-8"))
        except OSError as exc:
            print(f"error: --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(result)
    return 0


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))
