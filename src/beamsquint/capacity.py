"""Channel capacity of a squinting beam, capacity thresholds, and the
geometry of gain-constrained angle regions.

Two capacities are compared throughout: the per-subcarrier average seen by a
phase-shifter beam (each subcarrier's gain is taken at its squinted angle)
and the ideal value a true-time-delay implementation would give, where every
subcarrier sees the carrier-frequency pattern.  Capacities are in bit/s when
the band carries an absolute bandwidth and per unit bandwidth otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .array_model import (ArrayConfig, ArrayLike, _gain_ratio, gain_mag,
                          subcarrier_grid)
from .errors import ConfigError, DomainError, InfeasibleError
from .roots import bisect

# Gain-region thresholds below this would admit sidelobes (their peak sits
# near 0.217*sqrt(N)); only the main lobe is modelled.
MIN_REGION_R = 0.25

# Gain ratio of the 3 dB capacity threshold, the default everywhere.
R_3DB = math.sqrt(2.0) / 2.0

# Relative rounding allowed in the gain ratio that beamwidth_nbs recovers
# from its capacity threshold, which can land a few ulps below the ratio
# the threshold was computed from.
_REL_TOL = 1e-12

# Angles x subcarriers per block in the vector path of capacity_bs: 2**16
# floats (512 KiB, 32 angles at 2048 subcarriers), so that the few
# temporaries alive at once stay in a core's L2 cache.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class BandConfig:
    """OFDM band: fractional bandwidth, subcarrier count and linear SNR.

    ``snr`` is the ratio of total received power to in-band noise power,
    P/(B*sigma^2).  When ``bandwidth_hz`` is absent all capacities are
    reported per unit bandwidth; :meth:`from_hz` builds a band from
    absolute frequencies.  ``ratios``, the subcarrier
    frequency ratios (read-only), is computed once from ``b`` and ``n_f``.
    """

    b: float
    n_f: int
    snr: float
    bandwidth_hz: float | None = None
    ratios: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_finite_positive("snr", self.snr)
        # subcarrier_grid also checks b and n_f.
        object.__setattr__(self, "ratios", subcarrier_grid(self.b, self.n_f))
        if self.bandwidth_hz is not None:
            _require_finite_positive("bandwidth_hz", self.bandwidth_hz)

    @classmethod
    def from_hz(cls, bandwidth_hz: float, carrier_hz: float, n_f: int,
                snr: float) -> "BandConfig":
        """Build a band from absolute frequencies; b = bandwidth/carrier."""
        _require_finite_positive("carrier_hz", carrier_hz)
        return cls(b=bandwidth_hz / carrier_hz, n_f=n_f, snr=snr,
                   bandwidth_hz=bandwidth_hz)

    @property
    def bandwidth(self) -> float:
        """Absolute bandwidth, or 1.0 in dimensionless mode."""
        return self.bandwidth_hz if self.bandwidth_hz is not None else 1.0


def _require_finite_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} must be finite and positive, got {value}")


def _require_visible(name: str, angle: float) -> None:
    """Reject an angle outside the visible region [-1, 1], NaN included."""
    if not -1.0 <= angle <= 1.0:
        raise DomainError(f"{name} must be in [-1, 1], got {angle}")


@dataclass(frozen=True)
class GainRegion:
    """Angle interval around ``psi_f`` where the carrier gain stays at or
    above ``r`` times the peak, clipped to the visible region [-1, 1]."""

    psi_f: float
    r: float
    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


def capacity_bs(psi_f: ArrayLike, psi: ArrayLike, band: BandConfig,
                arr: ArrayConfig) -> float | np.ndarray:
    """Channel capacity of a squinting beam focused on ``psi_f`` at arrival
    angle ``psi``.

    Averages the per-subcarrier Shannon rates, each evaluated at its
    squinted angle.  ``psi_f`` and ``psi`` broadcast against each other,
    so each angle may carry its own focus; two scalars give a float and
    anything else an array of the broadcast shape.  The array path works
    in blocks of about 2**16 angle-subcarrier pairs, which keeps each
    block in cache; every entry is bit-identical to the scalar call at
    that angle and focus.  Both paths compute the rate sum in place, in
    two buffers of the call's size besides the squinted angles, with the
    same bits as the plain expression
    B/n_f * sum(log2(1 + snr*gain_mag(x)**2)).
    At zero fractional bandwidth the subcarrier grid collapses and this is
    exactly :func:`capacity_nbs`.
    """
    if band.b == 0.0:
        return capacity_nbs(psi_f, psi, band, arr)
    pf, ps = np.asarray(psi_f, dtype=float), np.asarray(psi, dtype=float)
    if pf.ndim == 0 and ps.ndim == 0:
        x = np.multiply(band.ratios, float(ps))
        return float(_rate_sum(np.subtract(x, float(pf), out=x), band, arr))
    pf, ps = np.broadcast_arrays(pf, ps)
    return _capacity_rows(pf.ravel(), ps.ravel(), band, arr).reshape(ps.shape)


def _rate_sum(x: np.ndarray, band: BandConfig, arr: ArrayConfig) -> np.ndarray:
    """Squinted capacity from the squinted angles ``x``, one subcarrier per
    entry along the last axis; ``x`` is overwritten.

    Equals B/n_f * sum(log2(1 + snr*gain_mag(x)**2)) bit for bit: the
    signed gain ratio squares to the same bits as its magnitude.
    """
    g = _gain_ratio(x, arr.n_antennas, out=x)
    np.square(g, out=g)
    np.multiply(g, band.snr, out=g)
    np.add(g, 1.0, out=g)
    np.log2(g, out=g)
    return band.bandwidth / band.n_f * g.sum(axis=-1)


def _capacity_rows(pf: np.ndarray, ps: np.ndarray, band: BandConfig,
                   arr: ArrayConfig) -> np.ndarray:
    """Squinted capacity at each (pf[i], ps[i]), block by block, each
    block written into its own slice of the result."""
    rows = max(1, _BLOCK_ELEMENTS // band.n_f)
    out = np.empty(len(ps))
    for i in range(0, len(ps), rows):
        s = slice(i, i + rows)
        x = np.multiply(band.ratios, ps[s, np.newaxis])
        out[s] = _rate_sum(np.subtract(x, pf[s, np.newaxis], out=x), band, arr)
    return out


def capacity_slope_bound(band: BandConfig, arr: ArrayConfig) -> float:
    """Bound L on |dC/dpsi| of the squinted capacity at any fixed focus.

    With G(x) = |D_N(pi*x/2)|/sqrt(N) and D_N(u) = sin(N*u)/sin(u), each
    subcarrier's term B/n_f*log2(1 + snr*G^2) at x = xi*psi - psi_f has
    derivative B/n_f * 2*snr*G*G'(x)*xi / ((1 + snr*G^2)*ln 2), so:

    * D_N(u) = sum_k exp(i*(N-1-2k)*u) is a trigonometric polynomial, hence
      |D_N'| <= sum_k |N-1-2k| <= N^2/2 and |G'| <= pi*N^(3/2)/4;
    * 2*snr*G/(1 + snr*G^2) <= m = min(sqrt(snr), 2*snr*sqrt(N)), by 1 +
      snr*G^2 >= 2*sqrt(snr)*G, and by 1 + snr*G^2 >= 1 and G <= sqrt(N)
      (|D_N| <= N); the second is the smaller where N*snr < 1/4;
    * xi <= 1 + b/2 on every subcarrier.

    Averaging the n_f terms gives L = B*m*(pi*N^(3/2)/4)*(1 + b/2)/ln 2,
    with B ``band.bandwidth``; at b = 0 it bounds :func:`capacity_nbs` too.
    """
    n = arr.n_antennas
    return (band.bandwidth * min(math.sqrt(band.snr), 2.0 * band.snr * math.sqrt(n))
            * (math.pi * n ** 1.5 / 4.0) * (1.0 + band.b / 2.0) / math.log(2.0))


def _max_offset_ratio(band: BandConfig) -> float:
    """max|xi - 1| over the band's stored ratios: the offset x = (xi -
    1)*psi that a beam's own focus psi sees is at most this times |psi|."""
    return max(float(band.ratios[-1]) - 1.0, 1.0 - float(band.ratios[0]))


def _on_focus_slope_bound(band: BandConfig, arr: ArrayConfig) -> float:
    """Bound on |d/dpsi C(psi, psi)|, the slope of a beam's capacity at its
    own focus: subcarrier xi sees x = (xi - 1)*psi, so its term's slope in
    psi is its slope in x times |xi - 1|.  The proof of
    :func:`capacity_slope_bound` bounds the slope in x averaged over the
    band by L/(1 + b/2), L carrying the factor 1 + b/2 for the largest xi,
    so the bound is L*max|xi - 1|/(1 + b/2), about L*(b/2)/(1 + b/2)."""
    return (capacity_slope_bound(band, arr) * _max_offset_ratio(band)
            / (1.0 + band.b / 2.0))


def _rounding_bound(band: BandConfig, arr: ArrayConfig) -> float:
    """Bound E on the rounding error of ``capacity_bs(f, psi)``, against the
    same sum taken exactly at the band's stored ratios xi, at every focus f
    and |psi| <= 1 where each computed offset x = xi*psi - f has |x| <= 1
    (at f = psi, |x| <= b/2 < 1).  With u = 2**-53, sin and log2 within 4
    ulp, L from :func:`capacity_slope_bound` and P = B*log2(1 + N*snr):

    * xi*psi, at most 1 + b/2, and x are each rounded once: x is within
      3u*(1 + b/2) of exact, moving C by at most 3u*L (L carries 1 + b/2);
    * both sine arguments are within 3u relative, the sines within 4 ulp and
      the quotient within 9u relative, so G = |D_N(pi*x/2)|/sqrt(N) is
      within 24u*sqrt(N) at |x| <= 1 (where |x| >= 1/N, the numerator's
      absolute error of at most 3u*N*pi*|x|/2 + 4u over
      sqrt(N)*sin(pi*|x|/2) >= sqrt(N)*|x|, and a relative error nearer
      broadside); a term's slope in G is at most B/n_f*m/ln 2, m the
      factor of L, so C moves by at most 24u*B*sqrt(N)*m/ln 2 <= 16u*L, as
      L >= (pi*N/4)*B*sqrt(N)*m/ln 2;
    * where |sin(pi*x/2)| < 1e-9, near 0 only, the gain is its limit
      sqrt(N), a relative N^2*1e-18/6 off: C moves by <= 1e-18*B*N^2/2;
    * squaring, scaling by snr, adding 1 and log2 move a term t by at most
      u*(4.4 + 8*t), so C by at most 5u*B + 8u*P;
    * a sum of n_f non-negative terms errs by at most 1.01*(n_f - 1)*u of
      itself in any order (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., sec. 4.2), and B/n_f and its product add 2u, so
      at most (1.01*n_f + 1)*u*P.

    E = u*(20*L + 8*B + (2*n_f + 16)*P) + 1e-18*B*N^2 is at least 1.05
    times their sum, term by term, and bounds :func:`capacity_nbs` at b = 0
    (one term, squared by pow within 1 ulp) too.  At N=64, 0 dB, b=2.5/73
    and 2,048 subcarriers it is 8e-13 of c_t.
    """
    n = arr.n_antennas
    peak = band.bandwidth * math.log2(1.0 + n * band.snr)
    return (2.0 ** -53 * (20.0 * capacity_slope_bound(band, arr) + 8.0 * band.bandwidth
                          + (2.0 * band.n_f + 16.0) * peak)
            + 1e-18 * band.bandwidth * n * n)


def _sign_margin(c_t: float, band: BandConfig, arr: ArrayConfig) -> float:
    """Margin M = 2E + 4u*(c_t + 8L), u = 2**-53, E and L from
    :func:`_rounding_bound` and :func:`capacity_slope_bound`, by which a
    sign proof must clear a level at most ``c_t``.

    Lemma: on a piece of angles |psi| <= 1 where every offset is at most 1,
    let c be the computed capacity at m, h with every point within h + 2u
    of m, and S <= L, S*h <= L, within 16u of a bound on how fast the exact
    capacity falls (rises) from m.  If the computed c - S*h >= level + M
    (c + S*h < level - M), every computed capacity on the piece is >= (<)
    the level.  Proof: each is within E/1.05 of the exact one, as E exceeds
    its bullets by 5%; the exact one within the bound times h + 2u of its
    value at m; the computed S*h within 17u*L of the bound times h; the
    level's and the test's sums round by u*(level + M) each.  That adds up
    to at most 2E/1.05 + 19u*L + 2u*(c_t + M) <= M.  A level <= 0 is met
    trivially.
    """
    return 2.0 * _rounding_bound(band, arr) + 2.0 ** -51 * (
        c_t + 8.0 * capacity_slope_bound(band, arr))


def _mirror_margin(psi: float, mirror: float, band: BandConfig, arr: ArrayConfig) -> float:
    """Margin D = 2E + L*(a*|psi| + 2**-52*|mirror|), a = 2**-52: where |psi|
    <= 1 and every computed offset at both foci is at most 1, a computed
    C(f, psi) - level >= D proves the computed C(mirror, psi) >= level,
    ``mirror`` the computed 2*psi - f.  Proof: subcarrier_grid forms
    +-delta as exact negatives and rounds 1 +- delta once each, within
    2**-53 and 2**-54, so a bounds every |xi_k + xi_{n-1-k} - 2|.  The gain
    is even, so term k at focus 2*psi - f is term n-1-k at f, its offset
    moved by at most a*|psi|: the exact sums differ by at most L*a*|psi|,
    and by L*2**-52*|mirror| more at the rounded mirror.  Each computed C
    is within E/1.05 of its exact sum, and the 5% left of 2E covers the
    roundings of D and of the difference.
    """
    return (2.0 * _rounding_bound(band, arr)
            + capacity_slope_bound(band, arr) * 2.0 ** -52 * (abs(psi) + abs(mirror)))


def capacity_nbs(psi_f: ArrayLike, psi: ArrayLike, band: BandConfig,
                 arr: ArrayConfig) -> float | np.ndarray:
    """Capacity without squint: every subcarrier sees the carrier pattern.
    ``psi_f`` and ``psi`` broadcast as in :func:`capacity_bs`."""
    # float_power squares with the C library's pow, as ** does on the float
    # a scalar gain_mag returns; an array's ** 2 is an exact square, which
    # can differ in the last bit, and arrays must match scalar calls.
    g2 = np.float_power(gain_mag(np.asarray(psi, dtype=float) - psi_f, arr), 2)
    out = band.bandwidth * np.log2(1.0 + band.snr * g2)
    if np.ndim(out) == 0:
        return float(out)
    return out


def spectral_efficiency_bs(psi_f: float, psi: ArrayLike, band: BandConfig,
                           arr: ArrayConfig) -> float | np.ndarray:
    """Squinted capacity per unit bandwidth (bit/s/Hz)."""
    return capacity_bs(psi_f, psi, band, arr) / band.bandwidth


def capacity_threshold(r: float, band: BandConfig, arr: ArrayConfig) -> float:
    """No-squint capacity at the edge of the gain region for ratio ``r``.

    This is the natural benchmark for a per-beam capacity floor:
    B*log2(1 + r^2*N*snr).  ``r = sqrt(2)/2`` gives the 3 dB variant, see
    :func:`capacity_threshold_3db`.
    """
    _require_ratio(r)
    return band.bandwidth * math.log2(1.0 + r * r * arr.n_antennas * band.snr)


def capacity_threshold_3db(band: BandConfig, arr: ArrayConfig) -> float:
    """The r = sqrt(2)/2 capacity threshold (gain 3 dB below peak)."""
    return capacity_threshold(R_3DB, band, arr)


@lru_cache(maxsize=4096)
def _gain_halfwidth(r: float, n: int) -> float:
    """Half-width of the main-lobe interval where gain >= r*sqrt(N); the
    solver's end of the crossing where the gain still meets the ratio."""
    cfg = ArrayConfig(n)
    target = r * cfg.peak_gain
    return bisect(lambda w: gain_mag(w, cfg) - target, 0.0, cfg.main_lobe_half_span)


def _require_ratio(r: float) -> None:
    """Reject a gain ratio outside (0, 1), NaN included."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must be in (0, 1), got {r}")


def _require_region_ratio(r: float) -> None:
    """Reject a gain ratio that :func:`gain_region` cannot take: outside
    (0, 1) or below MIN_REGION_R."""
    _require_ratio(r)
    if _below_main_lobe(r):
        raise ConfigError(
            f"r={r} is below {MIN_REGION_R}; sidelobes would qualify and only the "
            "main lobe is modelled")


def _below_main_lobe(r: float) -> bool:
    """True if gain ratio ``r`` is below MIN_REGION_R beyond rounding, so
    that sidelobes would qualify for its gain region."""
    return r < MIN_REGION_R * (1.0 - _REL_TOL)


def gain_region(psi_f: float, r: float, arr: ArrayConfig) -> GainRegion:
    """Main-lobe interval around ``psi_f`` with carrier gain >= r*sqrt(N).

    The half-width solves gain_mag(w) = r*sqrt(N) with the bracketed secant
    solver of :mod:`beamsquint.roots` within the main lobe; the interval is
    then clipped to the visible region.  ``r`` below 0.25 is rejected:
    sidelobes would start to qualify and are out of scope for this model.
    """
    _require_region_ratio(r)
    w = _gain_halfwidth(float(r), arr.n_antennas)
    return GainRegion(psi_f=psi_f, r=r,
                      lo=max(psi_f - w, -1.0), hi=min(psi_f + w, 1.0))


def beamwidth_nbs(c_t: float, band: BandConfig, arr: ArrayConfig) -> float:
    """Width of the angle interval where the no-squint capacity meets ``c_t``.

    Focus-independent: it equals the width of the gain region at the
    equivalent gain ratio r = sqrt((2^(c_t/B) - 1)/(N*snr)).

    Raises
    ------
    InfeasibleError
        If ``c_t`` is at or above the peak no-squint capacity.
    """
    n = arr.n_antennas
    peak = band.bandwidth * math.log2(1.0 + n * band.snr)
    if c_t >= peak:
        raise InfeasibleError(
            f"threshold {c_t} is not below the peak no-squint capacity {peak}")
    if not c_t > 0.0:
        raise DomainError(f"c_t must be positive, got {c_t}")
    r = math.sqrt((2.0 ** (c_t / band.bandwidth) - 1.0) / (n * band.snr))
    if _below_main_lobe(r):
        raise ConfigError(
            f"threshold {c_t} maps to gain ratio {r:.4f} below {MIN_REGION_R}; "
            "only main-lobe beamwidths are modelled")
    return 2.0 * _gain_halfwidth(r, n)


def squint_safe_range(psi_f: float, b: float, arr: ArrayConfig) -> tuple[float, float]:
    """Arrival-angle interval on which squint can only reduce capacity.

    Inside the returned interval every subcarrier's squinted angle
    ``xi*psi`` stays within the concave span of the main lobe around
    ``psi_f``, for all ratios xi in [1 - b/2, 1 + b/2].  Which band edge
    binds depends on the sign of psi, hence the piecewise division.  The
    result is not clipped to the visible region and may be empty
    (lo > hi) when ``psi_f`` sits too far out for the given ``b``.
    """
    c = arr.concave_half_span
    lo_y = psi_f - c
    hi_y = psi_f + c
    lo = lo_y / (1.0 - b / 2.0) if lo_y >= 0.0 else lo_y / (1.0 + b / 2.0)
    hi = hi_y / (1.0 + b / 2.0) if hi_y >= 0.0 else hi_y / (1.0 - b / 2.0)
    return lo, hi
