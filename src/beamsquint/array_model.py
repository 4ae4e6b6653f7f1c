"""Uniform linear array geometry and array gain.

Angles are handled in the virtual domain psi = sin(theta).  A phase-shifter
beamformer focused on psi_F applies phases that are exact only at the
carrier frequency; a subcarrier at frequency ratio xi sees the pattern
evaluated at xi*psi - psi_F instead of psi - psi_F, which is the beam-squint
effect every other module builds on.

All functions are pure and deterministic and the config object is
immutable, so everything here is safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError

ArrayLike = Union[float, np.ndarray]

# |sin(pi*x/2)| below this is treated as a removable singularity of the gain
# ratio; the analytic limit is returned to avoid catastrophic cancellation.
_SINGULARITY_EPS = 1e-9


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array of ``n_antennas`` (at least 2) isotropic
    elements at half-wavelength spacing, the spacing the closed-form gain
    below is specific to."""

    n_antennas: int

    def __post_init__(self):
        if not isinstance(self.n_antennas, (int, np.integer)) or isinstance(self.n_antennas, bool):
            raise ConfigError(f"n_antennas must be an integer, got {self.n_antennas!r}")
        if self.n_antennas < 2:
            raise ConfigError(f"n_antennas must be >= 2, got {self.n_antennas}")

    @property
    def peak_gain(self) -> float:
        """Maximum array gain magnitude, sqrt(N), reached at zero offset."""
        return math.sqrt(self.n_antennas)

    @property
    def main_lobe_half_span(self) -> float:
        """Half-span 2/N of the main lobe; the gain magnitude is zero there."""
        return 2.0 / self.n_antennas

    @property
    def concave_half_span(self) -> float:
        """Half-span 4/(N*pi) of the region where the gain is concave."""
        return 4.0 / (self.n_antennas * math.pi)


def steering_phases(psi_f: float, cfg: ArrayConfig) -> np.ndarray:
    """Phase-shifter settings that focus the carrier on virtual angle psi_f.

    Element n (1-based) gets phase pi*(n-1)*psi_f at half-wavelength
    spacing, so the first element is always 0.  The array is read-only.
    ``psi_f`` is not range-checked: codebook synthesis can push the last
    beam's focus marginally past the visible region, and the phase formula
    remains well defined there.
    """
    phases = (math.pi * psi_f) * np.arange(cfg.n_antennas)
    phases.flags.writeable = False
    return phases


def subcarrier_grid(b: float, n_f: int) -> np.ndarray:
    """Frequency ratios of ``n_f`` subcarriers at fractional bandwidth b.

    Entry n is subcarrier n's frequency divided by the carrier frequency;
    the read-only grid is symmetric about 1 and spans ``b``.  ``n_f`` must
    be even so subcarriers pair symmetrically about the carrier, which the
    capacity bounds rely on.

    Raises
    ------
    ConfigError
        If ``b`` is outside [0, 2) or ``n_f`` is odd or < 2.
    """
    _require_fractional_bandwidth(b)
    if n_f < 2 or n_f % 2 != 0:
        raise ConfigError(f"n_f must be an even integer >= 2, got {n_f}")
    b, n_f = float(b), int(n_f)
    n = np.arange(n_f)
    ratios = 1.0 + (2 * n - n_f + 1) * b / (2 * n_f)
    ratios.flags.writeable = False
    return ratios


def _require_fractional_bandwidth(b: float) -> None:
    """Reject a fractional bandwidth outside [0, 2), NaN included."""
    if not 0.0 <= b < 2.0:
        raise ConfigError(f"fractional bandwidth must be in [0, 2), got {b}")


def gain_mag(x: ArrayLike, cfg: ArrayConfig) -> float | np.ndarray:
    """Array gain magnitude at pattern offset ``x`` (virtual-angle units).

    The magnitude is |sin(N*pi*x/2)| / (sqrt(N)*|sin(pi*x/2)|).  At
    even-integer ``x`` both sines vanish and the analytic limit sqrt(N) is
    used, so the function is total; it is exactly sqrt(N) at zero offset.
    """
    n = cfg.n_antennas
    xs = np.asarray(x, dtype=float)
    out = np.abs(_gain_ratio(xs, n))
    if np.isscalar(x) or xs.ndim == 0:
        return float(out)
    return out


def _gain_ratio(xs: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Signed real ratio sin(N*pi*x/2)/(sqrt(N)*sin(pi*x/2)), limit-filled.

    Written into ``out`` when given, which may be ``xs`` itself, and
    otherwise into the buffer that held the denominator's magnitude; the
    denominator takes the one other full-size buffer, and no mask is built
    unless a singular point exists.
    """
    root_n = math.sqrt(n)
    # Explicit buffers keep 0-d inputs arrays, so every step runs in place.
    denom = np.multiply(xs, 0.5 * math.pi, out=np.empty(xs.shape))
    np.sin(denom, out=denom)
    mag = np.abs(denom, out=np.empty(xs.shape))
    singular = None
    # fmin skips NaN, so a NaN or infinite entry cannot hide a singular one.
    if mag.size and np.fmin.reduce(mag, axis=None) < _SINGULARITY_EPS:
        # L'Hopital at x = 2k: the ratio tends to sqrt(N) * (-1)^(k*(N-1)).
        # The flat indices of the singular points are the only new array.
        singular = np.flatnonzero(np.less(mag, _SINGULARITY_EPS, out=mag))
        k = np.rint(0.5 * xs.flat[singular]).astype(np.int64)
        limit = np.where((k * (n - 1)) % 2 == 0, root_n, -root_n)
        denom.flat[singular] = 1.0
    ratio = np.multiply(xs, 0.5 * n * math.pi, out=mag if out is None else out)
    np.sin(ratio, out=ratio)
    np.multiply(denom, root_n, out=denom)
    np.divide(ratio, denom, out=ratio)
    if singular is not None:
        ratio.flat[singular] = limit
    return ratio
