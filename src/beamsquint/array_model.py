"""Uniform linear array geometry and array gain.

Angles are handled in the virtual domain psi = sin(theta).  A phase-shifter
beamformer focused on psi_F applies phases that are exact only at the
carrier frequency; a subcarrier at frequency ratio xi sees the pattern
evaluated at xi*psi - psi_F instead of psi - psi_F, which is the beam-squint
effect every other module builds on.

All functions are pure and deterministic; the config objects are immutable,
so everything here is safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import ConfigError, DomainError

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


@dataclass(frozen=True)
class SubcarrierGrid:
    """Per-subcarrier frequency ratios of an OFDM band.

    ``ratios[n]`` is subcarrier n's frequency divided by the carrier
    frequency; the grid is symmetric about 1 and spans the fractional
    bandwidth ``b``.
    """

    ratios: np.ndarray
    b: float

    @property
    def n_f(self) -> int:
        return len(self.ratios)


@dataclass(frozen=True)
class PhaseVector:
    """Phase-shifter settings steering the carrier to ``focus``."""

    phases: np.ndarray
    focus: float


def virtual_angle(theta: float) -> float:
    """Map a physical angle (radians from broadside) to sin(theta).

    Raises
    ------
    DomainError
        If ``theta`` is outside [-pi/2, pi/2].
    """
    if not -math.pi / 2 <= theta <= math.pi / 2:
        raise DomainError(f"theta must be in [-pi/2, pi/2], got {theta}")
    return math.sin(theta)


def phase_vector(psi_f: float, cfg: ArrayConfig) -> PhaseVector:
    """Phase-shifter settings that focus the carrier on virtual angle psi_f.

    Element n (1-based) gets phase pi*(n-1)*psi_f at half-wavelength
    spacing, so the first element is always 0.

    Raises
    ------
    DomainError
        If ``psi_f`` is outside [-1, 1].
    """
    if not -1.0 <= psi_f <= 1.0:
        raise DomainError(f"psi_f must be in [-1, 1], got {psi_f}")
    return PhaseVector(phases=steering_phases(psi_f, cfg), focus=psi_f)


def steering_phases(psi_f: float, cfg: ArrayConfig) -> np.ndarray:
    """Raw phase array for ``phase_vector`` without the range check.

    Codebook synthesis can push the last beam's focus marginally past the
    visible region; the phase formula remains well defined there.
    """
    phases = (math.pi * psi_f) * np.arange(cfg.n_antennas)
    phases.flags.writeable = False
    return phases


@lru_cache(maxsize=256)
def _ratio_array(b: float, n_f: int) -> np.ndarray:
    n = np.arange(n_f)
    ratios = 1.0 + (2 * n - n_f + 1) * b / (2 * n_f)
    ratios.flags.writeable = False
    return ratios


def subcarrier_grid(b: float, n_f: int) -> SubcarrierGrid:
    """Frequency-ratio grid of ``n_f`` subcarriers at fractional bandwidth b.

    ``n_f`` must be even so subcarriers pair symmetrically about the
    carrier, which the capacity bounds rely on.

    Raises
    ------
    ConfigError
        If ``b`` is outside [0, 2) or ``n_f`` is odd or < 2.
    """
    if not 0.0 <= b < 2.0:
        raise ConfigError(f"fractional bandwidth must be in [0, 2), got {b}")
    if n_f < 2 or n_f % 2 != 0:
        raise ConfigError(f"n_f must be an even integer >= 2, got {n_f}")
    return SubcarrierGrid(ratios=_ratio_array(float(b), int(n_f)), b=float(b))


def gain(x: ArrayLike, cfg: ArrayConfig) -> complex | np.ndarray:
    """Complex array gain at pattern offset ``x`` (virtual-angle units).

    The magnitude is sin(N*pi*x/2) / (sqrt(N)*sin(pi*x/2)) and the phase
    factor is exp(j*(N-1)*pi*x/2).  At even-integer ``x`` both sines vanish
    and the analytic limit +-sqrt(N) is used, so the function is total.
    """
    n = cfg.n_antennas
    xs = np.asarray(x, dtype=float)
    ratio = _gain_ratio(xs, n)
    out = ratio * np.exp(1j * (0.5 * (n - 1) * math.pi) * xs)
    if np.isscalar(x) or xs.ndim == 0:
        return complex(out)
    return out


def gain_mag(x: ArrayLike, cfg: ArrayConfig) -> float | np.ndarray:
    """Magnitude of :func:`gain`; exactly sqrt(N) at zero offset."""
    n = cfg.n_antennas
    xs = np.asarray(x, dtype=float)
    out = np.abs(_gain_ratio(xs, n))
    if np.isscalar(x) or xs.ndim == 0:
        return float(out)
    return out


def _gain_ratio(xs: np.ndarray, n: int) -> np.ndarray:
    """Signed real ratio sin(N*pi*x/2)/(sqrt(N)*sin(pi*x/2)), limit-filled."""
    root_n = math.sqrt(n)
    denom = np.sin(0.5 * math.pi * xs)
    singular = np.abs(denom) < _SINGULARITY_EPS
    safe = np.where(singular, 1.0, denom)
    ratio = np.sin(0.5 * n * math.pi * xs) / (root_n * safe)
    if np.any(singular):
        # L'Hopital at x = 2k: the ratio tends to sqrt(N) * (-1)^(k*(N-1)).
        k = np.rint(0.5 * xs).astype(np.int64)
        sign = np.where((k * (n - 1)) % 2 == 0, 1.0, -1.0)
        ratio = np.where(singular, root_n * sign, ratio)
    return ratio
