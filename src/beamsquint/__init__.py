"""Beam squint modelling for wideband phased-array beamforming.

Models how fixed phase shifts make a uniform linear array's gain drift with
subcarrier frequency, quantifies the resulting channel-capacity penalty,
and synthesises minimum-size beamforming codebooks that guarantee a
per-beam capacity floor across the whole covered angle range.
"""

from .array_model import (ArrayConfig, gain_mag, steering_phases,
                          subcarrier_grid)
from .capacity import (BandConfig, GainRegion, beamwidth_nbs, capacity_bs,
                       capacity_nbs, capacity_threshold, capacity_threshold_3db,
                       gain_region, spectral_efficiency_bs, squint_safe_range)
from .codebook import (Beam, BsupFit, Codebook, FeasibilityReport,
                       assess_feasibility, coverage_check, design_codebook,
                       estimate_bsup, fit_bsup_constant, improvement_max,
                       improvement_ratio, solve_focus_from_left, solve_right_edge,
                       traditional_min_capacity)
from .errors import BeamsquintError, ConfigError, DomainError, InfeasibleError
from .experiments import (INFEASIBLE_MARKER, SweepResult, rerun,
                          sweep_capacity_vs_bandwidth, sweep_codebook_size_vs_n,
                          sweep_gain_pattern, sweep_improvement_max_vs_b,
                          sweep_improvement_vs_focus, verify_facts)

__version__ = "0.1.0"

__all__ = [
    "ArrayConfig", "BandConfig", "Beam", "BeamsquintError", "BsupFit",
    "Codebook", "ConfigError", "DomainError", "FeasibilityReport",
    "GainRegion", "INFEASIBLE_MARKER", "InfeasibleError", "SweepResult",
    "assess_feasibility", "beamwidth_nbs", "capacity_bs", "capacity_nbs",
    "capacity_threshold", "capacity_threshold_3db", "coverage_check",
    "design_codebook", "estimate_bsup", "fit_bsup_constant", "gain_mag",
    "gain_region", "improvement_max", "improvement_ratio", "rerun",
    "solve_focus_from_left", "solve_right_edge", "spectral_efficiency_bs",
    "squint_safe_range", "steering_phases", "subcarrier_grid",
    "sweep_capacity_vs_bandwidth", "sweep_codebook_size_vs_n",
    "sweep_gain_pattern", "sweep_improvement_max_vs_b",
    "sweep_improvement_vs_focus", "traditional_min_capacity", "verify_facts",
]
