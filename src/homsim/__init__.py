"""Two-photon interference of pulsed single-photon emitters: analytic
correlation functions, Monte Carlo coincidence simulation, and fitting."""

__version__ = "0.15.0"

from .analysis import PeakAreaReport, WindowConfigurationError, g2_indist_double_pulse, peak_areas
from .fitting import (
    FitResult,
    SingularModelError,
    fit_exponential_decay,
    fit_hom_dip,
    fit_michelson,
    nlls,
)
from .model import (
    HBAR_UEV_NS,
    PairSpec,
    central_peak_area_hom,
    coherence_integral,
    g2_hom_peak,
    michelson_contrast,
    p_inhom,
    sigma_for_visibility,
    sigma_from_coherence,
    time_jitter_overlap_factor,
    visibility_hom,
    visibility_inhom_direct,
)
from .montecarlo import (
    CorrelationHistogram,
    DetectorModel,
    InterferenceScenario,
    RngSpec,
    analytic_visibility,
    analytic_visibility_at,
    hbt_analytic_g2,
    multi_photon_prob_for_g2,
    sample_pair_events,
    simulate_hbt_purity,
    simulate_histogram,
)

__all__ = [
    "CorrelationHistogram",
    "DetectorModel",
    "FitResult",
    "HBAR_UEV_NS",
    "InterferenceScenario",
    "PairSpec",
    "PeakAreaReport",
    "RngSpec",
    "SingularModelError",
    "WindowConfigurationError",
    "analytic_visibility",
    "analytic_visibility_at",
    "central_peak_area_hom",
    "coherence_integral",
    "fit_exponential_decay",
    "fit_hom_dip",
    "fit_michelson",
    "g2_hom_peak",
    "g2_indist_double_pulse",
    "hbt_analytic_g2",
    "michelson_contrast",
    "multi_photon_prob_for_g2",
    "nlls",
    "p_inhom",
    "peak_areas",
    "sample_pair_events",
    "sigma_for_visibility",
    "sigma_from_coherence",
    "simulate_hbt_purity",
    "simulate_histogram",
    "time_jitter_overlap_factor",
    "visibility_hom",
    "visibility_inhom_direct",
]
