"""Two-photon interference of pulsed single-photon emitters: analytic
correlation functions, Monte Carlo coincidence simulation, and fitting."""

__version__ = "0.4.0"

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
    DegenerateJitterError,
    EmitterParams,
    PairSpec,
    PhotonWavePacket,
    central_peak_area_hom,
    coherence_integral,
    coherence_time,
    delta_distribution,
    dephasing_time,
    g2_hom_peak,
    g2_tl,
    michelson_contrast,
    p_inhom,
    p_inhom_quadrature,
    sigma_for_visibility,
    sigma_from_coherence,
    time_jitter_overlap_factor,
    visibility_from_g2,
    visibility_hom,
    visibility_inhom_closed,
    visibility_inhom_direct,
    visibility_inhom_quadrature,
    wavepacket_amplitude,
)
from .montecarlo import (
    CorrelationHistogram,
    DetectorModel,
    InterferenceScenario,
    RngSpec,
    analytic_g2_indist,
    analytic_visibility,
    hbt_analytic_g2,
    multi_photon_prob_for_g2,
    sample_pair_events,
    simulate_hbt_purity,
    simulate_histogram,
)
from .specfun import QuadratureError, QuadratureSpec, erfcx, erfcx_complex, integrate_1d

__all__ = [name for name in dir() if not name.startswith("_")]
