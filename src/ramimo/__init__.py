"""Limited-feedback multiuser MIMO downlink simulation library.

Feedback strategies that approximate user rates rather than channel
vectors, fixed-codebook sum-rate scheduling with a zeroforcing baseline,
and an analytical bounds engine with Monte Carlo validation oracles.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundsReport,
    SimplexQuantizer,
    bounds_report,
    c_nt,
    covering_density,
    covering_number_bound,
    empirical_D,
    empirical_D_block,
    jindal_gap,
    lemma2_bound,
    lemma3_bound,
    lemma3_validity_threshold,
    measure_worst_case_error,
    ra_nt3_gap,
    simplex_quantizer,
    theorem1_bound,
)
from .channel import (
    EffectiveChannel,
    SystemParams,
    UserChannel,
    draw_user_channel,
    effective_channel,
    effective_channel_state,
    mrc_effective_channel,
)
from .codebook import (
    Codebook,
    NotTightFrameError,
    canonical_onb,
    concat_codebooks,
    dft_codebook,
    frame_constant,
    load_codebook,
    random_unitary,
    rvq_codebook,
    save_codebook,
)
from .feedback import (
    FeedbackMessage,
    GapProfile,
    chordal_cdi,
    compute_feedback,
    efficient_cdi,
    feedback_vector,
    gap_sample_delta_ra,
    lemma1_feedback,
    lemma1_rhs,
    ra_distance,
)
from .harness import (
    ExperimentResult,
    SimConfig,
    emit,
    load_config,
    run_contrast_experiment,
    run_delta_ra_experiment,
    run_scaling_experiment,
    run_sum_rate_experiment,
)
from .numerics import SeedSpec, sample_complex_gaussian
from .rates import BeamAssignment, RateReport
from .scheduler import (
    PrecodedDecision,
    ScheduleDecision,
    realize_rates,
    schedule_bruteforce,
    schedule_greedy,
)
