"""Throughput and energy-efficiency limits of fading links under
statistical queueing constraints, with a Monte Carlo queue simulator
for validating the analytical predictions."""

__version__ = "0.1.0"

from .channel import (
    ChannelSpec,
    EffCapEstimate,
    FadingMoments,
    capacity_function,
    channel_spec_from_json,
    effective_capacity_mc,
    effective_capacity_quadrature,
    effective_capacity_rayleigh_iid,
    ergodic_capacity,
    fading_moments,
    log_rate_cov_sum,
)
from .energy import (
    EbN0CurvePoint,
    EnergyMetrics,
    build_binomial_discrete_source,
    build_birth_death_fluid,
    ebn0_curve,
    energy_metrics_onoff_discrete,
    energy_metrics_onoff_fluid,
    energy_metrics_onoff_mmpp,
    numeric_energy_metrics,
    source_ebn0_curve,
    source_energy_metrics,
    source_kind,
)
from .errors import (
    BracketFailure,
    DegenerateEstimate,
    IllConditioned,
    InsufficientTail,
    NoUniqueStationary,
    NonConvergence,
    QoslinkError,
    QuadratureFailure,
    UnstableQueue,
    ValidationError,
)
from .queuesim import (
    QueueSimReport,
    SimConfig,
    fit_decay_slope,
    simulate_queue,
)
from .sources import (
    DiscreteMarkovSource,
    FluidMarkovSource,
    MmppSource,
    OnOffContinuousParams,
    OnOffDiscreteParams,
    OnOffFluidParams,
    OnOffMmppParams,
    as_discrete_source,
    as_fluid_source,
    as_mmpp_source,
    effective_bandwidth_discrete,
    effective_bandwidth_fluid,
    effective_bandwidth_mmpp,
    effective_bandwidth_onoff_discrete,
    effective_bandwidth_onoff_fluid,
    effective_bandwidth_onoff_mmpp,
    source_from_json,
)
from .throughput import (
    AsymptoticSlopes,
    ThroughputResult,
    high_snr_slope,
    low_theta_asymptotics,
    max_avg_rate,
    max_avg_rate_nstate,
    max_avg_rate_onoff_discrete,
    max_avg_rate_onoff_fluid,
    max_avg_rate_onoff_mmpp,
)
