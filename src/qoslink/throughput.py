"""Maximum average arrival rate under a queue-decay constraint.

Given the effective capacity C_E of the link at exponent theta, these
solvers find the largest mean arrival rate a Markovian source can carry
while the queue-tail requirement still holds: the source's effective
bandwidth at theta must not exceed C_E.  Two-state ON/OFF sources carry
closed forms.  For general n-state sources the per-state rate scale of
every chain, reversible or not, comes from one deflated resolvent (the
pencil route): one eigenvalue call for a fluid or MMPP source, a few
bracket-free secant steps for a discrete one, one eigenvalue call each,
or one O(n) sum each for a memoryless chain (every row its law).
``max_avg_rate`` takes any source.  Asymptotic behavior at theta -> 0
(ergodic limit and first derivative) and at high snr (rate prelog) is
also exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LN2, ChannelSpec, ergodic_capacity, log_rate_cov_sum
from .errors import BracketFailure, _check_scalar
from .sources import OnOffDiscreteParams, OnOffFluidParams, OnOffMmppParams, _typed_source

_NO_RATES = ("effective bandwidth never reaches the target capacity; "
             "the source has no usable rate states")


@dataclass(frozen=True)
class ThroughputResult:
    """Solution of the max-average-rate problem at one (theta, C_E)."""

    r_avg_star: float
    lambda_star: float
    theta: float
    effective_capacity: float
    method: str  # closed_form | pencil
    iterations: int = 0  # effective-bandwidth kernel calls: 1 on the pencil route
    # |a*(theta; lambda_star c) - C_E| / C_E from one kernel call at
    # lambda_star, not how far lambda_star is off
    residual: float = 0.0


@dataclass(frozen=True)
class AsymptoticSlopes:
    """theta -> 0 behavior of r*(theta): its value and first derivative.
    The high-snr rate prelog is ``high_snr_slope``."""

    low_theta_limit: float
    low_theta_derivative: float


def max_avg_rate(src, ce: float, theta: float) -> ThroughputResult:
    """Largest mean arrival rate of ``src``'s kind that the link carries.

    The source's effective bandwidth at theta must meet C_E.  A two-state
    ON/OFF source gives its ON-state rate in closed form (``_max_rate``),
    so its own ``lam`` is not read; a matrix source is solved for the
    scale of its rate vector by ``max_avg_rate_nstate``.
    """
    ce = _check_scalar("effective capacity", ce, positive=False)
    theta = _check_scalar("theta", theta)
    closed = _typed_source(src, "_max_rate")._max_rate
    if closed is None:
        return max_avg_rate_nstate(src, theta, ce)
    return ThroughputResult(*closed(ce, theta), theta, ce, "closed_form")


def max_avg_rate_onoff_discrete(
    ce: float, theta: float, p11: float, p22: float
) -> ThroughputResult:
    """Largest mean rate of a discrete ON/OFF source the link supports."""
    return max_avg_rate(OnOffDiscreteParams(p11, p22, 0.0), ce, theta)


def max_avg_rate_onoff_fluid(
    ce: float, theta: float, alpha: float, beta: float
) -> ThroughputResult:
    """Largest mean rate of an ON/OFF Markov fluid source."""
    return max_avg_rate(OnOffFluidParams(alpha, beta, 0.0), ce, theta)


def max_avg_rate_onoff_mmpp(
    ce: float, theta: float, alpha: float, beta: float
) -> ThroughputResult:
    """Largest mean intensity of an ON/OFF MMPP source."""
    return max_avg_rate(OnOffMmppParams(alpha, beta, 0.0), ce, theta)


def max_avg_rate_nstate(src, theta: float, ce: float) -> ThroughputResult:
    """Solver for sources whose rates are shape * scale.

    The rate vector of ``src`` is read as the shape coefficients c_i
    (build the source with unit rate scale); the solver finds the scale
    lambda* with a*(theta; lambda* c) = C_E.  Every matrix source,
    reversible or not, gives it from one deflated resolvent
    (``_pencil_scale``): a fluid or MMPP source by one eigenvalue call, a
    discrete source by secant steps on a convex function that fall onto
    the root, one eigenvalue call each (a memoryless chain's are O(n)
    sums over its law, with no resolvent), with no bracket and no
    tolerance.  The scale is exact down to any C_E > 0, and one kernel
    call at lambda* reports the residual |a*(theta; lambda* c) - C_E| /
    C_E (method ``pencil``), which is not how accurate lambda* is: at
    C_E = 1e-20 a right lambda* can read 1e4.  All-zero rates are a
    BracketFailure, and C_E = 0 gives 0.
    """
    ce = _check_scalar("effective capacity", ce, positive=False)
    theta = _check_scalar("theta", theta)
    src = _typed_source(src, "_ebw")
    shape, mean_shape = src._rates, src.mean_rate
    if ce == 0.0:
        return ThroughputResult(0.0, 0.0, theta, ce, "pencil")
    if not np.any(shape):
        raise BracketFailure(_NO_RATES)
    lam = src._pencil_scale(theta, ce)
    if lam == 0.0:  # an MMPP past theta = ln(DBL_MAX): its Poisson layer takes all
        return ThroughputResult(0.0, 0.0, theta, ce, "pencil")
    # one kernel call reports how well the kernel meets the target there
    at_root = src._ebw(lam * shape, theta)
    return ThroughputResult(lam * mean_shape, lam, theta, ce, "pencil",
                            iterations=1, residual=abs(at_root - ce) / ce)


def low_theta_asymptotics(src, spec: ChannelSpec, snr: float) -> AsymptoticSlopes:
    """Value and slope of r*(theta) at theta = 0 for the source ``src``
    (``None`` for constant-rate arrivals).

    The limit is the ergodic capacity for every source.  The derivative
    is -(1/2) var(nu) minus the source's burstiness sigma^2/mu^2 times
    half the squared ergodic capacity (zero for constant-rate arrivals;
    eta or zeta for a two-state source, the deviation matrix of one
    subtraction-free elimination for a matrix source); Poisson arrivals
    (an MMPP) lose an extra ergodic-capacity/2 on top.  A family-less
    source (``OnOffContinuousParams``) is a TypeError.
    var(nu) is ``log_rate_cov_sum``: one-dimensional integrals at rho = 0
    or 1 (or m = 1), and in between the lag covariances of the gain-chain
    kernel that C_E also uses, so the slope is deterministic and raises
    QuadratureFailure where C_E does (0.9999 < rho < 1 - 1e-9).
    """
    extra, coef = 0.0, 0.0
    if src is not None:
        extra = 0.5 if _typed_source(src)._poisson else 0.0
        coef = src.burstiness
    erg = ergodic_capacity(spec, snr)
    var_nu = log_rate_cov_sum(spec, snr)
    derivative = -0.5 * var_nu - 0.5 * coef * erg * erg - extra * erg
    return AsymptoticSlopes(erg, derivative)


def high_snr_slope(src, theta: float) -> float:
    """Prelog of (1/m) r* versus log2(snr) as snr grows without bound.

    i.i.d. Rayleigh gains assumed.  It reads the source's mean rate over
    its top mean rate around a cycle (``_high_snr_factor``) and whether
    its arrivals are Poisson, so ``src`` is a two-state ON/OFF source of
    a named family; any other source is a TypeError.  Piecewise in theta
    with a continuous seam at theta = log_e2 and value 1 at theta = 0 for
    every source.
    """
    p_on, factor = _typed_source(src, "_high_snr_factor").p_on, src._high_snr_factor
    theta = _check_scalar("theta", theta, positive=False)
    if not (0.0 < p_on <= 1.0):
        raise ValueError(f"p_on must lie in (0, 1], got {p_on}")
    if theta == 0.0:
        return 1.0
    if src._poisson:
        with np.errstate(over="ignore"):  # theta past ln(DBL_MAX): em = inf, slope 0
            em = float(np.expm1(theta))
        return factor * LN2 / em if theta >= LN2 else factor * theta / em
    return factor * LN2 / theta if theta >= LN2 else factor
