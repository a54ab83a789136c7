"""Maximum average arrival rate under a queue-decay constraint.

Given the effective capacity C_E of the link at exponent theta, these
solvers find the largest mean arrival rate a Markovian source can carry
while the queue-tail requirement still holds: the source's effective
bandwidth at theta must not exceed C_E.  Two-state ON/OFF sources carry
closed forms.  For general n-state sources the per-state rate scale of
a reversible fluid or MMPP chain comes from its cached spectrum (the
pencil route, one symmetric eigenvalue per solve); every other
source's is found by Brent's method on the raw-array kernel the source
carries.
``max_avg_rate`` takes any source.  Asymptotic behavior at theta -> 0
(ergodic limit and first derivative) and at high snr (rate prelog) is
also exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LN2, ChannelSpec, ergodic_capacity, log_rate_cov_sum
from .errors import BracketFailure, NonConvergence, _EPS, _check_scalar
from .sources import OnOffDiscreteParams, OnOffFluidParams, OnOffMmppParams, _typed_source

_BRACKET_CAP_DOUBLINGS = 60
# The Brent solve's relative tolerance on the scale is the kernel's noise
# clipped to this range: 4 machine epsilons is the least Charles Harris's
# C brentq accepts (a step of a few ulps no longer moves the iterate), and
# the cap keeps a pessimistic noise figure from costing digits.  The absolute
# tolerance is the smallest normal float, which leaves the relative one
# in charge
_SCALE_REL_TOL = 4.0 * _EPS
_SCALE_REL_TOL_MAX = 1e-12
_SCALE_ABS_TOL = float(np.finfo(float).tiny)
_BRENT_MAX_ITER = 100


@dataclass(frozen=True)
class ThroughputResult:
    """Solution of the max-average-rate problem at one (theta, C_E)."""

    r_avg_star: float
    lambda_star: float
    theta: float
    effective_capacity: float
    method: str  # closed_form | pencil | root_find
    iterations: int = 0  # effective-bandwidth evaluations, bracket included
    # |a*(theta; lambda_star) - C_E| / C_E; on the pencil route it is the
    # kernel's own rounding noise, up to eps * _noise_norm / C_E, and not
    # how far lambda_star is off
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


def _brent(f, xa: float, xb: float, fa: float, fb: float, xtol: float, rtol: float) -> float:
    """Root of f in [xa, xb] by Brent's method, given fa = f(xa), fb = f(xb).

    A line-for-line port of Charles Harris's C routine ``brentq``:
    the same float operations in the same order, so the same iterates
    and the same returned point, but the bracket values come in already
    computed.  The step stops once half the bracket is below
    (xtol + rtol |x|) / 2.  Ends of equal sign, or a NaN end, raise
    BracketFailure; a NaN value on the way, or _BRENT_MAX_ITER steps
    without convergence, raise NonConvergence.
    """
    # Python floats round as the C doubles do, and overflow to inf or
    # divide by zero (caught below) without numpy's RuntimeWarning
    xpre, xcur, fpre, fcur = float(xa), float(xb), float(fa), float(fb)
    xtol, rtol = float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.isnan(fpre) or math.isnan(fcur) or (fpre < 0.0) == (fcur < 0.0):
        raise BracketFailure(
            f"f({xa!r}) = {fpre!r} and f({xb!r}) = {fcur!r} do not bracket a root"
        )
    for _ in range(_BRENT_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.nan  # C divides to inf or NaN, and so bisects below
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise NonConvergence(f"the function is NaN at {xcur!r}")
    raise NonConvergence(f"Brent's method did not converge in {_BRENT_MAX_ITER} steps")


def max_avg_rate_nstate(src, theta: float, ce: float) -> ThroughputResult:
    """Solver for sources whose rates are shape * scale.

    The rate vector of ``src`` is read as the shape coefficients c_i
    (build the source with unit rate scale); the solver finds the scale
    lambda* with a*(theta; lambda* c) = C_E.  A source that has the
    scale in closed form (``_pencil_scale``: a reversible fluid or MMPP
    chain) gives it from its cached spectrum, exact down to any C_E > 0,
    and one kernel call at lambda* reports the residual (method
    ``pencil``).  That residual is bounded by the kernel's rounding
    noise, eps times the source's ``_noise_norm`` over C_E, not by how
    accurate lambda* is: at C_E = 1e-20 a right lambda* can read 1e4.
    Every other source is searched (``root_find``), using that the
    effective bandwidth is monotone in the scale.  The source is
    validated once; each step calls the effective-bandwidth kernel on
    raw arrays.  The bracket doubles from C_E until it encloses the
    root, then ``_brent`` (Harris's C brentq, ported so that it starts
    from the bracket values already computed) narrows it to the kernel's
    rounding noise relative to C_E (eps times the matrix norm in units
    of a*, at the bracket's upper end), but to no less than 4 machine
    epsilons and no more than 1e-12.  Asking for less than the noise
    only makes Brent's method fall back to bisection (22 evaluations
    instead of 8 for the two-state fluid source at C_E = 1e-3, theta =
    0.1).  The result reports the evaluations made and the relative
    residual.
    """
    ce = _check_scalar("effective capacity", ce, positive=False)
    theta = _check_scalar("theta", theta)
    src = _typed_source(src, "_kernel")
    matrix, shape, kernel, reversible = src._matrix, src._rates, src._kernel, src.reversible
    mean_shape = float(src._stationary @ shape)
    if ce == 0.0:
        return ThroughputResult(0.0, 0.0, theta, ce, "root_find")
    lam = src._pencil_scale(theta, ce)
    if lam is not None:
        # one kernel call reports how well the kernel meets the target there
        resid = abs(kernel(matrix, lam * shape, theta, reversible) - ce) / ce
        return ThroughputResult(lam * mean_shape, lam, theta, ce, "pencil",
                                iterations=1, residual=resid)
    # every evaluation, keyed by scale; the Brent solve returns one of
    # them.  Zero rates give a* = 0 exactly.
    excess = {0.0: -ce}

    def f(scale):
        if scale not in excess:
            excess[scale] = kernel(matrix, scale * shape, theta, reversible) - ce
        return excess[scale]

    hi = ce
    doublings = 0
    while f(hi) < 0.0:
        hi *= 2.0
        doublings += 1
        if doublings > _BRACKET_CAP_DOUBLINGS:
            raise BracketFailure(
                "effective bandwidth never reaches the target capacity; "
                "the source has no usable rate states"
            )
    lo = 0.5 * hi if doublings else 0.0
    # rounding moves a* by about eps times the kernel's matrix norm in
    # units of a*, near a* = C_E
    norm = src._noise_norm(hi * float(np.max(shape)), theta, ce)
    rtol = min(max(_EPS * norm / ce, _SCALE_REL_TOL), _SCALE_REL_TOL_MAX)
    lam = _brent(f, lo, hi, excess[lo], excess[hi], _SCALE_ABS_TOL, rtol)
    return ThroughputResult(
        lam * mean_shape, lam, theta, ce, "root_find",
        iterations=len(excess) - 1, residual=abs(excess[lam]) / ce,
    )


def low_theta_asymptotics(src, spec: ChannelSpec, snr: float) -> AsymptoticSlopes:
    """Value and slope of r*(theta) at theta = 0 for the source ``src``
    (``None`` for constant-rate arrivals).

    The limit is the ergodic capacity for every source.  The derivative
    is -(1/2) var(nu) minus the source's burstiness sigma^2/mu^2 times
    half the squared ergodic capacity (zero for constant-rate arrivals;
    eta or zeta for a two-state source, a deviation-matrix solve for a
    matrix source); Poisson arrivals (an MMPP) lose an extra
    ergodic-capacity/2 on top.  A source that names no family (the
    family-less ``OnOffContinuousParams``) is a TypeError.
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

    i.i.d. Rayleigh gains assumed.  It reads the source's ON probability
    ``p_on`` and whether its arrivals are Poisson, so ``src`` is a
    two-state ON/OFF source of a named family; any other source is a
    TypeError.  Piecewise in theta with a continuous seam at theta =
    log_e2 and value 1 at theta = 0 for every source.
    """
    p_on, poisson = _typed_source(src, "p_on").p_on, src._poisson
    theta = _check_scalar("theta", theta, positive=False)
    if not (0.0 < p_on <= 1.0):
        raise ValueError(f"p_on must lie in (0, 1], got {p_on}")
    if theta == 0.0:
        return 1.0
    if poisson:
        with np.errstate(over="ignore"):  # theta past ln(DBL_MAX): em = inf, slope 0
            em = float(np.expm1(theta))
        return p_on * LN2 / em if theta >= LN2 else p_on * theta / em
    return p_on * LN2 / theta if theta >= LN2 else p_on
