"""Low-snr energy efficiency: minimum energy per bit and wideband slope.

Every source has the same closed form, which reads one number from the
source: its burstiness coefficient sigma^2/mu^2 (the source's
``burstiness``: eta or zeta for the two-state sources, one
subtraction-free elimination for a matrix source, zero for constant-rate
arrivals).  The minimum received energy per bit is log_e2 over the mean
channel gain regardless of burstiness and QoS strictness, except that
Poisson arrivals (an MMPP) pay an (e^theta - 1)/theta penalty.
Burstiness and correlation instead show up in the wideband slope.  A
numeric route differentiates the r*(snr) curve at snr = 0; it is an
independent check of the closed form, and nothing else calls it.
``source_energy_metrics`` and ``source_ebn0_curve`` take any source
object (``None`` for constant-rate arrivals); the kind-string functions
name that source by keywords, which ``_kind_source`` alone reads.
Builders for the n-state reference models live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channel import LN2, ChannelSpec, effective_capacity_quadrature, fading_moments
from .errors import IllConditioned, _check_scalar, _exact_number
from .sources import (
    DiscreteMarkovSource,
    FluidMarkovSource,
    OnOffDiscreteParams,
    OnOffFluidParams,
    OnOffMmppParams,
    _expm1,
    _typed_source,
)
from .throughput import max_avg_rate

_RICHARDSON_H = 1e-4
_RICHARDSON_REL_TOL = 1e-2
_RICHARDSON_RETRIES = 4

# the two-state sources by the kind label each carries
_ONOFF_KINDS = {
    cls._kind: cls for cls in (OnOffDiscreteParams, OnOffFluidParams, OnOffMmppParams)
}
# every kind a kind-string entry point takes: constant-rate arrivals, a
# two-state source by its label, or any source object as ``nstate``
_KINDS = ("constant", *_ONOFF_KINDS, "nstate")


@dataclass(frozen=True)
class EnergyMetrics:
    """Minimum energy per bit and wideband slope at one QoS exponent."""

    ebn0_min_linear: float
    ebn0_min_db: float
    wideband_slope: float
    theta: float


@dataclass(frozen=True)
class EbN0CurvePoint:
    """One sweep point: normalized rate against received E_b/N_0."""

    ebn0_db: float
    normalized_rate: float
    snr: float


def _metrics_from_coef(spec: ChannelSpec, theta: float, coef: float) -> EnergyMetrics:
    """Shared Theorem 8/9/10 shape: only the burstiness coefficient varies."""
    mom = fading_moments(spec)
    ebn0 = LN2 / mom.mean_z
    den = (
        theta / (spec.m * LN2) * mom.cov_sum
        + mom.mean_z_sq
        + coef * (theta * spec.m / LN2) * mom.mean_z ** 2
    )
    slope = 2.0 * mom.mean_z ** 2 / den
    return EnergyMetrics(ebn0, 10.0 * math.log10(ebn0), slope, theta)


def source_kind(src) -> str:
    """The kind label of a source: ``constant`` for ``None`` (constant-rate
    arrivals), the family of a two-state ON/OFF source, ``nstate`` for a
    matrix source.  Anything else (the family-less continuous parameters,
    say) is a TypeError."""
    return "constant" if src is None else _typed_source(src)._kind


def _kind_source(kind: str, p11, p22, alpha, beta, source):
    """The source a kind-string call names; ``None`` is constant-rate.
    A two-state source is built with lam = 0: its rate is solved for."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if kind == "constant":
        return None
    if kind == "nstate":
        if source is None:
            raise ValueError("nstate kind requires a source object")
        return source
    cls = _ONOFF_KINDS[kind]
    if cls is OnOffDiscreteParams:
        if p11 is None or p22 is None:
            raise ValueError("discrete kind requires p11 and p22")
        return cls(p11, p22, 0.0)
    if alpha is None or beta is None:
        raise ValueError(f"{kind} kind requires alpha and beta")
    return cls(alpha, beta, 0.0)


def source_energy_metrics(src, spec: ChannelSpec, theta: float):
    """(kind, metrics, provenance) of any source at one QoS exponent.

    Every source's metrics come from its burstiness.  Poisson arrivals
    (an MMPP) pay (e^theta - 1)/theta on the bit energy, and at theta = 0
    they are the fluid source; past theta = ln(DBL_MAX) that is inf, and
    the metrics their limit, E_b/N_0 = inf and slope 0.  The provenance
    is ``closed_form`` for ``None`` (constant-rate arrivals) and the
    two-state ON/OFF sources, and ``deviation_matrix`` for a matrix
    source, whose kind is ``nstate``.  The kind is ``source_kind(src)``.
    """
    kind = source_kind(src)
    theta = _check_scalar("theta", theta, positive=False)
    metrics = _metrics_from_coef(spec, theta, 0.0 if src is None else src.burstiness)
    if src is not None and src._poisson and theta != 0.0:
        penalty = _expm1(theta) / theta
        ebn0 = metrics.ebn0_min_linear * penalty
        metrics = EnergyMetrics(
            ebn0, 10.0 * math.log10(ebn0), metrics.wideband_slope / penalty, theta
        )
    return kind, metrics, "deviation_matrix" if kind == "nstate" else "closed_form"


def energy_metrics_onoff_discrete(
    spec: ChannelSpec, theta: float, p11: float, p22: float
) -> EnergyMetrics:
    return source_energy_metrics(OnOffDiscreteParams(p11, p22, 0.0), spec, theta)[1]


def energy_metrics_onoff_fluid(
    spec: ChannelSpec, theta: float, alpha: float, beta: float
) -> EnergyMetrics:
    return source_energy_metrics(OnOffFluidParams(alpha, beta, 0.0), spec, theta)[1]


def energy_metrics_onoff_mmpp(
    spec: ChannelSpec, theta: float, alpha: float, beta: float
) -> EnergyMetrics:
    """MMPP pays (e^theta - 1)/theta on the bit energy; theta = 0 is fluid."""
    return source_energy_metrics(OnOffMmppParams(alpha, beta, 0.0), spec, theta)[1]


def build_binomial_discrete_source(n: int, s: float, lam: float) -> DiscreteMarkovSource:
    """n-state discrete source of n-1 independent ON/OFF microsources.

    Each microsource is ON with probability s independently per block,
    so the state (number ON, plus one) is memoryless: every row of the
    transition matrix is the binomial law itself.  The law is computed in
    exact integer arithmetic and rounded once per entry, so it neither
    overflows nor drifts from a unit row sum at any n.
    """
    n = _exact_number("n", int, n)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    s = _exact_number("s", float, s)
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"s must lie in [0, 1], got {s}")
    lam = _check_scalar("lam", lam, positive=False)
    return DiscreteMarkovSource(np.tile(_binomial_pmf(n - 1, s), (n, 1)), lam * np.arange(n))


def _binomial_pmf(trials: int, s: float) -> np.ndarray:
    """P(k successes in ``trials``), k = 0..trials, correctly rounded."""
    num, den = s.as_integer_ratio()  # s = num / den exactly
    # count with the likelier outcome as failure, so its weight is nonzero
    rare, common = sorted((num, den - num))
    # terms[k] = comb(trials, k) rare^k common^(trials - k); each division
    # below is exact
    term = common ** trials
    terms = [term]
    for k in range(trials):
        term = term * (trials - k) * rare // ((k + 1) * common)
        terms.append(term)
    total = den ** trials
    pmf = np.array([t / total for t in terms])
    return pmf[::-1] if num > den - num else pmf


def build_birth_death_fluid(n: int, alpha: float, beta: float, lam: float) -> FluidMarkovSource:
    """n-state birth-death fluid source; state i sends at (i-1)*lam.

    Births (rate alpha) move one state up, deaths (rate beta) one down.
    alpha = beta is accepted: the stationary law is then uniform, the
    limit of the geometric law in xi = alpha/beta.
    """
    n = _exact_number("n", int, n)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    alpha = _check_scalar("alpha", alpha)
    beta = _check_scalar("beta", beta)
    lam = _check_scalar("lam", lam, positive=False)
    G = np.zeros((n, n))
    i = np.arange(n - 1)
    G[i, i + 1], G[i + 1, i] = alpha, beta
    np.fill_diagonal(G, -(alpha + beta))
    G[0, 0], G[n - 1, n - 1] = -alpha, -beta
    return FluidMarkovSource(G, lam * np.arange(n))


def _reraise_at_snr(exc: Exception, snr: float):
    try:
        wrapped = type(exc)(f"at snr = {snr:g}: {exc}")
    except TypeError:
        raise exc
    raise wrapped from exc


def _rate_curve(src, spec: ChannelSpec, theta: float):
    """snr -> r_avg_star of a source on the quadrature C_E; ``None``
    (constant-rate arrivals) carries C_E itself."""

    def r_of(snr):
        ce = effective_capacity_quadrature(spec, snr, theta).value
        return ce if src is None else max_avg_rate(src, ce, theta).r_avg_star

    return r_of


def ebn0_curve(
    kind: str,
    spec: ChannelSpec,
    theta: float,
    snr_grid: Sequence[float],
    *,
    p11: Optional[float] = None,
    p22: Optional[float] = None,
    alpha: Optional[float] = None,
    beta: Optional[float] = None,
    source=None,
) -> list:
    """Sweep snr and report (E_b/N_0, rate/symbol) operating points of
    the source that ``kind`` and the keywords name; see
    ``source_ebn0_curve``."""
    src = _kind_source(kind, p11, p22, alpha, beta, source)
    return source_ebn0_curve(src, spec, theta, snr_grid)


def source_ebn0_curve(src, spec: ChannelSpec, theta: float, snr_grid: Sequence[float]) -> list:
    """Sweep snr and report (E_b/N_0, rate/symbol) operating points of
    any source (``None`` for constant-rate arrivals).

    C_E comes from the deterministic quadrature route
    (``effective_capacity_quadrature``) at every point.  Points where the
    supportable rate is zero are dropped.  Capacity and solver failures
    are re-raised with the offending snr attached.
    """
    grid = [_check_scalar(f"snr_grid[{i}]", s) for i, s in enumerate(snr_grid)]
    if not grid:
        raise ValueError("snr_grid must not be empty")
    if sorted(grid) != grid:
        raise ValueError("snr_grid must be sorted ascending")
    r_of = _rate_curve(src, spec, theta)
    points = []
    for snr in grid:
        try:
            r_star = r_of(snr)
        except (ValueError, TypeError):
            raise
        except Exception as exc:  # numeric failures gain sweep context
            _reraise_at_snr(exc, snr)
        if r_star == 0.0:
            continue
        rate = r_star / spec.m
        points.append(EbN0CurvePoint(10.0 * math.log10(snr / rate), rate, snr))
    return points


def numeric_energy_metrics(
    kind: str,
    spec: ChannelSpec,
    theta: float,
    *,
    p11: Optional[float] = None,
    p22: Optional[float] = None,
    alpha: Optional[float] = None,
    beta: Optional[float] = None,
    source=None,
) -> EnergyMetrics:
    """Energy metrics from derivatives of r*(snr) at snr = 0.

    Richardson extrapolation of first differences built on r*(h), r*(2h)
    and r*(4h), from h = _RICHARDSON_H; r*(0) = 0 exactly.  When the
    extrapolant consistency check fails the step is halved and the
    stencil rebuilt (bursty sources carry large high-order
    snr-derivatives, so the initial h can be truncation-dominated); after
    _RICHARDSON_RETRIES halvings the failure is reported.  C_E comes from
    the deterministic quadrature route: second differences would amplify
    Monte Carlo noise far beyond usability.  ``source_energy_metrics``
    gives the same metrics in closed form; this route is kept as its
    independent check.
    """
    src = _kind_source(kind, p11, p22, alpha, beta, source)
    theta = _check_scalar("theta", theta)
    r_of = _rate_curve(src, spec, theta)
    h = _RICHARDSON_H
    for attempt in range(_RICHARDSON_RETRIES + 1):
        last = attempt == _RICHARDSON_RETRIES
        r1, r2, r4 = r_of(h), r_of(2 * h), r_of(4 * h)
        # first derivative: r(0) = 0 makes r(s)/s a one-sided difference
        d1, d2 = r1 / h, r2 / (2 * h)
        lvl1 = 2 * d1 - d2
        lvl2 = 2 * d2 - r4 / (4 * h)
        r_dot = (4 * lvl1 - lvl2) / 3.0
        if r_dot <= 0 or abs(lvl1 - lvl2) > _RICHARDSON_REL_TOL * abs(r_dot):
            if last:
                raise IllConditioned(
                    f"first-derivative extrapolants disagree ({lvl1:g} vs "
                    f"{lvl2:g}); the rate curve is too rough at this theta"
                )
            h *= 0.5
            continue
        q1 = (r2 - 2 * r1) / h ** 2
        q2 = (r4 - 2 * r2) / (2 * h) ** 2
        r_ddot = 2 * q1 - q2
        if r_ddot >= 0 or abs(q1 - q2) > _RICHARDSON_REL_TOL * abs(r_ddot):
            if last:
                raise IllConditioned(
                    f"second-derivative extrapolants disagree ({q1:g} vs "
                    f"{q2:g}); the rate curve is too rough at this theta"
                )
            h *= 0.5
            continue
        break
    rn_dot = r_dot / spec.m
    rn_ddot = r_ddot / spec.m
    ebn0 = 1.0 / rn_dot
    slope = -2.0 * rn_dot ** 2 * LN2 / rn_ddot
    return EnergyMetrics(ebn0, 10.0 * math.log10(ebn0), slope, theta)
