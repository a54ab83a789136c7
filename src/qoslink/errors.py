"""Exception types and the QoS-exponent checks shared across the package."""

import math


def _check_theta(theta: float) -> float:
    """theta as a float, which must be finite and > 0 (1/bit)."""
    theta = float(theta)
    if not math.isfinite(theta) or theta <= 0:
        raise ValueError(f"theta must be finite and > 0, got {theta}")
    return theta


def _check_theta_nonneg(theta: float) -> float:
    """theta as a float, finite and >= 0: the theta -> 0 limits admit 0."""
    theta = float(theta)
    if not math.isfinite(theta) or theta < 0:
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    return theta


class QoslinkError(Exception):
    """Base class for all qoslink-specific errors."""


class ValidationError(QoslinkError):
    """Malformed input document; carries the offending field path."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


class NoUniqueStationary(QoslinkError):
    """Chain/generator does not have a unique stationary distribution."""


class NonConvergence(QoslinkError):
    """The eigenvalue solver failed, or a spectral radius collapsed to zero."""


class DegenerateEstimate(QoslinkError):
    """Monte Carlo estimate underflowed or is otherwise unusable."""


class QuadratureFailure(QoslinkError):
    """A quadrature rule gave a non-finite or out-of-range value."""


class InvalidRegime(QoslinkError):
    """Closed-form solver hit an argument outside its proven domain."""


class BracketFailure(QoslinkError):
    """Root bracketing never enclosed the target (degenerate source)."""


class UnstableQueue(QoslinkError):
    """Mean arrival rate exceeds mean service rate; queue diverges."""


class InsufficientTail(QoslinkError):
    """Too few usable tail points for a decay-slope fit."""


class IllConditioned(QoslinkError):
    """Numerical differentiation stencils disagree beyond tolerance."""
