"""Exception types, the scalar-argument check, the one number rule, the
seed rule, the unknown-field check and the machine epsilon shared across
the package."""

import math
import numbers
import sys

_EPS = sys.float_info.epsilon


def _check_scalar(name: str, value, positive: bool = True) -> float:
    """``value`` by the one number rule, > 0 (``positive``) or >= 0, else a
    ValueError whose message opens with ``name``: ``source_from_json``
    reads that first word as the field to blame."""
    value = _exact_number(name, float, value)
    if value < 0 or (positive and value == 0):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")
    return value


def _exact_number(path: str, kind: type, value):
    """``value`` as ``kind`` (int or float) when it is a finite real
    number that kind holds exactly: no bool, no string, no NaN or
    infinity, no 2.5 for an int.  numpy numbers count.  This is the one
    rule for every number an input document or a ``SimConfig`` holds;
    it raises a ValidationError naming ``path``."""
    number = None
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = kind(value)
        except (ValueError, OverflowError):  # int() of NaN or infinity
            pass
    if number is None or number != value or abs(number) == math.inf:
        what = "an integer" if kind is int else "a finite number"
        raise ValidationError(path, f"must be {what}, got {value!r}")
    return number


def _check_seed(path: str, value) -> int:
    """``value`` as a seed: an integer (the one number rule) in [0, 2^64),
    the range of one unsigned 64-bit word, else a ValidationError naming
    ``path``.  Every seed a caller gives is read by this rule."""
    seed = _exact_number(path, int, value)
    if not 0 <= seed < 2 ** 64:
        raise ValidationError(path, "must fit in an unsigned 64-bit integer")
    return seed


def _known_fields(doc: dict, fields, prefix: str = "") -> None:
    """Reject the first key of the input document ``doc`` that is not
    one of ``fields``, with a ValidationError naming ``prefix + key``: a
    misspelt optional field would otherwise fall back to its default."""
    for key in doc:
        if key not in fields:
            raise ValidationError(f"{prefix}{key}", "unknown field")


class QoslinkError(Exception):
    """Base class for all qoslink-specific errors."""


class ValidationError(QoslinkError, ValueError):
    """Malformed input document or argument; carries the offending field
    path."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        self.message = message
        super().__init__(f"{field_path}: {message}")


class NoUniqueStationary(QoslinkError):
    """Chain/generator does not have a unique stationary distribution."""


class NonConvergence(QoslinkError):
    """The eigenvalue solver failed, or a spectral radius collapsed to zero."""


class DegenerateEstimate(QoslinkError):
    """Monte Carlo estimate underflowed or is otherwise unusable."""


class QuadratureFailure(QoslinkError):
    """A quadrature rule gave a non-finite or out-of-range value."""


class BracketFailure(QoslinkError):
    """No rate scale meets the target: the source has no usable rate
    states (all its rates are 0)."""


class UnstableQueue(QoslinkError):
    """Mean arrival rate exceeds mean service rate; queue diverges."""


class InsufficientTail(QoslinkError):
    """Too few usable tail points for a decay-slope fit."""


class IllConditioned(QoslinkError):
    """Numerical differentiation stencils disagree beyond tolerance."""
