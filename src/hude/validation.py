"""Input validation helpers shared by the estimator API."""

from __future__ import annotations

__all__ = [
    "NotFittedError",
    "check_unit_interval",
    "check_is_fitted",
]


class NotFittedError(Exception):
    """The estimator must be fitted before this call."""


def check_unit_interval(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1)")
    return value


def check_is_fitted(estimator, attributes=("theta_",)):
    missing = [a for a in attributes if not hasattr(estimator, a)]
    if missing:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit first"
        )
