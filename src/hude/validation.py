"""Input validation helpers: the level rule shared by every module, and the
estimator API's checks."""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotFittedError",
    "check_unit_interval",
    "check_is_fitted",
]


class NotFittedError(Exception):
    """The estimator must be fitted before this call."""


def check_unit_interval(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless the level ``value``, a scalar
    or an array of levels, lies strictly inside (0, 1); NaN does not."""
    value = np.asarray(value, dtype=float)
    if not ((value > 0.0) & (value < 1.0)).all():
        raise ValueError(f"{name} must lie strictly inside (0, 1)")


def check_is_fitted(estimator, attributes=("theta_",)):
    missing = [a for a in attributes if not hasattr(estimator, a)]
    if missing:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit first"
        )
