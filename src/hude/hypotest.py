"""Goodness-of-fit decisions on residuals.

A fitted model is accepted when its residuals look like a sample of the
linear uncertainty distribution on [0, 1]: at significance ``alpha`` the fit
is rejected iff at least ``ceil(alpha * M)`` residuals (never fewer than one)
fall into the tails ``[0, alpha/2) or (1 - alpha/2, 1]``.

A two-sample Kolmogorov-Smirnov diagnostic is included for checking whether
two residual stretches could share a population in the probabilistic sense;
it uses the small-sample-corrected asymptotic p-value of the classical
Kolmogorov series, the same approximation the common black-box routines use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .residuals import ResidualVector
from .validation import check_unit_interval

__all__ = [
    "TestReport",
    "KsResult",
    "uncertain_hypothesis_test",
    "two_sample_ks",
]


@dataclass(frozen=True)
class TestReport:
    """Outcome of the tail-count test on a residual sample."""

    alpha: float
    count: int
    threshold: int
    outlier_indices: tuple[int, ...]
    reject: bool

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "count": self.count,
            "threshold": self.threshold,
            "outliers": list(self.outlier_indices),
            "reject": self.reject,
        }


def _ceil_exact(value: float) -> int:
    # 0.05 * 60 is 3.0000000000000004 in binary; do not let that become 4.
    return int(math.ceil(value - 1e-9))


def uncertain_hypothesis_test(residuals, alpha: float = 0.05) -> TestReport:
    """Tail-count test: reject when at least ``max(ceil(alpha*M), 1)``
    residuals fall strictly outside ``[alpha/2, 1 - alpha/2]``."""
    check_unit_interval("significance level", alpha)
    if isinstance(residuals, ResidualVector):
        eps = residuals.epsilons
        indices = residuals.indices
    else:
        eps = np.asarray(residuals, dtype=float).reshape(-1)
        indices = np.arange(1, eps.size + 1)
    if eps.size == 0:
        raise ValueError("residual sample cannot be empty")
    low = alpha / 2.0
    high = 1.0 - alpha / 2.0
    outliers = (eps < low) | (eps > high)
    threshold = max(_ceil_exact(alpha * eps.size), 1)
    count = int(outliers.sum())
    return TestReport(
        alpha=float(alpha),
        count=eps.size,
        threshold=threshold,
        outlier_indices=tuple(int(j) for j in indices[outliers]),
        reject=count >= threshold,
    )


@dataclass(frozen=True)
class KsResult:
    d: float
    p_value: float
    reject_at_5pct: bool


def _kolmogorov_sf(lam: float) -> float:
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
    return min(max(total, 0.0), 1.0)


def two_sample_ks(a, b) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test at the 5% level.

    ``d`` is the maximum gap between the two empirical CDFs over the pooled
    sample; the p-value applies the finite-sample correction
    ``lambda = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * d`` with
    ``ne = na*nb/(na+nb)`` before the Kolmogorov series.
    """
    a = np.sort(np.asarray(a, dtype=float).reshape(-1))
    b = np.sort(np.asarray(b, dtype=float).reshape(-1))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    ne = a.size * b.size / (a.size + b.size)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    p = _kolmogorov_sf(lam)
    return KsResult(d=d, p_value=p, reject_at_5pct=p <= 0.05)
