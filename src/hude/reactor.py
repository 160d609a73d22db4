"""Point-kinetics reactor models driven by uncertain noise, plus the bundled
case-study dataset.

The neutron population ``N_t`` of a lumped reactor with one delayed-neutron
precursor group obeys the second-order equation

    N'' = ((k(1-beta) - 1)/l - lambda) N' + lambda (k-1)/l N

with ``k`` the effective multiplication constant, ``beta`` the delayed
neutron fraction, ``lambda`` the precursor decay constant and ``l`` the
neutron lifetime.  Environmental disturbance of ``beta`` and ``lambda`` at
noise levels ``sigma1``, ``sigma2`` adds the diffusion terms

    g1 = -(k/l) sigma1 N'          g2 = sigma2 ((k-1)/l N - N')

turning the dynamics into an order-2 uncertain differential equation.  The
six-group deterministic point-kinetics system is also provided, as is the
closed-form inverse uncertainty distribution of the simplified (N >> N')
case-study dynamics.

The bundled dataset holds 61 neutron-population observations on t in [0, 6]
(initial value 1.2157) and a 60-residual reference set computed from them at
the fitted noise levels sigma1 = 0.000143, sigma2 = 0.296798.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .model import (HudeModel, InitialState, VectorField, alpha_path_field,
                    phi_inv)
from .residuals import ObservationSeries, ResidualVector

__all__ = [
    "ReactorParams",
    "THERMAL_U235",
    "FITTED_THETA",
    "CASE_STUDY_INIT",
    "build_reactor_hude",
    "build_point_kinetics",
    "simplified_alpha_coefficients",
    "simplified_alpha_field",
    "closed_form_psi_inv",
    "table3",
    "table4",
]


@dataclass(frozen=True)
class ReactorParams:
    """Physical constants of a lumped reactor.

    decay_constant        lambda, precursor decay rate [1/s]
    delayed_fraction      beta, delayed neutron fraction (0 < beta < 1)
    multiplication        k, effective multiplication constant
    neutron_lifetime      l, mean neutron lifetime [s]
    sigma1, sigma2        noise levels on beta and lambda (>= 0)
    group_fractions       optional six-group beta_i (summing to beta)
    group_decay_constants optional six-group lambda_i
    source_rate           extraneous neutron source B [neutrons/s]
    """

    decay_constant: float
    delayed_fraction: float
    multiplication: float
    neutron_lifetime: float
    sigma1: float = 0.0
    sigma2: float = 0.0
    group_fractions: tuple[float, ...] | None = None
    group_decay_constants: tuple[float, ...] | None = None
    source_rate: float = 0.0

    def __post_init__(self):
        if not self.neutron_lifetime > 0:
            raise ValueError("neutron lifetime must be positive")
        if not 0.0 < self.delayed_fraction < 1.0:
            raise ValueError("delayed neutron fraction must lie in (0, 1)")
        if self.sigma1 < 0 or self.sigma2 < 0:
            raise ValueError("noise levels must be non-negative")
        groups = (self.group_fractions, self.group_decay_constants)
        if (groups[0] is None) != (groups[1] is None):
            raise ValueError("provide both group fractions and decay constants")
        if groups[0] is not None:
            fr = tuple(float(v) for v in groups[0])
            dc = tuple(float(v) for v in groups[1])
            if len(fr) != 6 or len(dc) != 6:
                raise ValueError("exactly six precursor groups expected")
            if abs(sum(fr) - self.delayed_fraction) > 1e-9:
                raise ValueError("group fractions must sum to the delayed fraction")
            object.__setattr__(self, "group_fractions", fr)
            object.__setattr__(self, "group_decay_constants", dc)


# Thermal fission of uranium-235; lifetimes and fractions in seconds.
THERMAL_U235 = ReactorParams(
    decay_constant=0.0785,
    delayed_fraction=0.0065,
    multiplication=1.001,
    neutron_lifetime=1e-4,
)

# Noise levels fitted to the bundled observations by moment estimation.
FITTED_THETA = {"sig1": 0.000143, "sig2": 0.296798}

# First observation of the bundled dataset with its forward-difference slope.
CASE_STUDY_INIT = InitialState(0.0, (1.2157, 0.008))


def build_reactor_hude(params: ReactorParams) -> HudeModel:
    """Order-2 uncertain model of the neutron population.

    Noise levels enter as the free parameters ``sig1``/``sig2``; the values
    carried by ``params`` are bound as ``theta`` so the model is immediately
    solvable and still re-estimable.
    """
    lam = params.decay_constant
    beta = params.delayed_fraction
    k = params.multiplication
    l_n = params.neutron_lifetime
    damping = (k * (1.0 - beta) - 1.0) / l_n - lam
    restoring = lam * (k - 1.0) / l_n
    k_over_l = k / l_n
    km1_over_l = (k - 1.0) / l_n
    drift = f"({damping!r})*x1 + ({restoring!r})*x0"
    g1 = f"-({k_over_l!r})*sig1*x1"
    g2 = f"sig2*(({km1_over_l!r})*x0 - x1)"
    return HudeModel.parse(
        order=2,
        drift=drift,
        diffusions=[g1, g2],
        params=["sig1", "sig2"],
        theta={"sig1": params.sigma1, "sig2": params.sigma2},
    )


def build_point_kinetics(params: ReactorParams) -> VectorField:
    """Deterministic six-group point kinetics on ``y = (N, Q1..Q6)``:

        N'   = B + sum_i lambda_i Q_i + (k(1-beta)-1)/l * N
        Q_i' = -lambda_i Q_i + k beta_i / l * N
    """
    if params.group_fractions is None:
        raise ValueError("six precursor groups are required")
    lam = np.asarray(params.group_decay_constants, dtype=float)
    frac = np.asarray(params.group_fractions, dtype=float)
    k = params.multiplication
    l_n = params.neutron_lifetime
    b = params.source_rate
    n_coeff = (k * (1.0 - params.delayed_fraction) - 1.0) / l_n
    q_coeff = k * frac / l_n

    def raw(t, y):
        F = np.empty_like(y)
        F[..., 0] = b + (y[..., 1:] * lam).sum(axis=-1) + n_coeff * y[..., 0]
        F[..., 1:] = -lam * y[..., 1:] + q_coeff * y[..., 0][..., None]
        return F

    return VectorField(raw, 7)


# Printed coefficients of the case-study dynamics; the simplification
# N >> N' merges both diffusion magnitudes into linear terms.
_DAMPING = -55.1435
_RESTORING = 0.785
_NOISE_ON_SLOPE = 1.134632  # 1.43143 - 0.296798
_NOISE_ON_LEVEL = 2.96798


def simplified_alpha_coefficients(alpha: float) -> tuple[float, float, float]:
    """Coefficients (P, R, T) of the simplified linear quantile dynamics
    ``N'' = P N' + R N`` with ``T = P^2 + 4R``."""
    phi = phi_inv(alpha)
    p = _DAMPING + _NOISE_ON_SLOPE * phi
    r = _RESTORING + _NOISE_ON_LEVEL * phi
    return p, r, p * p + 4.0 * r


def simplified_alpha_field(alpha: float) -> VectorField:
    """Vector field of the simplified case-study quantile dynamics: the
    alpha-path field of the diffusion-free model ``N'' = P N' + R N``, which
    runs through the generated and compiled kernels."""
    p, r, _ = simplified_alpha_coefficients(alpha)
    model = HudeModel.parse(2, f"({p!r})*x1 + ({r!r})*x0")
    return alpha_path_field(model, None, alpha)


def closed_form_psi_inv(t, alpha: float, n0: float = 1.2157,
                        n0_prime: float = 0.008):
    """Closed-form inverse uncertainty distribution of the simplified
    case-study dynamics, valid for ``0.4 < alpha < 1`` where the level
    coefficient R stays positive:

        psi(t) = e^{(P - sqrt(T)) t / 2} (-2 n0' + n0 (sqrt(T) + P)) / (2 sqrt(T))
               + e^{(P + sqrt(T)) t / 2} ( 2 n0' + n0 (sqrt(T) - P)) / (2 sqrt(T))

    Accepts a scalar or array ``t``.
    """
    if not 0.4 < alpha < 1.0:
        raise ValueError("alpha must lie in (0.4, 1) for the closed form")
    p, r, t_disc = simplified_alpha_coefficients(alpha)
    assert t_disc > 0.0, "discriminant is positive on the valid band"
    root = math.sqrt(t_disc)
    t = np.asarray(t, dtype=float)
    slow = np.exp(0.5 * (p - root) * t) * (-2.0 * n0_prime + n0 * (root + p))
    fast = np.exp(0.5 * (p + root) * t) * (2.0 * n0_prime + n0 * (root - p))
    out = (slow + fast) / (2.0 * root)
    return float(out) if out.ndim == 0 else out


def _data_path(name: str):
    return resources.files("hude.data").joinpath(name)


def table3() -> ObservationSeries:
    """The bundled 61 neutron-population observations on t in [0, 6]."""
    from .residuals import read_observations

    with resources.as_file(_data_path("reactor_observations.csv")) as path:
        return read_observations(path)


def table4() -> ResidualVector:
    """The bundled 60 reference residuals at the fitted noise levels."""
    with resources.as_file(_data_path("reactor_residuals.csv")) as path:
        return ResidualVector.from_csv(path)
