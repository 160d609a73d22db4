"""Model container and first-order reduction of the quantile-path dynamics.

An order-``n`` model

    x^(n) = f(t, x, x', ..., x^(n-1); theta)
            + sum_i g_i(t, x, ..., x^(n-1); theta) * noise_i

is reduced, for a quantile level ``alpha``, to the deterministic first-order
system ``y' = F(t, y)`` on ``y = (x, x', ..., x^(n-1))`` with

    F_k     = y_{k+1}                       for k < n-1
    F_{n-1} = f(t, y) + sum_i |g_i(t, y)| * phi_inv(alpha).

Solving this system yields the alpha-path of the model; when the right-hand
side is non-decreasing in ``y_0 .. y_{n-2}`` the alpha-path is the alpha
quantile of the solution at every time.  ``F_{n-1}`` is lowered once to an
op list (:func:`compile_model`): :func:`~hude.expr._evaluate` interprets it
for the values of the field, and :mod:`hude.odeint` generates the
integrator kernels from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .expr import (
    DomainError,
    ExprAst,
    _evaluate,
    _lower,
    _param_value,
    compile_expr,  # noqa: F401  (perfbench/layers.py wraps it here)
    parse_expr,
    to_source,
    variables,
)
from .validation import check_unit_interval

__all__ = [
    "HudeModel",
    "InitialState",
    "VectorField",
    "ConditionDomain",
    "AxisCheck",
    "ConditionReport",
    "ModelFormatError",
    "phi_inv",
    "alpha_path_field",
    "check_alpha_path_condition",
    "compile_model",
    "model_from_dict",
    "load_model",
]

_SQRT3_OVER_PI = math.sqrt(3.0) / math.pi
# Quantile levels are clamped this far away from {0, 1} so phi_inv stays finite.
ALPHA_CLAMP = 1e-12


class ModelFormatError(Exception):
    """A model file or dictionary does not have the expected layout."""


def phi_inv(alpha):
    """Inverse uncertainty distribution of the standard normal uncertain
    variable, ``(sqrt(3)/pi) * ln(alpha / (1 - alpha))``.

    Accepts a scalar or an array of levels, all strictly inside (0, 1).
    """
    a = np.asarray(alpha, dtype=float)
    check_unit_interval("alpha", a)
    out = _SQRT3_OVER_PI * np.log(a / (1.0 - a))
    if np.ndim(alpha) == 0:
        return float(out)
    return out


def _clamped_phi(alpha):
    """``phi_inv`` of the quantile level(s) ``alpha`` clamped to
    ``[ALPHA_CLAMP, 1 - ALPHA_CLAMP]``: the noise level of every quantile
    level integrated, an alpha-path's, a fan level, a simulated step's level
    and each bisection probe."""
    return phi_inv(np.minimum(np.maximum(alpha, ALPHA_CLAMP),
                              1.0 - ALPHA_CLAMP))


@dataclass(frozen=True)
class HudeModel:
    """Order-``n`` model: drift, diffusion expressions and named parameters."""

    order: int
    drift: ExprAst
    diffusions: tuple[ExprAst, ...] = ()
    params: tuple[str, ...] = ()
    theta: Mapping[str, float] | None = None

    def __post_init__(self):
        if not isinstance(self.order, int) or self.order < 1:
            raise ValueError("order must be an integer >= 1")
        object.__setattr__(self, "diffusions", tuple(self.diffusions))
        object.__setattr__(self, "params", tuple(self.params))
        if self.theta is not None:
            object.__setattr__(
                self, "theta", {k: float(v) for k, v in dict(self.theta).items()}
            )
        allowed = {"t", *(f"x{k}" for k in range(self.order)), *self.params}
        for expr in (self.drift, *self.diffusions):
            stray = variables(expr) - allowed
            if stray:
                raise ValueError(
                    f"expression references undeclared identifiers: {sorted(stray)}"
                )

    @classmethod
    def parse(
        cls,
        order: int,
        drift: str,
        diffusions: Sequence[str] = (),
        params: Sequence[str] = (),
        theta: Mapping[str, float] | None = None,
    ) -> "HudeModel":
        params = tuple(params)
        return cls(
            order=order,
            drift=parse_expr(drift, order, params),
            diffusions=tuple(parse_expr(g, order, params) for g in diffusions),
            params=params,
            theta=theta,
        )

    def bind(self, theta: Mapping[str, float]) -> "HudeModel":
        merged = {**(self.theta or {}), **{k: float(v) for k, v in theta.items()}}
        return HudeModel(self.order, self.drift, self.diffusions, self.params, merged)

    def resolved_theta(self, theta: Mapping[str, float] | None = None) -> dict:
        """Every parameter's value: ``theta`` over the bound ``self.theta``.

        Scalars become floats; a ``(B,)`` array (one value per batch row, see
        :func:`compile_model`) stays an array.
        """
        merged = {**(self.theta or {}), **(dict(theta) if theta else {})}
        missing = [p for p in self.params if p not in merged]
        if missing:
            raise ValueError(f"unbound parameter(s): {missing}")
        return {p: _param_value(merged[p]) for p in self.params}

    def to_dict(self) -> dict:
        out = {
            "order": self.order,
            "drift": to_source(self.drift),
            "diffusions": [to_source(g) for g in self.diffusions],
            "params": list(self.params),
        }
        if self.theta:
            out["theta"] = dict(self.theta)
        return out


@dataclass(frozen=True)
class InitialState:
    """Full state ``(x, x', ..., x^(n-1))`` at time ``t0``."""

    t0: float
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float).reshape(-1)
        if values.size < 1:
            raise ValueError("initial state needs at least one component")
        if not np.all(np.isfinite(values)):
            raise ValueError("initial state must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "values", values)

    @property
    def order(self) -> int:
        return self.values.size

    def check_order(self, n: int) -> None:
        """Raise ValueError unless the state has the ``n`` components of an
        order-``n`` model."""
        if self.values.size != n:
            raise ValueError(f"initial state must have {n} components")


class VectorField:
    """Callable first-order field ``F(t, y) -> dy/dt``.

    ``raw(t, y)`` evaluates on an array ``y`` with the state on its last axis,
    without finiteness checks, and is what the integrators drive (a
    :class:`ReducedField` runs through the generated row, column or
    compiled kernels of :mod:`hude.odeint`); calling the field
    directly validates the output and raises :class:`DomainError` on a
    non-finite value.
    """

    __slots__ = ("raw", "dim")

    def __init__(self, raw: Callable, dim: int):
        self.raw = raw
        self.dim = dim

    def __call__(self, t, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(all="ignore"):
            out = self.raw(t, y)
        if not np.all(np.isfinite(out)):
            raise DomainError(f"vector field is not finite at t={t}")
        return out


def compile_model(model: HudeModel, theta: Mapping[str, float] | None = None):
    """The model's code and its parameter values, kept apart: ``(code,
    values)``.

    ``code`` is ``(plain, noisy, names)``: the reduced field's last
    derivative (see the module docstring) lowered to ``(ops, value)``
    (:func:`~hude.expr._lower`) without the noise, and with ``absolute(g) *
    phi`` added for each diffusion ``g`` in order; and the parameter each
    ``p`` slot stands for.  ``values`` is :meth:`HudeModel.resolved_theta`:
    a parameter may be a ``(B,)`` array instead of a float, and row ``i`` of
    a batch is then evaluated at the ``i``-th value, which lets one
    integration carry several parameter points.  A :class:`ReducedField`
    binds the values at call time, so the code of one model serves every
    parameter point.
    """
    values = model.resolved_theta(theta)
    ops, slots = [], {}
    value = _lower(model.drift, ops, slots)
    plain = (tuple(ops), value)
    for g in model.diffusions:
        g = _lower(g, ops, slots)
        ops += [("absolute", g), ("multiply", len(ops), "phi"),
                ("add", value, len(ops) + 1)]
        value = len(ops) - 1
    return (plain, (tuple(ops), value), tuple(slots)), values


class ReducedField:
    """The reduced first-order field at noise level ``phi`` (see the module
    docstring) of the model code and values :func:`compile_model` returns;
    ``phi`` is a float, or a ``(B,)`` array holding one level per batch row.

    Every form runs one op list for ``F = ((drift + |g1|*phi) + |g2|*phi)
    + ...`` (:func:`compile_model`).  The integrators run it through the
    kernels that :mod:`hude.odeint` generates from :meth:`_bound`.
    ``columns(n)`` is the field itself, ``f(t, x0, ..., x_{n-1}) -> (x1, ...,
    x_{n-1}, F)`` on floats or arrays, which the condition check and calls of
    the field evaluate; it interprets the ops (:func:`~hude.expr._evaluate`)
    and generates no code.  ``phi`` and the parameters are bound at call
    time, so one generated kernel serves every level and parameter point.
    The noise is left out when there is no diffusion or ``phi`` is a scalar
    zero, because ``|g|*0`` would turn an infinite ``g`` into NaN.  Calling
    the field on an array ``y`` (state on the last axis) gives the values
    stacked.
    """

    __slots__ = ("code", "values", "phi")

    def __init__(self, code, values, phi):
        self.code = code
        self.values = values
        self.phi = phi

    def _bound(self):
        """The lowered field to run, noisy or plain (see the class
        docstring), and its bound values ``{"phi": phi, "p0": ..., ...}``, each a float or a
        ``(B,)`` array of per-row values."""
        plain, noisy, names = self.code
        field = noisy if np.ndim(self.phi) or self.phi != 0.0 else plain
        return field, {"phi": self.phi, **{
            f"p{k}": self.values[name] for k, name in enumerate(names)}}

    def columns(self, n: int) -> Callable:
        field, bound = self._bound()
        return lambda t, *x: (*x[1:n], _evaluate(*field, {
            **bound, "t": t, **{f"x{k}": x[k] for k in range(n)}}))

    def __call__(self, t, y):
        y = np.asarray(y, dtype=float)
        out = self.columns(y.shape[-1])(t, *np.moveaxis(y, -1, 0))
        return np.stack(np.broadcast_arrays(*out), axis=-1)


def alpha_path_field(
    model: HudeModel, theta: Mapping[str, float] | None, alpha: float
) -> VectorField:
    """Reduce the model at quantile level ``alpha`` to a first-order field."""
    check_unit_interval("alpha", alpha)
    field = ReducedField(*compile_model(model, theta), _clamped_phi(alpha))
    return VectorField(field, model.order)


@dataclass(frozen=True)
class ConditionDomain:
    """Axis-aligned box and grid resolution for the monotonicity check."""

    t_range: tuple[float, float]
    state_ranges: tuple[tuple[float, float], ...]
    resolution: int = 9

    def __post_init__(self):
        object.__setattr__(
            self,
            "state_ranges",
            tuple((float(lo), float(hi)) for lo, hi in self.state_ranges),
        )
        if self.resolution < 2:
            raise ValueError("grid resolution must be >= 2 per axis")
        lo, hi = self.t_range
        if not (lo <= hi):
            raise ValueError("t_range must be ordered")
        for lo, hi in self.state_ranges:
            if not (lo <= hi):
                raise ValueError("state ranges must be ordered")


@dataclass(frozen=True)
class AxisCheck:
    axis: int
    passed: bool
    min_slack: float
    worst_point: tuple[float, tuple[float, ...]]


@dataclass(frozen=True)
class ConditionReport:
    alpha: float
    passed: bool
    axes: tuple[AxisCheck, ...]


def check_alpha_path_condition(
    model: HudeModel,
    theta: Mapping[str, float] | None,
    alpha: float,
    domain: ConditionDomain,
    rel_tol: float = 1e-9,
) -> ConditionReport:
    """Grid check that the reduced right-hand side is non-decreasing in each
    of ``x0 .. x_{n-2}`` over ``domain`` (forward differences).

    For an order-1 model there is nothing to check and the report passes
    vacuously.  The check is advisory: a pass on a finite grid is evidence,
    not proof.
    """
    n = model.order
    if len(domain.state_ranges) != n:
        raise ValueError(f"domain must provide {n} state ranges")
    check_unit_interval("alpha", alpha)
    if n == 1:
        return ConditionReport(alpha=alpha, passed=True, axes=())

    report, = _condition_reports(compile_model(model, theta), [alpha], domain,
                                 rel_tol)
    if isinstance(report, DomainError):
        raise report
    return report


def _condition_reports(lowered, alphas, domain, rel_tol=1e-9):
    """The :class:`ConditionReport` of :func:`check_alpha_path_condition` at
    each quantile level of ``alphas`` (in ``(0, 1)``) of an order-``n``
    model (``n >= 2``, ``domain`` of ``n`` state ranges) lowered with its
    values by :func:`compile_model`, or, where the field is not finite on
    the box, the :class:`DomainError` the check raises.

    Every level runs in one evaluation of the ops (:func:`_evaluate`) over
    an open grid, with the noise levels on a leading axis, so each element
    is the same IEEE operation as on a level's own grid; a level whose
    noise level is 0 runs the plain field, as :class:`ReducedField` does.
    """
    (plain, noisy, names), values = lowered
    n = len(domain.state_ranges)
    res = domain.resolution
    grids = [np.linspace(domain.t_range[0], domain.t_range[1], res)]
    grids += [np.linspace(lo, hi, res) for lo, hi in domain.state_ranges]
    env = {f"p{k}": values[name] for k, name in enumerate(names)}
    # Axis 0 holds the levels, axis 1 + d grid axis d: t, then x0 ...
    for d, (name, grid) in enumerate(zip(["t", *(f"x{k}" for k in range(n))],
                                         grids)):
        env[name] = grid.reshape((1,) * (d + 1) + (res,) + (1,) * (n - d))
    phis = np.array([_clamped_phi(a) for a in alphas])
    noise = phis != 0.0
    field = np.empty((len(alphas),) + (res,) * (n + 1))
    with np.errstate(all="ignore"):
        if noise.any():
            field[noise] = _evaluate(*noisy, {**env, "phi": phis[noise].reshape(
                (-1,) + (1,) * (n + 1))})
        if not noise.all():
            field[~noise] = _evaluate(*plain, env)
    reports = []
    for alpha, value in zip(alphas, field):
        if not np.all(np.isfinite(value)):
            reports.append(DomainError(
                "right-hand side is not finite on the requested box"))
            continue
        tol = rel_tol * max(1.0, float(np.max(np.abs(value))))
        axes = []
        for k in range(n - 1):
            diff = np.diff(value, axis=k + 1)
            min_slack = float(diff.min())
            idx = np.unravel_index(int(np.argmin(diff)), diff.shape)
            point = (
                float(grids[0][idx[0]]),
                tuple(float(grids[d + 1][idx[d + 1]]) for d in range(n)),
            )
            axes.append(
                AxisCheck(
                    axis=k,
                    passed=min_slack >= -tol,
                    min_slack=min_slack,
                    worst_point=point,
                )
            )
        reports.append(ConditionReport(
            alpha=alpha, passed=all(a.passed for a in axes), axes=tuple(axes)))
    return reports


def model_from_dict(data: Mapping) -> HudeModel:
    """Build a model from the JSON layout ``{"order", "drift", "diffusions",
    "params", optional "theta"}``."""
    if not isinstance(data, Mapping):
        raise ModelFormatError("model document must be a JSON object")
    try:
        order = data["order"]
        drift = data["drift"]
    except KeyError as exc:
        raise ModelFormatError(f"model document missing key {exc}") from None
    diffusions = data.get("diffusions", [])
    params = data.get("params", [])
    theta = data.get("theta")
    if not isinstance(order, int) or isinstance(order, bool):
        raise ModelFormatError("'order' must be an integer")
    if not isinstance(drift, str):
        raise ModelFormatError("'drift' must be an expression string")
    if not isinstance(diffusions, list) or not all(
        isinstance(g, str) for g in diffusions
    ):
        raise ModelFormatError("'diffusions' must be a list of expression strings")
    if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
        raise ModelFormatError("'params' must be a list of identifiers")
    if theta is not None and not isinstance(theta, Mapping):
        raise ModelFormatError("'theta' must be an object of name -> value")
    try:
        if theta is not None:
            theta = {name: float(v) for name, v in theta.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"'theta' values must be numbers: {exc}") from None
    stray = sorted(set(theta or ()) - set(params))
    if stray:
        raise ModelFormatError(f"'theta' names no declared parameter: {stray}")
    try:
        return HudeModel.parse(order, drift, diffusions, params, theta)
    except ValueError as exc:
        # The model's own checks: the order, the parameter names, literals.
        raise ModelFormatError(str(exc)) from None


def _init_from_dict(data: Mapping, order: int) -> InitialState:
    try:
        t0 = float(data["t0"])
        values = np.asarray(data["state"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"bad 'init' section: {exc}") from None
    if values.ndim > 1:
        raise ModelFormatError("'init.state' must be a flat list of numbers")
    if values.size != order:
        raise ModelFormatError(
            f"'init.state' must have {order} components, got {values.size}"
        )
    return InitialState(t0, values)


def load_model(path) -> tuple[HudeModel, InitialState | None]:
    """Read a model JSON file; returns the model and its optional initial state."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    model = model_from_dict(data)
    init = None
    if isinstance(data, Mapping) and "init" in data:
        init = _init_from_dict(data["init"], model.order)
    return model, init
