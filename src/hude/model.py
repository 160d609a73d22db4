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
quantile of the solution at every time.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .expr import (
    CompiledExpr,
    DomainError,
    ExprAst,
    _binder,
    _codegen,
    _param_value,
    compile_expr,
    parse_expr,
    to_source,
    variables,
)

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
    if not np.all((a > 0.0) & (a < 1.0)):
        raise ValueError("alpha must lie strictly inside (0, 1)")
    out = _SQRT3_OVER_PI * np.log(a / (1.0 - a))
    if np.ndim(alpha) == 0:
        return float(out)
    return out


def _clamped_phi(alpha):
    """``phi_inv`` of the quantile level(s) ``alpha`` clamped to
    ``[ALPHA_CLAMP, 1 - ALPHA_CLAMP]``: the noise level of an alpha-path."""
    return phi_inv(np.clip(alpha, ALPHA_CLAMP, 1.0 - ALPHA_CLAMP))


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


class VectorField:
    """Callable first-order field ``F(t, y) -> dy/dt``.

    ``raw(t, y)`` evaluates on an array ``y`` with the state on its last axis,
    without finiteness checks, and is what the integrators drive (a
    :class:`ReducedField` is stepped in its column form); calling the field
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
    """Compile drift and diffusions to vectorised callables with theta bound
    (:class:`~hude.expr.CompiledExpr`, which :class:`ReducedField` inlines).

    A parameter may be a ``(B,)`` array instead of a float: row ``i`` of a
    ``(B, n)`` batch is then evaluated at the ``i``-th value, which lets one
    integration carry several parameter points.
    """
    resolved = model.resolved_theta(theta)
    drift = compile_expr(model.drift, resolved)
    diffusions = tuple(compile_expr(g, resolved) for g in model.diffusions)
    return drift, diffusions


# The binder and bound parameter values of each generated column function,
# per compiled drift and then per compiled diffusions and state size.  The
# keys are the compiled expressions themselves: ASTs compare Const(0.0) equal
# to Const(-0.0), which generate different code.
_COLUMNS: "weakref.WeakKeyDictionary[CompiledExpr, dict]" = (
    weakref.WeakKeyDictionary())


class ReducedField:
    """The reduced first-order field at noise level ``phi`` (see the module
    docstring); ``phi`` is a float, or a ``(B,)`` array holding one level per
    batch row.

    ``columns(n)`` is the form the integrator steps: one generated function
    ``f(t, x0, ..., x_{n-1}) -> (x1, ..., x_{n-1}, F)`` with
    ``F = ((drift + |g1|*phi) + |g2|*phi) + ...``, where the columns are
    floats for one row or ``(B,)`` arrays for a batch.  The parameters and
    ``phi`` are bound names, so one generated source serves every level.  The
    noise is left out when there is no diffusion or ``phi`` is a scalar zero,
    because ``|g|*0`` would turn an infinite ``g`` into NaN.  Calling the
    field on an array ``y`` (state on the last axis) gives the same values
    stacked.
    """

    __slots__ = ("drift", "diffusions", "phi")

    def __init__(self, drift, diffusions, phi):
        self.drift = drift
        self.diffusions = tuple(diffusions)
        self.phi = phi

    def columns(self, n: int) -> Callable:
        noise = self.diffusions if np.ndim(self.phi) or self.phi != 0.0 else ()
        generated = _COLUMNS.setdefault(self.drift, {})
        if (noise, n) not in generated:
            slots: dict[str, str] = {}
            value = _codegen(self.drift.node, slots)
            theta = dict(self.drift.theta)
            for g in noise:
                value = f"({value} + abs({_codegen(g.node, slots)}) * phi)"
                theta.update(g.theta)
            state = ", ".join(f"x{k}" for k in range(n))
            derivs = "".join(f"x{k}, " for k in range(1, n))
            source = (f"lambda {', '.join(['phi', *slots.values()])}: "
                      f"lambda t, {state}: ({derivs}{value},)")
            generated[noise, n] = (_binder(source),
                                   tuple(theta[name] for name in slots))
        binder, values = generated[noise, n]
        return binder(self.phi, *values)

    def __call__(self, t, y):
        y = np.asarray(y, dtype=float)
        out = self.columns(y.shape[-1])(t, *np.moveaxis(y, -1, 0))
        return np.stack(np.broadcast_arrays(*out), axis=-1)


def alpha_path_field(
    model: HudeModel, theta: Mapping[str, float] | None, alpha: float
) -> VectorField:
    """Reduce the model at quantile level ``alpha`` to a first-order field."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
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
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if n == 1:
        return ConditionReport(alpha=alpha, passed=True, axes=())

    field = alpha_path_field(model, theta, alpha).raw
    res = domain.resolution
    grids = [np.linspace(domain.t_range[0], domain.t_range[1], res)]
    grids += [np.linspace(lo, hi, res) for lo, hi in domain.state_ranges]
    mesh = np.meshgrid(*grids, indexing="ij")
    with np.errstate(all="ignore"):
        value = field.columns(n)(*mesh)[-1]
    value = np.broadcast_to(value, mesh[0].shape)
    if not np.all(np.isfinite(value)):
        raise DomainError("right-hand side is not finite on the requested box")

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
    return ConditionReport(
        alpha=alpha, passed=all(a.passed for a in axes), axes=tuple(axes)
    )


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
    return HudeModel.parse(order, drift, diffusions, params, theta)


def _init_from_dict(data: Mapping, order: int) -> InitialState:
    try:
        t0 = float(data["t0"])
        values = data["state"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad 'init' section: {exc}") from None
    values = np.asarray(values, dtype=float)
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
