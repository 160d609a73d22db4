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
op list: :func:`~hude.expr._evaluate` interprets it for the values of the
field, and the integrator kernels print it as generated source.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .expr import (
    DomainError,
    ExprAst,
    _STATE_RE,
    _binder,
    _evaluate,
    _infix,
    _lower,
    _param_value,
    compile_expr,  # noqa: F401  (perfbench/layers.py wraps it here)
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
    if not ((a > 0.0) & (a < 1.0)).all():
        raise ValueError("alpha must lie strictly inside (0, 1)")
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


@functools.lru_cache(maxsize=256)
def _generated(field, params: str, n: int, method: str, mode: str,
               backend="row"):
    """The generated integrator kernel of a reduced field whose last
    derivative is lowered to ``field`` (:func:`compile_model`), over the
    bound names ``params``, made once per field (the ops keep ``0.0`` and
    ``-0.0`` apart).  ``backend`` picks the form: ``"row"`` one row's whole
    loop on floats from the field's infix source (:func:`_kernel_source`),
    ``"columns"`` a batch's on state columns (:func:`_column_source`),
    ``"compiled"`` a batch's in C (:func:`hude.native.kernel`, ``None``
    where there is none)."""
    if backend == "columns":
        return _binder(_column_source(field, params, n, method, mode))
    if backend == "row":
        # A row kernel runs on floats, where np.power is _power.
        value = _infix(*field, power="np.power")
        return _binder(_kernel_source(value, params, n, method, mode))
    # The C backend is imported by the first field that asks for it.
    from . import native

    return native.kernel(field, params, n, method, mode)


def _kernel_source(value: str, params: str, n: int, method: str,
                   mode: str) -> str:
    """Source of ``kernel(t0, t_end, nsteps, last, h, out, x0, ..., <params>)``,
    the whole fixed-step loop of one row on floats with the field value
    ``value`` (over ``t`` and ``x0 ..``) written into the step: ``nsteps - 1``
    steps of ``h`` at ``t0 + k*h``, then one of ``last`` at ``min(t0 + k*h,
    t_end)``; stages at ``t + half`` and ``t + s`` from ``xk + s*kk``,
    combined as ``xk + sixth * (a + 2.0*b + 2.0*c + d)``.  ``mode``
    ``"extremes"`` also returns each column's running minimum and maximum
    (``a if a < b or a != a else b`` is ``np.minimum(a, b)``, NaN and signed
    zeros included), ``"record"`` writes state ``k`` of every step ``k`` to
    ``out[k*n ..]``, a flat view of float64 storage.
    """
    xs = ", ".join(f"x{k}" for k in range(n))

    def derivs(stage):
        # The stage's derivative at the state the names ``x0 ..`` hold.
        return [f"{stage}{j} = x{j + 1}" for j in range(n - 1)] + [
            f"{stage}{n - 1} = {value}"]

    if method == "euler":
        news = [f"x{j} + s * x{j + 1}" for j in range(n - 1)]
        step = [f"{xs}, = {', '.join(news + [f'x{n - 1} + s * ({value})'])},"]
    else:
        step = [f"{xs.replace('x', 'z')}, = {xs},", "tk = t", *derivs("a")]
        for stage, prev, frac in (("b", "a", "half"), ("c", "b", "half"),
                                  ("d", "c", "s")):
            step += [f"x{j} = z{j} + {frac} * {prev}{j}" for j in range(n)]
            step += [f"t = tk + {frac}", *derivs(stage)]
        step += [f"x{j} = z{j} + sixth * (a{j} + 2.0 * b{j} + 2.0 * c{j} + d{j})"
                 for j in range(n)]
    start, result = [], f"({xs},)"
    if mode == "extremes":
        start = [f"l{j} = u{j} = x{j}" for j in range(n)]
        for j in range(n):
            step += [f"if not l{j} < x{j} and l{j} == l{j}: l{j} = x{j}",
                     f"if not u{j} > x{j} and u{j} == u{j}: u{j} = x{j}"]
        result += (f", ({xs.replace('x', 'l')},), ({xs.replace('x', 'u')},)")
    elif mode == "record":
        start = [f"i = {n}"]
        step += [f"out[i + {j}] = x{j}" for j in range(n)] + [f"i += {n}"]
    widths = ["half = 0.5 * s", "sixth = s / 6.0"] if method == "rk4" else []
    lines = ["s = h", *widths, *start,
             "for k in range(nsteps - 1):", "    t = t0 + k * h",
             *(f"    {line}" for line in step),
             "k = nsteps - 1", "t = t0 + k * h",
             "t = t if t < t_end or t != t else t_end", "s = last", *widths,
             *step, f"return {result}"]
    return (f"def kernel(t0, t_end, nsteps, last, h, out, {xs}, {params}):\n"
            + "".join(f"    {line}\n" for line in lines))


def _column_source(field, params: str, n: int, method: str, mode: str) -> str:
    """Source of ``kernel(t0, t_end, nsteps, last, h, x0, ..., <params>)`` for
    a batch: :func:`_kernel_source`'s loop, with the same operations in
    the same order, on the ``(B,)`` state columns ``x0 ..`` stepped in place.

    Each op of ``field`` (:func:`compile_model`) that reads the state is a
    three-address ufunc call (``multiply(a, b, w0)``) into scratch buffers
    allocated once per call; ``power`` is :func:`~hude.expr._power`, which
    rounds each element of an array exponent as the row kernel's float.  An
    op that reads no state is evaluated from its infix source: if it reads
    ``t`` at every stage, else once before the loop, spread to a ``(B,)``
    array (a ufunc converts a float operand on every call) except as an
    operand of ``power``, where a float exponent takes numpy's fast path
    without :func:`~hude.expr._power`'s element checks.  ``t`` and the stage
    times are computed only when the field reads ``t``.  Rows step by ``h``
    up to the shortest row's last step and by their own ``s`` from there,
    where a finished row keeps its state (``where=run``).  The last
    derivative is scaled by ``s`` before any state it may read is stepped.
    ``mode`` ``"extremes"`` also returns each column's running ``minimum``
    and ``maximum``.  A recorded path runs in the row kernel
    (:func:`hude.odeint._row_loop`), so this kernel never records.
    """
    ops, value = field

    def kind(a):
        # 2 if operand ``a`` reads the state, 1 if ``t`` but no state, else 0.
        if isinstance(a, int):
            return max(map(kind, ops[a][1:]))
        return 2 if _STATE_RE.match(a) else int(a == "t")

    # (source, spread) of each operand evaluated before the loop, spread to a
    # (B,) array or not -> its name (c0 the step h, c1 RK4's 2.0).
    hoisted = {("h", True): "c0", ("2.0", True): "c1"}
    buffers: list[str] = []  # the scratch buffers
    free: list[str] = []
    used: set[str] = set()  # the ufuncs the kernel calls

    def alloc():
        if not free:
            buffers.append(f"w{len(buffers)}")
            free.append(buffers[-1])
        return free.pop()

    def release(*operands):
        free.extend(o for o in operands if o in buffers)

    def call(func, *operands, where=""):
        used.add(func)
        return f"{func}({', '.join(operands)}{where})"

    def evaluate(a, states, lines, spread=True):
        # The name holding operand ``a`` at the states once ``lines`` ran.
        if kind(a) < 2:
            text = _infix(ops, a)
            if kind(a):
                name = f"e{len(lines)}"  # unique in the step
                lines.append(f"{name} = {text}")
                return name
            return hoisted.setdefault((text, spread), f"c{len(hoisted)}")
        if not isinstance(a, int):
            return states[int(a[1:])]
        func, *args = ops[a]
        operands = [evaluate(arg, states, lines, func != "power")
                    for arg in args]
        release(*operands)
        out = alloc()
        lines.append(call(func, *operands, out))
        return out

    def advance(frac, k, into, lines, where="", keep=False):
        # into[j] = x[j] + frac * k[j], ascending: k[j] may be into[j + 1],
        # and the last derivative may be any state, so it is scaled first.
        d = k[-1] if k[-1] in buffers and not keep else alloc()
        lines.append(call("multiply", frac, k[-1], d))
        if n > 1:
            w = alloc()
            for j in range(n - 1):
                lines += [call("multiply", frac, k[j], w),
                          call("add", f"x{j}", w, into[j], where=where)]
            release(w)
        lines.append(call("add", f"x{n - 1}", d, into[-1], where=where))
        release(d)

    xs = [f"x{j}" for j in range(n)]
    zs = [f"z{j}" for j in range(n)]
    timed = value == "t" or any("t" in op[1:] for op in ops)

    def step(where):
        lines = []
        if method == "euler":
            advance("s", xs[1:] + [evaluate(value, xs, lines)], xs, lines, where)
            return lines
        lines += ["tk = t"] if timed else []
        k1 = xs[1:] + [evaluate(value, xs, lines)]
        advance("half", k1, zs, lines, keep=True)
        lines += ["t = tk + half"] if timed else []
        k2 = zs[1:] + [evaluate(value, zs, lines)]
        for j in range(n):
            lines += [call("multiply", "c1", k2[j], f"a{j}"),
                      call("add", k1[j], f"a{j}", f"a{j}")]
        release(k1[-1])
        advance("half", k2, zs, lines)
        k3 = zs[1:] + [evaluate(value, zs, lines)]
        w = alloc()
        for j in range(n):
            lines += [call("multiply", "c1", k3[j], w),
                      call("add", f"a{j}", w, f"a{j}")]
        release(w)
        advance("s", k3, zs, lines)
        lines += ["t = tk + s"] if timed else []
        k4 = zs[1:] + [evaluate(value, zs, lines)]
        lines += [call("add", f"a{j}", k4[j], f"a{j}") for j in range(n)]
        release(k4[-1])
        for j in range(n):
            lines += [call("multiply", "sixth", f"a{j}", f"a{j}"),
                      call("add", f"x{j}", f"a{j}", f"x{j}", where=where)]
        return lines

    main, tail = step(""), step(", where=run")
    start, after, result = [], [], f"({', '.join(xs)},)"
    if mode == "extremes":
        start = [f"{e}{j} = x{j}.copy()" for e in "lu" for j in range(n)]
        # minimum and maximum take their output only by keyword.
        after = [call(f, f"{e}{j}", f"x{j}", f"out={e}{j}") for j in range(n)
                 for f, e in (("minimum", "l"), ("maximum", "u"))]
        result += f", ({', '.join(f'l{j}' for j in range(n))},), " \
                  f"({', '.join(f'u{j}' for j in range(n))},)"
    widths = ["half = 0.5 * s", "sixth = s / 6.0"] if method == "rk4" else []
    stages = [f"{b}{j}" for b in "za" for j in range(n)] if method == "rk4" else []
    lines = ["shared = int(nsteps.min()) - 1", "total = int(nsteps.max())",
             *("power = _power" if func == "power" else f"{func} = np.{func}"
               for func in sorted(used)),
             *(f"{name} = np.full_like(x0, {text})" if spread else
               f"{name} = {text}" for (text, spread), name in hoisted.items()),
             *(f"{b} = np.empty_like(x0)" for b in buffers + stages), *start,
             "s = c0", *widths, "for k in range(shared):",
             *(["    t = t0 + k * h"] if timed else []),
             *(f"    {line}" for line in main + after),
             "for k in range(shared, total):",
             "    s = np.where(k < nsteps - 1, h, last)",
             *(f"    {line}" for line in widths), "    run = k < nsteps",
             *(["    t = np.minimum(t0 + k * h, t_end)"] if timed else []),
             *(f"    {line}" for line in tail + after), f"return {result}"]
    return (f"def kernel(t0, t_end, nsteps, last, h, {', '.join(xs)}, "
            f"{params}):\n" + "".join(f"    {line}\n" for line in lines))


class ReducedField:
    """The reduced first-order field at noise level ``phi`` (see the module
    docstring) of the model code and values :func:`compile_model` returns;
    ``phi`` is a float, or a ``(B,)`` array holding one level per batch row.

    Every form runs one op list for ``F = ((drift + |g1|*phi) + |g2|*phi)
    + ...`` (:func:`compile_model`).  ``kernel(n, method, mode)`` is the
    form the integrators run: a generated function running a row's whole
    loop on floats (:func:`_kernel_source`), a batch's on ``(B,)`` state
    columns stepped in place by ufunc calls (:func:`_column_source`), or a
    batch's compiled from C (:func:`hude.native.kernel`).  ``columns(n)`` is the
    field itself, ``f(t, x0, ..., x_{n-1}) -> (x1, ..., x_{n-1}, F)`` on
    floats or arrays, which
    the condition check and calls of the field evaluate; it interprets the
    ops (:func:`~hude.expr._evaluate`) and generates no code.  ``phi`` and
    the parameters are bound at call time, so one generated kernel serves
    every level and parameter point.  The noise is left out when there is
    no diffusion or ``phi`` is a scalar zero, because ``|g|*0`` would turn
    an infinite ``g`` into NaN.  Calling the field on an array ``y`` (state
    on the last axis) gives the values stacked.
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

    def kernel(self, n: int, method: str, mode: str, backend="row"):
        """The generated kernel (:func:`_generated`, ``None`` for a compiled
        one that is not available) and its bound values ``(phi, p0, ...)``.
        A column kernel never records: a recorded path runs in the row
        kernel or the compiled one."""
        if backend == "columns" and mode == "record":
            raise ValueError("a recorded path runs in the row kernel")
        field, bound = self._bound()
        fn = _generated(field, ", ".join(bound), n, method, mode, backend)
        return fn, tuple(bound.values())

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
