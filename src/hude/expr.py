"""Parsing and evaluation of the arithmetic expressions that define models.

Grammar (conventional precedence, ``^`` binds tightest and associates to the
right; everything else associates to the left)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" factor)?
    atom    := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

Variables are positional: ``t`` is time, ``x0`` the state, ``x1`` its first
derivative and so on up to ``x{n-1}`` for an order-``n`` model.  Any other
identifier must be a declared parameter.  Supported functions are ``exp``,
``ln``, ``sin``, ``cos`` and ``abs``, all unary.

Every evaluation runs one lowering of the AST (:func:`_lower`), a list of ufunc
ops.  One interpreter, :func:`_evaluate`, runs it for :func:`eval_expr`,
:func:`compile_expr` and a reduced field's values (the condition check and
calls of the field).  This module prints no code but :func:`to_source`: the
integrator kernels of :mod:`hude.odeint`, where speed matters, print the same
ops as ufunc calls, Python float arithmetic or C.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

__all__ = [
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Call",
    "ExprAst",
    "ExprError",
    "ExprSyntaxError",
    "UndeclaredIdentifierError",
    "ArityError",
    "EvalError",
    "DomainError",
    "parse_expr",
    "eval_expr",
    "to_source",
    "compile_expr",
    "variables",
]


class ExprError(Exception):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    """Malformed source text; ``position`` is the offending character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndeclaredIdentifierError(ExprSyntaxError):
    """Identifier is neither ``t``, a state variable, nor a declared parameter."""


class ArityError(ExprSyntaxError):
    """A function was called with the wrong number of arguments."""


class EvalError(ExprError):
    """Evaluation failed, e.g. a missing binding."""


class DomainError(EvalError):
    """Evaluation left the real domain (``ln`` of a non-positive value, ...)."""


@dataclass(frozen=True)
class Const:
    value: float

    def __post_init__(self):
        # Generated code and printed sources spell a literal by its repr,
        # which is a valid literal only for a finite float.
        if not math.isfinite(self.value):
            raise ValueError(f"constant must be finite, got {self.value!r}")


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "ExprAst"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprAst"


ExprAst = Union[Const, Var, Unary, Binary, Call]

FUNCTIONS = ("exp", "ln", "sin", "cos", "abs")

_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_STATE_RE = re.compile(r"x(?:0|[1-9][0-9]*)\Z")
_OPS = "+-*/^(),"


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name" or the operator character itself
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < len(src) and src[i + 1].isdigit()):
            m = _NUM_RE.match(src, i)
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        if c.isalpha() or c == "_":
            m = _NAME_RE.match(src, i)
            tokens.append(_Token("name", m.group(), i))
            i = m.end()
            continue
        if c in _OPS:
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, src: str, order: int, params: tuple[str, ...]):
        self.src = src
        self.order = order
        self.params = params
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression", len(self.src))
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError(f"expected {kind!r}", len(self.src))
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        return self.advance()

    def parse(self) -> ExprAst:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos)
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while (tok := self.peek()) is not None and tok.kind in "+-":
            self.advance()
            node = Binary(tok.kind, node, self.term())
        return node

    def term(self) -> ExprAst:
        node = self.factor()
        while (tok := self.peek()) is not None and tok.kind in "*/":
            self.advance()
            node = Binary(tok.kind, node, self.factor())
        return node

    def factor(self) -> ExprAst:
        tok = self.peek()
        if tok is not None and tok.kind == "-":
            self.advance()
            return Unary("-", self.factor())
        return self.power()

    def power(self) -> ExprAst:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.advance()
            return Binary("^", base, self.factor())
        return base

    def atom(self) -> ExprAst:
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if math.isinf(value):
                raise ExprSyntaxError(f"literal {tok.text!r} overflows", tok.pos)
            return Const(value)
        if tok.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            nxt = self.peek()
            if nxt is not None and nxt.kind == "(":
                return self.call(tok)
            return self.variable(tok)
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos)

    def call(self, name: _Token) -> ExprAst:
        if name.text not in FUNCTIONS:
            raise UndeclaredIdentifierError(
                f"unknown function '{name.text}'", name.pos
            )
        self.expect("(")
        arg = self.expr()
        tok = self.peek()
        if tok is not None and tok.kind == ",":
            raise ArityError(f"'{name.text}' takes exactly one argument", tok.pos)
        self.expect(")")
        return Call(name.text, arg)

    def variable(self, tok: _Token) -> ExprAst:
        name = tok.text
        if name == "t" or name in self.params:
            return Var(name)
        if _STATE_RE.match(name):
            if int(name[1:]) < self.order:
                return Var(name)
            raise UndeclaredIdentifierError(
                f"state variable '{name}' not available for order {self.order}",
                tok.pos,
            )
        raise UndeclaredIdentifierError(f"undeclared identifier '{name}'", tok.pos)


def parse_expr(src: str, n: int, params: tuple[str, ...] | list[str] = ()) -> ExprAst:
    """Parse ``src`` into an AST for an order-``n`` model with ``params``."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("order must be an integer >= 1")
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    params = tuple(params)
    seen = set()
    for name in params:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid parameter name {name!r}")
        if name == "t" or _STATE_RE.match(name) or name in FUNCTIONS:
            raise ValueError(f"parameter name {name!r} shadows a reserved identifier")
        if name in seen:
            raise ValueError(f"duplicate parameter name {name!r}")
        seen.add(name)
    return _Parser(src, n, params).parse()


# Precedence levels used by the printer; atoms sit above every operator.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PREC = 3
_ATOM_PREC = 5


def _node_prec(node: ExprAst) -> int:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary):
        return _UNARY_PREC
    if isinstance(node, Const) and node.value < 0:
        return _UNARY_PREC
    return _ATOM_PREC


def to_source(node: ExprAst) -> str:
    """Print an AST back to source.  Parser output round-trips structurally."""
    if isinstance(node, Const):
        return repr(float(node.value))
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    if isinstance(node, Unary):
        inner = to_source(node.operand)
        if _node_prec(node.operand) < _UNARY_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Binary):
        prec = _PREC[node.op]
        left = to_source(node.left)
        right = to_source(node.right)
        if node.op == "^":
            if _node_prec(node.left) <= prec:
                left = f"({left})"
            # the exponent slot accepts anything a unary factor accepts
            if _node_prec(node.right) < _UNARY_PREC:
                right = f"({right})"
        else:
            if _node_prec(node.left) < prec:
                left = f"({left})"
            if _node_prec(node.right) <= prec:
                right = f"({right})"
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an expression node: {node!r}")


def variables(node: ExprAst) -> frozenset[str]:
    """Names of all variables referenced by ``node``."""
    out: set[str] = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Var):
            out.add(cur.name)
        elif isinstance(cur, Unary):
            stack.append(cur.operand)
        elif isinstance(cur, Binary):
            stack.append(cur.left)
            stack.append(cur.right)
        elif isinstance(cur, Call):
            stack.append(cur.arg)
    return frozenset(out)


def eval_expr(node: ExprAst, env: Mapping[str, float]) -> float:
    """Evaluate ``node`` with every identifier bound in ``env``.

    The op list of ``node`` (:func:`_lower`) runs through :func:`_evaluate`
    on float64 values, so the result has the bits the integrator kernels
    compute.  Raises :class:`EvalError` for a missing binding, before any op
    runs, and :class:`DomainError` where an op divides by zero, overflows or
    leaves the real line (``ln`` of a non-positive value, ``sin`` of an
    infinity, ``(-8)^(1/3)``, ...).  Keys of ``env`` that ``node`` does not
    read are ignored.
    """
    ops, slots = [], {}
    value = _lower(node, ops, slots)
    bound = {}
    for name in sorted(variables(node)):
        if name not in env:
            raise EvalError(f"missing binding for '{name}'")
        bound[slots.get(name, name)] = np.float64(float(env[name]))
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            return float(_evaluate(ops, value, bound))
        except FloatingPointError as exc:
            raise DomainError(str(exc)) from None


# The ufunc each operator and function lowers to (``power`` runs as
# :func:`_power`).
_UFUNC = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide",
          "^": "power", "exp": "exp", "ln": "log", "sin": "sin", "cos": "cos",
          "abs": "absolute"}


def _lower(node: ExprAst, ops: list, slots: dict[str, str]):
    """Append the ops computing ``node`` to ``ops``; return its operand.

    An op ``(ufunc, operand, ...)`` follows the ops of its operands, and is
    the operand of one later op or returned.  An operand is a name (``t``,
    ``x0``, ... or parameter ``name``'s slot ``slots[name]``: ``p0``, ``p1``,
    ... in order of first use), a literal's ``repr`` (so ``0.0`` and ``-0.0``
    stay apart), or the index of an earlier op."""
    if isinstance(node, Const):
        return repr(float(node.value))
    if isinstance(node, Var):
        if node.name == "t" or _STATE_RE.match(node.name):
            return node.name
        return slots.setdefault(node.name, f"p{len(slots)}")
    if isinstance(node, Unary):
        func, args = "negative", (node.operand,)
    elif isinstance(node, Binary):
        func, args = _UFUNC[node.op], (node.left, node.right)
    elif isinstance(node, Call):
        func, args = _UFUNC[node.func], (node.arg,)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    ops.append((func, *[_lower(arg, ops, slots) for arg in args]))
    return len(ops) - 1


def _evaluate(ops, operand, env):
    """The value of ``operand`` of ``ops`` (:func:`_lower`) on floats or
    arrays: each op applies its ufunc (``power`` is :func:`_power`) in list
    order; an operand is an earlier op's result, a name bound in ``env``, or
    a literal read back from its ``repr``."""
    results = []

    def read(a):
        if isinstance(a, int):
            return results[a]
        return env[a] if a[0].isalpha() else float(a)

    for func, *args in ops:
        ufunc = _power if func == "power" else getattr(np, func)
        results.append(ufunc(*map(read, args)))
    return read(operand)


def _power(base, exponent, out=None):
    """``np.power``, with each element of an array ``exponent`` computed as
    numpy computes a float exponent of its value.  numpy squares, takes the
    square root or the reciprocal for a float exponent of 2.0, 0.5 or -1.0,
    but calls ``pow`` for an array that holds them, which rounds differently;
    so a row bound to an array element evaluates like the float."""
    if np.ndim(exponent) == 0:
        return np.power(base, exponent, out)
    base, exponent = np.broadcast_arrays(base, exponent)
    # Read before ``out``, which may be the base's own buffer, is written.
    exact = [(hit, func(base[hit])) for value, func in
             ((2.0, np.square), (0.5, np.sqrt), (-1.0, np.reciprocal))
             if (hit := exponent == value).any()]
    out = np.power(base, exponent, out)
    for hit, values in exact:
        out[hit] = values
    return out


def _param_value(value):
    """A parameter value: a float, or a float array of per-row values."""
    return float(value) if np.ndim(value) == 0 else np.asarray(value, dtype=float)


def compile_expr(
    node: ExprAst, theta: Mapping[str, float | np.ndarray] | None = None
) -> Callable:
    """Compile an AST to a vectorised ``f(t, x)`` with parameters bound.

    ``x`` indexes state components on its last axis, so the same callable
    serves a single state vector ``(n,)`` or a batch ``(B, n)``.  Each
    parameter is bound to a float, or to a ``(B,)`` array holding one value
    per batch row; an array element takes the place of the float in the same
    arithmetic, so a row evaluates exactly as with that float bound.  The
    callable runs the op list (:func:`_lower`) through :func:`_evaluate` on
    the columns of ``x``, the arithmetic of :func:`eval_expr` and of a
    reduced field's kernels.  Out-of-domain inputs produce non-finite outputs
    under numpy's error state instead of raising :class:`DomainError`.
    """
    theta = theta or {}
    ops, slots = [], {}
    value = _lower(node, ops, slots)
    bound = {}
    for name, slot in slots.items():
        if name not in theta:
            raise ValueError(f"parameter '{name}' is not bound")
        bound[slot] = _param_value(theta[name])
    states = [int(v[1:]) for v in variables(node) if _STATE_RE.match(v)]
    return lambda t, x: _evaluate(ops, value, {
        **bound, "t": t, **{f"x{k}": x[..., k] for k in states}})
