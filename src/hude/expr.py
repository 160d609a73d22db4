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
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
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
    "CompiledExpr",
    "compile_expr",
    "variables",
]

Span = tuple[int, int]


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
    span: Span = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    name: str
    span: Span = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "ExprAst"
    span: Span = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Binary:
    op: str
    left: "ExprAst"
    right: "ExprAst"
    span: Span = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprAst"
    span: Span = field(default=(0, 0), compare=False, repr=False)


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
            right = self.term()
            node = Binary(tok.kind, node, right, (node.span[0], right.span[1]))
        return node

    def term(self) -> ExprAst:
        node = self.factor()
        while (tok := self.peek()) is not None and tok.kind in "*/":
            self.advance()
            right = self.factor()
            node = Binary(tok.kind, node, right, (node.span[0], right.span[1]))
        return node

    def factor(self) -> ExprAst:
        tok = self.peek()
        if tok is not None and tok.kind == "-":
            self.advance()
            operand = self.factor()
            return Unary("-", operand, (tok.pos, operand.span[1]))
        return self.power()

    def power(self) -> ExprAst:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.advance()
            exponent = self.factor()
            return Binary("^", base, exponent, (base.span[0], exponent.span[1]))
        return base

    def atom(self) -> ExprAst:
        tok = self.advance()
        if tok.kind == "num":
            return Const(float(tok.text), (tok.pos, tok.pos + len(tok.text)))
        if tok.kind == "(":
            node = self.expr()
            closing = self.expect(")")
            return _respan(node, (tok.pos, closing.pos + 1))
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
        closing = self.expect(")")
        return Call(name.text, arg, (name.pos, closing.pos + 1))

    def variable(self, tok: _Token) -> ExprAst:
        name = tok.text
        span = (tok.pos, tok.pos + len(name))
        if name == "t" or name in self.params:
            return Var(name, span)
        if _STATE_RE.match(name):
            if int(name[1:]) < self.order:
                return Var(name, span)
            raise UndeclaredIdentifierError(
                f"state variable '{name}' not available for order {self.order}",
                tok.pos,
            )
        raise UndeclaredIdentifierError(f"undeclared identifier '{name}'", tok.pos)


def _respan(node: ExprAst, span: Span) -> ExprAst:
    cls = type(node)
    fields = {f: getattr(node, f) for f in node.__dataclass_fields__ if f != "span"}
    return cls(span=span, **fields)


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

    Deterministic IEEE double arithmetic; raises :class:`DomainError` for
    ``ln`` of a non-positive argument, division by zero and similar escapes
    from the real line, and :class:`EvalError` for a missing binding.
    """
    if isinstance(node, Const):
        return float(node.value)
    if isinstance(node, Var):
        try:
            return float(env[node.name])
        except KeyError:
            raise EvalError(f"missing binding for '{node.name}'") from None
    if isinstance(node, Unary):
        return -eval_expr(node.operand, env)
    if isinstance(node, Binary):
        left = eval_expr(node.left, env)
        right = eval_expr(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if right == 0.0:
                raise DomainError("division by zero")
            return left / right
        if node.op == "^":
            try:
                return math.pow(left, right)
            except ValueError:
                raise DomainError(
                    f"cannot raise {left} to the power {right}"
                ) from None
            except OverflowError:
                raise DomainError("overflow in power") from None
    if isinstance(node, Call):
        value = eval_expr(node.arg, env)
        if node.func == "exp":
            try:
                return math.exp(value)
            except OverflowError:
                raise DomainError("overflow in exp") from None
        if node.func == "ln":
            if value <= 0.0:
                raise DomainError(f"ln of non-positive value {value}")
            return math.log(value)
        if node.func == "sin":
            return math.sin(value)
        if node.func == "cos":
            return math.cos(value)
        if node.func == "abs":
            return abs(value)
    raise TypeError(f"not an expression node: {node!r}")


# ``abs`` is the builtin: it keeps a float a float and calls np.abs on arrays.
_FUNC = {"exp": "np.exp", "ln": "np.log", "sin": "np.sin", "cos": "np.cos", "abs": "abs"}


def _codegen(node: ExprAst, slots: dict[str, str]) -> str:
    """Source of ``node`` over state columns: ``x0``, ``x1``, ... and ``t``
    are names, each a float or an array of rows; parameter ``name`` becomes
    the identifier ``slots[name]`` (``p0``, ``p1``, ... in order of first
    use).  Division is ``np.divide``, so a float column divided by zero gives
    ``inf``/``nan`` like an array does instead of raising."""
    if isinstance(node, Const):
        text = repr(float(node.value))
        return f"({text})" if node.value < 0 else text
    if isinstance(node, Var):
        if node.name == "t" or _STATE_RE.match(node.name):
            return node.name
        return slots.setdefault(node.name, f"p{len(slots)}")
    if isinstance(node, Unary):
        return f"(-{_codegen(node.operand, slots)})"
    if isinstance(node, Binary):
        left = _codegen(node.left, slots)
        right = _codegen(node.right, slots)
        if node.op == "^":
            return f"np.power({left}, {right})"
        if node.op == "/":
            return f"np.divide({left}, {right})"
        return f"({left} {node.op} {right})"
    if isinstance(node, Call):
        return f"{_FUNC[node.func]}({_codegen(node.arg, slots)})"
    raise TypeError(f"not an expression node: {node!r}")


def _param_value(value):
    """A parameter value: a float, or a float array of per-row values."""
    return float(value) if np.ndim(value) == 0 else np.asarray(value, dtype=float)


@functools.lru_cache(maxsize=256)
def _binder(source: str) -> Callable:
    """``lambda p0, p1, ...: <function>`` evaluated once per source."""
    return eval(compile(source, "<hude-expr>", "eval"), {"np": np})


@dataclass(frozen=True, eq=False)
class CompiledExpr:
    """An expression with its parameters bound: ``self(t, x)`` evaluates it
    on ``x`` whose last axis holds the state components.  ``theta`` maps the
    parameters ``node`` uses to their bound values, so a reduced field can
    generate ``node`` inline (:class:`hude.model.ReducedField`)."""

    node: ExprAst
    theta: Mapping
    fn: Callable

    def __call__(self, t, x):
        return self.fn(t, x)


def compile_expr(
    node: ExprAst, theta: Mapping[str, float | np.ndarray] | None = None
) -> CompiledExpr:
    """Compile an AST to a vectorised ``f(t, x)`` with parameters bound.

    ``x`` indexes state components on its last axis, so the same callable
    serves a single state vector ``(n,)`` or a batch ``(B, n)``.  Each
    parameter is bound to a float, or to a ``(B,)`` array holding one value
    per batch row; an array element takes the place of the float in the same
    arithmetic, so a row evaluates exactly as with that float bound.  The
    generated code is cached per expression, and binding only fills the
    parameter names.  Out-of-domain inputs produce non-finite outputs instead
    of raising; integrators check.
    """
    theta = theta or {}
    slots: dict[str, str] = {}
    body = _codegen(node, slots)
    values = []
    for name in slots:
        if name not in theta:
            raise ValueError(f"parameter '{name}' is not bound")
        values.append(_param_value(theta[name]))
    states = sorted((v for v in variables(node) if _STATE_RE.match(v)),
                    key=lambda v: int(v[1:]))
    columns = ", ".join(f"x[..., {v[1:]}]" for v in states)
    source = (f"lambda {', '.join(slots.values())}: lambda t, x: "
              f"(lambda {', '.join(states)}: ({body}))({columns})")
    fn = _binder(source)(*values)
    return CompiledExpr(node, dict(zip(slots, values)), fn)
