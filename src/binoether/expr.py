"""Small expression language over phase-space coordinates.

Expressions are immutable trees over decimal literals, coordinate names,
``+ - * /``, integer powers ``^``, unary minus, and the functions
``sin cos exp ln``.  They support exact evaluation, exact symbolic partial
derivatives, and forward-mode jet evaluation (value plus full gradient in
one pass).  `evaluate_batch` evaluates a list of expressions at many points
at once, with the same floating-point results as evaluating point by point.
Everything here is pure and safe to share across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhaseSpace",
    "ScalarExpr",
    "Jet",
    "ExprError",
    "ParseError",
    "EvalDomainError",
    "parse",
    "evaluate",
    "evaluate_batch",
    "diff",
    "evaluate_jet",
    "substitute",
]


class ExprError(Exception):
    """Base class for expression-level failures."""


class ParseError(ExprError):
    """Syntax or validation error, carrying a 0-based offset into the text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EvalDomainError(ExprError):
    """Arithmetic left the expression's domain (division by zero, ln <= 0)."""

    def __init__(self, message: str, subexpr: "ScalarExpr"):
        super().__init__(f"{message} in '{subexpr}'")
        self.subexpr = subexpr


@dataclass(frozen=True)
class PhaseSpace:
    """2n-dimensional phase space with a fixed coordinate order.

    The canonical order is (q1..qn, p1..pn); all gradients and component
    matrices in the rest of the library index coordinates this way.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) < 2 or len(self.names) % 2 != 0:
            raise ValueError(f"need 2n coordinate names with n >= 1, got {len(self.names)}")
        if len(set(self.names)) != len(self.names):
            raise ValueError("coordinate names must be distinct")

    @classmethod
    def canonical(cls, n: int) -> "PhaseSpace":
        if n < 1:
            raise ValueError("n must be >= 1")
        qs = tuple(f"q{i + 1}" for i in range(n))
        ps = tuple(f"p{i + 1}" for i in range(n))
        return cls(qs + ps)

    @property
    def n(self) -> int:
        return len(self.names) // 2

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown coordinate '{name}'") from None


class Jet:
    """First-order jet: a value together with its full coordinate gradient.

    Arithmetic propagates exact derivatives (dual-number style, but with a
    gradient vector instead of a single dual part), so any computation built
    from jets yields machine-accurate partial derivatives of its result.
    """

    __slots__ = ("value", "gradient")

    def __init__(self, value: float, gradient: np.ndarray):
        self.value = float(value)
        self.gradient = np.asarray(gradient, dtype=float)

    @classmethod
    def constant(cls, value: float, dim: int) -> "Jet":
        return cls(value, np.zeros(dim))

    @classmethod
    def variable(cls, value: float, index: int, dim: int) -> "Jet":
        g = np.zeros(dim)
        g[index] = 1.0
        return cls(value, g)

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet.constant(float(other), len(self.gradient))

    def __add__(self, other):
        o = self._coerce(other)
        return Jet(self.value + o.value, self.gradient + o.gradient)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet(self.value - o.value, self.gradient - o.gradient)

    def __rsub__(self, other):
        o = self._coerce(other)
        return Jet(o.value - self.value, o.gradient - self.gradient)

    def __mul__(self, other):
        o = self._coerce(other)
        return Jet(self.value * o.value, self.value * o.gradient + o.value * self.gradient)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.value == 0.0:
            raise ZeroDivisionError("jet division by zero value")
        v = self.value / o.value
        return Jet(v, (self.gradient - v * o.gradient) / o.value)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return Jet(-self.value, -self.gradient)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("jet powers must have integer exponents")
        if k < 0 and self.value == 0.0:
            raise ZeroDivisionError("zero raised to a negative power")
        v = self.value ** k
        return Jet(v, k * self.value ** (k - 1) * self.gradient if k != 0 else 0.0 * self.gradient)

    def sin(self):
        return Jet(math.sin(self.value), math.cos(self.value) * self.gradient)

    def cos(self):
        return Jet(math.cos(self.value), -math.sin(self.value) * self.gradient)

    def exp(self):
        v = math.exp(self.value)
        return Jet(v, v * self.gradient)

    def ln(self):
        if self.value <= 0.0:
            raise ValueError("ln of a non-positive jet value")
        return Jet(math.log(self.value), self.gradient / self.value)

    def __repr__(self):
        return f"Jet({self.value!r}, grad={self.gradient.tolist()!r})"


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


class ScalarExpr:
    """Base class for expression nodes; construction folds trivial algebra."""

    _prec = _PREC_ATOM

    def eval(self, point) -> float:
        raise NotImplementedError

    def eval_many(self, states: np.ndarray, memo: dict):
        """Values at every row of a (m, dim) state array: an array of shape
        (m,), or a float when the subtree is constant.  ``memo`` maps the id
        of each subtree already computed in this pass to its value."""
        key = id(self)
        if key not in memo:
            memo[key] = self._eval_many(states, memo)
        return memo[key]

    def _eval_many(self, states, memo):
        raise NotImplementedError

    def jet(self, jets: list[Jet]) -> Jet:
        raise NotImplementedError

    def diff(self, index: int) -> "ScalarExpr":
        raise NotImplementedError

    def _fmt(self, min_prec: int) -> str:
        s = self._fmt_raw()
        return f"({s})" if self._prec < min_prec else s

    def _fmt_raw(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self._fmt(0)

    # Operator sugar used heavily by the geometry layer.  Each constructor
    # folds constants and drops additive/multiplicative identities so that
    # derivative-built trees stay small; this is evaluation-preserving, not
    # a canonical-form simplifier.
    def __add__(self, other):
        return _add(self, _coerce(other))

    def __radd__(self, other):
        return _add(_coerce(other), self)

    def __sub__(self, other):
        return _sub(self, _coerce(other))

    def __rsub__(self, other):
        return _sub(_coerce(other), self)

    def __mul__(self, other):
        return _mul(self, _coerce(other))

    def __rmul__(self, other):
        return _mul(_coerce(other), self)

    def __truediv__(self, other):
        return _div(self, _coerce(other))

    def __rtruediv__(self, other):
        return _div(_coerce(other), self)

    def __neg__(self):
        return _neg(self)

    def __pow__(self, k: int):
        return _pow(self, k)

    def is_zero(self) -> bool:
        return isinstance(self, Num) and self.value == 0.0


@dataclass(frozen=True, repr=False)
class Num(ScalarExpr):
    value: float

    _prec = _PREC_ATOM

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ValueError("numeric literals must be finite")

    def eval(self, point) -> float:
        return self.value

    def _eval_many(self, states, memo):
        return self.value

    def jet(self, jets):
        return Jet.constant(self.value, len(jets[0].gradient))

    def diff(self, index):
        return Num(0.0)

    def _fmt(self, min_prec):
        s = repr(self.value)
        if self.value < 0 and min_prec > _PREC_NEG:
            return f"({s})"
        return s

    def _fmt_raw(self):
        return repr(self.value)

    def __repr__(self):
        return f"Num({self.value!r})"


@dataclass(frozen=True, repr=False)
class Var(ScalarExpr):
    name: str
    index: int

    _prec = _PREC_ATOM

    def eval(self, point) -> float:
        return float(point[self.index])

    def _eval_many(self, states, memo):
        return states[:, self.index]

    def jet(self, jets):
        return jets[self.index]

    def diff(self, index):
        return Num(1.0) if index == self.index else Num(0.0)

    def _fmt_raw(self):
        return self.name

    def __repr__(self):
        return f"Var({self.name})"


@dataclass(frozen=True, repr=False)
class Add(ScalarExpr):
    a: ScalarExpr
    b: ScalarExpr

    _prec = _PREC_ADD

    def eval(self, point):
        return self.a.eval(point) + self.b.eval(point)

    def _eval_many(self, states, memo):
        return self.a.eval_many(states, memo) + self.b.eval_many(states, memo)

    def jet(self, jets):
        return self.a.jet(jets) + self.b.jet(jets)

    def diff(self, index):
        return self.a.diff(index) + self.b.diff(index)

    def _fmt_raw(self):
        return f"{self.a._fmt(_PREC_ADD)} + {self.b._fmt(_PREC_ADD + 1)}"

    def __repr__(self):
        return f"({self.a!r} + {self.b!r})"


@dataclass(frozen=True, repr=False)
class Sub(ScalarExpr):
    a: ScalarExpr
    b: ScalarExpr

    _prec = _PREC_ADD

    def eval(self, point):
        return self.a.eval(point) - self.b.eval(point)

    def _eval_many(self, states, memo):
        return self.a.eval_many(states, memo) - self.b.eval_many(states, memo)

    def jet(self, jets):
        return self.a.jet(jets) - self.b.jet(jets)

    def diff(self, index):
        return self.a.diff(index) - self.b.diff(index)

    def _fmt_raw(self):
        return f"{self.a._fmt(_PREC_ADD)} - {self.b._fmt(_PREC_ADD + 1)}"

    def __repr__(self):
        return f"({self.a!r} - {self.b!r})"


@dataclass(frozen=True, repr=False)
class Mul(ScalarExpr):
    a: ScalarExpr
    b: ScalarExpr

    _prec = _PREC_MUL

    def eval(self, point):
        return self.a.eval(point) * self.b.eval(point)

    def _eval_many(self, states, memo):
        return self.a.eval_many(states, memo) * self.b.eval_many(states, memo)

    def jet(self, jets):
        return self.a.jet(jets) * self.b.jet(jets)

    def diff(self, index):
        return self.a.diff(index) * self.b + self.a * self.b.diff(index)

    def _fmt_raw(self):
        return f"{self.a._fmt(_PREC_MUL)} * {self.b._fmt(_PREC_MUL + 1)}"

    def __repr__(self):
        return f"({self.a!r} * {self.b!r})"


@dataclass(frozen=True, repr=False)
class Div(ScalarExpr):
    a: ScalarExpr
    b: ScalarExpr

    _prec = _PREC_MUL

    def eval(self, point):
        d = self.b.eval(point)
        if d == 0.0:
            raise EvalDomainError("division by zero", self)
        return self.a.eval(point) / d

    def _eval_many(self, states, memo):
        d = self.b.eval_many(states, memo)
        if np.any(d == 0.0):
            raise EvalDomainError("division by zero", self)
        return self.a.eval_many(states, memo) / d

    def jet(self, jets):
        d = self.b.jet(jets)
        if d.value == 0.0:
            raise EvalDomainError("division by zero", self)
        return self.a.jet(jets) / d

    def diff(self, index):
        # (a/b)' = a'/b - a*b'/b^2
        return self.a.diff(index) / self.b - self.a * self.b.diff(index) / (self.b * self.b)

    def _fmt_raw(self):
        return f"{self.a._fmt(_PREC_MUL)} / {self.b._fmt(_PREC_MUL + 1)}"

    def __repr__(self):
        return f"({self.a!r} / {self.b!r})"


@dataclass(frozen=True, repr=False)
class Neg(ScalarExpr):
    a: ScalarExpr

    _prec = _PREC_NEG

    def eval(self, point):
        return -self.a.eval(point)

    def _eval_many(self, states, memo):
        return -self.a.eval_many(states, memo)

    def jet(self, jets):
        return -self.a.jet(jets)

    def diff(self, index):
        return -self.a.diff(index)

    def _fmt_raw(self):
        return f"-{self.a._fmt(_PREC_POW)}"

    def __repr__(self):
        return f"(-{self.a!r})"


@dataclass(frozen=True, repr=False)
class Pow(ScalarExpr):
    base: ScalarExpr
    exponent: int

    _prec = _PREC_POW

    def __post_init__(self):
        if not isinstance(self.exponent, int):
            raise TypeError("exponent must be an integer")

    def eval(self, point):
        return self._apply(self.base.eval(point))

    def _apply(self, b: float) -> float:
        if b == 0.0 and self.exponent < 0:
            raise EvalDomainError("zero raised to a negative power", self)
        return b ** self.exponent

    def _eval_many(self, states, memo):
        return _elementwise(self._apply, self.base.eval_many(states, memo))

    def jet(self, jets):
        b = self.base.jet(jets)
        if b.value == 0.0 and self.exponent < 0:
            raise EvalDomainError("zero raised to a negative power", self)
        return b ** self.exponent

    def diff(self, index):
        return float(self.exponent) * _pow(self.base, self.exponent - 1) * self.base.diff(index)

    def _fmt_raw(self):
        return f"{self.base._fmt(_PREC_ATOM)}^{self.exponent}"

    def __repr__(self):
        return f"({self.base!r}^{self.exponent})"


_FUNCTIONS = ("sin", "cos", "exp", "ln")


@dataclass(frozen=True, repr=False)
class Call(ScalarExpr):
    fn: str
    arg: ScalarExpr

    _prec = _PREC_ATOM

    def __post_init__(self):
        if self.fn not in _FUNCTIONS:
            raise ValueError(f"unsupported function '{self.fn}'")

    def eval(self, point):
        return self._apply(self.arg.eval(point))

    def _apply(self, v: float) -> float:
        if self.fn == "sin":
            return math.sin(v)
        if self.fn == "cos":
            return math.cos(v)
        if self.fn == "exp":
            try:
                return math.exp(v)
            except OverflowError:
                raise EvalDomainError("exp overflow", self) from None
        if v <= 0.0:
            raise EvalDomainError("ln of a non-positive value", self)
        return math.log(v)

    def _eval_many(self, states, memo):
        return _elementwise(self._apply, self.arg.eval_many(states, memo))

    def jet(self, jets):
        v = self.arg.jet(jets)
        if self.fn == "ln" and v.value <= 0.0:
            raise EvalDomainError("ln of a non-positive value", self)
        return getattr(v, self.fn)()

    def diff(self, index):
        inner = self.arg.diff(index)
        if self.fn == "sin":
            return Call("cos", self.arg) * inner
        if self.fn == "cos":
            return -(Call("sin", self.arg) * inner)
        if self.fn == "exp":
            return Call("exp", self.arg) * inner
        return inner / self.arg

    def _fmt_raw(self):
        return f"{self.fn}({self.arg._fmt(0)})"

    def __repr__(self):
        return f"{self.fn}({self.arg!r})"


def _elementwise(op, values):
    """op applied to each element as the Python float that `eval` would see,
    so that every result rounds exactly as on the point path."""
    if isinstance(values, np.ndarray):
        return np.array([op(v) for v in values.tolist()], dtype=float)
    return op(values)


# ---------------------------------------------------------------------------
# Folding constructors
# ---------------------------------------------------------------------------

def _coerce(x) -> ScalarExpr:
    if isinstance(x, ScalarExpr):
        return x
    if isinstance(x, (int, float)):
        return Num(float(x))
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def _add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    return Add(a, b)


def _sub(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if b.is_zero():
        return a
    if a.is_zero():
        return _neg(b)
    return Sub(a, b)


def _mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    if a.is_zero() or b.is_zero():
        return Num(0.0)
    if isinstance(a, Num) and a.value == 1.0:
        return b
    if isinstance(b, Num) and b.value == 1.0:
        return a
    return Mul(a, b)


def _div(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(b, Num) and b.value != 0.0:
        if b.value == 1.0:
            return a
        if isinstance(a, Num):
            return Num(a.value / b.value)
    if a.is_zero() and not (isinstance(b, Num) and b.value == 0.0):
        return Num(0.0)
    return Div(a, b)


def _neg(a: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def _pow(base: ScalarExpr, k: int) -> ScalarExpr:
    if not isinstance(k, int):
        raise TypeError("exponent must be an integer")
    if k == 0:
        return Num(1.0)
    if k == 1:
        return base
    if isinstance(base, Num) and not (base.value == 0.0 and k < 0):
        return Num(base.value ** k)
    return Pow(base, k)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

_INT_RE = re.compile(r"^\d+$")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character '{text[pos]}'", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, space: PhaseSpace):
        self.text = text
        self.space = space
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.advance()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected '{op}'", tok.pos)

    def parse(self) -> ScalarExpr:
        if all(t.kind == "eof" for t in self.tokens):
            raise ParseError("empty expression", 0)
        e = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input '{tok.text}'", tok.pos)
        return e

    def expr(self) -> ScalarExpr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> ScalarExpr:
        e = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> ScalarExpr:
        negated = False
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            negated = True
        e = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            e = Pow(e, self.integer_exponent())
        return Neg(e) if negated else e

    def integer_exponent(self) -> int:
        sign = 1
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            sign = -1
        tok = self.advance()
        if tok.kind != "num" or not _INT_RE.match(tok.text):
            raise ParseError("non-integer exponent", tok.pos)
        return sign * int(tok.text)

    def base(self) -> ScalarExpr:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident":
            nxt = self.peek()
            if tok.text in _FUNCTIONS and nxt.kind == "op" and nxt.text == "(":
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            if tok.text in self.space.names:
                return Var(tok.text, self.space.index(tok.text))
            raise ParseError(f"unknown identifier '{tok.text}'", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token '{tok.text or '<end>'}'", tok.pos)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def parse(text: str, space: PhaseSpace) -> ScalarExpr:
    """Parse ``text`` into an expression over the coordinates of ``space``."""
    return _Parser(text, space).parse()


def evaluate(expr: ScalarExpr, point) -> float:
    """Evaluate at a point given in the space's coordinate order."""
    return expr.eval(point)


def evaluate_batch(exprs, states) -> list[np.ndarray]:
    """Evaluate each expression at every row of a (m, dim) state array.

    The values equal `eval` row by row, bit for bit: numpy does ``+ - * /``
    and negation, and powers and functions apply eval's own float operation
    element by element.  Each subtree object is computed once per call.
    Where `eval` would raise at some state, this raises what `eval` raises
    at the first such state."""
    states = np.asarray(states, dtype=float)
    memo: dict = {}
    try:
        with np.errstate(all="ignore"):
            values = [e.eval_many(states, memo) for e in exprs]
    except (ExprError, ArithmeticError, ValueError):
        # the point path meets the offending states in order
        for x in states:
            for e in exprs:
                e.eval(x)
        raise
    return [np.array(np.broadcast_to(v, len(states)), dtype=float) for v in values]


def diff(expr: ScalarExpr, coord: int | str, space: PhaseSpace | None = None) -> ScalarExpr:
    """Exact partial derivative with respect to a coordinate (index or name)."""
    if isinstance(coord, str):
        if space is None:
            raise ValueError("a PhaseSpace is required to resolve a coordinate name")
        coord = space.index(coord)
    return expr.diff(coord)


def evaluate_jet(expr: ScalarExpr, point) -> Jet:
    """Evaluate value and exact gradient in a single forward pass."""
    dim = len(point)
    jets = [Jet.variable(float(point[i]), i, dim) for i in range(dim)]
    return expr.jet(jets)


def substitute(expr: ScalarExpr, mapping: dict[int, ScalarExpr]) -> ScalarExpr:
    """Replace coordinates (by index) with expressions; used for changes of
    coordinates in randomized checks."""
    if isinstance(expr, Var):
        return mapping.get(expr.index, expr)
    if isinstance(expr, Num):
        return expr
    if isinstance(expr, Add):
        return substitute(expr.a, mapping) + substitute(expr.b, mapping)
    if isinstance(expr, Sub):
        return substitute(expr.a, mapping) - substitute(expr.b, mapping)
    if isinstance(expr, Mul):
        return substitute(expr.a, mapping) * substitute(expr.b, mapping)
    if isinstance(expr, Div):
        return substitute(expr.a, mapping) / substitute(expr.b, mapping)
    if isinstance(expr, Neg):
        return -substitute(expr.a, mapping)
    if isinstance(expr, Pow):
        return _pow(substitute(expr.base, mapping), expr.exponent)
    if isinstance(expr, Call):
        return Call(expr.fn, substitute(expr.arg, mapping))
    raise TypeError(f"unknown node {type(expr).__name__}")
