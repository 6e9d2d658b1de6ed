"""Small expression language over phase-space coordinates.

Expressions are immutable trees over decimal literals, coordinate names,
``+ - * /``, integer powers ``^``, unary minus, and the functions
``sin cos exp ln``.  They support exact evaluation and exact symbolic
partial derivatives; `evaluate_jet` is the value and the gradient from
the two.  `evaluate_batch` evaluates a list of expressions at many points
at once, and `compile_kernel` turns a list of expressions into one
straight-line Python function of the coordinates (geometry's point
queries run it, and the flow's loop pastes its code), both with the same
floating-point results and errors as evaluating point by point.  The four
binary nodes share one base: each names its Python operator, which
batched evaluation and `substitute` apply, and its printed symbol,
which the parser reads.  Powers and functions share another, `_Unary`:
each applies one float operation, with its domain check, to one argument;
each function is one row of `_FUNCTIONS`.  Everything here is pure and
safe to share across threads.
"""

from __future__ import annotations

import math
import operator
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
    "compile_kernel",
    "emit_kernel",
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
    """Arithmetic left the expression's domain (division by zero, ln <= 0).
    The message prints the node's first 8 levels and '...' for each deeper
    subtree: `str()` of a tree with shared subtrees can grow exponentially."""

    def __init__(self, message: str, subexpr: "ScalarExpr"):
        super().__init__(f"{message} in '{subexpr._fmt(0, 8)}'")
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


@dataclass(frozen=True, eq=False)
class Jet:
    """A value together with its full coordinate gradient."""

    value: float
    gradient: np.ndarray


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
    _diffs = None  # index -> derivative, set per node by `diff`

    def eval(self, point) -> float:
        raise NotImplementedError

    def eval_many(self, columns, memo: dict):
        """Values at the states whose coordinates are ``columns`` (arrays
        over m states, or one state's floats): an array of shape (m,), or a
        float for one state or a constant subtree.  ``memo`` maps the id of
        each subtree already computed in this pass to its value."""
        key = id(self)
        if key not in memo:
            memo[key] = self._eval_many(columns, memo)
        return memo[key]

    def _eval_many(self, columns, memo):
        raise NotImplementedError

    def diff(self, index: int) -> "ScalarExpr":
        """Exact partial derivative, derived once per (node, index) and kept
        on the node outside the dataclass fields, so that a repeated
        derivative is one object and the trees built from it share it."""
        if self._diffs is None:
            object.__setattr__(self, "_diffs", {})
        if index not in self._diffs:
            self._diffs[index] = self._diff(index)
        return self._diffs[index]

    def _diff(self, index: int) -> "ScalarExpr":
        raise NotImplementedError

    def _fmt(self, min_prec: int, levels) -> str:
        if levels <= 0:  # a subtree below the levels printed
            return "..."
        s = self._fmt_raw(levels - 1)
        return f"({s})" if self._prec < min_prec else s

    def _fmt_raw(self, levels) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self._fmt(0, math.inf)

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

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ValueError("numeric literals must be finite")

    def eval(self, point) -> float:
        return self.value

    def _eval_many(self, columns, memo):
        return self.value

    def diff(self, index):
        return _ZERO

    def _fmt(self, min_prec, levels):  # a literal prints whole at any level
        s = repr(self.value)
        if self.value < 0 and min_prec > _PREC_NEG:
            return f"({s})"
        return s

    def __repr__(self):
        return f"Num({self.value!r})"


@dataclass(frozen=True, repr=False)
class Var(ScalarExpr):
    name: str
    index: int

    def eval(self, point) -> float:
        return float(point[self.index])

    def _eval_many(self, columns, memo):
        return columns[self.index]

    def diff(self, index):
        return _ONE if index == self.index else _ZERO

    def _fmt_raw(self, levels):
        return self.name

    def __repr__(self):
        return f"Var({self.name})"


@dataclass(frozen=True, repr=False)
class _Binary(ScalarExpr):
    """A binary node: ``_op`` is its Python operator, which works alike on
    floats, numpy arrays and expressions, and ``_sym`` its symbol.
    Each node keeps its own `eval`, written out, for tree-evaluation speed."""

    a: ScalarExpr
    b: ScalarExpr

    def _eval_many(self, columns, memo):
        return self._op(self.a.eval_many(columns, memo), self.b.eval_many(columns, memo))

    def _fmt_raw(self, levels):
        return f"{self.a._fmt(self._prec, levels)} {self._sym} {self.b._fmt(self._prec + 1, levels)}"

    def __repr__(self):
        return f"({self.a!r} {self._sym} {self.b!r})"


class Add(_Binary):
    _prec, _op, _sym = _PREC_ADD, operator.add, "+"

    def eval(self, point):
        return self.a.eval(point) + self.b.eval(point)

    def _diff(self, index):
        return self.a.diff(index) + self.b.diff(index)


class Sub(_Binary):
    _prec, _op, _sym = _PREC_ADD, operator.sub, "-"

    def eval(self, point):
        return self.a.eval(point) - self.b.eval(point)

    def _diff(self, index):
        return self.a.diff(index) - self.b.diff(index)


class Mul(_Binary):
    _prec, _op, _sym = _PREC_MUL, operator.mul, "*"

    def eval(self, point):
        return self.a.eval(point) * self.b.eval(point)

    def _diff(self, index):
        return self.a.diff(index) * self.b + self.a * self.b.diff(index)


class Div(_Binary):
    _prec, _op, _sym = _PREC_MUL, operator.truediv, "/"

    def eval(self, point):
        d = self.b.eval(point)
        if d == 0.0:
            raise EvalDomainError("division by zero", self)
        return self.a.eval(point) / d

    def _eval_many(self, columns, memo):
        d = self.b.eval_many(columns, memo)
        if np.any(d == 0.0):
            raise EvalDomainError("division by zero", self)
        return self.a.eval_many(columns, memo) / d

    def _diff(self, index):
        # (a/b)' = a'/b - a*b'/b^2, which is a'/b where b' is the literal 0:
        # b*b may fold to 0.0 (b = 1e-200), and 0.0/0.0 has no value
        db = self.b.diff(index)
        if db.is_zero():
            return self.a.diff(index) / self.b
        return self.a.diff(index) / self.b - self.a * db / (self.b * self.b)


@dataclass(frozen=True, repr=False)
class Neg(ScalarExpr):
    a: ScalarExpr

    _prec = _PREC_NEG

    def eval(self, point):
        return -self.a.eval(point)

    def _eval_many(self, columns, memo):
        return -self.a.eval_many(columns, memo)

    def _diff(self, index):
        return -self.a.diff(index)

    def _fmt_raw(self, levels):
        return f"-{self.a._fmt(_PREC_POW, levels)}"

    def __repr__(self):
        return f"(-{self.a!r})"


class _Unary(ScalarExpr):
    """One float operation on one argument, ``arg``: ``_apply`` is the operation
    with its domain check, which eval, batches and kernels all go through."""

    def eval(self, point):
        return self._apply(self.arg.eval(point))

    def _eval_many(self, columns, memo):
        values = self.arg.eval_many(columns, memo)
        if isinstance(values, np.ndarray):
            # each element as the Python float that `eval` would see, so
            # that every result rounds exactly as on the point path
            return np.array([self._apply(v) for v in values.tolist()], dtype=float)
        return self._apply(values)


@dataclass(frozen=True, repr=False)
class Pow(_Unary):
    arg: ScalarExpr
    exponent: int

    _prec = _PREC_POW

    def __post_init__(self):
        if not isinstance(self.exponent, int):
            raise TypeError("exponent must be an integer")

    def _apply(self, b: float) -> float:
        if b == 0.0 and self.exponent < 0:
            raise EvalDomainError("zero raised to a negative power", self)
        return b ** self.exponent

    def _diff(self, index):
        return float(self.exponent) * _pow(self.arg, self.exponent - 1) * self.arg.diff(index)

    def _fmt_raw(self, levels):
        return f"{self.arg._fmt(_PREC_ATOM, levels)}^{self.exponent}"

    def __repr__(self):
        return f"({self.arg!r}^{self.exponent})"


def _exp(v: float, node: "Call") -> float:
    try:
        return math.exp(v)
    except OverflowError:
        raise EvalDomainError("exp overflow", node) from None


def _ln(v: float, node: "Call") -> float:
    if v <= 0.0:
        raise EvalDomainError("ln of a non-positive value", node)
    return math.log(v)


# name -> (float function of (v, node), derivative builder of (a, da))
_FUNCTIONS = {
    "sin": (lambda v, node: math.sin(v), lambda a, da: Call("cos", a) * da),
    "cos": (lambda v, node: math.cos(v), lambda a, da: -(Call("sin", a) * da)),
    "exp": (_exp, lambda a, da: Call("exp", a) * da),
    "ln": (_ln, lambda a, da: da / a),
}


@dataclass(frozen=True, repr=False)
class Call(_Unary):
    fn: str
    arg: ScalarExpr

    def __post_init__(self):
        if self.fn not in _FUNCTIONS:
            raise ValueError(f"unsupported function '{self.fn}'")

    def _apply(self, v: float) -> float:
        return _FUNCTIONS[self.fn][0](v, self)

    def _diff(self, index):
        return _FUNCTIONS[self.fn][1](self.arg, self.arg.diff(index))

    def _fmt_raw(self, levels):
        return f"{self.fn}({self.arg._fmt(0, levels)})"

    def __repr__(self):
        return f"{self.fn}({self.arg!r})"


# ---------------------------------------------------------------------------
# Folding constructors
# ---------------------------------------------------------------------------

def _coerce(x) -> ScalarExpr:
    if isinstance(x, ScalarExpr):
        return x
    if isinstance(x, (int, float)):
        return Num(float(x))
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


# shared literals of the folding constructors and of `diff` (nodes are
# immutable, so one object serves every tree)
_ZERO = Num(0.0)
_ONE = Num(1.0)


def _folded(value: float, a: Num, b: Num) -> Num | None:
    """Num(value), or an operand that holds exactly that value (the same
    bits, so -0.0 and 0.0 stay apart): derivatives of long sums fold
    mostly zeros, and the per-node derivative cache keeps what they fold to.
    None where the value overflowed: no literal holds it, so the caller keeps
    its node, and eval yields the inf where it is used, as for `_pow`."""
    if not math.isfinite(value):
        return None
    sign = math.copysign(1.0, value)
    for operand in (a, b):
        if operand.value == value and math.copysign(1.0, operand.value) == sign:
            return operand
    return Num(value)


def _add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Num) and isinstance(b, Num):
        return _folded(a.value + b.value, a, b) or Add(a, b)
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    return Add(a, b)


def _sub(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Num) and isinstance(b, Num):
        return _folded(a.value - b.value, a, b) or Sub(a, b)
    if b.is_zero():
        return a
    if a.is_zero():
        return _neg(b)
    return Sub(a, b)


def _mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Num) and isinstance(b, Num):
        return _folded(a.value * b.value, a, b) or Mul(a, b)
    if a.is_zero() or b.is_zero():
        return _ZERO
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
            return _folded(a.value / b.value, a, b) or Div(a, b)
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
        try:
            return Num(base.value ** k)
        except OverflowError:
            pass  # no float holds the power: the node stays, and eval raises where it is used
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

_ADDITIVE = {node._sym: node for node in (Add, Sub)}
_MULTIPLICATIVE = {node._sym: node for node in (Mul, Div)}


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
        self.space = space
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, op: str) -> bool:
        """Consume the next token if it is the operator ``op``."""
        if self.peek().kind == "op" and self.peek().text == op:
            self.i += 1
            return True
        return False

    def expect_op(self, op: str):
        if not self.accept(op):
            raise ParseError(f"expected '{op}'", self.peek().pos)

    def parse(self) -> ScalarExpr:
        if all(t.kind == "eof" for t in self.tokens):
            raise ParseError("empty expression", 0)
        e = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input '{tok.text}'", tok.pos)
        return e

    def expr(self) -> ScalarExpr:
        return self.chain(self.term, _ADDITIVE)

    def term(self) -> ScalarExpr:
        return self.chain(self.factor, _MULTIPLICATIVE)

    def chain(self, operand, nodes: dict) -> ScalarExpr:
        """A left-associative chain of operands joined by the symbols of ``nodes``."""
        e = operand()
        while self.peek().kind == "op" and self.peek().text in nodes:
            e = nodes[self.advance().text](e, operand())
        return e

    def factor(self) -> ScalarExpr:
        negated = self.accept("-")
        e = self.base()
        if self.accept("^"):
            e = Pow(e, self.integer_exponent())
        return Neg(e) if negated else e

    def integer_exponent(self) -> int:
        sign = -1 if self.accept("-") else 1
        tok = self.advance()
        if tok.kind != "num" or not _INT_RE.match(tok.text):
            raise ParseError("non-integer exponent", tok.pos)
        try:
            return sign * int(tok.text)
        except ValueError:  # more digits than the interpreter converts to an int
            raise ParseError("exponent has too many digits", tok.pos) from None

    def base(self) -> ScalarExpr:
        tok = self.advance()
        if tok.kind == "num":
            if not math.isfinite(float(tok.text)):
                raise ParseError(f"numeric literal '{tok.text}' exceeds the float range", tok.pos)
            return Num(float(tok.text))
        if tok.kind == "ident":
            if tok.text in _FUNCTIONS and self.accept("("):
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
    """Parse ``text`` into an expression over the coordinates of ``space``;
    any failure is a `ParseError`."""
    try:
        return _Parser(text, space).parse()
    except RecursionError:  # its depth depends on the caller's stack, so no depth is named
        raise ParseError("expression nested too deeply", 0) from None


def evaluate(expr: ScalarExpr, point) -> float:
    """Evaluate at a point given in the space's coordinate order."""
    return expr.eval(point)


def in_state_order(fn, start: int, end: int, errors) -> tuple:
    """fn(start, end), the arrays of states [start, end) with one row per state,
    in one batched pass; where that raises one of ``errors``, each half of the
    states the same way, in order, concatenated: as each row depends on its
    state alone, the error raised is the first a state-by-state loop meets.
    On one state the error propagates.  Where only single states raise, a
    pass of B states takes at most 2 ceil(log2 B) + 1 calls of fn."""
    try:
        return fn(start, end)
    except errors:
        if end - start == 1:
            raise
        mid = (start + end) // 2
        return tuple(map(np.concatenate, zip(in_state_order(fn, start, mid, errors),
                                             in_state_order(fn, mid, end, errors))))


def evaluate_batch(exprs, states) -> list[np.ndarray]:
    """Evaluate each expression at every row of a (m, dim) state array.

    The values equal `eval` row by row, bit for bit: one state computes on
    its Python floats as `eval` does, several on one array per coordinate
    (numpy's ``+ - * /`` and negation; powers and functions apply eval's float
    operation element by element), each subtree object once per pass.  Where
    `eval` would raise, the replay by halves raises the first failing state's
    error (`in_state_order`)."""
    states = np.asarray(states, dtype=float)

    def walk(a, b):  # states [a, b) as one (b - a, len(exprs)) array
        columns = states[a].tolist() if b - a == 1 else list(states[a:b].T)
        memo: dict = {}
        with np.errstate(all="ignore"):
            values = [e.eval_many(columns, memo) for e in exprs]
        # one (len(exprs), m) block: a row assignment broadcasts a constant
        out = np.empty((len(values), b - a))
        for k, v in enumerate(values):
            out[k] = v
        return (out.T,)

    return list(in_state_order(walk, 0, len(states), (ExprError, ArithmeticError, ValueError))[0].T)


def emit_kernel(exprs):
    """`compile_kernel`'s code as (body lines, output expressions, env, the
    coordinates read), coordinate i written ``{x}i`` and temporary k ``{t}k``
    for `str.format`, so that equal trees give equal text; the env holds each
    Div and each ``_apply``.  A subtree used once is inline, in the parentheses
    its precedence needs; a temporary holds each shared subtree, output,
    denominator, subtree nested 16 deep and call of ``_apply`` (which may raise)."""
    body: list[str] = []
    env: dict = {"EvalDomainError": EvalDomainError}
    names: dict = {}  # id of each subtree stored -> its temporary
    reads: dict = {}  # index of each coordinate read -> its name
    uses: dict = {}  # id of each subtree -> its users, outputs included

    def count(node):
        uses[id(node)] = uses.get(id(node), 0) + 1
        if uses[id(node)] == 1:
            for name in ("a", "b", "arg"):  # the operands (never `vars(node)`, which gives it a dict)
                if hasattr(node, name):
                    count(getattr(node, name))

    def store(text) -> str:
        body.append(f"{{t}}{len(body)} = {text}")
        return f"{{t}}{len(body) - 1}"

    def emit(node, prec=0) -> tuple[str, int]:  # (text, nesting depth), in parentheses below prec
        if id(node) in names:
            return names[id(node)], 0
        if isinstance(node, Num):  # in Python a negative literal needs no parentheses either
            return repr(node.value), 0
        if isinstance(node, Var):
            return reads.setdefault(node.index, f"{{x}}{node.index}"), 0
        if isinstance(node, Div):  # the denominator is tested before the numerator is computed
            b, depth = emit(node.b)
            b, ref = store(b) if depth else b, f"n{len(env)}"
            env[ref] = node
            body.append(f"if {b} == 0.0: raise EvalDomainError('division by zero', {ref})")
            a, depth = emit(node.a, _PREC_MUL)
            text = f"{a} / {b}"
        elif isinstance(node, _Unary):
            (arg, depth), ref = emit(node.arg), f"f{len(env)}"
            env[ref] = node._apply
            text = f"{ref}({arg})"
        elif isinstance(node, Neg):
            a, depth = emit(node.a, _PREC_NEG)
            text = f"-{a}"
        else:
            (a, depth), (b, depth_b) = emit(node.a, node._prec), emit(node.b, node._prec + 1)
            text, depth = f"{a} {node._sym} {b}", max(depth, depth_b)
        if uses[id(node)] > 1 or depth >= 16 or isinstance(node, _Unary):
            names[id(node)] = store(text)
            return names[id(node)], 0
        return (f"({text})" if node._prec < prec else text), depth + 1

    for e in exprs:
        count(e)
        uses[id(e)] += 1  # so that a temporary holds each output
    return body, [emit(e)[0] for e in exprs], env, tuple(sorted(reads))


def compile_kernel(exprs, dim: int):
    """Compile expressions into one straight-line function ``f(x0, ...,
    x{dim-1}) -> tuple[float, ...]`` of float coordinates (`emit_kernel`): each
    float operation of `eval` in its order, each subtree object once, so the
    values and the first error are `eval`'s, bit for bit."""
    body, outputs, env, _ = emit_kernel(exprs)
    text = "\n    ".join([f"def kernel({', '.join(f'x{i}' for i in range(dim))}):", *body,
                         f"return ({''.join(o + ', ' for o in outputs)})"])
    exec(compile(text.format(x="x", t="t"), "<kernel>", "exec"), env)
    return env["kernel"]


def diff(expr: ScalarExpr, coord: int | str, space: PhaseSpace | None = None) -> ScalarExpr:
    """Exact partial derivative with respect to a coordinate (index or name)."""
    if isinstance(coord, str):
        if space is None:
            raise ValueError("a PhaseSpace is required to resolve a coordinate name")
        coord = space.index(coord)
    return expr.diff(coord)


def evaluate_jet(expr: ScalarExpr, point) -> Jet:
    """Value and exact gradient at a point: `eval` of the expression and of
    its partial derivatives (`diff`), so the errors are `eval`'s."""
    return Jet(expr.eval(point), np.array([expr.diff(i).eval(point) for i in range(len(point))]))


def substitute(expr: ScalarExpr, mapping: dict[int, ScalarExpr]) -> ScalarExpr:
    """Replace coordinates (by index) with expressions; used for changes of
    coordinates in randomized checks."""
    if isinstance(expr, Var):
        return mapping.get(expr.index, expr)
    if isinstance(expr, Num):
        return expr
    if isinstance(expr, _Binary):
        # through the operator, so the folding constructors apply
        return expr._op(substitute(expr.a, mapping), substitute(expr.b, mapping))
    if isinstance(expr, Neg):
        return -substitute(expr.a, mapping)
    if isinstance(expr, Pow):
        return _pow(substitute(expr.arg, mapping), expr.exponent)
    if isinstance(expr, Call):
        return Call(expr.fn, substitute(expr.arg, mapping))
    raise TypeError(f"unknown node {type(expr).__name__}")
