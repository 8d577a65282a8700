"""Closed-form scalar fields on a coordinate chart.

A :class:`ScalarField` is an immutable expression tree over the chart
coordinates ``x1 .. xn`` built from constants, coordinates, sums, products,
quotients, integer powers, ``sin``, ``cos`` and ``exp``.  The node set is
closed under differentiation, so partial derivatives are exact (no floating
point is involved until evaluation) and arbitrarily iterated.

Construction goes through smart constructors that fold constants and drop
additive zeros / multiplicative ones; no other rewriting is performed, so a
field evaluates exactly as written.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = [
    "ExpressionError",
    "ExpressionSyntaxError",
    "VariableRangeError",
    "EvaluationError",
    "ScalarField",
    "parse_expression",
    "coordinate",
]


class ExpressionError(ValueError):
    """Base class for expression construction and evaluation failures."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed expression source; ``position`` is a 0-based char offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VariableRangeError(ExpressionError):
    """A coordinate index lies outside ``1..n``."""


class EvaluationError(ExpressionError):
    """Evaluation hit a vanishing denominator; carries the subexpression."""

    def __init__(self, message: str, subexpression: str):
        super().__init__(f"{message}: {subexpression}")
        self.subexpression = subexpression


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------


class _Node:
    __slots__ = ("_hash", "max_var")

    def deriv(self, i: int) -> "_Node":
        raise NotImplementedError

    def evalx(self, x: np.ndarray, checked: bool):
        raise NotImplementedError

    def subst(self, table: Mapping[int, "_Node"]) -> "_Node":
        raise NotImplementedError

    def __eq__(self, other):
        """Structural equality: same node type and equal fields."""
        return (
            type(other) is type(self)
            and other._hash == self._hash
            and all(getattr(other, f) == getattr(self, f) for f in self.__slots__)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {render(self)}>"


class _Const(_Node):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)
        self.max_var = 0
        self._hash = hash(("const", self.value))

    def deriv(self, i):
        return _ZERO

    def evalx(self, x, checked):
        return np.float64(self.value)

    def subst(self, table):
        return self


class _Var(_Node):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 1:
            raise VariableRangeError(f"coordinate index must be >= 1, got {index}")
        self.index = index
        self.max_var = index
        self._hash = hash(("var", index))

    def deriv(self, i):
        return _ONE if i == self.index else _ZERO

    def evalx(self, x, checked):
        return x[..., self.index - 1]

    def subst(self, table):
        return table.get(self.index, self)


class _Add(_Node):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms
        self.max_var = max(t.max_var for t in terms)
        self._hash = hash(("add", terms))

    def deriv(self, i):
        return add(*(t.deriv(i) for t in self.terms))

    def evalx(self, x, checked):
        acc = self.terms[0].evalx(x, checked)
        for t in self.terms[1:]:
            acc = acc + t.evalx(x, checked)
        return acc

    def subst(self, table):
        new = tuple(t.subst(table) for t in self.terms)
        if all(a is b for a, b in zip(new, self.terms)):
            return self
        return add(*new)


class _Mul(_Node):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        self.factors = factors
        self.max_var = max(f.max_var for f in factors)
        self._hash = hash(("mul", factors))

    def deriv(self, i):
        terms = []
        for j, f in enumerate(self.factors):
            df = f.deriv(i)
            if df is _ZERO or df == _ZERO:
                continue
            terms.append(mul(*self.factors[:j], df, *self.factors[j + 1:]))
        return add(*terms)

    def evalx(self, x, checked):
        acc = self.factors[0].evalx(x, checked)
        for f in self.factors[1:]:
            acc = acc * f.evalx(x, checked)
        return acc

    def subst(self, table):
        new = tuple(f.subst(table) for f in self.factors)
        if all(a is b for a, b in zip(new, self.factors)):
            return self
        return mul(*new)


class _Div(_Node):
    __slots__ = ("num", "den")

    def __init__(self, num: _Node, den: _Node):
        self.num = num
        self.den = den
        self.max_var = max(num.max_var, den.max_var)
        self._hash = hash(("div", num, den))

    def deriv(self, i):
        du, dv = self.num.deriv(i), self.den.deriv(i)
        numerator = add(mul(du, self.den), mul(_Const(-1.0), self.num, dv))
        return div(numerator, intpow(self.den, 2))

    def evalx(self, x, checked):
        den = self.den.evalx(x, checked)
        if checked and np.any(np.asarray(den) == 0.0):
            raise EvaluationError("division by zero", render(self))
        return self.num.evalx(x, checked) / den

    def subst(self, table):
        num, den = self.num.subst(table), self.den.subst(table)
        if num is self.num and den is self.den:
            return self
        return div(num, den)


class _Pow(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base: _Node, exponent: int):
        self.base = base
        self.exponent = int(exponent)
        self.max_var = base.max_var
        self._hash = hash(("pow", base, self.exponent))

    def deriv(self, i):
        db = self.base.deriv(i)
        return mul(_Const(float(self.exponent)), intpow(self.base, self.exponent - 1), db)

    def evalx(self, x, checked):
        base = self.base.evalx(x, checked)
        if checked and self.exponent < 0 and np.any(np.asarray(base) == 0.0):
            raise EvaluationError("division by zero", render(self))
        return base ** self.exponent

    def subst(self, table):
        base = self.base.subst(table)
        if base is self.base:
            return self
        return intpow(base, self.exponent)


class _Call(_Node):
    __slots__ = ("fn", "arg")

    _FNS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}

    def __init__(self, fn: str, arg: _Node):
        self.fn = fn
        self.arg = arg
        self.max_var = arg.max_var
        self._hash = hash((fn, arg))

    def deriv(self, i):
        da = self.arg.deriv(i)
        if self.fn == "sin":
            return mul(_Call("cos", self.arg), da)
        if self.fn == "cos":
            return mul(_Const(-1.0), _Call("sin", self.arg), da)
        return mul(self, da)  # exp

    def evalx(self, x, checked):
        return self._FNS[self.fn](self.arg.evalx(x, checked))

    def subst(self, table):
        arg = self.arg.subst(table)
        if arg is self.arg:
            return self
        return call(self.fn, arg)


_ZERO = _Const(0.0)
_ONE = _Const(1.0)


# ---------------------------------------------------------------------------
# smart constructors: constant folding plus zero/one elimination only
# ---------------------------------------------------------------------------


def add(*terms: _Node) -> _Node:
    flat = []
    const_sum = 0.0
    for t in terms:
        if isinstance(t, _Add):
            sub = t.terms
        else:
            sub = (t,)
        for s in sub:
            if isinstance(s, _Const):
                const_sum += s.value
            else:
                flat.append(s)
    if const_sum != 0.0 or not flat:
        flat.append(_Const(const_sum))
    if len(flat) == 1:
        return flat[0]
    return _Add(tuple(flat))


def mul(*factors: _Node) -> _Node:
    flat = []
    const_prod = 1.0
    for f in factors:
        if isinstance(f, _Mul):
            sub = f.factors
        else:
            sub = (f,)
        for s in sub:
            if isinstance(s, _Const):
                if s.value == 0.0:
                    return _ZERO
                const_prod *= s.value
            else:
                flat.append(s)
    if not flat:
        return _Const(const_prod)
    if const_prod != 1.0:
        flat.insert(0, _Const(const_prod))
    if len(flat) == 1:
        return flat[0]
    return _Mul(tuple(flat))


def div(num: _Node, den: _Node) -> _Node:
    if isinstance(num, _Const) and num.value == 0.0:
        return _ZERO
    if isinstance(den, _Const) and den.value == 1.0:
        return num
    if isinstance(num, _Const) and isinstance(den, _Const) and den.value != 0.0:
        return _Const(num.value / den.value)
    return _Div(num, den)


def intpow(base: _Node, exponent: int) -> _Node:
    exponent = int(exponent)
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if isinstance(base, _Const) and not (base.value == 0.0 and exponent < 0):
        try:
            return _Const(base.value ** exponent)
        except OverflowError:
            return _Pow(base, exponent)
    return _Pow(base, exponent)


def call(fn: str, arg: _Node) -> _Node:
    if isinstance(arg, _Const):
        try:
            return _Const(getattr(math, fn)(arg.value))
        except (OverflowError, ValueError):  # kept unfolded, evaluates to inf / nan
            return _Call(fn, arg)
    return _Call(fn, arg)


def _negate(node: _Node) -> _Node:
    return mul(_Const(-1.0), node)


# ---------------------------------------------------------------------------
# rendering back to the surface grammar
# ---------------------------------------------------------------------------


def render(node: _Node) -> str:
    """Render a node as expression source accepted by :func:`parse_expression`."""
    if isinstance(node, _Const):
        return repr(node.value)
    if isinstance(node, _Var):
        return f"x{node.index}"
    if isinstance(node, _Add):
        out = render(node.terms[0])
        for t in node.terms[1:]:
            text = render(t)
            if text.startswith("-"):
                out += " - " + text[1:]
            else:
                out += " + " + text
        return out
    if isinstance(node, _Mul):
        parts = []
        for pos, f in enumerate(node.factors):
            text = render(f)
            if isinstance(f, (_Add, _Div)) or (pos > 0 and text.startswith("-")):
                text = f"({text})"
            parts.append(text)
        return "*".join(parts)
    if isinstance(node, _Div):
        num = render(node.num)
        if isinstance(node.num, _Add):
            num = f"({num})"
        den = render(node.den)
        if isinstance(node.den, (_Add, _Mul, _Div)) or den.startswith("-"):
            den = f"({den})"
        return f"{num}/{den}"
    if isinstance(node, _Pow):
        base = render(node.base)
        if not isinstance(node.base, (_Var, _Call)):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, _Call):
        return f"{node.fn}({render(node.arg)})"
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# Deepest nesting the parser accepts, counting parentheses, function calls and
# chained quotients.  The parser and every tree walk recurse once per level, so
# a bound keeps hostile input from exhausting the interpreter stack.
MAX_NESTING = 100


class _Parser:
    """Recursive-descent parser for the surface grammar.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' ['-'] integer)?
    base   := number | 'x' integer | '(' expr ')'
            | ('sin'|'cos'|'exp') '(' expr ')'
    """

    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0
        self.depth = 0

    def parse(self) -> _Node:
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ExpressionSyntaxError("unexpected trailing input", self.pos)
        return node

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> _Node:
        negated = False
        if self.peek() == "-":
            self.pos += 1
            negated = True
        node = self.term()
        if negated:
            node = _negate(node)
        while True:
            ch = self.peek()
            op = self.pos
            if ch == "+":
                self.pos += 1
                node = self.finite(add(node, self.term()), op)
            elif ch == "-":
                self.pos += 1
                node = self.finite(add(node, _negate(self.term())), op)
            else:
                return node

    def term(self) -> _Node:
        node = self.factor()
        depth = self.depth
        while True:
            ch = self.peek()
            op = self.pos
            if ch == "*":
                self.pos += 1
                node = self.finite(mul(node, self.factor()), op)
            elif ch == "/":
                self.descend()  # each quotient nests its numerator one level deeper
                self.pos += 1
                node = self.finite(div(node, self.factor()), op)
            else:
                self.depth = depth
                return node

    def factor(self) -> _Node:
        node = self.base()
        if self.peek() == "^":
            self.pos += 1
            return intpow(node, self.integer())
        return node

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ExpressionSyntaxError("expected integer exponent", start)
        return self.to_int(start, "integer exponent")

    def base(self) -> _Node:
        ch = self.peek()
        start = self.pos
        if ch == "":
            raise ExpressionSyntaxError("expected expression", start)
        if ch == "(":
            return self.group()
        if ch.isdigit() or ch == ".":
            return self.finite(_Const(self.number()), start)
        if ch.isalpha():
            word = self.word()
            if word == "x":
                idx_start = self.pos
                if self.pos >= len(self.text) or not self.text[self.pos].isdigit():
                    raise ExpressionSyntaxError("expected coordinate index after 'x'", idx_start)
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
                index = self.to_int(idx_start, "coordinate index")
                if not 1 <= index <= self.n:
                    raise VariableRangeError(
                        f"coordinate x{index} out of range for dimension {self.n}"
                        f" (at position {start})"
                    )
                return _Var(index)
            if word in ("sin", "cos", "exp"):
                if self.peek() != "(":
                    raise ExpressionSyntaxError(f"expected '(' after '{word}'", self.pos)
                return call(word, self.group())
            raise ExpressionSyntaxError(f"unknown name '{word}'", start)
        raise ExpressionSyntaxError(f"unexpected character '{ch}'", start)

    def to_int(self, start: int, what: str) -> int:
        """The integer spelled from ``start`` to the current position.  One
        that ``int`` cannot read (over 4300 digits, or a digit that is not
        decimal, such as a superscript) or that lies beyond the float range
        is an ExpressionSyntaxError."""
        try:
            value = int(self.text[start:self.pos])
            float(value)  # an exponent is evaluated, and differentiated, as a float
        except (ValueError, OverflowError):
            raise ExpressionSyntaxError(
                f"{what} is not a decimal integer in the float range", start) from None
        return value

    def finite(self, node: _Node, position: int) -> _Node:
        """``node``, unless it holds a constant that is not finite.  Literals
        and folds are checked where they are made, and folding leaves a
        constant only as the node itself or as a term or factor of it."""
        top = node.terms if isinstance(node, _Add) else (
            node.factors if isinstance(node, _Mul) else (node,))
        if any(isinstance(t, _Const) and not math.isfinite(t.value) for t in top):
            raise ExpressionSyntaxError("constant is not finite", position)
        return node

    def descend(self):
        if self.depth == MAX_NESTING:
            raise ExpressionSyntaxError(
                f"expression nested deeper than {MAX_NESTING} levels", self.pos
            )
        self.depth += 1

    def group(self) -> _Node:
        """``'(' expr ')'`` one nesting level down."""
        self.descend()
        self.pos += 1
        node = self.expr()
        if self.peek() != ")":
            raise ExpressionSyntaxError("expected ')'", self.pos)
        self.pos += 1
        self.depth -= 1
        return node

    def word(self) -> str:
        start = self.pos
        # variables are 'x<digits>', so a lone 'x' ends the word
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
            if self.text[start:self.pos] == "x":
                break
        return self.text[start:self.pos]

    def number(self) -> float:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent part after all
        try:
            return float(self.text[start:self.pos])
        except ValueError:
            raise ExpressionSyntaxError("malformed number", start) from None


# ---------------------------------------------------------------------------
# public wrapper
# ---------------------------------------------------------------------------

PointLike = Union[Sequence[float], np.ndarray]


class ScalarField:
    """An exact expression in the coordinates ``x1 .. xn`` of an n-chart.

    Immutable; all compositions (arithmetic operators, :meth:`partial`,
    :meth:`substitute`) return new fields.  Equality is structural.
    """

    __slots__ = ("node", "n")

    def __init__(self, node: _Node, n: int):
        n = int(n)
        if node.max_var > n:
            raise VariableRangeError(
                f"expression uses x{node.max_var} but chart dimension is {n}"
            )
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def constant(value: float, n: int) -> "ScalarField":
        return ScalarField(_Const(value), n)

    def with_dimension(self, n: int) -> "ScalarField":
        """Reinterpret this field on an ``n``-dimensional chart."""
        return ScalarField(self.node, n)

    # -- calculus ------------------------------------------------------------

    def partial(self, i: int) -> "ScalarField":
        """Exact partial derivative with respect to ``x_i`` (1-based)."""
        if not 1 <= i <= self.n:
            raise VariableRangeError(f"partial index {i} out of range 1..{self.n}")
        return ScalarField(self.node.deriv(i), self.n)

    def evaluate(self, x: PointLike, *, checked: bool = True):
        """Evaluate at one point (shape ``(n,)``) or a batch (``(..., n)``).

        Returns a float for a single point, an array for a batch.  With
        ``checked=True`` a vanishing quotient denominator raises
        :class:`EvaluationError`; otherwise evaluation follows IEEE
        semantics (overflow gives inf, inf/nan propagate), for a single
        point as for a batch.
        """
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0 or arr.shape[-1] != self.n:
            raise ValueError(f"point must have shape (..., {self.n}), got {arr.shape}")
        out = evaluate_fields(self, arr, checked)
        return float(out) if arr.ndim == 1 else out

    def substitute(self, assignments: Mapping[int, Union[float, "ScalarField"]]) -> "ScalarField":
        """Replace coordinates by constants or fields (keys are 1-based)."""
        table = {}
        for i, val in assignments.items():
            if not 1 <= i <= self.n:
                raise VariableRangeError(f"substitution index {i} out of range 1..{self.n}")
            table[i] = val.node if isinstance(val, ScalarField) else _Const(val)
        return ScalarField(self.node.subst(table), self.n)

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return isinstance(self.node, _Const) and self.node.value == 0.0

    @property
    def max_var(self) -> int:
        return self.node.max_var

    # -- operators -----------------------------------------------------------

    def _coerce(self, other) -> _Node:
        if isinstance(other, ScalarField):
            if other.max_var > self.n and self.max_var > other.n:
                raise VariableRangeError("operand dimensions are incompatible")
            return other.node
        return _Const(float(other))

    def _wrap(self, node: _Node, other=None) -> "ScalarField":
        n = self.n
        if isinstance(other, ScalarField):
            n = max(n, other.n)
        return ScalarField(node, n)

    def __add__(self, other):
        return self._wrap(add(self.node, self._coerce(other)), other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._wrap(add(self.node, _negate(self._coerce(other))), other)

    def __rsub__(self, other):
        return self._wrap(add(self._coerce(other), _negate(self.node)), other)

    def __mul__(self, other):
        return self._wrap(mul(self.node, self._coerce(other)), other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._wrap(div(self.node, self._coerce(other)), other)

    def __rtruediv__(self, other):
        return self._wrap(div(self._coerce(other), self.node), other)

    def __pow__(self, exponent: int):
        return ScalarField(intpow(self.node, exponent), self.n)

    def __neg__(self):
        return ScalarField(_negate(self.node), self.n)

    # -- misc ----------------------------------------------------------------

    def to_text(self) -> str:
        return render(self.node)

    __str__ = to_text

    def __repr__(self):
        return f"ScalarField({self.to_text()!r}, n={self.n})"

    def __eq__(self, other):
        return (
            isinstance(other, ScalarField)
            and other.n == self.n
            and other.node == self.node
        )

    def __hash__(self):
        return hash((self.node, self.n))

    def same_expression(self, other: "ScalarField") -> bool:
        """Structural equality of the trees, ignoring chart dimension."""
        return self.node == other.node


def parse_expression(text: str, n: int) -> ScalarField:
    """Parse expression source over coordinates ``x1 .. xn``.

    Raises :class:`ExpressionSyntaxError` (with position) on malformed input,
    including a literal or folded constant that is not finite, and
    :class:`VariableRangeError` when a coordinate index exceeds ``n``.
    """
    node = _Parser(text, n).parse()
    return ScalarField(node, n)


def coordinate(i: int, n: int) -> ScalarField:
    """The coordinate ``x_i`` as a field on an ``n``-chart."""
    if not 1 <= i <= n:
        raise VariableRangeError(f"coordinate x{i} out of range for dimension {n}")
    return ScalarField(_Var(i), n)


def as_field(value, n: int) -> ScalarField:
    """Coerce a number, expression source string, or field to a ScalarField."""
    if isinstance(value, ScalarField):
        return value.with_dimension(n)
    if isinstance(value, str):
        return parse_expression(value, n)
    return ScalarField.constant(float(value), n)


def evaluate_fields(fields, x: np.ndarray, checked: bool = False) -> np.ndarray:
    """Evaluate a (nested sequence of) field(s) at batched points.

    ``fields`` is a ScalarField or any rectangular nested list/tuple of them
    with shape ``S``; the result has shape ``x.shape[:-1] + S``.
    """
    arr = np.asarray(fields, dtype=object)
    single = arr.ndim == 0
    if single:
        arr = arr.reshape(1)
    x = np.asarray(x, dtype=float)
    base = x.shape[:-1]
    out = np.empty(base + arr.shape, dtype=float)
    flat_out = out.reshape(base + (-1,))
    for k, f in enumerate(arr.reshape(-1)):
        flat_out[..., k] = f.node.evalx(x, checked)
    return out[..., 0] if single else out
