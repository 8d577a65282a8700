"""Closed-form scalar fields on a coordinate chart.

A :class:`ScalarField` is an immutable expression tree over the chart
coordinates ``x1 .. xn`` built from constants, coordinates, sums, products,
quotients, integer powers, ``sin``, ``cos`` and ``exp``.  The node set is
closed under differentiation, so partial derivatives are exact (no floating
point is involved until evaluation) and arbitrarily iterated.

Every tree node is one ``_Node(op, args, data)``: the op names its kind
(``const``, ``var``, ``add``, ``mul``, ``div``, ``pow`` or ``call``), ``args``
holds the child nodes and ``data`` the kind's own value (the constant, the
coordinate index, the exponent or the function name).  Nodes hash and compare
by structure.  One function per job walks the tree and branches on ``op``:
``_evaluate`` (numpy values, with the ``checked`` division tests), ``_deriv``
(the exact partial, returning 0 for a subtree whose variable mask lacks the
coordinate) and ``_subst`` (coordinate replacement, rebuilding only the nodes
whose children changed).

Construction goes through smart constructors that fold constants and drop
additive zeros / multiplicative ones; no other rewriting is performed, so a
field evaluates exactly as written.

An integer power evaluates as products (``_power``): x^k by binary
exponentiation in multiplies, and x^-k as 1/x^k.  Its bits so depend only
on IEEE multiplication and division, not on which ``pow`` the platform's
numpy dispatches to, and it costs a few array multiplies where numpy's
``pow`` on a base with negative entries costs about 50 times as much.
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
    """One expression node: an ``op`` with its child nodes ``args`` and its
    own ``data``, the float of a ``"const"``, the index of a ``"var"``, the
    integer exponent of a ``"pow"`` and the function name of a ``"call"``
    (``"add"``, ``"mul"`` and ``"div"`` hold none).  ``var_mask`` has bit
    ``i - 1`` set where ``x_i`` occurs in the tree.  Equality is structural.

    A ``"var"`` node is built only after its index has been range-checked
    (by the parser or :func:`coordinate`), since its mask has that many bits.
    """

    __slots__ = ("op", "args", "data", "var_mask", "_hash")

    def __init__(self, op: str, args: tuple = (), data=None):
        mask = 0
        if op == "const":
            data = float(data)
        elif op == "var":
            if data < 1:
                raise VariableRangeError(f"coordinate index must be >= 1, got {data}")
            mask = 1 << (data - 1)
        else:
            for a in args:
                mask |= a.var_mask
        self.var_mask = mask
        self.op = op
        self.args = args
        self.data = data
        self._hash = hash((op, args, data))

    def __eq__(self, other):
        return (
            type(other) is _Node
            and other._hash == self._hash
            and other.op == self.op
            and other.data == self.data  # so a NaN constant equals nothing
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def max_var(self) -> int:
        """The highest coordinate index in the tree, 0 for none."""
        return self.var_mask.bit_length()

    def __repr__(self) -> str:
        return f"<_Node {self.op} {render(self)}>"


def _const(value: float) -> _Node:
    return _Node("const", (), value)


_ZERO = _const(0.0)
_ONE = _const(1.0)


def _evaluate(node: _Node, x: np.ndarray, checked: bool):
    """The node's value at points ``x``: a denominator before its numerator,
    terms and factors left to right.  With ``checked`` a vanishing
    denominator or base of a negative power raises EvaluationError."""
    op, args = node.op, node.args
    if op == "const":
        return np.float64(node.data)
    if op == "var":
        return x[..., node.data - 1]
    if op == "div":
        den = _evaluate(args[1], x, checked)
        if checked and np.any(np.asarray(den) == 0.0):
            raise EvaluationError("division by zero", render(node))
        return _evaluate(args[0], x, checked) / den
    acc = _evaluate(args[0], x, checked)
    if op == "add":
        for t in args[1:]:
            acc = acc + _evaluate(t, x, checked)
    elif op == "mul":
        for f in args[1:]:
            acc = acc * _evaluate(f, x, checked)
    elif op == "pow":
        if checked and node.data < 0 and np.any(np.asarray(acc) == 0.0):
            raise EvaluationError("division by zero", render(node))
        acc = _power(acc, abs(node.data))
        if node.data < 0:
            acc = 1.0 / acc
    else:
        acc = getattr(np, node.data)(acc)
    return acc


def _power(base, k: int):
    """``base`` to the integer power ``k >= 1`` in multiplies alone, by
    binary exponentiation: the squares base^(2^i) in turn, and a running
    product of those at the set bits of ``k``, lowest first.  A loop, not a
    recursion, so an exponent near 2^1024 takes about 1024 squarings."""
    out = None
    while True:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if not k:
            return out
        base = base * base


def _deriv(node: _Node, i: int) -> _Node:
    """The exact partial derivative of ``node`` with respect to ``x_i``.

    A subtree in which ``x_i`` does not occur is 0 at once: walking it would
    fold to that same constant through ``add``, ``mul`` and ``div``."""
    if not node.var_mask >> (i - 1) & 1:
        return _ZERO
    op, args = node.op, node.args
    if op == "var":
        return _ONE
    if op == "add":
        return add(*(_deriv(t, i) for t in args))
    if op == "mul":
        terms = []
        for j, f in enumerate(args):
            df = _deriv(f, i)
            if df is _ZERO or df == _ZERO:
                continue
            terms.append(mul(*args[:j], df, *args[j + 1:]))
        return add(*terms)
    if op == "div":
        num, den = args
        du, dv = _deriv(num, i), _deriv(den, i)
        return div(add(mul(du, den), mul(_const(-1.0), num, dv)), intpow(den, 2))
    da = _deriv(args[0], i)
    if op == "pow":
        return mul(_const(node.data), intpow(args[0], node.data - 1), da)
    if node.data == "sin":
        return mul(_Node("call", args, "cos"), da)
    if node.data == "cos":
        return mul(_const(-1.0), _Node("call", args, "sin"), da)
    return mul(node, da)  # exp


def _subst(node: _Node, table: Mapping[int, _Node]) -> _Node:
    """``node`` with each coordinate ``x_i`` of ``table`` replaced by
    ``table[i]``; a subtree that reads none of them is returned itself."""
    if node.op == "var":
        return table.get(node.data, node)
    args = tuple(_subst(a, table) for a in node.args)
    if all(a is b for a, b in zip(args, node.args)):
        return node
    if node.op == "add":
        return add(*args)
    if node.op == "mul":
        return mul(*args)
    if node.op == "div":
        return div(*args)
    if node.op == "pow":
        return intpow(args[0], node.data)
    return call(node.data, args[0])


# ---------------------------------------------------------------------------
# smart constructors: constant folding plus zero/one elimination only
# ---------------------------------------------------------------------------


def add(*terms: _Node) -> _Node:
    flat = []
    const_sum = 0.0
    for t in terms:
        for s in t.args if t.op == "add" else (t,):
            if s.op == "const":
                const_sum += s.data
            else:
                flat.append(s)
    if const_sum != 0.0 or not flat:
        flat.append(_const(const_sum))
    if len(flat) == 1:
        return flat[0]
    return _Node("add", tuple(flat))


def mul(*factors: _Node) -> _Node:
    flat = []
    const_prod = 1.0
    for f in factors:
        for s in f.args if f.op == "mul" else (f,):
            if s.op == "const":
                if s.data == 0.0:
                    return _ZERO
                const_prod *= s.data
            else:
                flat.append(s)
    if not flat:
        return _const(const_prod)
    if const_prod != 1.0:
        flat.insert(0, _const(const_prod))
    if len(flat) == 1:
        return flat[0]
    return _Node("mul", tuple(flat))


def div(num: _Node, den: _Node) -> _Node:
    if num.op == "const" and num.data == 0.0:
        return _ZERO
    if den.op == "const" and den.data == 1.0:
        return num
    if num.op == "const" and den.op == "const" and den.data != 0.0:
        return _const(num.data / den.data)
    return _Node("div", (num, den))


def intpow(base: _Node, exponent: int) -> _Node:
    exponent = int(exponent)
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if base.op == "const" and not (base.data == 0.0 and exponent < 0):
        try:
            return _const(base.data ** exponent)
        except OverflowError:
            pass
    return _Node("pow", (base,), exponent)


def call(fn: str, arg: _Node) -> _Node:
    if arg.op == "const":
        try:
            return _const(getattr(math, fn)(arg.data))
        except (OverflowError, ValueError):  # kept unfolded, evaluates to inf / nan
            pass
    return _Node("call", (arg,), fn)


def _negate(node: _Node) -> _Node:
    return mul(_const(-1.0), node)


# ---------------------------------------------------------------------------
# rendering back to the surface grammar
# ---------------------------------------------------------------------------


def render(node: _Node) -> str:
    """Render a node as expression source accepted by :func:`parse_expression`."""
    op, args = node.op, node.args
    if op == "const":
        return repr(node.data)
    if op == "var":
        return f"x{node.data}"
    if op == "add":
        out = render(args[0])
        for t in args[1:]:
            text = render(t)
            if text.startswith("-"):
                out += " - " + text[1:]
            else:
                out += " + " + text
        return out
    if op == "mul":
        parts = []
        for pos, f in enumerate(args):
            text = render(f)
            if f.op in ("add", "div") or (pos > 0 and text.startswith("-")):
                text = f"({text})"
            parts.append(text)
        return "*".join(parts)
    if op == "div":
        num = render(args[0])
        if args[0].op == "add":
            num = f"({num})"
        den = render(args[1])
        if args[1].op in ("add", "mul", "div") or den.startswith("-"):
            den = f"({den})"
        return f"{num}/{den}"
    if op == "pow":
        base = render(args[0])
        if args[0].op not in ("var", "call"):
            base = f"({base})"
        return f"{base}^{node.data}"
    return f"{node.data}({render(args[0])})"


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
            return self.finite(_const(self.number()), start)
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
                return _Node("var", (), index)
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
        top = node.args if node.op in ("add", "mul") else (node,)
        if any(t.op == "const" and not math.isfinite(t.data) for t in top):
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


def _as_points(x, n: int) -> np.ndarray:
    """``x`` as a float array of points on an n-chart, shape ``(..., n)``,
    holding at least one point."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != n:
        raise ValueError(f"points must have shape (..., {n}), got {x.shape}")
    if x.size == 0:
        raise ValueError(f"points must hold at least one point, got shape {x.shape}")
    return x


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
        return ScalarField(_const(value), n)

    def with_dimension(self, n: int) -> "ScalarField":
        """Reinterpret this field on an ``n``-dimensional chart."""
        return ScalarField(self.node, n)

    # -- calculus ------------------------------------------------------------

    def partial(self, i: int) -> "ScalarField":
        """Exact partial derivative with respect to ``x_i`` (1-based)."""
        if not 1 <= i <= self.n:
            raise VariableRangeError(f"partial index {i} out of range 1..{self.n}")
        return ScalarField(_deriv(self.node, i), self.n)

    def evaluate(self, x: PointLike, *, checked: bool = True):
        """Evaluate at one point (shape ``(n,)``) or a batch (``(..., n)``).

        Returns a float for a single point, an array for a batch.  With
        ``checked=True`` a vanishing quotient denominator raises
        :class:`EvaluationError`; otherwise evaluation follows IEEE
        semantics (overflow gives inf, inf/nan propagate), for a single
        point as for a batch.
        """
        arr = _as_points(x, self.n)
        out = evaluate_fields(self, arr, checked)
        return float(out) if arr.ndim == 1 else out

    def substitute(self, assignments: Mapping[int, Union[float, "ScalarField"]]) -> "ScalarField":
        """Replace coordinates by constants or fields (keys are 1-based)."""
        table = {}
        for i, val in assignments.items():
            if not 1 <= i <= self.n:
                raise VariableRangeError(f"substitution index {i} out of range 1..{self.n}")
            table[i] = val.node if isinstance(val, ScalarField) else _const(val)
        return ScalarField(_subst(self.node, table), self.n)

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.node.op == "const" and self.node.data == 0.0

    @property
    def max_var(self) -> int:
        return self.node.max_var

    # -- operators -----------------------------------------------------------

    def _coerce(self, other) -> _Node:
        if isinstance(other, ScalarField):
            if other.max_var > self.n and self.max_var > other.n:
                raise VariableRangeError("operand dimensions are incompatible")
            return other.node
        return _const(other)

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
    return ScalarField(_Node("var", (), i), n)


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
    with shape ``S``, all on one n-chart; the result has shape
    ``x.shape[:-1] + S``.  ``x`` must hold at least one point of width n.
    """
    arr = np.asarray(fields, dtype=object)
    single = arr.ndim == 0
    if single:
        arr = arr.reshape(1)
    widths = sorted({f.n for f in arr.reshape(-1)})
    if len(widths) > 1:
        raise ValueError(f"fields of one chart expected, got chart dimensions {widths}")
    x = np.asarray(x, dtype=float)
    x = _as_points(x, widths[0] if widths else (x.shape[-1] if x.ndim else 0))
    base = x.shape[:-1]
    out = np.empty(base + arr.shape, dtype=float)
    flat_out = out.reshape(base + (-1,))
    for k, f in enumerate(arr.reshape(-1)):
        flat_out[..., k] = _evaluate(f.node, x, checked)
    return out[..., 0] if single else out
