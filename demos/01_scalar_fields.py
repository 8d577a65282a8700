"""Scalar fields on a chart: parsing, exact derivatives, evaluation.

Expressions are written in the coordinates x1..xn and stay closed under
differentiation, so iterated partials are exact down to rounding.
"""

import numpy as np

from walkergeom import parse_expression

f = parse_expression("x1^2*x2 + sin(x1*x2) - 1/(2 + x2^2)", 2)
print("f        =", f)
print("f(0.5,2) =", f.evaluate([0.5, 2.0]))

d1 = f.partial(1)
d12 = d1.partial(2)
print("d f/dx1        =", d1)
print("d^2 f/dx1 dx2  =", d12)

# derivatives are symbolic, so they match finite differences to rounding
x = np.array([0.3, -0.8])
h = 1e-6
fd = (f.evaluate(x + [h, 0]) - f.evaluate(x - [h, 0])) / (2 * h)
print("exact vs centred difference:", d1.evaluate(x), fd)

# mixed partials commute
print("commutes:", f.partial(2).partial(1).evaluate(x) - d12.evaluate(x))

# substitution pins coordinates; trailing zeros recover summands exactly
lam = parse_expression("x1 + x2^2", 3)
g11 = lam + (-2.0) * parse_expression("x3*x1", 3)
print("g11 at x3=0 :", g11.substitute({3: 0.0}), "== lam:", g11.substitute({3: 0.0}) == lam)

# batch evaluation over many points at once
pts = np.random.default_rng(0).uniform(-1, 1, (5, 2))
print("batch:", f.evaluate(pts))
