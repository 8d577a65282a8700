"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from walkergeom import CurveSpec, SymbolicConnection, euler_transport, parse_expression

# (connection, dimension, coarse step); steps chosen so both errors sit
# well above the first-order reference's own error
ORDER_TEST_PROBLEMS = [
    (SymbolicConnection(1, {(1, 1, 1): "2 + 3*x1^2"}), 1, 0.1),
    (SymbolicConnection(2, {(1, 1, 1): "3*x2 + 2", (1, 2, 2): "2*x1", (2, 1, 2): "4*x1*x2"}), 2, 0.2),
    (SymbolicConnection(2, {(1, 1, 2): "4*cos(2*x1)", (2, 2, 2): "3 + x2", (2, 1, 1): "2*x1"}), 2, 0.2),
    (SymbolicConnection(2, {(1, 1, 1): "2 + 2*x2^2", (2, 1, 2): "3*x1"}), 2, 0.2),
    (SymbolicConnection(1, {(1, 1, 1): "4*cos(3*x1)"}), 1, 0.2),
]


@pytest.fixture(scope="session")
def order_problems():
    """The integrator-order problems as (connection, curve at the coarse step,
    w0, final vector of the 10^6-step Euler reference); the reference is
    computed once per session."""
    problems = []
    for conn, n, h in ORDER_TEST_PROBLEMS:
        comps = tuple(parse_expression(c, 1) for c in ["x1"] + ["0.2*x1"] * (n - 1))
        curve = CurveSpec(comps, (0.0, 1.0), h)
        w0 = np.full(n, 1.0)
        problems.append((conn, curve, w0, euler_transport(conn, curve, w0, step=1e-6)))
    return problems
