"""Metric, connection and curvature fields on a single chart.

Components are :class:`~walkergeom.expr.ScalarField` expressions, so all
coordinate partials entering Christoffel symbols and curvature are exact;
floating point enters only through point evaluation and through the inverse
metric, which is solved numerically at the evaluation points rather than
symbolically.  A :class:`LeviCivitaConnection` holds its own jet: a copy of
the last point set it was asked about and the inverse metric, Gamma and
d Gamma there, each computed on first use; calls on points equal to that set
by value reuse it, so the checks of one suite on one sample share one
Gamma / d Gamma evaluation.  A metric is singular at a point where
``|det g|`` is below :data:`DET_FLOOR`; the constant block ``[g_ia]`` that
:mod:`walkergeom.extensions` inverts is held to the same floor.

Curvature comes as a batched array: :func:`curvature_components` gives
``R_{ijk}{}^l`` at the points of ``x``.

Index conventions: component accessors take 1-based indices matching the
coordinate names ``x1..xn``; evaluated numpy arrays are 0-based.  Points
have shape ``(..., n)``; a batch of another width is refused.  Connection
arrays are indexed ``[l, j, k]`` for ``Gamma^l_{jk}`` and curvature arrays
``[i, j, k, l]`` for ``R_{ijk}{}^l`` with the sign fixed by

    R_{ijk}{}^l = d_j Gamma^l_{ik} - d_i Gamma^l_{jk}
                  + Gamma^l_{jp} Gamma^p_{ik} - Gamma^l_{ip} Gamma^p_{jk}

(the negative of the most common textbook convention).

Component families symmetric in one index pair (g, Gamma, and the section
data of :mod:`walkergeom.extensions`) are stored once per canonical key, with
the pair in ascending order and missing entries zero.  :class:`MetricField`
(rank 2) and :class:`SymbolicConnection` (rank 3) are one component family:
a store, component access, and per derivative order a table built from the
store on first use.  A table is the list of *distinct* fields (expression
trees that are equal are kept once) and an integer index array over the
dense component shape; the dense array at points ``x`` is
``np.take(evaluate_fields(fields, x), index, axis=-1)``, so each distinct
field is evaluated once however many slots it fills, and every array has the
point axes first and is C-contiguous.  A metric also lowers its order-1 and
order-2 tables by index: the Christoffel symbols of the first kind and their
partials are formed once per distinct triple of table fields and gathered
the same way.
"""

from __future__ import annotations

import itertools
from typing import Dict, Mapping, Tuple

import numpy as np

from .chart import ChartSplit
from .expr import ScalarField, as_field, evaluate_fields

__all__ = [
    "SingularMetricError",
    "MetricField",
    "ConnectionField",
    "SymbolicConnection",
    "LeviCivitaConnection",
    "christoffel",
    "curvature_components",
]

# |det| below this counts as singular
DET_FLOOR = 1e-12


class SingularMetricError(ValueError):
    """The metric determinant fell below the floor at an evaluation point."""


def _as_points(x, n: int) -> np.ndarray:
    """``x`` as a float array of points on an n-chart, shape ``(..., n)``."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != n:
        raise ValueError(f"points must have shape (..., {n}), got {x.shape}")
    return x


def _canonical(key: Tuple[int, ...]) -> Tuple[int, ...]:
    """A component key with its trailing symmetric index pair in ascending order."""
    *head, a, b = key
    return (*head, a, b) if a <= b else (*head, b, a)


def _symmetric_store(entries, n: int, rank: int, name: str) -> Dict[Tuple[int, ...], ScalarField]:
    """Canonical store of a component family symmetric in its last index pair.

    ``entries`` maps 1-based index tuples of length ``rank`` to anything
    :func:`as_field` accepts.  Keys are stored in canonical order, an entry
    that disagrees with its mirror image is refused, and every missing entry
    is filled with zero.
    """
    store = {}
    for key, value in dict(entries).items():
        if len(key) != rank or not all(1 <= i <= n for i in key):
            raise IndexError(f"{name} index {key} out of range 1..{n}")
        canon = _canonical(key)
        f = as_field(value, n)
        if canon in store and not store[canon].same_expression(f):
            label = "_".join(map(str, key))
            raise ValueError(f"asymmetric duplicate entries for '{name}_{label}'")
        store[canon] = f
    zero = ScalarField.constant(0.0, n)
    for key in itertools.product(range(1, n + 1), repeat=rank):
        store.setdefault(_canonical(key), zero)
    return store


def _gather(store: Mapping[Tuple[int, ...], ScalarField], n: int, pairs):
    """Lay a canonical store out over the dense ``(n,) * rank`` slot grid,
    ``rank`` being the length of its keys.

    The table is symmetric in each axis pair of ``pairs``, and ``store``
    holds (1-based) every slot with each pair in ascending order.  Returns
    the distinct fields (equal trees kept once) and an ``intp`` array of slot
    positions in that list, so the dense table at points ``x`` is
    ``np.take(evaluate_fields(fields, x), index, axis=-1)``, point axes first.
    """
    position = {}
    at = [position.setdefault(f.node, (len(position), f))[0] for f in store.values()]
    keys = np.array(list(store)) - 1
    index = np.empty((n,) * keys.shape[1], dtype=np.intp)
    index[tuple(keys.T)] = at
    grid = np.indices(index.shape)
    for a, b in pairs:
        index = np.where(grid[a] <= grid[b], index, np.swapaxes(index, a, b))
    return [f for _, f in position.values()], index


class _SymmetricComponents:
    """A component family symmetric in its last index pair: the canonical
    store, component access, and one table per derivative order, each built
    on first use.  Order 1 holds ``d_i`` of every entry, order 2 holds
    ``d_j`` of the order-1 table for ``i <= j``, symmetric in ``(i, j)``.

    Components are immutable after construction; build the tables (touch
    the highest order once) before fanning evaluation out to concurrent
    workers.
    """

    def __init__(self, n: int, components, rank: int, name: str):
        self.n = n
        self._comps = _symmetric_store(components, n, rank, name)
        self._tables = {}

    def component(self, *key: int) -> ScalarField:
        """The component at a 1-based key, either order of the symmetric pair."""
        return self._comps[_canonical(key)]

    def _table(self, order: int):
        """Distinct fields and slot index of the family (order 0), or of all
        its first (1) or second (2) partials; partial indices lead."""
        if order not in self._tables:
            n, store, pairs = self.n, self._comps, ((-2, -1),)
            if order == 1:
                store = {(i, *key): f.partial(i)
                         for i in range(1, n + 1) for key, f in store.items()}
            elif order == 2:
                # d_j d_i for i <= j, differentiating the first-partial table
                d1, at = self._table(1)
                store = {(i, j, *key): d1[at[(i - 1, *(k - 1 for k in key))]].partial(j)
                         for i in range(1, n + 1) for j in range(i, n + 1) for key in store}
                pairs = ((0, 1), (-2, -1))
            self._tables[order] = _gather(store, n, pairs)
        return self._tables[order]

    def _values(self, order: int, x) -> np.ndarray:
        fields, index = self._table(order)
        return np.take(evaluate_fields(fields, _as_points(x, self.n)), index, axis=-1)


class MetricField(_SymmetricComponents):
    """Symmetric 2-tensor with ScalarField components; only mu <= nu stored."""

    def __init__(self, chart: ChartSplit, components: Mapping[Tuple[int, int], object]):
        super().__init__(chart.n, components, 2, "g")
        self.chart = chart
        self._triples = {}

    def value(self, x) -> np.ndarray:
        """Component matrix, shape ``x.shape[:-1] + (n, n)``."""
        return self._values(0, x)

    def partial_value(self, x) -> np.ndarray:
        """All first partials; ``[..., i, mu, nu] = d_i g_{mu nu}`` (0-based)."""
        return self._values(1, x)

    def second_partial_value(self, x) -> np.ndarray:
        """All second partials; ``[..., i, j, mu, nu] = d_i d_j g_{mu nu}``."""
        return self._values(2, x)

    def _first_kind(self, order: int, x):
        """Gamma_{m,jk} = (1/2)(d_j g_{mk} + d_k g_{jm} - d_m g_{jk}) at ``x``,
        ``[..., m, j, k]`` (order 1), or its partials ``[..., u, m, j, k]`` =
        d_u Gamma_{m,jk} (order 2); also returns the values of the order's
        distinct fields, ``evaluate_fields(fields, x)``, they were formed from.

        The terms are added per distinct triple of table fields, (A + B) - C
        then halved, and one take lays the triples out over the dense slots;
        the triple table is built on first use, like the order's table.
        """
        fields, index = self._table(order)
        if order not in self._triples:
            # the fields of d_j g_{mk}, d_k g_{jm} and d_m g_{jk} at slot [m, j, k]
            a = np.einsum("...jmk->...mjk", index)
            b = np.einsum("...kjm->...mjk", index)
            f = len(fields)
            key, at = np.unique((a * f + b) * f + index, return_inverse=True)
            self._triples[order] = (key // (f * f), key // f % f, key % f), at.reshape(index.shape)
        (a, b, c), at = self._triples[order]
        v = evaluate_fields(fields, x)
        w = np.take(v, a, axis=-1) + np.take(v, b, axis=-1)
        w -= np.take(v, c, axis=-1)
        w *= 0.5
        return np.take(w, at, axis=-1), v

    def inverse_value(self, x) -> np.ndarray:
        g = self.value(x)
        det = np.linalg.det(g)
        bad = np.abs(det) < DET_FLOOR
        if np.any(bad):
            where = np.asarray(x, dtype=float).reshape(-1, self.n)[np.argmax(bad.reshape(-1))]
            raise SingularMetricError(
                f"metric singular (|det| < {DET_FLOOR:g}) at point {where.tolist()}"
            )
        return np.linalg.inv(g)

    def __repr__(self):
        nonzero = {k: str(v) for k, v in self._comps.items() if not v.is_zero}
        return f"MetricField(n={self.n}, {nonzero})"


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


class ConnectionField:
    """Torsion-free connection on an n-chart, evaluated pointwise.

    Subclasses provide ``gamma`` (component values ``Gamma^l_{jk}``) and
    ``gamma_partial`` (their exact coordinate partials ``d_mu Gamma^l_{jk}``).
    All implementations are symmetric in the lower index pair.
    """

    n: int

    def gamma(self, x) -> np.ndarray:
        """Values, shape ``x.shape[:-1] + (n, n, n)`` indexed ``[l, j, k]``."""
        raise NotImplementedError

    def gamma_partial(self, x) -> np.ndarray:
        """Partials, shape ``x.shape[:-1] + (n, n, n, n)``, ``[mu, l, j, k]``."""
        raise NotImplementedError


class SymbolicConnection(ConnectionField, _SymmetricComponents):
    """Connection with explicit ScalarField components, e.g. a base connection."""

    def __init__(self, n: int, components: Mapping[Tuple[int, int, int], object] = ()):
        super().__init__(n, components, 3, "Gamma")

    def gamma(self, x) -> np.ndarray:
        return self._values(0, x)

    def gamma_partial(self, x) -> np.ndarray:
        return self._values(1, x)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class LeviCivitaConnection(ConnectionField):
    """Levi-Civita connection of a metric.

    Component values come from the standard formula

        Gamma^l_{jk} = (1/2) g^{lm} (d_j g_{mk} + d_k g_{jm} - d_m g_{jk}),

    with the partials of g taken symbolically first and the inverse metric
    solved numerically at each point.  ``gamma_partial`` differentiates the
    same formula exactly, using d(g^{-1}) = -g^{-1} (dg) g^{-1} and the
    symbolic second partials of g:

        d_u Gamma = g^{-1} d_u(low) + d_u(g^{-1}) low,   low = Gamma_{m,jk}.

    ``low`` and d_u(low) are lowered by index (``MetricField._first_kind``):
    formed once per distinct triple of the metric's order-1 and order-2
    fields and gathered over the dense slots, so d^2 g itself is never laid
    out; both products are plain ``matmul`` over ``(n, n^2)`` views.

    The connection holds the jet of the last point set it was asked about: a
    copy of the points, and g^{-1}, Gamma and d Gamma there, each computed on
    first use.  A later call whose points equal that copy by value (same
    shape, equal entries; points changed in place since do not match) reuses
    it, so checks that share their sample points share one evaluation.
    Arrays returned from the jet are read-only, C-contiguous and have the
    point axes first.  The partials of g are evaluated again where needed
    rather than kept.
    """

    def __init__(self, metric: MetricField):
        self.metric = metric
        self.n = metric.n
        self._x = self._ginv = self._gamma = self._gamma_partial = None

    def _points(self, x) -> np.ndarray:
        """The jet's points, after starting a new jet unless they equal ``x``."""
        x = _as_points(x, self.n)
        if self._x is None or not np.array_equal(x, self._x):
            self._x, self._ginv, self._gamma, self._gamma_partial = x.copy(), None, None, None
        return self._x

    def _inverse(self) -> np.ndarray:
        if self._ginv is None:
            self._ginv = self.metric.inverse_value(self._x)
        return self._ginv

    def gamma(self, x) -> np.ndarray:
        x = self._points(x)
        if self._gamma is None:
            low, _ = self.metric._first_kind(1, x)
            shape, n = low.shape, self.n
            self._gamma = _frozen(np.matmul(self._inverse(), low.reshape(shape[:-2] + (n * n,)))
                                  .reshape(shape))
        return self._gamma

    def gamma_partial(self, x) -> np.ndarray:
        x = self._points(x)
        if self._gamma_partial is None:
            ginv, n = self._inverse()[..., None, :, :], self.n
            low, v = self.metric._first_kind(1, x)
            dg = np.take(v, self.metric._table(1)[1], axis=-1)
            # d_u(low) straight from the second-partial fields, freed on return
            dlow, _ = self.metric._first_kind(2, x)
            out = np.matmul(ginv, dlow.reshape(dlow.shape[:-2] + (n * n,)))
            del dlow
            dginv = -np.matmul(np.matmul(ginv, dg), ginv)  # d_u(g^{-1})
            out += np.matmul(dginv, low.reshape(low.shape[:-3] + (1, n, n * n)))
            self._gamma_partial = _frozen(out.reshape(out.shape[:-1] + (n, n)))
        return self._gamma_partial


class RestrictedConnection(ConnectionField):
    """A connection on the leaf space of a trailing-coordinate span, as
    :func:`~walkergeom.distributions.restrict_connection` builds it.

    Evaluates the parent's leading components at leaf points ``(..., keep)``
    with the trailing coordinates pinned to zero; only meaningful when the
    parent passes the projectability check, which makes the pinned values
    immaterial.
    """

    def __init__(self, parent: ConnectionField, keep: int):
        if not 0 < keep < parent.n:
            raise ValueError("leaf dimension must satisfy 0 < keep < n")
        self.parent = parent
        self.n = keep

    def _embed(self, y) -> np.ndarray:
        y = _as_points(y, self.n)
        return np.concatenate([y, np.zeros(y.shape[:-1] + (self.parent.n - self.n,))], axis=-1)

    def gamma(self, y) -> np.ndarray:
        m = self.n
        return self.parent.gamma(self._embed(y))[..., :m, :m, :m]

    def gamma_partial(self, y) -> np.ndarray:
        m = self.n
        return self.parent.gamma_partial(self._embed(y))[..., :m, :m, :m, :m]


def christoffel(g: MetricField) -> LeviCivitaConnection:
    """Levi-Civita connection of ``g`` (torsion-free, metric-compatible)."""
    return LeviCivitaConnection(g)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def curvature_components(conn: ConnectionField, x) -> np.ndarray:
    """R_{ijk}{}^l at batched points, shape ``x.shape[:-1] + (n,n,n,n)``."""
    G = conn.gamma(x)
    dG = conn.gamma_partial(x)
    # A[i,j,k,l] = d_j Gamma^l_{ik} + Gamma^l_{jp} Gamma^p_{ik}
    A = np.einsum("...jlik->...ijkl", dG) + np.einsum("...ljp,...pik->...ijkl", G, G)
    return A - np.einsum("...ijkl->...jikl", A)
