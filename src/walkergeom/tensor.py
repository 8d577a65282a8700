"""Metric, connection and curvature fields on a single chart.

Components are :class:`~walkergeom.expr.ScalarField` expressions, so all
coordinate partials entering Christoffel symbols and curvature are exact;
floating point enters only through point evaluation and through the inverse
metric, which is solved numerically at the evaluation points rather than
symbolically.  A :class:`LeviCivitaConnection` keeps one jet, the inverse
metric, Gamma and d Gamma at the last point set it was asked about, each
computed on first use; calls on points equal to that set by value reuse it,
so the checks of one suite on one sample share one Gamma / d Gamma
evaluation.  A metric is singular at a point where ``|det g|`` is below
:data:`DET_FLOOR`; the constant block ``[g_ia]`` that
:mod:`walkergeom.extensions` inverts is held to the same floor.

Curvature comes as batched arrays: :func:`curvature_components` gives
``R_{ijk}{}^l`` at the points of ``x`` and :func:`lower_curvature` lowers it
with the metric values at the same points.

Index conventions: component accessors take 1-based indices matching the
coordinate names ``x1..xn``; evaluated numpy arrays are 0-based.  Connection
arrays are indexed ``[l, j, k]`` for ``Gamma^l_{jk}`` and curvature arrays
``[i, j, k, l]`` for ``R_{ijk}{}^l`` with the sign fixed by

    R_{ijk}{}^l = d_j Gamma^l_{ik} - d_i Gamma^l_{jk}
                  + Gamma^l_{jp} Gamma^p_{ik} - Gamma^l_{ip} Gamma^p_{jk}

(the negative of the most common textbook convention).

Component families symmetric in one index pair (g, Gamma, and the section
data of :mod:`walkergeom.extensions`) are stored once per canonical key, with
the pair in ascending order and missing entries zero.  Evaluation reads a
table built from that store on first use: the list of *distinct* fields
(expression trees that are equal are kept once) and an integer index array
over the dense component shape.  The dense array at points ``x`` is
``evaluate_fields(fields, x)[..., index]``, so each distinct field is
evaluated once however many slots it fills.
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
    "RestrictedConnection",
    "christoffel",
    "curvature_components",
    "lower_curvature",
    "covariant_derivative_vector",
    "covariant_derivative_metric_residual",
]

# |det| below this counts as singular
DET_FLOOR = 1e-12


class SingularMetricError(ValueError):
    """The metric determinant fell below the floor at an evaluation point."""


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


def _gather(store: Mapping[Tuple[int, ...], ScalarField], n: int, rank: int,
            pairs=((-2, -1),)):
    """Lay a canonical store out over the dense ``(n,) * rank`` slot grid.

    The table is symmetric in each axis pair of ``pairs``, and ``store``
    holds (1-based) every slot with each pair in ascending order.  Returns
    the distinct fields (equal trees kept once) and an ``intp`` array of slot
    positions in that list, so the dense table at points ``x`` is
    ``evaluate_fields(fields, x)[..., index]``.
    """
    position = {}
    at = [position.setdefault(f.node, (len(position), f))[0] for f in store.values()]
    index = np.empty((n,) * rank, dtype=np.intp)
    index[tuple(np.array(list(store)).T - 1)] = at
    grid = np.indices(index.shape)
    for a, b in pairs:
        index = np.where(grid[a] <= grid[b], index, np.swapaxes(index, a, b))
    return [f for _, f in position.values()], index


def _evaluate(table, x) -> np.ndarray:
    fields, index = table
    return evaluate_fields(fields, x)[..., index]


class MetricField:
    """Symmetric 2-tensor with ScalarField components; only mu <= nu stored.

    Components are immutable after construction.  The tables of g and its
    symbolic first/second partials are derived data, built lazily on first
    use; construct (or touch ``second_partial_value`` once) before fanning
    evaluation out to concurrent workers.
    """

    def __init__(self, chart: ChartSplit, components: Mapping[Tuple[int, int], object]):
        self.chart = chart
        self.n = chart.n
        self._comps = _symmetric_store(components, self.n, 2, "g")
        self._tables = [None, None, None]

    def component(self, mu: int, nu: int) -> ScalarField:
        """g_{mu nu} (1-based, symmetric access)."""
        return self._comps[_canonical((mu, nu))]

    # -- evaluation ------------------------------------------------------------

    def _table(self, order: int):
        """Table of g (order 0), its first (1) or second (2) partials."""
        if self._tables[order] is None:
            n, store, pairs = self.n, self._comps, ((-2, -1),)
            if order == 1:
                store = {(i, *p): f.partial(i) for i in range(1, n + 1) for p, f in store.items()}
            elif order == 2:
                # d_j d_i g for i <= j, differentiating the first-partial table
                d1, at = self._table(1)
                store = {(i, j, mu, nu): d1[at[i - 1, mu - 1, nu - 1]].partial(j)
                         for i in range(1, n + 1) for j in range(i, n + 1) for (mu, nu) in store}
                pairs = ((0, 1), (2, 3))
            self._tables[order] = _gather(store, n, 2 + order, pairs)
        return self._tables[order]

    def value(self, x) -> np.ndarray:
        """Component matrix, shape ``x.shape[:-1] + (n, n)``."""
        return _evaluate(self._table(0), x)

    def partial_value(self, x) -> np.ndarray:
        """All first partials; ``[..., i, mu, nu] = d_i g_{mu nu}`` (0-based)."""
        return _evaluate(self._table(1), x)

    def second_partial_value(self, x) -> np.ndarray:
        """All second partials; ``[..., i, j, mu, nu] = d_i d_j g_{mu nu}``."""
        return _evaluate(self._table(2), x)

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


class SymbolicConnection(ConnectionField):
    """Connection with explicit ScalarField components, e.g. a base connection."""

    def __init__(self, n: int, components: Mapping[Tuple[int, int, int], object] = ()):
        self.n = n
        self._comps = _symmetric_store(components, n, 3, "Gamma")
        self._tables = [None, None]

    def component(self, l: int, j: int, k: int) -> ScalarField:
        return self._comps[_canonical((l, j, k))]

    def _table(self, order: int):
        """Table of Gamma (order 0) or of its first partials (order 1)."""
        if self._tables[order] is None:
            store = self._comps
            if order == 1:
                store = {(mu, *key): f.partial(mu)
                         for mu in range(1, self.n + 1) for key, f in store.items()}
            self._tables[order] = _gather(store, self.n, 3 + order)
        return self._tables[order]

    def gamma(self, x) -> np.ndarray:
        return _evaluate(self._table(0), x)

    def gamma_partial(self, x) -> np.ndarray:
        return _evaluate(self._table(1), x)


def _lowered(dg: np.ndarray) -> np.ndarray:
    """Gamma_{m,jk} = (1/2)(d_j g_{mk} + d_k g_{jm} - d_m g_{jk}) over the last
    three axes of ``dg`` (``[..., j, m, k] = d_j g_{mk}``), in one buffer."""
    low = np.einsum("...jmk->...mjk", dg) + np.einsum("...kjm->...mjk", dg)
    low -= dg
    low *= 0.5
    return low


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Jet:
    """g^{-1}, Gamma and d Gamma of one metric at one point set, each computed
    on first use; Gamma and d Gamma are kept read-only.

    The jet keeps a copy of the points, so it answers for them only while a
    caller's points equal that copy; g's partials are evaluated again where
    needed rather than kept, since d^2 g is the largest array of all.
    """

    def __init__(self, metric: MetricField, x: np.ndarray):
        self.metric, self.x = metric, x.copy()
        self._ginv = self._gamma = self._gamma_partial = None

    def holds(self, x: np.ndarray) -> bool:
        return np.array_equal(x, self.x)

    def ginv(self) -> np.ndarray:
        if self._ginv is None:
            self._ginv = self.metric.inverse_value(self.x)
        return self._ginv

    def gamma(self) -> np.ndarray:
        if self._gamma is None:
            low = _lowered(self.metric.partial_value(self.x))
            self._gamma = _frozen(np.einsum("...lm,...mjk->...ljk", self.ginv(), low))
        return self._gamma

    def gamma_partial(self) -> np.ndarray:
        if self._gamma_partial is None:
            ginv, n = self.ginv()[..., None, :, :], self.metric.n
            dg = self.metric.partial_value(self.x)
            low = _lowered(dg).reshape(dg.shape[:-3] + (1, n, n * n))
            # d_u(low) straight from d^2 g, which is freed on return
            dlow = _lowered(self.metric.second_partial_value(self.x))
            out = np.matmul(ginv, dlow.reshape(dlow.shape[:-2] + (n * n,)))
            del dlow
            dginv = -np.matmul(np.matmul(ginv, dg), ginv)  # d_u(g^{-1})
            out += np.matmul(dginv, low)
            self._gamma_partial = _frozen(out.reshape(out.shape[:-1] + (n, n)))
        return self._gamma_partial


class LeviCivitaConnection(ConnectionField):
    """Levi-Civita connection of a metric.

    Component values come from the standard formula

        Gamma^l_{jk} = (1/2) g^{lm} (d_j g_{mk} + d_k g_{jm} - d_m g_{jk}),

    with the partials of g taken symbolically first and the inverse metric
    solved numerically at each point.  ``gamma_partial`` differentiates the
    same formula exactly, using d(g^{-1}) = -g^{-1} (dg) g^{-1} and the
    symbolic second partials of g:

        d_u Gamma = g^{-1} d_u(low) + d_u(g^{-1}) low,   low = Gamma_{m,jk}.

    The connection keeps the jet of the last point set it was asked about:
    g^{-1}, Gamma and d Gamma there, each computed on first use.  A later
    call whose points equal that set by value (same shape, equal entries;
    points changed in place since do not match) reuses it, so checks that
    share their sample points share one evaluation.  Arrays returned from the
    jet are read-only.
    """

    def __init__(self, metric: MetricField):
        self.metric = metric
        self.n = metric.n
        self._jet = None

    def _jet_at(self, x) -> _Jet:
        x = np.asarray(x, dtype=float)
        jet = self._jet
        if jet is None or not jet.holds(x):
            jet = self._jet = _Jet(self.metric, x)
        return jet

    def gamma(self, x) -> np.ndarray:
        return self._jet_at(x).gamma()

    def gamma_partial(self, x) -> np.ndarray:
        return self._jet_at(x).gamma_partial()


class RestrictedConnection(ConnectionField):
    """A connection on the leaf space of a trailing-coordinate span.

    Evaluates the parent's leading components with the trailing coordinates
    pinned to zero; only meaningful when the parent passes the projectability
    check, which makes the pinned values immaterial.
    """

    def __init__(self, parent: ConnectionField, keep: int):
        if not 0 < keep < parent.n:
            raise ValueError("leaf dimension must satisfy 0 < keep < n")
        self.parent = parent
        self.n = keep

    def _embed(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
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


def lower_curvature(R: np.ndarray, g_values: np.ndarray) -> np.ndarray:
    """(0,4) form ``R_{ijkl} = R_{ijk}{}^m g_{ml}``, batched: ``R`` from
    :func:`curvature_components` and ``g_values`` from ``MetricField.value``
    at the same points."""
    return np.einsum("...ijkm,...ml->...ijkl", R, g_values)


def covariant_derivative_vector(conn: ConnectionField, w, v, x) -> np.ndarray:
    """Components of ``nabla_v w`` at batched points.

    ``w`` and ``v`` are length-n sequences of ScalarFields (vector-field
    components in chart coordinates); the result has shape
    ``x.shape[:-1] + (n,)`` with entries ``v^mu (d_mu w^lam + Gamma^lam_{mu nu} w^nu)``.
    """
    x = np.asarray(x, dtype=float)
    n = conn.n
    wv = evaluate_fields(list(w), x)
    vv = evaluate_fields(list(v), x)
    dw = evaluate_fields([[comp.partial(mu) for comp in w] for mu in range(1, n + 1)], x)
    G = conn.gamma(x)
    return np.einsum("...m,...ml->...l", vv, dw) + np.einsum(
        "...m,...lmn,...n->...l", vv, G, wv
    )


def covariant_derivative_metric_residual(g: MetricField, conn: ConnectionField, x):
    """max |d_mu g_{nu rho} - Gamma^s_{mu nu} g_{s rho} - Gamma^s_{mu rho} g_{nu s}|.

    Vanishes identically for the Levi-Civita connection of ``g``; accepts a
    single point (returns float) or a batch (returns per-point array).
    """
    x = np.asarray(x, dtype=float)
    dg = g.partial_value(x)
    gv = g.value(x)
    G = conn.gamma(x)
    grad = (
        dg
        - np.einsum("...smn,...sr->...mnr", G, gv)
        - np.einsum("...smr,...ns->...mnr", G, gv)
    )
    res = np.max(np.abs(grad), axis=(-1, -2, -3))
    return float(res) if res.ndim == 0 else res
