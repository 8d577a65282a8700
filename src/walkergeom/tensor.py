"""Metric, connection and curvature fields on a single chart.

Components are :class:`~walkergeom.expr.ScalarField` expressions, so all
coordinate partials entering Christoffel symbols and curvature are exact;
floating point enters only through point evaluation and through the inverse
metric, which is solved numerically at the evaluation points rather than
symbolically.  A structurally Walker metric (three-block chart, g_ab and
g_ap structurally zero, g_ia constant) is inverted by blocks, with C = [g_ia]
inverted once per metric: the leading rows of g^{-1} are [0, 0, C^{-T}]
exactly, so Gamma^i_{a mu}, d_a Gamma^i_{jk} and R_{a mu nu}{}^i of an
extension are structurally zero (below) at any scale of its data.  Every
other metric is inverted densely.

A connection also has a slot pattern per order,
:meth:`ConnectionField.nonzero`: one boolean array over the slots of Gamma
or of d Gamma, the same at every point.  The Levi-Civita connection builds
it once from its metric's tables by the formulas of its jet, over booleans:
a field's ``is_zero`` gives the first-kind sums' pattern (all three slots
a sum reads zero), g^{-1}'s pattern is the zero blocks of the block inverse
(all True when dense), Gamma = g^{-1} low, and d Gamma = g^{-1} d(low) +
d(g^{-1}) low with d(g^{-1}) = g^{-1} dg g^{-1}; the d Gamma pattern (and
with it the order-2 table) is built only when asked for.  A False slot is a
sum of products that each hold an exact-zero factor, so it reads 0.0
wherever the other factors are finite.  The checks of
:mod:`walkergeom.distributions` decide a family whose slots are all False
as 0.0 at every point without evaluating it, so where an evaluated dg
overflows, such a family reads 0.0 and not the NaN of inf * 0.  The lower
pairs that the d Gamma store keeps come from the same first-kind patterns.

A :class:`LeviCivitaConnection` holds its own jet: a copy of the last point
set it was asked about and the inverse metric, the order-1 first-kind sums,
Gamma and d Gamma there, each computed on first use; calls
on points equal to that set by value reuse it, so the checks of one suite on
one sample share one Gamma / d Gamma evaluation and one lowering of each
order.  Over all points the jet materializes g^{-1}, Gamma and d Gamma
compressed to one column per stored lower pair (see
:class:`LeviCivitaConnection`), the order-1 field values and first-kind sums
until both Gamma and d Gamma exist, and, while d Gamma is formed, the values
of the order-2 fields (under a hundred numbers per point at n = 8).  The
order-2 first-kind sums and the dense dg, Gamma_{m,jk} and d_u Gamma_{m,jk}
that Gamma and d Gamma are formed from exist only for one block of points at
a time, ``max(1, JET_BLOCK // n**4)`` points for d Gamma and
``max(1, JET_BLOCK // n**3)`` for Gamma, and d^2 g is never laid out.  A
reader gathers only the slot block of d Gamma it asks for and, given
``rows``, only those points of it; the checks of
:mod:`walkergeom.distributions` read d Gamma one point block at a time, so a
check suite's peak memory is the jet it holds.  A slot block of Gamma at
points other than the jet's (the leaf block that a restriction reads) is
formed on its own, from only the first-kind sums its columns read, and
leaves the jet as it is.  A metric is singular at a point where ``|det g|``
is below :data:`DET_FLOOR`; the constant block ``[g_ia]`` that
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

import functools
import itertools
from typing import Dict, Mapping, Tuple

import numpy as np

from .chart import ChartSplit
from .expr import ScalarField, _as_points, as_field, evaluate_fields

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

# entries per point block of the Levi-Civita jet and the curvature-condition
# block (points x n^4 for d Gamma): 512 KB of doubles, so a block's operands
# stay in cache
JET_BLOCK = 2 ** 16


class SingularMetricError(ValueError):
    """The metric determinant fell below the floor at an evaluation point."""


def _point_blocks(count: int, entries: int) -> list:
    """Slices of ``range(count)`` of ``max(1, JET_BLOCK // entries)`` points
    each (the last may be shorter), for arrays of ``entries`` per point."""
    step = max(1, JET_BLOCK // entries)
    return [slice(start, start + step) for start in range(0, count, step)]


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
        return self._slot_blocks(order, x, ())[0]

    def _field_values(self, order: int, x) -> np.ndarray:
        """The order's distinct fields evaluated at ``x``, ``[..., field]``."""
        return evaluate_fields(self._table(order)[0], _as_points(x, self.n))

    def _slot_blocks(self, order: int, x, *blocks) -> list:
        """The order's table at ``x`` over each slot block of ``blocks`` (a
        tuple indexing the dense slot axes; ``()`` is the whole table), one
        array per block, all gathered from one evaluation of the distinct
        fields that the blocks index."""
        fields, index = self._table(order)
        at = [index[block] for block in blocks]
        used = np.zeros(len(fields), dtype=bool)
        for a in at:
            used[a] = True
        v = evaluate_fields([f for f, u in zip(fields, used) if u], _as_points(x, self.n))
        # each field's position among the evaluated ones
        position = np.cumsum(used) - 1
        return [np.take(v, position[a], axis=-1) for a in at]

    def _nonzero(self, order: int) -> np.ndarray:
        """The order's slot pattern: False where the slot's field is
        structurally zero (``is_zero``), so it reads 0.0 at every point."""
        fields, index = self._table(order)
        return np.array([not f.is_zero for f in fields], dtype=bool)[index]


class MetricField(_SymmetricComponents):
    """Symmetric 2-tensor with ScalarField components; only mu <= nu stored."""

    def __init__(self, chart: ChartSplit, components: Mapping[Tuple[int, int], object]):
        super().__init__(chart.n, components, 2, "g")
        self.chart = chart
        self._triples = {}
        self._columns = None

    def value(self, x) -> np.ndarray:
        """Component matrix, shape ``x.shape[:-1] + (n, n)``."""
        return self._values(0, x)

    def partial_value(self, x) -> np.ndarray:
        """All first partials; ``[..., i, mu, nu] = d_i g_{mu nu}`` (0-based)."""
        return self._values(1, x)

    def second_partial_value(self, x) -> np.ndarray:
        """All second partials; ``[..., i, j, mu, nu] = d_i d_j g_{mu nu}``."""
        return self._values(2, x)

    def _triple_table(self, order: int):
        """The distinct triples of the order's table fields behind the first
        kind, ``(a, b, c)`` (field positions of d_j g_{mk}, d_k g_{jm} and
        d_m g_{jk}), and the ``intp`` index of each dense slot ``[m, j, k]``
        (order 1) or ``[u, m, j, k]`` (order 2) in that list; built on first
        use, like the order's table."""
        if order not in self._triples:
            fields, index = self._table(order)
            a = np.einsum("...jmk->...mjk", index)
            b = np.einsum("...kjm->...mjk", index)
            f = len(fields)
            key, at = np.unique((a * f + b) * f + index, return_inverse=True)
            self._triples[order] = (key // (f * f), key // f % f, key % f), at.reshape(index.shape)
        return self._triples[order]

    def _low_nonzero(self, order: int) -> np.ndarray:
        """The slot pattern of the order's first-kind sums, ``[m, j, k]``
        (order 1) or ``[u, m, j, k]`` (order 2): False where all three slots
        that the sum reads (those of ``_triple_table``) are structurally
        zero, so it reads (0 + 0) - 0 = 0.0 at every point."""
        d = self._nonzero(order)
        return np.einsum("...jmk->...mjk", d) | np.einsum("...kjm->...mjk", d) | d

    def _inverse_nonzero(self) -> np.ndarray:
        """The slot pattern of g^{-1}: False on the blocks that
        ``_walker_inverse`` leaves exactly zero (leading-leading,
        leading-middle and middle-leading) when the metric is structurally
        Walker, all True for the dense inverse."""
        n = self.n
        out = np.ones((n, n), dtype=bool)
        if self._walker_block is not None:
            r, q = self.chart.r, n - self.chart.r
            out[:r, :q] = out[:q, :r] = False
        return out

    def _pair_columns(self):
        """The lower-pair columns of the Levi-Civita d Gamma, built on first use.

        A pair ``(j, k)``, ``j <= k``, gets a column unless every order-1
        slot ``[m, j, k]`` and order-2 slot ``[u, m, j, k]`` of the
        first-kind sums is structurally zero (``_low_nonzero``); all such
        pairs share one last column, where they all read the sum of three
        zero fields, +0.  Returns the flat slot ``j * n + k`` that each
        column is formed from and the ``(n, n)`` ``intp`` map of every
        lower slot to its column.
        """
        if self._columns is None:
            n = self.n
            zero = ~(self._low_nonzero(1).any(axis=0) | self._low_nonzero(2).any(axis=(0, 1)))
            j, k = np.triu_indices(n)
            j, k = j[~zero[j, k]], k[~zero[j, k]]
            slots = list(j * n + k)
            columns = np.empty((n, n), dtype=np.intp)
            columns[j, k] = columns[k, j] = np.arange(len(slots))
            if zero.any():
                columns[zero] = len(slots)
                slots.append(np.flatnonzero(zero)[0])
            self._columns = np.array(slots, dtype=np.intp), columns
        return self._columns

    def _first_kind_sums(self, order: int, v, triples=slice(None)) -> np.ndarray:
        """The first-kind sums formed from ``v``, values of the order's
        distinct fields (``_field_values``, or rows of them), one per distinct
        triple (or per triple that ``triples`` picks from that list):
        (1/2)((A + B) - C), terms in that order.

        Gamma_{m,jk} = (1/2)(d_j g_{mk} + d_k g_{jm} - d_m g_{jk}) at the
        values' points (order 1), or its partials d_u Gamma_{m,jk} (order 2),
        is ``np.take(sums, self._triple_table(order)[1], axis=-1)``.
        """
        a, b, c = (t[triples] for t in self._triple_table(order)[0])
        w = np.take(v, a, axis=-1) + np.take(v, b, axis=-1)
        w -= np.take(v, c, axis=-1)
        w *= 0.5
        return w

    @functools.cached_property
    def _walker_block(self):
        """``(C^{-1}, det(C)^2)`` for the constant block ``C = [g_ia]`` when
        the metric is structurally Walker, else None.

        Structurally Walker: a three-block chart, every g_ab and g_ap
        structurally zero (``is_zero``) and every g_ia constant (no
        coordinate in its expression), with C finite and nonsingular.  Then
        g = [[A, B, C], [B^T, H, 0], [C^T, 0, 0]] in (leading, middle,
        trailing) blocks.
        """
        chart, n = self.chart, self.n
        if chart.mode != "three_block":
            return None
        r = chart.r
        lead, trail = range(1, r + 1), range(n - r + 1, n + 1)
        if not (all(self.component(a, b).is_zero for a in trail for b in range(r + 1, n + 1))
                and all(self.component(i, a).max_var == 0 for i in lead for a in trail)):
            return None
        c = evaluate_fields([[self.component(i, a) for a in trail] for i in lead],
                            np.zeros(n))
        det = np.linalg.det(c)
        if not (np.all(np.isfinite(c)) and det != 0):
            return None
        return np.linalg.inv(c), det * det

    def inverse_value(self, x) -> np.ndarray:
        """g^{-1} at ``x``, shape ``x.shape[:-1] + (n, n)``.

        A structurally Walker metric (``_walker_block``) is inverted by
        blocks: the leading rows of g^{-1} are ``[0, 0, C^{-T}]`` exactly, so
        every quantity they contract with structurally zero fields comes out
        exactly 0.0, and ``|det g| = det(C)^2 |det H|`` is what meets
        :data:`DET_FLOOR`.  Every other metric is inverted densely.
        """
        g = self.value(x)
        walker = self._walker_block
        if walker is None:
            det = np.linalg.det(g)
        else:
            c_inv, c_det2 = walker
            mid = self.chart.middle
            det = c_det2 * np.linalg.det(g[..., mid, mid])
        bad = np.abs(det) < DET_FLOOR
        if np.any(bad):
            where = np.asarray(x, dtype=float).reshape(-1, self.n)[np.argmax(bad.reshape(-1))]
            raise SingularMetricError(
                f"metric singular (|det| < {DET_FLOOR:g}) at point {where.tolist()}"
            )
        return np.linalg.inv(g) if walker is None else _walker_inverse(g, self.chart.r, c_inv)

    def __repr__(self):
        nonzero = {k: str(v) for k, v in self._comps.items() if not v.is_zero}
        return f"MetricField(n={self.n}, {nonzero})"


def _walker_inverse(g: np.ndarray, r: int, ci: np.ndarray) -> np.ndarray:
    """The inverse of g = [[A, B, C], [B^T, H, 0], [C^T, 0, 0]] (blocks of
    sizes r, n - 2r, r; C constant with inverse ``ci``), point axes first:

        [[0,     0,          C^{-T}                      ],
         [0,     H^{-1},     -H^{-1} B^T C^{-T}          ],
         [C^{-1}, -C^{-1} B H^{-1}, C^{-1}(B H^{-1} B^T - A) C^{-T}]]

    The off-diagonal middle-trailing blocks are one product and its
    transpose.
    """
    q = g.shape[-1] - r
    a, b, h = g[..., :r, :r], g[..., :r, r:q], g[..., r:q, r:q]
    hi = np.linalg.inv(h)
    p = np.matmul(ci, b)  # C^{-1} B
    k = np.matmul(p, hi)  # C^{-1} B H^{-1}
    out = np.zeros(g.shape)
    out[..., :r, q:] = ci.T
    out[..., q:, :r] = ci
    out[..., r:q, r:q] = hi
    out[..., q:, r:q] = -k
    out[..., r:q, q:] = -np.swapaxes(k, -1, -2)
    out[..., q:, q:] = np.matmul(k, np.swapaxes(p, -1, -2)) - np.matmul(np.matmul(ci, a), ci.T)
    return out


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

    def gamma(self, x, block=()) -> np.ndarray:
        """Values, shape ``x.shape[:-1] + (n, n, n)`` indexed ``[l, j, k]``.

        ``block``, a tuple of up to three slices or integers indexing the
        slot axes ``[l, j, k]`` from the front, asks for that slot block
        only: the same values as
        ``gamma(x)[(slice(None),) * (x.ndim - 1) + block]``.
        """
        raise NotImplementedError

    def nonzero(self, order: int) -> np.ndarray:
        """The slot pattern of Gamma (order 0, ``[l, j, k]``) or of d Gamma
        (order 1, ``[mu, l, j, k]``), the same at every point: a False slot
        is structurally zero, a sum of products that each hold an exact-zero
        factor, so it reads 0.0 wherever the other factors are finite.  The
        checks of :mod:`walkergeom.distributions` read a family whose slots
        are all False as 0.0 without evaluating it.  Here every slot is True.
        """
        return np.ones((self.n,) * (3 + order), dtype=bool)

    def gamma_partial(self, x, block=(), rows=None) -> np.ndarray:
        """Partials, shape ``x.shape[:-1] + (n, n, n, n)``, ``[mu, l, j, k]``.

        ``block``, a tuple of up to four slices or integers indexing the slot
        axes ``[mu, l, j, k]`` from the front, asks for that slot block
        only: ``gamma_partial(x)[(slice(None),) * (x.ndim - 1) + block]``.
        ``rows``, a slice of the points of ``x`` flattened to one row each,
        asks for those points only, shape ``(len(rows),) + slot shape``: the
        same values as those rows of the whole array, so a caller can read
        d Gamma one point block at a time.
        """
        raise NotImplementedError


class SymbolicConnection(ConnectionField, _SymmetricComponents):
    """Connection with explicit ScalarField components, e.g. a base connection."""

    def __init__(self, n: int, components: Mapping[Tuple[int, int, int], object] = ()):
        super().__init__(n, components, 3, "Gamma")

    def gamma(self, x, block=()) -> np.ndarray:
        return self._slot_blocks(0, x, tuple(block))[0]

    def gamma_partial(self, x, block=(), rows=None) -> np.ndarray:
        if rows is not None:
            x = _rows(_as_points(x, self.n))[rows]
        return self._slot_blocks(1, x, block)[0]


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` with its point axes flattened: one row per point."""
    return a.reshape(-1, a.shape[-1])


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

    ``low`` and d_u(low) are lowered by index
    (``MetricField._first_kind_sums``): formed once per distinct triple of the
    metric's order-1 and order-2 fields, ``low``'s over all points and
    d_u(low)'s one point block at a time, and gathered over the slots.  Both
    products are plain ``matmul`` over ``(n, columns)`` views.

    The connection holds the jet of the last point set it was asked about: a
    copy of the points, g^{-1}, the order-1 field values and first-kind sums
    (shared by Gamma and d Gamma, and dropped once both exist), Gamma and
    d Gamma there, each computed on first use.  A later call whose points
    equal that copy by value (same shape, equal entries; points changed in
    place since do not match) reuses it, so checks that share their sample
    points share one evaluation.  Arrays returned from the jet are read-only,
    C-contiguous and have the point axes first.

    d Gamma^l_{jk} is symmetric in ``(j, k)``, and for adapted metrics many
    lower pairs are structurally zero, so the jet stores it compressed,
    ``[point, u, l, column]``: one column per lower pair ``j <= k`` that
    ``MetricField._pair_columns`` keeps and one shared all-zero column,
    formed as g^{-1} 0 like every other column, so it carries the NaNs and
    the zero signs of the dense product.  The store is formed one block of
    ``max(1, JET_BLOCK // n**4)`` points at a time: dense dg, ``low``, the
    order-2 first-kind sums and d_u(low) exist only per block, and d^2 g is
    never laid out, so the jet's peak memory is one compressed d Gamma.
    Gamma (n^3 entries per point) is formed from ``low`` in blocks of
    ``max(1, JET_BLOCK // n**3)`` points the same way.  Every point's
    products are the same small GEMMs whatever its block, and
    ``gamma_partial(x, block, rows)`` gathers the slot block asked for, the
    dense table for ``()``, from the store's rows ``rows`` (all of them for
    ``None``); a read of ``rows`` compares only those rows of ``x`` with the
    jet's points, and each slot block's index into the store is worked out
    on its first read.  ``gamma(x, block)`` slices the jet's Gamma when the
    jet holds Gamma at ``x``; at other points it forms the block alone and
    keeps the jet.

    A stored column is the column of the dense ``(n, n^2)`` product, taken
    from a narrower GEMM.  Where the BLAS rounds each entry independently of
    the GEMM's width its bits are the dense product's; OpenBLAS 0.3.31 on
    AVX-512 does so for n <= 15, and at n = 16 may round some columns
    differently in the last bit.
    """

    def __init__(self, metric: MetricField):
        self.metric = metric
        self.n = metric.n
        self._x = self._ginv = self._sums = self._gamma = self._dgamma = None
        # the store index of each slot block read; the store's layout is the metric's
        self._where = {}
        self._patterns = {}

    def nonzero(self, order: int) -> np.ndarray:
        # the jet's formulas over booleans: g^{-1} low for Gamma, and
        # g^{-1} d(low) + d(g^{-1}) low with d(g^{-1}) = g^{-1} dg g^{-1}
        # for d Gamma, whose order-2 pattern is built only when asked for
        if order not in self._patterns:
            metric, n = self.metric, self.n
            ginv = metric._inverse_nonzero()
            low = metric._low_nonzero(1).reshape(n, n * n)
            if order == 0:
                out = np.matmul(ginv, low)
            else:
                dginv = np.matmul(np.matmul(ginv, metric._nonzero(1)), ginv)
                out = (np.matmul(ginv, metric._low_nonzero(2).reshape(n, n, n * n))
                       | np.matmul(dginv, low))
            self._patterns[order] = _frozen(out.reshape((n,) * (3 + order)))
        return self._patterns[order]

    def _points(self, x, rows=None) -> np.ndarray:
        """The jet's points, after starting a new jet unless they equal ``x``.

        Given ``rows``, a slice of the flattened points, only those rows are
        compared (with the shape): a reader that walks d Gamma one point
        block at a time compares each point once, and a read's result
        depends on its own rows only.
        """
        x = _as_points(x, self.n)
        jet = self._x
        if rows is None:
            same = jet is not None and np.array_equal(x, jet)
        else:
            same = (jet is not None and x.shape == jet.shape
                    and np.array_equal(_rows(x)[rows], _rows(jet)[rows]))
        if not same:
            self._x = x.copy()
            self._ginv = self._sums = self._gamma = self._dgamma = None
        return self._x

    def _inverse(self) -> np.ndarray:
        if self._ginv is None:
            self._ginv = self.metric.inverse_value(self._x)
        return self._ginv

    def _first_kind(self):
        """The order-1 field values and first-kind sums at the jet's points,
        one row per point."""
        if self._sums is None:
            v = _rows(self.metric._field_values(1, self._x))
            self._sums = v, self.metric._first_kind_sums(1, v)
        return self._sums

    def _release_first_kind(self) -> None:
        # the sums' last readers are the Gamma and d Gamma builds
        if self._gamma is not None and self._dgamma is not None:
            self._sums = None

    def gamma(self, x, block=()) -> np.ndarray:
        block = tuple(block)
        if block:
            x = _as_points(x, self.n)
            if self._gamma is None or not np.array_equal(x, self._x):
                return self._gamma_block(x, block)
            return self._gamma[(slice(None),) * (x.ndim - 1) + block]
        x = self._points(x)
        if self._gamma is None:
            n, w1 = self.n, self._first_kind()[1]
            ginv = self._inverse().reshape(-1, n, n)
            low_at = self.metric._triple_table(1)[1].reshape(n, n * n)
            out = np.empty((len(ginv), n, n * n))
            for at in _point_blocks(len(ginv), n ** 3):
                np.matmul(ginv[at], np.take(w1[at], low_at, axis=-1), out=out[at])
            self._gamma = _frozen(out.reshape(x.shape[:-1] + (n,) * 3))
            self._release_first_kind()
        return self._gamma

    def _gamma_block(self, x, block) -> np.ndarray:
        """The slot block ``block`` of Gamma at ``x``, outside the jet: g^{-1}
        times the block's columns of the first-kind sums, then the block's
        rows, the same GEMM per point as the jet's but narrower."""
        metric, n = self.metric, self.n
        slots = block + (slice(None),) * (3 - len(block))
        l, j, k = (np.atleast_1d(np.arange(n)[s]) for s in slots)
        ginv = metric.inverse_value(x).reshape(-1, n, n)
        # the sums of only the triples that the block's columns read
        width = len(j) * len(k)
        triples, low_at = np.unique(metric._triple_table(1)[1][:, j[:, None], k],
                                    return_inverse=True)
        low_at = low_at.reshape(n, width)
        w1 = metric._first_kind_sums(1, _rows(metric._field_values(1, x)), triples=triples)
        # numpy hands a one-column product to GEMV, which sums in another
        # order than GEMM: give it two
        if width == 1:
            low_at = np.repeat(low_at, 2, axis=1)
        out = np.matmul(ginv, np.take(w1, low_at, axis=-1))[:, l, :width]
        return _frozen(out.reshape(x.shape[:-1] + np.empty((n,) * 3)[block].shape))

    def _store_index(self, block) -> np.ndarray:
        """Each slot of ``block`` as its position in a point's row of the
        d Gamma store ``[u, l, column]``, worked out once per slot block."""
        # slices are unhashable before Python 3.12
        key = tuple((s.start, s.stop, s.step) if isinstance(s, slice) else s for s in block)
        if key not in self._where:
            n = self.n
            slots, columns = self.metric._pair_columns()
            u, l, j, k = block + (slice(None),) * (4 - len(block))
            self._where[key] = np.add.outer(
                np.arange(n * n).reshape(n, n)[u, l] * len(slots), columns[j, k])
        return self._where[key]

    def gamma_partial(self, x, block=(), rows=None) -> np.ndarray:
        x = self._points(x, rows)
        if self._dgamma is None:
            metric, n = self.metric, self.n
            slots, _ = metric._pair_columns()
            ginv = self._inverse().reshape(-1, 1, n, n)
            v1, w1 = self._first_kind()
            # the order-2 fields over all points, their sums one block at a time
            v2 = _rows(metric._field_values(2, x))
            dg_at = metric._table(1)[1]
            low_at = metric._triple_table(1)[1].reshape(n, n * n)[:, slots]
            dlow_at = metric._triple_table(2)[1].reshape(n, n, n * n)[..., slots]
            out = np.empty((len(ginv), n, n, len(slots)))
            for at in _point_blocks(len(ginv), n ** 4):
                gi = ginv[at]
                w2 = metric._first_kind_sums(2, v2[at])
                np.matmul(gi, np.take(w2, dlow_at, axis=-1), out=out[at])
                # d_u(g^{-1}) = -g^{-1} (d_u g) g^{-1}
                dginv = -np.matmul(np.matmul(gi, np.take(v1[at], dg_at, axis=-1)), gi)
                low = np.take(w1[at], low_at, axis=-1).reshape(-1, 1, n, len(slots))
                out[at] += np.matmul(dginv, low)
            self._dgamma = _frozen(out)
            self._release_first_kind()
        where = self._store_index(tuple(block))
        store = self._dgamma.reshape(len(self._dgamma), -1)
        if rows is None:
            return _frozen(np.take(store, where, axis=-1).reshape(x.shape[:-1] + where.shape))
        return _frozen(np.take(store[rows], where, axis=-1))


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

    def gamma(self, y, block=()) -> np.ndarray:
        m = self.n
        leading = self.parent.gamma(self._embed(y), (slice(None, m),) * 3)
        return leading[(slice(None),) * (leading.ndim - 3) + tuple(block)]

    def nonzero(self, order: int) -> np.ndarray:
        return self.parent.nonzero(order)[(slice(None, self.n),) * (3 + order)]

    def gamma_partial(self, y, block=(), rows=None) -> np.ndarray:
        m = self.n
        leading = self.parent.gamma_partial(self._embed(y), (slice(None, m),) * 4, rows)
        return leading[(slice(None),) * (leading.ndim - 4) + tuple(block)]


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
