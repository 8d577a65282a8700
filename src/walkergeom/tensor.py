"""Metric, connection and curvature fields on a single chart.

Components are :class:`~walkergeom.expr.ScalarField` expressions, so all
coordinate partials entering Christoffel symbols and curvature are exact;
floating point enters only through point evaluation and through solves with
the metric (``MetricField._solve``, g^{-1} R), taken numerically at the
evaluation points rather than symbolically.  A structurally Walker metric
(three-block chart, g_ab and g_ap structurally zero, g_ia constant) is
solved by block rows from its blocks A, B and H alone, with C = [g_ia]
inverted once per metric and H per point, and no g^{-1} formed; g^{-1}
itself is the solve with R = I, whose leading rows are [0, 0, C^{-T}]
exactly, so Gamma^i_{a mu}, d_a Gamma^i_{jk} and R_{a mu nu}{}^i of an
extension are structurally zero (below) at any scale of its data.  Every
other metric is inverted densely.

A connection also has a slot pattern per order,
:meth:`ConnectionField.nonzero`: one boolean array over the slots of Gamma
or of d Gamma, the same at every point.  The Levi-Civita connection builds
it once from its metric's patterns by the formulas of its jet, over
booleans: the metric's order-1 and order-2 patterns give the first-kind
sums' (all three slots a sum reads zero), g^{-1}'s pattern is the zero
blocks of the block inverse (all True when dense), Gamma = g^{-1} low, and
d Gamma = g^{-1} d(low) + d(g^{-1}) low with d(g^{-1}) = g^{-1} dg g^{-1}.
The metric's patterns come from variable sets
(:meth:`_SymmetricComponents._nonzero`): a slot of g is live unless its
entry is the constant 0, ``[i, mu, nu]`` of dg iff x_i occurs in g_{mu nu},
and ``[i, j, mu, nu]`` of d^2 g (i <= j, mirrored) iff x_j occurs in
d_i g_{mu nu}; so no pattern builds the order-2 table, which only a read of
d Gamma or of a live d^2 g block does.  A False slot is a sum of products
that each hold an exact-zero factor, so it reads 0.0 wherever the other
factors are finite.  The checks of :mod:`walkergeom.distributions` decide a
family of Gamma, d Gamma, g, dg or d^2 g whose slots are all False as 0.0 at
every point without evaluating it, so where an evaluated dg overflows, such
a family reads 0.0 and not the NaN of inf * 0.

A :class:`LeviCivitaConnection` holds its own jet: a copy of the last point
set it was asked about and, each computed on first use, the inverse metric
once Gamma or d Gamma is read, the values of the order-1 fields, those of
the order-2 fields once d Gamma is read (under a hundred numbers per point
at n = 8), and Gamma once all of it is read.  Calls on points equal to that
set by value reuse it, so the checks of one suite on one sample share one
inverse, one evaluation of each order's fields and one Gamma.  Every slot
block of Gamma or d Gamma, the whole table included, is formed on read by
one routine, from the rows of those arrays: the first-kind sums of only the
triples that the block's columns read, g^{-1} times them, then the block's
rows, one block of points at a time (``max(1, JET_BLOCK // n**4)`` points
for all of d Gamma, ``max(1, JET_BLOCK // n**3)`` for all of Gamma), so dg
and the sums exist only per block and d^2 g is never laid out.  Given
``rows``, a read forms only those points; the checks of
:mod:`walkergeom.distributions` read d Gamma one point block at a time, so a
check suite's peak memory is the jet it holds.  The held Gamma serves whole
reads; a slot block is always formed.  A slot block of Gamma at points other
than the jet's (the leaf block that a restriction reads) is read from a jet
of its own and leaves this one as it is.  Wherever a block's rows of g^{-1}
are the same at every point, the leading rows ``[0, 0, C^{-T}]`` of a
structurally Walker metric, the same routine reads them in place of g^{-1}:
Gamma^i_{jk} = (C^{-T})_{ia} Gamma_{a,jk} with only the triples Gamma_{a,jk}
lowered, from only the order-1 fields they read (d_a g_{jk}, and d_j g_{ak},
the constant 0), and neither g nor g^{-1} is evaluated.

A metric is singular at a point where ``|det g|`` is below
:data:`DET_FLOOR`; the constant block ``[g_ia]`` that
:mod:`walkergeom.extensions` inverts is held to the same floor.  ``|det
g|`` has one rule (``MetricField._abs_det``), which the solve, the leaf
block and :func:`walkergeom.sampling.sample_points` share: det(C)^2 |det H|,
H the middle block, on a structurally Walker metric, and the dense
determinant otherwise.

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
field is evaluated once however many slots it fills.  A metric also lowers
its order-1 and order-2 tables by index: the Christoffel symbols of the
first kind and their partials are formed once per distinct triple of table
fields and gathered the same way.

Transport needs Gamma only contracted with the curve's velocity, so every
connection also reads ``gamma_along(x, v)``, Gamma^l_{jk} v^j indexed
``[l, k]``, without forming Gamma.  Each field family plans that
contraction once, from its slot index table (``_contraction_plan``, built
on first use): the distinct (j, field) pairs that a term reads, with
constant-0 fields dropped and opposite terms cancelled, and their
``(n^2, pairs)`` coefficient matrix.  A read gathers the products v^j V_f
and takes one GEMM, per block of points.  A :class:`SymbolicConnection`
plans its order-0 table.  A metric plans the first-kind sums along v,
L[m, k] = (1/2)(v^j d_j g_{mk} + v^j d_k g_{jm} - v^j d_m g_{jk}), from its
order-1 table (200 to 250 terms on an n = 8 extension, where Gamma takes
3 n^3 = 1536 sums), and the Levi-Civita connection solves g X = L
(``MetricField._solve``), so a transport's coefficients read neither Gamma
nor g^{-1}.  A restriction reads its parent's at the embedded points,
with v's trailing components zero.

Every component family keeps one read contract.  A read (g, its partials or
a slot block of them; ``gamma``, ``gamma_partial`` or ``gamma_along`` of any
connection; a slot pattern) is read-only and C-contiguous, with the point
axes first.  A slot block, a
sequence of up to one integer or slice per slot axis from the front (a
missing axis is all of it), is a new array, bitwise equal to the same slice
of the whole read; a block with more axes than the family has raises
``IndexError``.  Two formers shape and freeze every such array:
``_SymmetricComponents._slot_blocks`` for g, its partials and a
:class:`SymbolicConnection`, and ``LeviCivitaConnection._form`` for the
Levi-Civita Gamma and d Gamma.  A :class:`RestrictedConnection` maps its
leaf block onto its parent's slot axes and hands it to its parent.
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

# entries per point block of a Levi-Civita slot block's largest operand and
# of the curvature-condition block (points x n^4 for all of d Gamma): 512 KB
# of doubles, so a block's operands stay in cache.  It also sets the step
# blocks of both transport integrators (steps x n^2 for the RK4 stages and the
# Euler factors), so it bounds a transport's working memory beyond its held
# propagators, and where the Euler reference's pairwise product restarts:
# changing it for cache reasons changes transport memory and Euler rounding
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


def _var_bits(fields, n: int) -> np.ndarray:
    """``[field, i]``: whether x_{i+1} occurs in the field, read byte by byte
    from its ``var_mask``, so any n fits."""
    width = (n + 7) // 8
    raw = b"".join(f.node.var_mask.to_bytes(width, "little") for f in fields)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(-1, width), axis=1,
                         bitorder="little")
    return bits[:, :n].astype(bool)


def _compact(size: int, *at) -> tuple:
    """The positions in ``range(size)`` that the index arrays ``at`` hold,
    ascending, then each array of ``at`` renumbered to index that list."""
    used = np.zeros(size, dtype=bool)
    for a in at:
        used[a] = True
    position = np.cumsum(used) - 1
    return (np.flatnonzero(used), *(position[a] for a in at))


def _frozen(a) -> np.ndarray:
    """``a`` as a read-only array (a numpy scalar becomes a 0-d array)."""
    a = np.asarray(a)
    a.flags.writeable = False
    return a


def _contraction_plan(fields, terms) -> tuple:
    """The sparse plan of ``T[row, col] = sum_j v^j t[row, j, col]``, ``t``
    the signed sum of ``terms``: ``(coefficient, index)`` pairs, each
    ``index[row, j, col]`` a position in the table ``fields``.

    Returns ``(kept, j, f, matrix)``: the table positions of the fields that
    the plan reads; the distinct (j, field) pairs, ``f`` indexing ``kept``;
    and their ``(n^2, pairs)`` coefficient matrix, row ``row * n + col``.
    Constant-0 fields are dropped, and a pair whose terms in every slot
    cancel (``+1/2 - 1/2``) reads nothing.
    """
    size, n = len(fields), terms[0][1].shape[0]
    live = np.array([not f.is_zero for f in fields], dtype=bool)
    grid = np.indices((n,) * 3)
    slots = grid[0] * n + grid[2]
    pairs, *at = _compact(n * size, *(grid[1] * size + index for _, index in terms))
    weights = np.concatenate([np.where(live[index], c, 0.0).ravel() for c, index in terms])
    cells = np.concatenate([(slots * len(pairs) + a).ravel() for a in at])
    matrix = np.bincount(cells, weights, minlength=n * n * len(pairs)).reshape(n * n, -1)
    used = np.any(matrix != 0.0, axis=0)
    kept, f = _compact(size, pairs[used] % size)
    return kept, pairs[used] // size, f, matrix[:, used]


def _contract(v, values, j, f, matrix) -> np.ndarray:
    """``T[row, col]`` of a plan (``_contraction_plan``) at each row of ``v``,
    ``(points, n, n)``, from ``values``, field values at the same points,
    one row per point, whose columns ``f`` the pairs read.  Per block of
    points (``_point_blocks``, by the pairs or n^2, whichever is more), one
    gather of the products ``v^j V_f``, then one GEMM, so the products exist
    only per block."""
    n = v.shape[-1]
    out = np.empty((len(v), n, n))
    for p in _point_blocks(len(v), max(len(j), n * n)):
        w = v[p][:, j]
        w *= values[p][:, f]
        np.matmul(w, matrix.T, out=out[p].reshape(-1, n * n))
    return out


def _points_and_vectors(x, v, n: int) -> tuple:
    """``x`` as points on an n-chart and ``v`` as a float array of their
    shape, one vector per point."""
    x, v = _as_points(x, n), np.asarray(v, dtype=float)
    if v.shape != x.shape:
        raise ValueError(f"vectors must have the shape of the points, {x.shape}, got {v.shape}")
    return x, v


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
        self._patterns = {}

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
        sequence of slices and integers indexing the dense slot axes from
        the front; ``()`` is the whole table), one read-only array per
        block, all gathered from one evaluation of the distinct fields that
        the blocks index."""
        fields, index = self._table(order)
        kept, *at = _compact(len(fields), *(index[tuple(block)] for block in blocks))
        v = evaluate_fields([fields[f] for f in kept], _as_points(x, self.n))
        return [_frozen(np.take(v, a, axis=-1)) for a in at]

    def _nonzero(self, order: int) -> np.ndarray:
        """The order's slot pattern: False where the slot's field is
        structurally zero, so it reads 0.0 at every point.  Order 0 reads
        each field's ``is_zero``.  A higher order reads the variable sets of
        the order below, since d_i f is the constant 0 wherever x_i does not
        occur in f: slot ``[i, ...]`` of order 1 is live iff x_i occurs in
        the entry, and ``[i, j, ...]`` of order 2 (i <= j, mirrored) iff x_j
        occurs in d_i of it.  No pattern builds the order-2 table.  Built
        once per order, read-only and C-contiguous."""
        if order not in self._patterns:
            if order == 0:
                fields, index = self._table(0)
                out = np.array([not f.is_zero for f in fields], dtype=bool)[index]
            else:
                fields, index = self._table(order - 1)
                # [..., i]: whether x_i occurs in the slot's field of the order below
                out = np.moveaxis(_var_bits(fields, self.n)[index], -1, order - 1)
                if order == 2:
                    upper = np.triu(np.ones((self.n, self.n), dtype=bool))
                    out = np.where(upper[(...,) + (None,) * (out.ndim - 2)], out,
                                   np.swapaxes(out, 0, 1))
            self._patterns[order] = _frozen(np.ascontiguousarray(out))
        return self._patterns[order]


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

    @functools.cached_property
    def _along_plan(self) -> tuple:
        """The plan (``_contraction_plan``) of the first-kind sums contracted
        with a vector in their first lower index, from the order-1 table:
        ``L[m, k] = sum_j v^j Gamma_{m,jk} = (1/2)(v^j d_j g_{mk} + v^j d_k
        g_{jm} - v^j d_m g_{jk})``; built on first use."""
        fields, index = self._table(1)
        return _contraction_plan(fields, [(0.5, np.einsum("jmk->mjk", index)),
                                          (0.5, np.einsum("kjm->mjk", index)), (-0.5, index)])

    def _low_nonzero(self, order: int) -> np.ndarray:
        """The slot pattern of the order's first-kind sums, ``[m, j, k]``
        (order 1) or ``[u, m, j, k]`` (order 2): False where all three slots
        that the sum reads (those of ``_triple_table``) are structurally
        zero, so it reads (0 + 0) - 0 = 0.0 at every point."""
        d = self._nonzero(order)
        return np.einsum("...jmk->...mjk", d) | np.einsum("...kjm->...mjk", d) | d

    def _inverse_nonzero(self) -> np.ndarray:
        """The slot pattern of g^{-1}: False on the blocks that are exactly
        zero (leading-leading, leading-middle and middle-leading) when the
        metric is structurally Walker (``_walker_solve`` with R = I), all
        True for the dense inverse."""
        n = self.n
        out = np.ones((n, n), dtype=bool)
        if self._walker_block is not None:
            r, q = self.chart.r, n - self.chart.r
            out[:r, :q] = out[:q, :r] = False
        return out

    def _first_kind_sums(self, order: int, v, triples) -> np.ndarray:
        """The first-kind sums formed from ``v``, values of the order's
        distinct fields (``_field_values``, rows of them, or of some of
        them), one per triple: (1/2)((A + B) - C), terms in that order.
        ``triples`` is the columns ``(a, b, c)`` of ``v`` that the sums
        read: every triple of ``_triple_table`` for all of them.

        Gamma_{m,jk} = (1/2)(d_j g_{mk} + d_k g_{jm} - d_m g_{jk}) at the
        values' points (order 1), or its partials d_u Gamma_{m,jk} (order 2),
        is ``np.take(sums, self._triple_table(order)[1], axis=-1)``.
        """
        a, b, c = triples
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

    def _inverse_rows(self, rows: np.ndarray):
        """The rows ``rows`` (0-based) of g^{-1} over their live columns, and
        those columns, when the rows are the same at every point, else None.
        Those are leading rows of a structurally Walker metric: ``[0, 0,
        C^{-T}]``, whose live columns (``_inverse_nonzero``) are the
        trailing ones."""
        walker, r = self._walker_block, self.chart.r
        if walker is None or not np.all(rows < r):
            return None
        return walker[0].T[rows], np.arange(self.n - r, self.n)

    def _abs_det(self, x, g=None, h=None) -> np.ndarray:
        """|det g| at the points ``x``; ``g``, the metric's values there, or
        ``h``, the middle block of a structurally Walker metric there, when
        the caller holds them.  A structurally Walker metric
        (``_walker_block``) reads ``det(C)^2 |det H|``, H the middle block
        (a slot block read at ``x`` when neither is given), so it takes no
        n x n determinant; every other metric takes the dense one."""
        walker = self._walker_block
        if walker is None:
            return np.abs(np.linalg.det(self.value(x) if g is None else g))
        if h is None:
            mid = self.chart.middle
            h = self._slot_blocks(0, x, (mid, mid))[0] if g is None else g[..., mid, mid]
        return walker[1] * np.abs(np.linalg.det(h))

    def _refuse_singular(self, x, g=None, h=None) -> None:
        """Raise SingularMetricError at the first point of ``x`` where
        ``_abs_det`` is below :data:`DET_FLOOR`."""
        bad = self._abs_det(x, g, h) < DET_FLOOR
        if np.any(bad):
            where = np.asarray(x, dtype=float).reshape(-1, self.n)[np.argmax(bad.reshape(-1))]
            raise SingularMetricError(
                f"metric singular (|det| < {DET_FLOOR:g}) at point {where.tolist()}"
            )

    def _solve(self, x, rhs=None) -> np.ndarray:
        """g^{-1} rhs at the points ``x``, ``rhs`` one ``(n, k)`` matrix per
        point (or one for all of them), shape ``x.shape[:-1] + (n, k)``;
        without ``rhs``, g^{-1} itself.

        A structurally Walker metric (``_walker_block``) is solved by block
        rows (``_walker_solve``) from its slot blocks A, B and H alone: no
        other entry of g is evaluated and no g^{-1} is formed, and ``|det g|
        = det(C)^2 |det H|`` (``_abs_det``) is what meets
        :data:`DET_FLOOR`.  Every other metric is inverted densely,
        ``np.linalg.inv(g)``, and that inverse multiplies ``rhs``.
        """
        walker = self._walker_block
        if walker is None:
            g = self.value(x)
            self._refuse_singular(x, g)
            ginv = np.linalg.inv(g)
            return ginv if rhs is None else np.matmul(ginv, rhs)
        lead, mid = self.chart.leading, self.chart.middle
        a, b, h = self._slot_blocks(0, x, (lead, lead), (lead, mid), (mid, mid))
        self._refuse_singular(x, h=h)
        return _walker_solve(a, b, h, walker[0], np.eye(self.n) if rhs is None else rhs)

    def inverse_value(self, x) -> np.ndarray:
        """g^{-1} at ``x``, shape ``x.shape[:-1] + (n, n)``: ``_solve`` with
        the identity on the right.

        On a structurally Walker metric the leading rows of g^{-1} are
        ``[0, 0, C^{-T}]`` exactly, so every quantity they contract with
        structurally zero fields comes out exactly 0.0.  Every other metric
        is inverted densely.
        """
        return self._solve(x)

    def __repr__(self):
        nonzero = {k: str(v) for k, v in self._comps.items() if not v.is_zero}
        return f"MetricField(n={self.n}, {nonzero})"


def _walker_solve(a, b, h, ci, rhs) -> np.ndarray:
    """g^{-1} R for g = [[A, B, C], [B^T, H, 0], [C^T, 0, 0]] (blocks of
    sizes r, n - 2r, r; C constant with inverse ``ci``) and R = ``rhs``,
    point axes first, by block rows of g X = R, bottom row first:

        X_lead  = C^{-T} R_trail
        X_mid   = H^{-1} (R_mid - B^T X_lead)
        X_trail = C^{-1} (R_lead - A X_lead - B X_mid)

    Only the m x m block H is inverted per point, since numpy's batched LU
    solve of such small systems costs more than an inverse and a matmul;
    g^{-1} is never formed.  For R = I the leading rows are ``C^{-T} [0, 0,
    I] = [0, 0, C^{-T}]`` exactly, since each of their entries is one
    product with 1 plus products with 0.
    """
    r = ci.shape[0]
    q = rhs.shape[-2] - r
    out = np.empty(np.broadcast_shapes(a.shape[:-2], rhs.shape[:-2]) + rhs.shape[-2:])
    lead, mid, trail = out[..., :r, :], out[..., r:q, :], out[..., q:, :]
    lead[...] = np.matmul(ci.T, rhs[..., q:, :])
    mid[...] = np.matmul(np.linalg.inv(h),
                         rhs[..., r:q, :] - np.matmul(np.swapaxes(b, -1, -2), lead))
    trail[...] = np.matmul(ci, rhs[..., :r, :] - np.matmul(a, lead) - np.matmul(b, mid))
    return out


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _all_live(shape: tuple) -> np.ndarray:
    """The read-only all-True slot pattern of ``shape``, one per shape."""
    return _frozen(np.ones(shape, dtype=bool))


class ConnectionField:
    """Torsion-free connection on an n-chart, evaluated pointwise.

    Subclasses provide ``gamma`` (component values ``Gamma^l_{jk}``) and
    ``gamma_partial`` (their exact coordinate partials ``d_mu Gamma^l_{jk}``).
    All implementations are symmetric in the lower index pair.
    """

    n: int

    def gamma(self, x, block=()) -> np.ndarray:
        """Values, shape ``x.shape[:-1] + (n, n, n)`` indexed ``[l, j, k]``;
        ``block`` asks for one slot block of ``[l, j, k]`` only, under the
        module's read contract."""
        raise NotImplementedError

    def gamma_along(self, x, v) -> np.ndarray:
        """``Gamma^l_{jk} v^j`` at the points ``x`` for the vectors ``v`` of
        the same shape, shape ``x.shape[:-1] + (n, n)`` indexed ``[l, k]``,
        under the module's read contract; Gamma itself is not formed."""
        raise NotImplementedError

    def nonzero(self, order: int) -> np.ndarray:
        """The slot pattern of Gamma (order 0, ``[l, j, k]``) or of d Gamma
        (order 1, ``[mu, l, j, k]``), the same at every point: a False slot
        is structurally zero, a sum of products that each hold an exact-zero
        factor, so it reads 0.0 wherever the other factors are finite.  The
        checks of :mod:`walkergeom.distributions` read a family whose slots
        are all False as 0.0 without evaluating it.  Here every slot is True.
        A pattern is built once, read-only and C-contiguous.
        """
        return _all_live((self.n,) * (3 + order))

    def _propagators(self, curve, build) -> np.ndarray:
        """The transport propagators along ``curve``: what ``build()``
        returns, the prefix products of
        :func:`walkergeom.transport.parallel_transport`.  Here they are built
        on every call and kept nowhere."""
        return build()

    def gamma_partial(self, x, block=(), rows=None) -> np.ndarray:
        """Partials, shape ``x.shape[:-1] + (n, n, n, n)``, ``[mu, l, j, k]``.

        ``block`` asks for one slot block of ``[mu, l, j, k]`` only, under
        the module's read contract.  ``rows``, a slice of the points of
        ``x`` flattened to one row each, asks for those points only, shape
        ``(len(rows),) + slot shape``: the same values as those rows of the
        whole array.  Each read computes
        only the slots and points it asks for, so a caller can read d Gamma
        one point block at a time and never hold all of it.
        """
        raise NotImplementedError


class SymbolicConnection(ConnectionField, _SymmetricComponents):
    """Connection with explicit ScalarField components, e.g. a base connection."""

    def __init__(self, n: int, components: Mapping[Tuple[int, int, int], object] = ()):
        super().__init__(n, components, 3, "Gamma")

    def gamma(self, x, block=()) -> np.ndarray:
        return self._slot_blocks(0, x, block)[0]

    @functools.cached_property
    def _along_plan(self) -> tuple:
        """The plan (``_contraction_plan``) of ``Gamma^l_{jk} v^j`` from the
        order-0 table, one term per slot; built on first use."""
        fields, index = self._table(0)
        return _contraction_plan(fields, [(1.0, index)])

    def gamma_along(self, x, v) -> np.ndarray:
        x, v = _points_and_vectors(x, v, self.n)
        fields = self._table(0)[0]
        kept, j, f, matrix = self._along_plan
        values = evaluate_fields([fields[i] for i in kept], _rows(x))
        return _frozen(_contract(_rows(v), values, j, f, matrix).reshape(x.shape + (self.n,)))

    def gamma_partial(self, x, block=(), rows=None) -> np.ndarray:
        if rows is not None:
            x = _rows(_as_points(x, self.n))[rows]
        return self._slot_blocks(1, x, block)[0]


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` with its point axes flattened: one row per point."""
    return a.reshape(-1, a.shape[-1])


class LeviCivitaConnection(ConnectionField):
    """Levi-Civita connection of a metric.

    Component values come from the standard formula

        Gamma^l_{jk} = (1/2) g^{lm} (d_j g_{mk} + d_k g_{jm} - d_m g_{jk}),

    with the partials of g taken symbolically first and the inverse metric
    solved numerically at each point.  ``gamma_partial`` differentiates the
    same formula exactly, using d(g^{-1}) = -g^{-1} (dg) g^{-1} and the
    symbolic second partials of g:

        d_u Gamma = g^{-1} d_u(low) + d_u(g^{-1}) low,   low = Gamma_{m,jk}.

    One routine (``_form``) forms every slot block of Gamma or d Gamma, the
    whole table for ``()``: it lowers ``low`` (and d_u(low)) from the
    metric's order-1 (and order-2) field values for only the distinct
    triples that the block's lower-pair columns read
    (``MetricField._first_kind_sums``), takes the ``matmul`` of g^{-1} with
    those columns, and keeps the block's rows.  It works one block of points
    at a time, ``max(1, JET_BLOCK // entries)`` points for the ``entries``
    per point of the block's largest operand (n^3 for all of Gamma, n^4 for
    all of d Gamma), so dg, ``low``, d_u(low) and the sums exist only per
    block and d^2 g is never laid out.  Every point's products are the same
    small GEMMs whatever its block.  For a block of Gamma whose rows of
    g^{-1} are the same at every point (``MetricField._inverse_rows``; the
    leading rows ``[0, 0, C^{-T}]`` of a structurally Walker metric, so the
    leaf block of a restriction), it multiplies by those rows over their
    live columns instead: it lowers only the sums of those columns, from only the order-1
    fields they read, evaluates neither g nor g^{-1}, and holds the points to
    the floor through ``|det g| = det(C)^2 |det H|``, reading H alone.

    The connection holds the jet of the last point set it was asked about: a
    copy of the points, g^{-1} once Gamma or d Gamma is read, the order-1
    field values, the order-2 field values once d Gamma is read, and Gamma
    once all of it is read, each computed on first use.  A later call whose
    points equal that copy by value (same shape, equal entries; points
    changed in place since do not match) reads the jet, so checks that share
    their sample points share one inverse and one evaluation of each order's
    fields.  A read of ``rows`` compares only those rows of ``x`` with the
    jet's points.  The held Gamma serves whole reads only: ``gamma(x,
    block)`` on the jet's points forms the block from the jet's arrays.  A
    slot block of Gamma at other points is read from a jet of its own, a new
    connection started on those points, and leaves this jet as it is; a
    block of Gamma on constant rows of g^{-1} is formed from those rows, on
    the jet or off it.  d Gamma is never held: each read forms its block from
    the jet's field values.

    ``gamma_along(x, v)`` reads Gamma^l_{jk} v^j without forming Gamma: the
    metric's plan contracts v into the first-kind sums L from the jet's
    order-1 field values, one point block at a time, and the metric solves
    g X = L (``MetricField._solve``), never reading the jet's g^{-1}; on a
    structurally Walker metric that solve evaluates only the blocks A, B
    and H of g.  So a transport's coefficients hold neither Gamma, ``low``
    nor g^{-1} on its grid.  The jet also holds the transport propagators of
    the last curve transported on its points (``_propagators``), keyed by
    the curve (equal components, ``t_span`` and ``step``) and read-only, so
    the transports of one curve share one solve.  The solve was built one
    block of steps at a time, each block's coefficients read on a jet of
    that block's grid points, so the jet that holds it is the last block's
    (the whole grid's when the grid is one block).  Starting a new jet drops
    them with the rest: a full Gamma, d Gamma or ``gamma_along`` read at
    other points does, a slot block of Gamma elsewhere does not.

    A block's columns are those of the dense ``(n, n^2)`` product, taken
    from a narrower GEMM (two columns wide for a one-column block: numpy
    hands a one-column product to GEMV, which sums in another order).  Where
    the BLAS rounds each entry independently of the GEMM's width the bits
    are the whole read's; OpenBLAS 0.3.31 on AVX-512 does so for n <= 15,
    and at n = 16 may round some columns of a narrow block differently in
    the last bit.
    """

    def __init__(self, metric: MetricField):
        self.metric = metric
        self.n = metric.n
        self._x = self._ginv = self._gamma = self._solve = None
        self._fields = {}
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

    def _on_jet(self, x, rows=None) -> bool:
        """Whether ``x`` equals the jet's points; given ``rows``, a slice of
        the flattened points, only those rows are compared (with the shape),
        so a reader that walks d Gamma one point block at a time compares
        each point once, and a read's result depends on its own rows only."""
        jet = self._x
        if rows is None:
            return jet is not None and np.array_equal(x, jet)
        return (jet is not None and x.shape == jet.shape
                and np.array_equal(_rows(x)[rows], _rows(jet)[rows]))

    def _start(self, x) -> None:
        """Start a new jet on a copy of ``x``."""
        self._x = x.copy()
        self._ginv = self._gamma = self._solve = None
        self._fields = {}

    def _propagators(self, curve, build) -> np.ndarray:
        # building reads the curve's grid, which may start a new jet; the
        # propagators are held only after that
        if self._solve is None or self._solve[0] != curve:
            self._solve = (curve, _frozen(build()))
        return self._solve[1]

    def _inverse(self) -> np.ndarray:
        """g^{-1} at the jet's points, one row per point."""
        if self._ginv is None:
            self._ginv = self.metric.inverse_value(self._x).reshape(-1, self.n, self.n)
        return self._ginv

    def _values(self, order: int) -> np.ndarray:
        """The order's field values at the jet's points, one row per point."""
        if order not in self._fields:
            self._fields[order] = _rows(self.metric._field_values(order, self._x))
        return self._fields[order]

    def _plan(self, order: int, j, k, m=slice(None), head=()):
        """The columns ``(a, b, c)`` of the order's field values read by the
        distinct first-kind triples that the columns ``(j, k)`` of the rows
        ``m`` of the sums read (``MetricField._triple_table``), and each
        column's position among those triples, ``[*head, m, column]``; a
        one-column product goes to GEMM as two, so a single column is
        repeated."""
        triples, table = self.metric._triple_table(order)
        table = table[head][..., m, :, :][..., j[:, None], k]
        kept, at = _compact(len(triples[0]), table.reshape(table.shape[:-2] + (-1,)))
        at = np.repeat(at, 2, axis=-1) if at.shape[-1] == 1 else at
        return tuple(t[kept] for t in triples), at

    def _form(self, order: int, block, points=None) -> np.ndarray:
        """The slot block ``block`` of Gamma (order 0) or d Gamma (order 1)
        at the jet's points, shaped like them, or at ``points``, a slice of
        them flattened, ``(len(points),) + slot shape``; read-only.  A block
        with more axes than the slots is refused with ``IndexError`` before
        anything is formed.

        It is formed from the jet's g^{-1} and order-1 (and order-2) field
        values or, for a block of Gamma whose rows of g^{-1} are the same at
        every point (``MetricField._inverse_rows``), from those rows over
        their live columns alone: only the sums of those columns are
        lowered, from only the order-1 fields that they read, and neither g
        nor g^{-1} is evaluated; the points are held to the floor through
        ``|det g|``.
        """
        metric, n, block = self.metric, self.n, tuple(block)
        shape = np.empty((n,) * (3 + order), dtype=bool)[block].shape
        slots = block + (slice(None),) * (3 + order - len(block))
        *u, l, j, k = (np.atleast_1d(np.arange(n)[s]) for s in slots)
        width = len(j) * len(k)
        at = slice(None) if points is None else points
        inverse = None if order else metric._inverse_rows(l)
        if inverse is None:
            ginv, keep = self._inverse()[at], l
            v1 = self._values(1)[at]
            low_triples, low_at = self._plan(1, j, k)
        else:
            x = _rows(self._x)[at]
            metric._refuse_singular(x)
            ginv, m = inverse
            # like a one-column product, a one-row product goes to GEMM as two
            ginv, keep = np.repeat(ginv, 2, axis=0) if len(l) == 1 else ginv, np.arange(len(l))
            low_triples, low_at = self._plan(1, j, k, m)
            table = metric._table(1)[0]
            fields, *low_triples = _compact(len(table), *low_triples)
            v1 = evaluate_fields([table[f] for f in fields], x)
            ginv = np.broadcast_to(ginv, (len(v1),) + ginv.shape)
        if order:
            u = u[0]
            dlow_triples, dlow_at = self._plan(2, j, k, head=u)
            dg_at = metric._table(1)[1][u]
            v2 = self._values(2)[at]
        out = np.empty((len(v1),) + (len(u),) * order + (len(l), width))
        # a product that is the block itself is written into it in place
        whole = width > 1 and l.tolist() == list(range(n))
        entries = ginv.shape[-1] * max(ginv.shape[-2], width) * (len(u) if order else 1)
        for p in _point_blocks(len(v1), entries):
            gi, into = ginv[p], out[p] if whole else None
            low = np.take(metric._first_kind_sums(1, v1[p], triples=low_triples), low_at,
                          axis=-1)
            if order:
                gi = gi[:, None]
                dlow = np.take(metric._first_kind_sums(2, v2[p], triples=dlow_triples),
                               dlow_at, axis=-1)
                prod = np.matmul(gi, dlow, out=into)
                # d_u(g^{-1}) = -g^{-1} (d_u g) g^{-1}
                dginv = -np.matmul(np.matmul(gi, np.take(v1[p], dg_at, axis=-1)), gi)
                prod += np.matmul(dginv, low[:, None])
            else:
                prod = np.matmul(gi, low, out=into)
            if not whole:
                out[p] = prod[..., keep, :width]
        lead = self._x.shape[:-1] if points is None else out.shape[:1]
        return _frozen(out.reshape(lead + shape))

    def gamma(self, x, block=()) -> np.ndarray:
        x = _as_points(x, self.n)
        if not self._on_jet(x):
            if block:
                # a slot block elsewhere is read from a jet of its own, which
                # leaves this one as it is
                jet = LeviCivitaConnection(self.metric)
                jet._start(x)
                return jet._form(0, block)
            self._start(x)
        if block:
            return self._form(0, block)
        if self._gamma is None:
            self._gamma = self._form(0, ())
        return self._gamma

    def gamma_along(self, x, v) -> np.ndarray:
        x, v = _points_and_vectors(x, v, self.n)
        if not self._on_jet(x):
            self._start(x)
        kept, j, f, matrix = self.metric._along_plan
        low = _contract(_rows(v), self._values(1), j, kept[f], matrix)
        return _frozen(self.metric._solve(_rows(x), low).reshape(x.shape + (self.n,)))

    def gamma_partial(self, x, block=(), rows=None) -> np.ndarray:
        x = _as_points(x, self.n)
        if not self._on_jet(x, rows):
            self._start(x)
        return self._form(1, block, rows)


class RestrictedConnection(ConnectionField):
    """A connection on the leaf space of a trailing-coordinate span, as
    :func:`~walkergeom.distributions.restrict_connection` builds it.

    Evaluates the parent's leading components at leaf points ``(..., keep)``
    with the trailing coordinates pinned to zero; only meaningful when the
    parent passes the projectability check, which makes the pinned values
    immaterial.  A leaf slot block is the parent's block on the same leading
    slots, which the parent forms.
    """

    def __init__(self, parent: ConnectionField, keep: int):
        if not 0 < keep < parent.n:
            raise ValueError("leaf dimension must satisfy 0 < keep < n")
        self.parent = parent
        self.n = keep
        self._patterns = {}

    def _embed(self, y) -> np.ndarray:
        y = _as_points(y, self.n)
        return np.concatenate([y, np.zeros(y.shape[:-1] + (self.parent.n - self.n,))], axis=-1)

    def _parent_block(self, block, rank: int) -> tuple:
        """The leaf slot block ``block`` as a block of the parent's ``rank``
        slot axes: each integer and slice is read on ``range(keep)``, and a
        missing axis is all of it."""
        out = []
        for s in tuple(block) + (slice(None),) * (rank - len(block)):
            s = range(self.n)[s]
            if isinstance(s, range):
                # a range that runs down to 0 stops at -1, which a slice
                # reads as the last index
                s = slice(s.start, s.stop if s.stop >= 0 else None, s.step) if s else slice(0)
            out.append(s)
        return tuple(out)

    def gamma(self, y, block=()) -> np.ndarray:
        return self.parent.gamma(self._embed(y), self._parent_block(block, 3))

    def gamma_along(self, y, v) -> np.ndarray:
        # v reaches the parent with zero trailing components
        out = self.parent.gamma_along(self._embed(y), self._embed(v))
        return _frozen(np.ascontiguousarray(out[..., :self.n, :self.n]))

    def nonzero(self, order: int) -> np.ndarray:
        if order not in self._patterns:
            self._patterns[order] = _frozen(np.ascontiguousarray(
                self.parent.nonzero(order)[(slice(None, self.n),) * (3 + order)]))
        return self._patterns[order]

    def gamma_partial(self, y, block=(), rows=None) -> np.ndarray:
        return self.parent.gamma_partial(self._embed(y), self._parent_block(block, 4), rows)


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
