"""Seeded sample-point generation with nondegeneracy rejection.

Points are drawn uniformly from the cube ``[-BOX, BOX]^n`` of the metric's
chart.  Points where any component fails to evaluate to a finite real (a
quotient pole) or where ``|det g|`` falls below ``DET_FLOOR`` are rejected and
redrawn, at most ``MAX_DRAWS`` batches, so downstream residual checks only
ever see usable points.
"""

from __future__ import annotations

import numpy as np

from .tensor import MetricField

__all__ = ["sample_points"]

# points with |det g| below this are rejected
DET_FLOOR = 1e-6
# half-width of the sampling cube
BOX = 1.0
# batches drawn before giving up
MAX_DRAWS = 200


def sample_points(metric: MetricField, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` admissible points of ``metric`` in ``[-BOX, BOX]^n``,
    deterministically.

    Raises RuntimeError if the acceptance rate is too low (the metric is
    degenerate on essentially all of the cube).
    """
    n = metric.n
    rng = np.random.default_rng(seed)
    accepted = []
    have = 0
    for _ in range(MAX_DRAWS):
        batch = rng.uniform(-BOX, BOX, size=(max(count, 64), n))
        with np.errstate(all="ignore"):
            gv = metric.value(batch)
            finite = np.all(np.isfinite(gv), axis=(-1, -2))
            # zero the non-finite entries, in a copy only where there are any
            det = np.linalg.det(gv if finite.all() else
                                np.nan_to_num(gv, nan=0.0, posinf=0.0, neginf=0.0))
        keep = batch[finite & (np.abs(det) >= DET_FLOOR)]
        if keep.size:
            accepted.append(keep)
            have += keep.shape[0]
        if have >= count:
            break
    else:
        raise RuntimeError(
            f"could not find {count} nondegenerate sample points "
            f"(|det g| >= {DET_FLOOR:g}) in [-{BOX}, {BOX}]^{n}"
        )
    return np.concatenate(accepted, axis=0)[:count]
