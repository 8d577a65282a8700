"""Seeded sample-point generation with nondegeneracy rejection.

Points are drawn uniformly from the cube ``[-BOX, BOX]^n``.  When a metric is
supplied, points where any component fails to evaluate to a finite real (a
quotient pole) or where ``|det g|`` falls below ``DET_FLOOR`` are rejected and
redrawn, at most ``MAX_DRAWS`` batches, so downstream residual checks only
ever see usable points.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import MetricField

__all__ = ["sample_points"]

# points with |det g| below this are rejected
DET_FLOOR = 1e-6
# half-width of the sampling cube
BOX = 1.0
# batches drawn before giving up
MAX_DRAWS = 200


def sample_points(
    n: int, count: int, seed: int = 42, metric: Optional[MetricField] = None
) -> np.ndarray:
    """Draw ``count`` admissible points in ``[-BOX, BOX]^n``, deterministically.

    Raises RuntimeError if the acceptance rate is too low (the metric is
    degenerate on essentially all of the cube).
    """
    rng = np.random.default_rng(seed)
    accepted = []
    have = 0
    for _ in range(MAX_DRAWS):
        batch = rng.uniform(-BOX, BOX, size=(max(count, 64), n))
        if metric is None:
            keep = batch
        else:
            with np.errstate(all="ignore"):
                gv = metric.value(batch)
                det = np.linalg.det(np.nan_to_num(gv, nan=0.0, posinf=0.0, neginf=0.0))
            finite = np.all(np.isfinite(gv), axis=(-1, -2))
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
