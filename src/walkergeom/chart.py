"""Coordinate-chart bookkeeping: block index splits.

Charts come in two flavours.  A *two-block* split separates the coordinates
into a leading block ``x^1..x^{n-s}`` and a trailing block spanned by the
last ``s`` coordinate vector fields.  A *three-block* split is the adapted
(Walker) arrangement

    1 <= i,j,k <= r  <  p,q <= n-r  <  a,b <= n

with leading block of size ``r``, middle block of size ``n-2r`` and trailing
block of size ``r``.  The bundle projections of the adapted chart are plain
coordinate truncations, which callers take by slicing points: ``pi`` keeps
the leading block (``x[..., chart.leading]``), ``p`` keeps leading+middle
(``x[..., :n - r]``) and ``q`` maps leading+middle down to leading
(``y[..., :r]``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ChartSplit"]


@dataclass(frozen=True)
class ChartSplit:
    """Dimension ``n`` with a two- or three-block coordinate split."""

    n: int
    mode: str  # "two_block" or "three_block"
    r: int = 0  # three-block: leading (= trailing) block size
    s: int = 0  # two-block: trailing block size

    @classmethod
    def three_block(cls, n: int, r: int) -> "ChartSplit":
        if not 0 < r or n < 2 * r:
            raise ValueError(f"three-block split needs 0 < r and n >= 2r, got n={n}, r={r}")
        return cls(n=n, mode="three_block", r=r)

    @classmethod
    def two_block(cls, n: int, s: int) -> "ChartSplit":
        if not 0 < s < n:
            raise ValueError(f"two-block split needs 0 < s < n, got n={n}, s={s}")
        return cls(n=n, mode="two_block", s=s)

    # -- block layout (0-based slices) ----------------------------------------

    @property
    def middle_size(self) -> int:
        return self.n - 2 * self.r if self.mode == "three_block" else 0

    @property
    def leading(self) -> slice:
        if self.mode == "three_block":
            return slice(0, self.r)
        return slice(0, self.n - self.s)

    @property
    def middle(self) -> slice:
        if self.mode != "three_block":
            raise ValueError("two-block split has no middle block")
        return slice(self.r, self.n - self.r)

    @property
    def trailing(self) -> slice:
        if self.mode == "three_block":
            return slice(self.n - self.r, self.n)
        return slice(self.n - self.s, self.n)

    @property
    def trailing_size(self) -> int:
        return self.r if self.mode == "three_block" else self.s
