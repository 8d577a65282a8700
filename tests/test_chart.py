"""Block splits."""

import pytest

from walkergeom import ChartSplit


def test_three_block_layout():
    ch = ChartSplit.three_block(6, 2)
    assert ch.leading == slice(0, 2)
    assert ch.middle == slice(2, 4)
    assert ch.trailing == slice(4, 6)
    assert ch.middle_size == 2
    assert ch.trailing_size == 2


def test_three_block_allows_empty_middle():
    ch = ChartSplit.three_block(4, 2)
    assert ch.middle_size == 0
    assert ch.middle == slice(2, 2)


def test_three_block_rejects_oversized_leading():
    with pytest.raises(ValueError):
        ChartSplit.three_block(3, 2)


def test_two_block_layout():
    ch = ChartSplit.two_block(5, 2)
    assert ch.leading == slice(0, 3)
    assert ch.trailing == slice(3, 5)
    with pytest.raises(ValueError):
        _ = ch.middle


def test_two_block_bounds():
    with pytest.raises(ValueError):
        ChartSplit.two_block(3, 0)
    with pytest.raises(ValueError):
        ChartSplit.two_block(3, 3)

