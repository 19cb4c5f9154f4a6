"""The dense reference solver: canonical solutions, inconsistency, shape checks."""

from __future__ import annotations

from fractions import Fraction

import pytest

from folint.linsolve import solve_canonical


def fr(rows):
    return [[Fraction(v) for v in row] for row in rows]


def test_unique_solution():
    rows = fr([[2, 1], [1, 3]])
    rhs = [Fraction(5), Fraction(10)]
    assert solve_canonical(rows, rhs) == [Fraction(1), Fraction(3)]


def test_rational_entries():
    rows = [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(2, 3)]]
    assert solve_canonical(rows, [Fraction(1), Fraction(1)]) == [
        Fraction(2),
        Fraction(3, 2),
    ]


def test_free_variables_are_zero():
    # x + y + z = 6 and y + z = 4: z is free and set to 0
    rows = fr([[1, 1, 1], [0, 1, 1]])
    assert solve_canonical(rows, [Fraction(6), Fraction(4)]) == [
        Fraction(2),
        Fraction(4),
        Fraction(0),
    ]


def test_column_order_picks_the_free_variable():
    # a dependent middle column is free, the last one is a pivot
    rows = fr([[1, 2, 0], [0, 0, 1]])
    assert solve_canonical(rows, [Fraction(3), Fraction(5)]) == [
        Fraction(3),
        Fraction(0),
        Fraction(5),
    ]


def test_inconsistent_system_returns_none():
    rows = fr([[1, 1], [2, 2]])
    assert solve_canonical(rows, [Fraction(1), Fraction(3)]) is None
    # the same rows with a consistent right-hand side solve
    assert solve_canonical(rows, [Fraction(1), Fraction(2)]) == [Fraction(1), Fraction(0)]


def test_zero_row_with_nonzero_rhs_returns_none():
    rows = fr([[1, 0], [0, 0]])
    assert solve_canonical(rows, [Fraction(1), Fraction(1)]) is None


def test_ragged_rows_raise():
    rows = [[Fraction(1), Fraction(2)], [Fraction(3)]]
    with pytest.raises(ValueError, match="ragged"):
        solve_canonical(rows, [Fraction(1), Fraction(2)])


def test_rhs_length_mismatch_raises():
    rows = fr([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="rhs length"):
        solve_canonical(rows, [Fraction(1)])
