"""Fraction-free Gaussian elimination for exact linear systems over Q.

No runtime path calls this module: folint.francoise solves its homogeneous
blocks by a structured O(d) sweep.  solve_canonical is kept as the general
reference solver that the tests compare that sweep against.

The solver returns one canonical solution of A v = rhs: columns are processed
strictly left to right (no column pivoting), the pivot row is the first row
with a nonzero entry in the current column, and every non-pivot (free)
variable is fixed to 0.  Callers encode their normalization by choosing the
column order.

Elimination runs on integer matrices (rows are scaled by their denominator
lcm) using Bareiss one-step fraction-free updates, so intermediate entries
stay integral and modest in size.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

__all__ = ["solve_canonical"]


def solve_canonical(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve A v = rhs; return the free-variables-zero solution or None.

    None signals an inconsistent system.  The zero-column convention makes the
    result unique and deterministic for a fixed column order.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("rhs length does not match row count")
    n = len(rows[0]) if m else 0

    # integerize row by row; the augmented column rides along
    mat: list[list[int]] = []
    for row, b in zip(rows, rhs):
        if len(row) != n:
            raise ValueError("ragged matrix")
        dens = [c.denominator for c in row] + [b.denominator]
        scale = 1
        for d in dens:
            scale = lcm(scale, d)
        ints = [int(c * scale) for c in row] + [int(b * scale)]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
        mat.append(ints)

    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    prev = 1
    for col in range(n):
        pivot_row = None
        for i in range(r, m):
            if mat[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        p = mat[r][col]
        for i in range(r + 1, m):
            q = mat[i][col]
            row_i = mat[i]
            row_r = mat[r]
            for j in range(col, n + 1):
                num = p * row_i[j] - q * row_r[j]
                quot, rem = divmod(num, prev)
                if rem:
                    raise AssertionError("fraction-free invariant violated")
                row_i[j] = quot
        pivots.append((r, col))
        prev = p
        r += 1
        if r == m:
            break

    # inconsistency: a zero row with nonzero augmented entry
    for i in range(r, m):
        if any(mat[i][j] != 0 for j in range(n)):
            # can happen only below the last processed column; eliminate fully
            raise AssertionError("elimination left unreduced row")
        if mat[i][n] != 0:
            return None

    solution = [Fraction(0)] * n
    for row, col in reversed(pivots):
        acc = Fraction(mat[row][n])
        for j in range(col + 1, n):
            if mat[row][j] != 0 and solution[j] != 0:
                acc -= Fraction(mat[row][j]) * solution[j]
        solution[col] = acc / Fraction(mat[row][col])
    return solution
