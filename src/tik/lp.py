"""Exact phase-1 simplex with fraction-free integer pivoting.

Decides whether  A_eq x = b_eq,  x >= 0  has a solution and returns one
(a vertex), with Bland's rule (no cycling).  Problem sizes here are tiny
(tens of variables), so a dense tableau is plenty.

Each input row is scaled to integers by the lcm of its denominators, and
the tableau is kept as integers over one common positive denominator d
(fraction-free, Bareiss-style pivoting): the true tableau is T / d.  A
pivot on entry p = T[r][s] leaves row r as it is and maps every other
row by  v -> (p*v - T[i][s]*T[r][j]) // d,  then sets d = p.  Every entry
is a minor of the scaled input, so the division is exact.  The ratio
test pivots only on positive entries, so d stays positive and signs read
the same as in T / d.  Phase 1 weighs each artificial by the inverse of
its row's scale, so the pivot sequence is the one a Fraction tableau of
the unscaled rows would take; x becomes Fractions only at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _integer_row(values):
    """`values` (ints or Fractions) times the lcm of their denominators:
    (integer list, scale).  A row of ints is its own scaling."""
    if all(type(v) is int for v in values):
        return list(values), 1
    values = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in values)) if values else 1
    return [v.numerator * (scale // v.denominator) for v in values], scale


def solve_lp(c, a_ub, b_ub, a_eq, b_eq):
    """A vertex of  A_eq x = b_eq,  x >= 0  as a list of Fractions, or
    None when there is no solution.  Inputs are int or Fraction matrices;
    b_eq entries must be >= 0 (callers arrange this).  The parameters are
    those of  max c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0,  but
    only feasibility is decided: c must be all zeros (it gives the number
    of variables) and a_ub, b_ub empty."""
    n = len(c)
    if any(c):
        raise ValueError("c must be all zeros: only feasibility is decided")
    if a_ub or b_ub:
        raise ValueError("a_ub and b_ub must be empty: write each row as an equality")
    rows = list(zip(a_eq, b_eq))
    if any(rhs < 0 for _, rhs in rows):
        raise ValueError("b_eq entries must be nonnegative")
    if any(len(coeffs) != n for coeffs, _ in rows):
        raise ValueError("every constraint row needs one entry per variable")

    m = len(rows)
    total = n + m  # an artificial for every row; column `total` is the rhs
    # tab[0..m-1] are the constraint rows, tab[m] the objective row being
    # minimized (reduced costs, then minus the objective value)
    tab = []
    basis = list(range(n, total))
    scales = []
    for i, (coeffs, rhs) in enumerate(rows):
        scaled, scale = _integer_row(list(coeffs) + [rhs])
        row = scaled[:n] + [0] * m + scaled[n:]
        # the artificial enters at 1, i.e. as `scale` times the unscaled
        # row's artificial, so the starting basis is the identity and d = 1
        row[n + i] = 1
        tab.append(row)
        scales.append(scale)
    d = 1

    # minimize the sum of the unscaled artificials, i.e. each artificial
    # at cost 1 / scale (times their lcm, to stay integral); reduced costs
    # then have the signs of the Fraction tableau's
    big = lcm(*scales) if scales else 1
    obj = [0] * (total + 1)
    for i, row in enumerate(tab):
        w = big // scales[i]
        obj[n + i] += w
        obj = [v - w * a for v, a in zip(obj, row)]  # price out basics (d = 1)
    tab.append(obj)

    while True:
        obj = tab[m]  # each pivot replaces the row
        for col in range(total):
            if obj[col] < 0:
                break  # Bland: first improving column
        else:
            break
        # the objective is bounded below by 0, so the column has a
        # positive entry and the ratio test finds a row
        row = None
        for r in range(m):
            a = tab[r][col]
            if a > 0:
                if row is None:
                    row = r
                    continue
                # ratio tab[r][total]/a against the best's, cross-multiplied
                lhs = tab[r][total] * tab[row][col]
                rhs = tab[row][total] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[row]):
                    row = r  # Bland tie-break on basis index
        prow = tab[row]
        p = prow[col]
        for r, other in enumerate(tab):
            if r != row:
                f = other[col]
                tab[r] = [(p * v - f * w) // d for v, w in zip(other, prow)]
        d = p
        basis[row] = col

    if tab[m][total] < 0:  # the phase-1 value is -tab[m][total] / (d * big)
        return None
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(tab[r][total], d)
    return x
