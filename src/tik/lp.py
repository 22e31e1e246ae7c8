"""Small exact simplex with fraction-free integer pivoting.

Solves  max c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0
with Bland's rule (no cycling).  Problem sizes here are tiny (tens of
variables), so a dense two-phase tableau is plenty.

Each input row is scaled to integers by the lcm of its denominators, and
the tableau is kept as integers over one common positive denominator d
(fraction-free, Bareiss-style pivoting): the true tableau is T / d.  A
pivot on entry p = T[r][s] leaves row r as it is and maps every other
row by  v -> (p*v - T[i][s]*T[r][j]) // d,  then sets d = p.  Every entry
is a minor of the scaled input, so the division is exact.  Pivots chosen
by the ratio test are positive; a negative pivot (possible only when an
artificial is driven out of the basis) is followed by negating the whole
tableau, so d stays positive and signs read the same as in T / d.  Phase
1 weighs each artificial by the inverse of its row's scale, so the pivot
sequence is the one a Fraction tableau of the unscaled rows would take;
x and the objective become Fractions only at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _integer_row(values):
    """`values` (ints or Fractions) times the lcm of their denominators:
    (integer list, scale)."""
    values = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in values)) if values else 1
    return [v.numerator * (scale // v.denominator) for v in values], scale


def solve_lp(c, a_ub, b_ub, a_eq, b_eq):
    """Returns (status, x, objective), x and objective as Fractions.
    Inputs are int or Fraction matrices; b_ub / b_eq entries must be
    >= 0 (callers arrange this)."""
    n = len(c)
    rows = []
    for coeffs, rhs in zip(a_ub, b_ub):
        if rhs < 0:
            raise ValueError("b_ub entries must be nonnegative")
        rows.append((list(coeffs), rhs, "ub"))
    for coeffs, rhs in zip(a_eq, b_eq):
        if rhs < 0:
            raise ValueError("b_eq entries must be nonnegative")
        rows.append((list(coeffs), rhs, "eq"))
    if any(len(coeffs) != n for coeffs, _, _ in rows):
        raise ValueError("every constraint row needs one entry per variable")

    m = len(rows)
    n_slack = sum(1 for _, _, kind in rows if kind == "ub")
    total = n + n_slack + m  # artificials for every row keep phase 1 simple

    # tab[0..m-1] are the constraint rows, tab[m] the objective row being
    # minimized (reduced costs, then minus the objective value)
    tab = []
    basis = [0] * m
    scales = []
    slack_at = 0
    for i, (coeffs, rhs, kind) in enumerate(rows):
        scaled, scale = _integer_row(coeffs + [rhs])
        row = scaled[:n] + [0] * (n_slack + m) + scaled[n:]
        if kind == "ub":
            row[n + slack_at] = scale
            slack_at += 1
        # the artificial enters at 1, i.e. as `scale` times the unscaled
        # row's artificial, so the starting basis is the identity and d = 1
        row[n + n_slack + i] = 1
        tab.append(row)
        basis[i] = n + n_slack + i
        scales.append(scale)
    d = 1

    def pivot(row, col):
        nonlocal d
        prow = tab[row]
        p = prow[col]
        for r, other in enumerate(tab):
            if r != row:
                f = other[col]
                tab[r] = [(p * v - f * w) // d for v, w in zip(other, prow)]
        d = p
        if d < 0:
            for r, other in enumerate(tab):
                tab[r] = [-v for v in other]
            d = -d
        basis[row] = col

    def run_simplex(n_allowed):  # columns 0..n_allowed-1 may enter
        while True:
            obj = tab[m]  # each pivot replaces the row
            col = None
            for j in range(n_allowed):
                if obj[j] < 0:
                    col = j  # Bland: first improving column
                    break
            if col is None:
                return OPTIMAL
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
            if row is None:
                return UNBOUNDED
            pivot(row, col)

    # phase 1: minimize the sum of the unscaled artificials, i.e. each
    # artificial at cost 1 / scale (times their lcm, to stay integral);
    # reduced costs then have the signs of the Fraction tableau's
    art_start = n + n_slack
    big = lcm(*scales) if scales else 1
    obj1 = [0] * (total + 1)
    for i, row in enumerate(tab):
        w = big // scales[i]
        obj1[art_start + i] += w
        obj1 = [v - w * a for v, a in zip(obj1, row)]  # price out basics (d = 1)
    tab.append(obj1)
    run_simplex(total)
    if tab[m][total] < 0:  # the phase-1 value is -tab[m][total] / (d * big)
        return INFEASIBLE, None, None

    # drive remaining artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= art_start:
            for j in range(art_start):
                if tab[r][j] != 0:
                    pivot(r, j)
                    break

    # phase 2: maximize c.x == minimize -c.x, artificials frozen.  With c
    # scaled to integers by `scale`, the reduced costs times d are
    # sum_r c[basis r] * tab[r] - d * c.
    c_int, scale = _integer_row(c)
    c_int += [0] * (total - n)
    obj2 = [-d * cj for cj in c_int] + [0]
    for r in range(m):
        cb = c_int[basis[r]]
        if cb:
            obj2 = [v + cb * w for v, w in zip(obj2, tab[r])]
    tab[m] = obj2
    if run_simplex(art_start) == UNBOUNDED:
        return UNBOUNDED, None, None

    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(tab[r][total], d)
    # the objective cell holds d * scale * (c.x)
    objective = Fraction(tab[m][total], d * scale)
    return OPTIMAL, x, objective
