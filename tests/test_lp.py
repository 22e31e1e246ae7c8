import itertools
import random
from fractions import Fraction as F
from math import lcm

import pytest

from tik import lp
from tik.lp import _integer_row, solve_lp
from tik.recognize import CLOSE, OPEN, order_feasible

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


# The general two-phase solver `solve_lp` was before it was cut down to
# its phase 1, kept as the reference: max c.x s.t. A_ub x <= b_ub,
# A_eq x = b_eq, x >= 0, returning (status, x, objective).  With c = 0 and
# no A_ub rows its phase 2 makes no pivot, and each drive-out pivot is on
# a row whose artificial is basic at 0, so it moves no value: its x is
# phase 1's.
def _two_phase(c, a_ub, b_ub, a_eq, b_eq):
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

    x = [F(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = F(tab[r][total], d)
    # the objective cell holds d * scale * (c.x)
    objective = F(tab[m][total], d * scale)
    return OPTIMAL, x, objective


def _feasible(x, a_eq, b_eq):
    return (all(v >= 0 for v in x)
            and all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(a_eq, b_eq)))


def _solve_checked(a_eq, b_eq, n=None):
    n = len(a_eq[0]) if n is None else n
    x = solve_lp([0] * n, [], [], a_eq, b_eq)
    if x is not None:
        assert len(x) == n and all(type(v) is F for v in x)
        assert _feasible(x, a_eq, b_eq)
    return x


def test_infeasible():
    # x + s = 1 and x = 2 (x <= 1 with its slack s)
    assert _solve_checked([[1, 1], [1, 0]], [1, 2]) is None


def test_degenerate_vertex_terminates():
    # Beale's rows with their slacks: the start is degenerate (two rows
    # have right-hand side 0), and phase 1 must still reach a vertex
    a_eq = [[F(1, 4), -8, -1, 9, 1, 0, 0], [F(1, 2), -12, F(-1, 2), 3, 0, 1, 0],
            [0, 0, 1, 0, 0, 0, 1]]
    x = _solve_checked(a_eq, [0, 0, 1])
    assert x == [F(2, 5), F(0), F(1), F(1, 10), F(0), F(0), F(0)]


def test_tie_break_picks_the_vertex():
    # the last row starts the search at a degenerate vertex: breaking
    # ratio ties by the smallest basis index returns (0, 2/5, 1/5, 1/5);
    # the largest would return (1, 1/2, 0, 1/2)
    a_eq = [[-1, 2, -1, 2], [0, 2, 1, 0], [0, -1, 1, 1]]
    assert _solve_checked(a_eq, [1, 1, 0]) == [F(0), F(2, 5), F(1, 5), F(1, 5)]


def test_rational_rows_are_scaled():
    # mixed denominators inside one row and in the right-hand sides:
    # x = 2/7, then x/2 + y/3 + s = 5/6 gives y = 29/14 at s = 0
    x = _solve_checked([[F(1, 2), F(1, 3), 1], [1, 0, 0]], [F(5, 6), F(2, 7)])
    assert x == [F(2, 7), F(29, 14), F(0)]
    # phase 1 weighs each artificial by the inverse of its row's scale, so
    # it returns the vertex an unscaled tableau reaches; weight 1 on each
    # scaled row's artificial would return (0, 5/6, 2/3)
    x = _solve_checked([[-1, -1, 2], [F(2, 3), 1, F(-1, 2)]], [F(1, 2), F(1, 2)])
    assert x == [F(3, 2), F(0), F(1)]


def test_integer_rows_stay_ints():
    # a row of ints is its own scaling, returned as a fresh list; a row
    # with a Fraction in it, even an integral one, goes through Fractions
    row = [3, -1, 0, 2]
    scaled, scale = _integer_row(row)
    assert (scaled, scale) == (row, 1) and scaled is not row
    assert all(type(v) is int for v in scaled)
    assert _integer_row([F(3), -1, 0, 2]) == (row, 1)
    assert _integer_row([F(1, 2), 3, F(-2, 3)]) == ([3, 18, -4], 6)
    assert _integer_row([]) == ([], 1)
    # the same systems written in ints and in integral Fractions: equal answers
    def as_fractions(values):
        return [as_fractions(v) if type(v) is list else F(v) for v in values]

    rng = random.Random(12)
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 4)
        a_eq = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        problem = ([0] * n, [], [], a_eq, [rng.randint(0, 3) for _ in a_eq])
        answer = solve_lp(*problem)
        assert solve_lp(*map(as_fractions, problem)) == answer
        seen.add(answer is None)
    assert seen == {True, False}


def test_empty_constraint_blocks():
    # no rows: x = 0
    assert _solve_checked([], [], n=2) == [F(0), F(0)]
    assert _solve_checked([], [], n=0) == []
    # a row over no variables holds iff its right-hand side is 0
    assert _solve_checked([[]], [0]) == []
    assert _solve_checked([[]], [1]) is None


def test_rejects_bad_input():
    with pytest.raises(ValueError, match="nonnegative"):
        solve_lp([0], [], [], [[1]], [F(-1, 2)])
    with pytest.raises(ValueError, match="one entry per variable"):
        solve_lp([0, 0], [], [], [[1]], [1])
    with pytest.raises(ValueError, match="c must be all zeros"):
        solve_lp([0, F(1, 2)], [], [], [[1, 1]], [1])
    with pytest.raises(ValueError, match="a_ub and b_ub must be empty"):
        solve_lp([0], [[1]], [1], [], [])
    # a row without a right-hand side, or a right-hand side without a row
    with pytest.raises(ValueError, match="zip"):
        solve_lp([0], [], [], [[1], [1]], [1])
    with pytest.raises(ValueError, match="zip"):
        solve_lp([0], [], [], [[1]], [1, 1])


def _random_word(rng, k):
    # vertex v's intervals are (v, 0) and (v, 1); each opens before it closes
    events = [((v, s), kind) for v in range(k) for s in (0, 1) for kind in (OPEN, CLOSE)]
    slots = rng.sample(range(len(events)), len(events))
    word = [None] * len(events)
    for i in range(0, len(events), 2):
        lo, hi = sorted(slots[i:i + 2])
        word[lo], word[hi] = events[i], events[i + 1]
    return word


def test_matches_the_two_phase_solver(monkeypatch):
    # 1,500 random equality systems, ints or Fractions, and the LPs of
    # 1,500 random balanced words on 1 to 7 vertices: the same x as the
    # two-phase solver, or None where it finds the system infeasible
    rng = random.Random(37)

    def entry(fraction):
        v = rng.randint(-4, 4)
        return F(v, rng.choice([1, 1, 2, 3])) if fraction else v

    systems = []
    for i in range(1500):
        n, m = rng.randint(1, 5), rng.randint(0, 4)
        a_eq = [[entry(i % 2) for _ in range(n)] for _ in range(m)]
        systems.append(([0] * n, [], [], a_eq, [abs(entry(i % 2)) for _ in a_eq]))
    real = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda *args: systems.append(args) or real(*args))
    for _ in range(1500):
        order_feasible(_random_word(rng, rng.randint(1, 7)))
    monkeypatch.undo()
    assert len(systems) == 3000
    feasible = [0, 0]  # random systems, word LPs
    for i, problem in enumerate(systems):
        status, x, _ = _two_phase(*problem)
        assert status != UNBOUNDED
        answer = solve_lp(*problem)
        assert answer == (x if status == OPTIMAL else None), problem
        if answer is not None:
            assert all(type(v) is F for v in answer) and _feasible(answer, *problem[3:])
            feasible[i >= 1500] += 1
    assert feasible == [718, 360]


def _gauss(rows, rhs):
    """The unique solution of a square rational system, or None."""
    k = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(k):
        piv = next((r for r in range(col, k) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(k):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[i][k] / m[i][i] for i in range(k)]


def _vertex_oracle(n, a_eq, b_eq):
    """The vertices of {x >= 0 : A_eq x = b_eq}: every choice of n tight
    planes (rows and x_j = 0) with one solution that is feasible.  The set
    holds no line (x >= 0), so it is empty iff it has no vertex."""
    unit = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    planes = list(zip(a_eq, b_eq)) + list(zip(unit, [F(0)] * n))
    vertices = []
    for tight in itertools.combinations(planes, n):
        x = _gauss([r for r, _ in tight], [b for _, b in tight])
        if x is not None and _feasible(x, a_eq, b_eq):
            vertices.append(x)
    return vertices


def test_random_systems_match_feasibility_oracle():
    # feasible iff a vertex exists, and the x returned is one
    rng = random.Random(11)

    def entry():
        return F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))

    seen = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        a_eq = [[entry() for _ in range(n)] for _ in range(rng.randint(1, 3))]
        b_eq = [abs(entry()) for _ in a_eq]
        x = _solve_checked(a_eq, b_eq)
        vertices = _vertex_oracle(n, a_eq, b_eq)
        assert x in vertices if vertices else x is None
        seen.add(x is None)
    assert seen == {True, False}
