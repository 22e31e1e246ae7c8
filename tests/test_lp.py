import itertools
import random
from fractions import Fraction as F

import pytest

from tik.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, _integer_row, solve_lp


def _feasible(x, a_ub, b_ub, a_eq, b_eq):
    def dot(row):
        return sum(a * v for a, v in zip(row, x))
    return (all(v >= 0 for v in x)
            and all(dot(row) <= b for row, b in zip(a_ub, b_ub))
            and all(dot(row) == b for row, b in zip(a_eq, b_eq)))


def _solve_checked(c, a_ub, b_ub, a_eq, b_eq):
    status, x, objective = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    if status == OPTIMAL:
        assert _feasible(x, a_ub, b_ub, a_eq, b_eq)
        assert sum(cj * v for cj, v in zip(c, x)) == objective
        assert all(isinstance(v, F) for v in x) and isinstance(objective, F)
    else:
        assert x is None and objective is None
    return status, x, objective


def test_optimal_vertex():
    # max x + y  s.t.  x + 2y <= 4,  3x + y <= 6
    out = _solve_checked([1, 1], [[1, 2], [3, 1]], [4, 6], [], [])
    assert out == (OPTIMAL, [F(8, 5), F(6, 5)], F(14, 5))


def test_infeasible():
    # x <= 1 and x = 2
    assert _solve_checked([1], [[1]], [1], [[1]], [2])[0] == INFEASIBLE


def test_unbounded():
    # max x  s.t.  x - y <= 1
    assert _solve_checked([1, 0], [[1, -1]], [1], [], [])[0] == UNBOUNDED


def test_degenerate_vertex_terminates():
    # Beale's example: the origin is a degenerate vertex (two rows tie at
    # ratio 0), and the largest-coefficient rule cycles there; Bland's
    # rule with the smallest-basis-index tie-break must leave it
    c = [F(3, 4), -20, F(1, 2), -6]
    a_ub = [[F(1, 4), -8, -1, 9], [F(1, 2), -12, F(-1, 2), 3], [0, 0, 1, 0]]
    out = _solve_checked(c, a_ub, [0, 0, 1], [], [])
    assert out == (OPTIMAL, [F(1), F(0), F(1), F(0)], F(5, 4))


def test_tie_break_picks_the_vertex():
    # the equality row starts the search at a degenerate vertex, and the
    # optimum is a whole edge: breaking ratio ties by the smallest basis
    # index returns (0, 1/2, 1/2); the largest would return (1/2, 1, 0)
    out = _solve_checked([0, 1, 1], [[0, 1, 1], [0, -1, 0]], [1, 1], [[2, -1, 1]], [0])
    assert out == (OPTIMAL, [F(0), F(1, 2), F(1, 2)], F(1))


def test_negative_drive_out_pivot():
    # only x = 0 is feasible, so phase 1 ends with the artificial still
    # basic; it is driven out on the negative entry -6 of the scaled row
    # -6x - y = 0, and the tableau is negated to keep d positive
    out = _solve_checked([0, F(-2, 3)], [], [], [[-2, F(-1, 3)]], [0])
    assert out == (OPTIMAL, [F(0), F(0)], F(0))


def test_rational_rows_are_scaled():
    # mixed denominators inside one row, in c and in the right-hand sides:
    # x = 2/7, then x/2 + y/3 <= 5/6 gives y <= 29/14
    c = [F(1, 3), F(1, 2)]
    out = _solve_checked(c, [[F(1, 2), F(1, 3)]], [F(5, 6)], [[1, 0]], [F(2, 7)])
    assert out == (OPTIMAL, [F(2, 7), F(29, 14)], F(95, 84))
    # phase 1 weighs each artificial by the inverse of its row's scale, so
    # among the optima it returns the vertex an unscaled tableau reaches
    c = [F(-1, 2), 0, 0]
    a_ub = [[F(-2, 3), -2, F(-1, 3)], [0, 2, F(1, 2)]]
    out = _solve_checked(c, a_ub, [1, 2], [], [])
    assert out == (OPTIMAL, [F(0), F(0), F(4)], F(0))


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
    # the same LPs written in ints and in integral Fractions: equal answers
    def as_fractions(values):
        return [as_fractions(v) if type(v) is list else F(v) for v in values]

    rng = random.Random(12)
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 4)
        a_eq = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        problem = ([rng.randint(-1, 1) for _ in range(n)],
                   [[int(i == j) for j in range(n)] for i in range(n)], [4] * n,
                   a_eq, [rng.randint(0, 3) for _ in a_eq])
        answer = solve_lp(*problem)
        assert solve_lp(*map(as_fractions, problem)) == answer
        seen.add(answer[0])
    assert seen == {OPTIMAL, INFEASIBLE}


def test_empty_constraint_blocks():
    # equalities only
    assert _solve_checked([-1, -1], [], [], [[1, 1]], [2])[::2] == (OPTIMAL, F(-2))
    # inequalities only
    assert _solve_checked([2, 1], [[1, 1]], [3], [], [])[::2] == (OPTIMAL, F(6))
    # no rows at all
    assert _solve_checked([-1, 0], [], [], [], []) == (OPTIMAL, [F(0), F(0)], F(0))
    assert _solve_checked([1], [], [], [], [])[0] == UNBOUNDED


def test_rejects_bad_input():
    with pytest.raises(ValueError, match="nonnegative"):
        solve_lp([1], [[1]], [-1], [], [])
    with pytest.raises(ValueError, match="nonnegative"):
        solve_lp([1], [], [], [[1]], [F(-1, 2)])
    with pytest.raises(ValueError, match="one entry per variable"):
        solve_lp([1, 1], [[1]], [1], [], [])


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


def _vertex_oracle(c, a_ub, b_ub, a_eq, b_eq):
    """Best c.x over the vertices of a bounded polyhedron: every choice of
    n tight constraints with one solution that is feasible; None when
    there is no vertex (the polyhedron, x >= 0 included, is empty)."""
    n = len(c)
    unit = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    planes = list(zip(a_eq, b_eq)) + list(zip(a_ub, b_ub)) + list(zip(unit, [F(0)] * n))
    best = None
    for tight in itertools.combinations(planes, n):
        x = _gauss([r for r, _ in tight], [b for _, b in tight])
        if x is not None and _feasible(x, a_ub, b_ub, a_eq, b_eq):
            value = sum(cj * v for cj, v in zip(c, x))
            best = value if best is None else max(best, value)
    return best


def test_random_boxed_lps_match_vertex_oracle():
    rng = random.Random(11)

    def entry():
        return F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))

    seen = set()
    for _ in range(150):
        n = rng.randint(1, 4)
        a_ub = [[F(int(i == j)) for j in range(n)] for i in range(n)]  # the box
        b_ub = [F(rng.randint(1, 5)) for _ in range(n)]
        for _ in range(rng.randint(0, 2)):
            a_ub.append([entry() for _ in range(n)])
            b_ub.append(abs(entry()))
        a_eq = [[entry() for _ in range(n)] for _ in range(rng.randint(0, min(2, n)))]
        b_eq = [abs(entry()) for _ in a_eq]
        c = [entry() for _ in range(n)]
        status, _, objective = _solve_checked(c, a_ub, b_ub, a_eq, b_eq)
        best = _vertex_oracle(c, a_ub, b_ub, a_eq, b_eq)
        if best is None:
            assert status == INFEASIBLE
        else:
            assert (status, objective) == (OPTIMAL, best)
        seen.add(status)
    assert seen == {OPTIMAL, INFEASIBLE}
