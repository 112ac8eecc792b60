"""Exact rational simplex: known optima, feasibility, Gordan duality."""

import random
from fractions import Fraction

from logcharts import ratlp
from logcharts.cli import corpus_path, load_chart
from logcharts.monoid import MonoidSpec, faces, validate

import oracles


def test_known_lp_optimum():
    # min -x - y  s.t.  x + y + s = 4, x + 3y + t = 6, all vars >= 0
    status, x, value = ratlp.solve_standard_form(
        [-1, -1, 0, 0],
        [[1, 1, 1, 0], [1, 3, 0, 1]],
        [4, 6])
    assert status == ratlp.OPTIMAL
    assert value == Fraction(-4)
    assert x[0] + x[1] == 4


def test_infeasible():
    # x + y = -1 with x, y >= 0 (after sign normalization still infeasible:
    # -x - y = 1 has no nonnegative solution)
    status, _, _ = ratlp.solve_standard_form([0, 0], [[-1, -1]], [1])
    assert status == ratlp.INFEASIBLE


def test_unbounded():
    # min -x  s.t.  x - y = 0: x can grow along the ray x = y
    status, _, _ = ratlp.solve_standard_form([-1, 0], [[1, -1]], [0])
    assert status == ratlp.UNBOUNDED


def test_exactness_of_optimum():
    # optimum at a vertex with non-integer rational coordinates
    status, x, value = ratlp.solve_standard_form(
        [-1, 0], [[3, 1]], [1])
    assert status == ratlp.OPTIMAL
    assert x[0] == Fraction(1, 3) and value == Fraction(-1, 3)


def test_feasible_nonneg():
    assert ratlp.feasible_nonneg([[1, 1]], [2]) is not None
    assert ratlp.feasible_nonneg([[1, 1], [1, 1]], [2, 3]) is None


def test_strict_functional_geometry():
    # quadrant: any strictly positive functional
    u = ratlp.strict_functional(2, [], [(1, 0), (0, 1)])
    assert u is not None
    assert all(sum(ui * gi for ui, gi in zip(u, g)) > 0 for g in [(1, 0), (0, 1)])
    # whole line: none
    assert ratlp.strict_functional(1, [], [(1,), (-1,)]) is None
    # face {(1,0)} of the quadrant: vanish on it, positive on (0,1)
    u = ratlp.strict_functional(2, [(1, 0)], [(0, 1)])
    assert u is not None
    assert sum(ui * gi for ui, gi in zip(u, (1, 0))) == 0
    assert sum(ui * gi for ui, gi in zip(u, (0, 1))) > 0
    # no positive constraints: the zero functional
    assert ratlp.strict_functional(3, [(1, 1, 1)], []) == (0, 0, 0)


def test_gordan_duality_randomized():
    # exactly one holds: a strict functional, or a nonzero nonnegative
    # combination of the vectors summing to zero
    rng = random.Random(99)
    for _ in range(120):
        d = rng.randrange(1, 4)
        k = rng.randrange(1, 5)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
        if any(all(x == 0 for x in g) for g in gens):
            continue
        u = ratlp.strict_functional(d, [], gens)
        rows = [[Fraction(gens[j][i]) for j in range(k)] for i in range(d)]
        rows.append([Fraction(1)] * k)
        lam = ratlp.feasible_nonneg(rows, [Fraction(0)] * d + [Fraction(1)])
        assert (u is None) == (lam is not None)


def test_in_cone():
    gens = [(1, 0), (1, 2)]
    assert ratlp.in_cone(gens, (2, 2))
    assert ratlp.in_cone(gens, (0, 0))
    assert not ratlp.in_cone(gens, (0, 1))
    assert not ratlp.in_cone(gens, (-1, 0))
    assert ratlp.in_cone([], (0, 0))
    assert not ratlp.in_cone([], (1, 0))


def _random_rational(rng):
    if rng.random() < 0.6:
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-7, 7), rng.randint(1, 6))


def _record_pivots(monkeypatch, module):
    trail = []
    pivot = module._pivot

    def recording(*args):
        trail.append(args[-2:])  # (pivot row, pivot column)
        pivot(*args)

    monkeypatch.setattr(module, "_pivot", recording)
    return trail


def test_integer_simplex_matches_the_fraction_reference_on_random_lps(monkeypatch):
    # same answers and the same pivots, degenerate ties included
    integer_pivots = _record_pivots(monkeypatch, ratlp)
    reference_pivots = _record_pivots(monkeypatch, oracles)
    rng = random.Random(2024)
    seen = {"negative rhs": 0, "redundant row": 0, "degenerate": 0}
    statuses = {ratlp.OPTIMAL: 0, ratlp.INFEASIBLE: 0, ratlp.UNBOUNDED: 0}
    for _ in range(2500):
        m, n = rng.randint(0, 4), rng.randint(1, 6)
        rows = [[_random_rational(rng) for _ in range(n)] for _ in range(m)]
        rhs = [_random_rational(rng) for _ in range(m)]
        if m >= 2 and rng.random() < 0.25:
            scale = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
            rows[-1] = [scale * x for x in rows[0]]
            rhs[-1] = scale * rhs[0]
            seen["redundant row"] += 1
        if rng.random() < 0.3:
            rhs = [0] * m
            seen["degenerate"] += 1
        seen["negative rhs"] += any(x < 0 for x in rhs)
        c = [_random_rational(rng) for _ in range(n)]
        integer_pivots.clear()
        reference_pivots.clear()
        expected = oracles.solve_standard_form(c, rows, rhs)
        assert ratlp.solve_standard_form(c, rows, rhs) == expected, (c, rows, rhs)
        assert integer_pivots == reference_pivots, (c, rows, rhs)
        statuses[expected[0]] += 1
    assert min(seen.values()) > 100 and min(statuses.values()) > 100, (seen, statuses)


def test_integer_simplex_matches_the_fraction_reference_on_chart_lps(monkeypatch):
    charts = [load_chart(corpus_path(name)).spec
              for name in ("log_point", "affine_line", "plane_axes", "a1_cone")]
    charts.append(MonoidSpec.make(3, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]]))
    solve = ratlp.solve_standard_form
    issued = []

    def recording(c, a_rows, b):
        issued.append((list(c), [list(row) for row in a_rows], list(b)))
        return solve(c, a_rows, b)

    monkeypatch.setattr(ratlp, "solve_standard_form", recording)
    for spec in charts:
        faces(validate(spec))
    monkeypatch.undo()
    assert len(issued) > 100
    integer_pivots = _record_pivots(monkeypatch, ratlp)
    reference_pivots = _record_pivots(monkeypatch, oracles)
    for c, rows, rhs in issued:
        assert ratlp.solve_standard_form(c, rows, rhs) == oracles.solve_standard_form(c, rows, rhs)
        assert integer_pivots == reference_pivots
