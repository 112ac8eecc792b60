"""Exact simplex on integer data: known optima, infeasibility with its
Farkas certificate, Gordan duality, and cone membership by phase one
alone."""

import collections
import math
import random
from fractions import Fraction

import pytest

from logcharts import ratlp
from logcharts.errors import FalsifiedProperty
from logcharts.cli import corpus_path, load_chart
from logcharts.monoid import (DEFAULT_DEGREE_BOUND, MonoidSpec, face_with_support, faces, stalk,
                              validate)

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
    # -x - y = 1 has no nonnegative solution; y = (-1,) certifies it:
    # y.A = (1, 1) >= 0 and y.b = -1 < 0
    assert ratlp.solve_standard_form([0, 0], [[-1, -1]], [1]) == (ratlp.INFEASIBLE, (-1,), None)


def test_an_infeasible_lp_carries_a_farkas_certificate():
    # seeded systems A x = b, x >= 0 made infeasible by construction: a
    # functional w is >= 0 on every column of A and negative on b.  The
    # answer is a certificate of the same kind, not necessarily w.
    rng = random.Random(1986)
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        w = [rng.randint(-3, 3) for _ in range(m)]
        if not any(w):
            continue
        columns = []
        for _ in range(n):
            column = [rng.randint(-4, 4) for _ in range(m)]
            columns.append(column if _dot(w, column) >= 0 else [-x for x in column])
        rhs = [rng.randint(-5, 5) for _ in range(m)]
        if _dot(w, rhs) == 0:
            rhs = [-x for x in w]
        elif _dot(w, rhs) > 0:
            rhs = [-x for x in rhs]
        rows = [list(row) for row in zip(*columns)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        status, y, value = ratlp.solve_standard_form(c, rows, rhs)
        assert status == ratlp.INFEASIBLE and value is None, (c, rows, rhs)
        _assert_farkas(rows, rhs, y)


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 0.5, 2.0, True])
def test_phase_one_refuses_entries_that_are_not_ints(monkeypatch, bad):
    # a Fraction, a float or a bool anywhere in the data raises ValueError
    # before the simplex runs, in every entry point
    def no_simplex(*args):
        raise AssertionError("the simplex ran on data that is not integer")

    monkeypatch.setattr(ratlp, "_run_simplex", no_simplex)
    for rows, rhs in (([[1, bad]], [1]), ([[1, 1]], [bad])):
        with pytest.raises(ValueError, match="integer"):
            ratlp._phase_one(rows, rhs, 2)
        with pytest.raises(ValueError, match="integer"):
            ratlp.solve_standard_form([0, 0], rows, rhs)
    with pytest.raises(ValueError, match="integer"):
        ratlp.solve_standard_form([bad, 0], [[1, 1]], [1])
    with pytest.raises(ValueError, match="integer"):
        ratlp.in_cone([(1, bad)], (1, 1))
    with pytest.raises(ValueError, match="integer"):
        ratlp.in_cone([(1, 1)], (1, bad))
    with pytest.raises(ValueError, match="integer"):
        ratlp.strict_functional(2, [], [(1, bad)])


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
    # x + y = 2 has a nonnegative solution; x + y = 2 and x + y = 3 have none
    assert ratlp.in_cone([(1,), (1,)], (2,)) == (True, None)
    inside, w = ratlp.in_cone([(1, 1), (1, 1)], (2, 3))
    assert not inside and w == (1, -1)


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
        # some lam >= 0 with sum lam = 1 and sum lam_j gen_j = 0
        lam, _ = ratlp.in_cone([g + (1,) for g in gens], (0,) * d + (1,))
        assert (u is None) == lam


def test_in_cone():
    # a point of the cone has no certificate; (2, -1) is >= 0 on both
    # generators and negative on (0, 1) and (-1, 0)
    gens = [(1, 0), (1, 2)]
    assert ratlp.in_cone(gens, (2, 2)) == (True, None)
    assert ratlp.in_cone(gens, (0, 0)) == (True, None)
    assert ratlp.in_cone(gens, (0, 1)) == (False, (2, -1))
    assert ratlp.in_cone(gens, (-1, 0)) == (False, (2, -1))
    assert ratlp.in_cone([], (0, 0)) == (True, None)
    assert ratlp.in_cone([], (1, 0)) == (False, (-1, -1))


def _random_entry(rng):
    return rng.randint(-4, 4) if rng.random() < 0.6 else rng.randint(-40, 40)


def _record_pivots(monkeypatch, module):
    trail = []
    pivot = module._pivot

    def recording(*args):
        trail.append(args[-2:])  # (pivot row, pivot column)
        pivot(*args)

    monkeypatch.setattr(module, "_pivot", recording)
    return trail


def _assert_farkas(a_rows, b, y):
    """y is a coprime integer certificate of infeasibility: y.A >= 0 on
    every column and y.b < 0."""
    assert all(type(x) is int for x in y) and math.gcd(*y) == 1, y
    assert all(_dot(y, column) >= 0 for column in zip(*a_rows)), (a_rows, y)
    assert _dot(y, b) < 0, (b, y)


def test_integer_simplex_matches_the_fraction_reference_on_random_lps(monkeypatch):
    # same answers and the same pivots, degenerate ties included, on
    # integer data; an infeasible answer carries a Farkas certificate,
    # where the reference answers None
    integer_pivots = _record_pivots(monkeypatch, ratlp)
    reference_pivots = _record_pivots(monkeypatch, oracles)
    rng = random.Random(2024)
    seen = {"negative rhs": 0, "redundant row": 0, "degenerate": 0}
    statuses = {ratlp.OPTIMAL: 0, ratlp.INFEASIBLE: 0, ratlp.UNBOUNDED: 0}
    for _ in range(2500):
        m, n = rng.randint(0, 4), rng.randint(1, 6)
        rows = [[_random_entry(rng) for _ in range(n)] for _ in range(m)]
        rhs = [_random_entry(rng) for _ in range(m)]
        if m >= 2 and rng.random() < 0.25:
            scale = rng.choice([-3, -1, 1, 2])
            rows[-1] = [scale * x for x in rows[0]]
            rhs[-1] = scale * rhs[0]
            seen["redundant row"] += 1
        if rng.random() < 0.3:
            rhs = [0] * m
            seen["degenerate"] += 1
        seen["negative rhs"] += any(x < 0 for x in rhs)
        c = [_random_entry(rng) for _ in range(n)]
        integer_pivots.clear()
        reference_pivots.clear()
        expected = oracles.solve_standard_form(c, rows, rhs)
        answer = ratlp.solve_standard_form(c, rows, rhs)
        if expected[0] == ratlp.INFEASIBLE:
            assert answer[0] == ratlp.INFEASIBLE and answer[2] is None, (c, rows, rhs)
            _assert_farkas(rows, rhs, answer[1])
        else:
            assert answer == expected, (c, rows, rhs)
        assert integer_pivots == reference_pivots, (c, rows, rhs)
        statuses[expected[0]] += 1
    assert min(seen.values()) > 100 and min(statuses.values()) > 100, (seen, statuses)


def _record_phase_ends(monkeypatch, trail):
    """The length of ``trail`` after each simplex run of the oracle."""
    ends = []
    run = oracles._run_simplex

    def recording(*args):
        status = run(*args)
        ends.append(len(trail))
        return status

    monkeypatch.setattr(oracles, "_run_simplex", recording)
    return ends


def _recorded_queries(monkeypatch, specs, degree_bound=DEFAULT_DEGREE_BOUND):
    """Every in_cone query that validate and faces make on the specs."""
    member = ratlp.in_cone
    queries = []

    def recording(generator_columns, point):
        queries.append((tuple(map(tuple, generator_columns)), tuple(point)))
        return member(generator_columns, point)

    monkeypatch.setattr(ratlp, "in_cone", recording)
    for spec in specs:
        faces(validate(spec, degree_bound))
    monkeypatch.setattr(ratlp, "in_cone", member)
    return queries


def _box_queries(monkeypatch, specs, degree_bound):
    """(generators, point) for every point that the one-LP-per-point scan
    of the oracle hands to in_cone_by_lp on the specs: each box point of
    degree <= bound that is not a monoid element.  The recording answers
    "outside", so the scan walks the whole box."""
    queries = []

    def recording(generator_columns, point):
        queries.append((generator_columns, point))
        return False

    with monkeypatch.context() as patch:
        patch.setattr(oracles, "in_cone_by_lp", recording)
        for spec in specs:
            oracles.saturation_scan_by_lp(*oracles.saturation_scan_inputs(spec, degree_bound))
    return queries


def _seeded_queries():
    """3,000 seeded (generators, point) queries: cones some of them empty,
    some not pointed, and points with negative and zero coordinates, some
    of them in the cone by construction."""
    rng = random.Random(20151026)
    queries = []
    seen = {"no generators": 0, "negative coordinate": 0, "zero coordinate": 0}
    for _ in range(3000):
        d, k = rng.randint(1, 4), rng.choice([0, *range(1, 8)])
        gens = [tuple(rng.randint(-3, 4) for _ in range(d)) for _ in range(k)]
        if gens and rng.random() < 0.3:
            lam = [rng.randint(0, 2) for _ in gens]
            point = tuple(sum(c * g[i] for c, g in zip(lam, gens)) for i in range(d))
        else:
            point = tuple(rng.choice([0, rng.randint(-3, 4)]) for _ in range(d))
        seen["no generators"] += not gens
        seen["negative coordinate"] += min(point) < 0
        seen["zero coordinate"] += 0 in point
        queries.append((gens, point))
    assert min(seen.values()) > 300, seen
    return queries


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _assert_certificate(generator_columns, point, w):
    """w is a coprime integer functional, >= 0 on every generator and
    negative on the point."""
    assert all(type(x) is int for x in w) and math.gcd(*w) == 1, w
    assert all(_dot(w, g) >= 0 for g in generator_columns), (generator_columns, w)
    assert _dot(w, point) < 0, (point, w)


def _checked_in_cone(monkeypatch):
    """in_cone, checked against the LP oracle: the same answer, and the
    pivots of the oracle's phase one, which ends with its first simplex
    run (none when it answers without an LP).  An "outside" answer must
    carry a Farkas certificate, an "inside" answer none."""
    integer_pivots = _record_pivots(monkeypatch, ratlp)
    reference_pivots = _record_pivots(monkeypatch, oracles)
    ends = _record_phase_ends(monkeypatch, reference_pivots)

    def check(generator_columns, point):
        for trail in (integer_pivots, reference_pivots, ends):
            trail.clear()
        inside, w = ratlp.in_cone(generator_columns, point)
        assert inside == oracles.in_cone_by_lp(generator_columns, point), (
            generator_columns, point)
        assert integer_pivots == reference_pivots[:ends[0] if ends else 0], (
            generator_columns, point)
        if inside:
            assert w is None
        else:
            _assert_certificate(generator_columns, point, w)
        return inside

    return check


def test_integer_simplex_matches_the_fraction_reference_on_chart_lps(monkeypatch):
    charts = [load_chart(corpus_path(name)).spec
              for name in ("log_point", "affine_line", "plane_axes", "a1_cone")]
    square = MonoidSpec.make(3, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]])
    # the corpus charts and the square cone have positive coordinate sums,
    # so validate solves no LP on them; the square cone's stalk at the ray
    # of generator 3, with generators (-1, -1), (0, -1), (-1, 0), and the
    # fallback chart take their gradings from strict_functional's simplex
    cone = validate(square)
    square_stalk, _ = stalk(cone, face_with_support(cone, (3,)))
    charts += [square, square_stalk.spec,
               MonoidSpec.make(3, [[-3, 1, 1], [3, 3, -2], [2, 2, 3], [1, 0, 3]])]
    solve = ratlp.solve_standard_form
    issued = []

    def recording(c, a_rows, b):
        issued.append((list(c), [list(row) for row in a_rows], list(b)))
        return solve(c, a_rows, b)

    monkeypatch.setattr(ratlp, "solve_standard_form", recording)
    queries = _recorded_queries(monkeypatch, charts)
    monkeypatch.undo()
    # the LPs the corpus runs: solves for sharpness, and cone membership for
    # saturation, a few per chart since the scan keeps its certificates;
    # the box points stand in for the LP per point the scan ran before
    assert len(issued) == 2 and queries and len(issued) + len(queries) < 20
    queries += _box_queries(monkeypatch, charts, DEFAULT_DEGREE_BOUND)
    assert len(queries) > 100
    integer_pivots = _record_pivots(monkeypatch, ratlp)
    reference_pivots = _record_pivots(monkeypatch, oracles)
    for c, rows, rhs in issued:
        assert ratlp.solve_standard_form(c, rows, rhs) == oracles.solve_standard_form(c, rows, rhs)
        assert integer_pivots == reference_pivots
    monkeypatch.undo()
    check = _checked_in_cone(monkeypatch)
    for generator_columns, point in queries:
        check(generator_columns, point)


def _hand_cones():
    """The square cone, and the cube and the Hilbert cones a = 1..4 with
    their quadrics as relations, because relations synthesized from the
    kernel stop the cube and a = 3, 4 before the saturation check."""
    square = [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]]
    cube = [[1, x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    hilbert = [[[1, i] for i in range(a + 1)] for a in (1, 2, 3, 4)]
    quadrics = oracles.quadric_relations
    specs = [MonoidSpec.make(3, square), MonoidSpec.make(4, cube, quadrics(cube))]
    return specs + [MonoidSpec.make(2, gens, quadrics(gens)) for gens in hilbert]


def test_in_cone_matches_the_lp_oracle(monkeypatch):
    # the box points of the square, cube and Hilbert cones at degree bound
    # 20, which the saturation scan ran one LP each on before it kept its
    # certificates, and the seeded queries
    queries = _box_queries(monkeypatch, _hand_cones(), 20)
    assert len(queries) > 6000
    queries += _seeded_queries()
    check = _checked_in_cone(monkeypatch)
    answers = collections.Counter(check(gens, point) for gens, point in queries)
    assert min(answers[True], answers[False]) > 300, answers


def test_validate_runs_a_few_lps_per_cone(monkeypatch):
    # the scan keeps the certificate of each "outside" answer: 3 LPs on
    # the square cone, 4 on the cube and at most 1 on each Hilbert cone,
    # where one LP per box point ran 699 on the square cone
    for spec in _hand_cones():
        for bound in (20, 40) if spec.ambient_rank < 4 else (20,):
            queries = _recorded_queries(monkeypatch, [spec], bound)
            assert len(queries) <= 8, (spec.generators, bound, len(queries))


def test_a_misread_objective_row_raises(monkeypatch):
    # seeded mutation: after the simplex, one reduced cost of an artificial
    # column is shifted by a multiple of the row's denominator, so one dual
    # value is misread; in_cone checks the certificate and refuses it
    rng = random.Random(7)
    run = ratlp._run_simplex

    def misread(tab, dens, basis, ncols):
        status = run(tab, dens, basis, ncols)
        m = len(tab) - 1
        if m:
            tab[m][ncols - m + rng.randrange(m)] += rng.choice((-3, -2, -1, 1, 2, 3)) * dens[m]
        return status

    outside = raised = 0
    for gens, point in _seeded_queries():
        inside, _ = ratlp.in_cone(gens, point)
        if inside:
            continue
        outside += 1
        with monkeypatch.context() as patch:
            patch.setattr(ratlp, "_run_simplex", misread)
            try:
                _, w = ratlp.in_cone(gens, point)
            except FalsifiedProperty as err:
                assert "does not separate" in str(err)
                raised += 1
            else:
                _assert_certificate(gens, point, w)  # the shift left w valid
    assert raised > outside // 2, (raised, outside)
