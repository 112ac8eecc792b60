"""Fiber models read off the stalk, Kummer fibers, the deck-action torsor
law, and the fiberwise profinite comparison."""

import cmath
import random
from fractions import Fraction

import pytest

import logcharts.fibers as fibers_mod
from logcharts.abgrp import FgAbelianGroup, rank, tensor_mod
from logcharts.errors import ChartError, FalsifiedProperty, InvalidPoint, NotOnVariety
from logcharts.exactnum import GaussianRational, NonnegRoot
from logcharts.fibers import (algebraic_kummer_fiber, kn_kummer_fiber,
                              torsor_check, verify_fiber_equivalence)
from logcharts.monoid import (MonoidSpec, face_with_support, faces, mu, stalk,
                              validate)
from logcharts.profin import (FiniteAbelianProSystem, completion, equivalent_up_to,
                              mu_tower)
from logcharts.semialg import (CxPoint, KnPoint, Target, check_membership,
                               emit_equations, sample_kn_stratum, tau)
from oracles import (kn_kummer_fiber_by_fractions, root_choices_by_scan,
                     torsor_report_by_fractions)


def n_monoid():
    return validate(MonoidSpec.make(1, [[1]]))


def quadrant():
    return validate(MonoidSpec.make(2, [[1, 0], [0, 1]]))


def a1_cone():
    return validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                    [[[1, 0, 1], [0, 2, 0]]]))


def matrix_mod(matrix, n):
    return tuple(tuple(x % n for x in row) for row in matrix)


def test_kn_fiber_ranks():
    # the torus fiber over a stratum has the stalk rank
    m = n_monoid()
    assert stalk(m, face_with_support(m, []))[1] == 1
    assert stalk(m, face_with_support(m, [0]))[1] == 0
    q = quadrant()
    assert stalk(q, face_with_support(q, []))[1] == 2
    assert stalk(q, face_with_support(q, [0]))[1] == 1


def test_root_fiber_tower_levels():
    # level n of the root fiber tower is mu_n of the stalk
    m = n_monoid()
    tower = mu_tower(stalk(m, face_with_support(m, []))[0])
    for n in (1, 3, 8):
        assert tower.level(n) == FgAbelianGroup.cyclic(n)
    q = quadrant()
    edge, _ = stalk(q, face_with_support(q, [0]))
    assert mu_tower(edge).level(5) == mu(edge, 5) == FgAbelianGroup.cyclic(5)
    dense, _ = stalk(q, face_with_support(q, [0, 1]))
    assert mu_tower(dense).level(7) == mu(dense, 7) == FgAbelianGroup.trivial()


def test_comparison_on_pi1():
    m = n_monoid()
    vertex = face_with_support(m, [])
    _, cert = verify_fiber_equivalence(m, vertex, 5)
    assert cert.comparison_matrix == ((1,),)
    level5 = mu(stalk(m, vertex)[0], 5)
    assert level5 == FgAbelianGroup.cyclic(5)
    # the identity read mod n carries the truncated source onto the target
    assert matrix_mod(cert.comparison_matrix, 5) == ((1,),)
    assert tensor_mod(FgAbelianGroup.free(1), 5) == level5
    # n = 1: the zero map to the trivial group
    assert mu(stalk(m, vertex)[0], 1) == FgAbelianGroup.trivial()
    assert matrix_mod(cert.comparison_matrix, 1) == ((0,),)
    q = quadrant()
    q_vertex = face_with_support(q, [])
    _, q_cert = verify_fiber_equivalence(q, q_vertex, 2)
    level2 = mu(stalk(q, q_vertex)[0], 2)
    assert level2 == FgAbelianGroup(0, (2, 2))
    assert matrix_mod(q_cert.comparison_matrix, 2) == ((1, 0), (0, 1))
    assert tensor_mod(FgAbelianGroup.free(2), 2) == level2


def test_comparison_commutes_with_transitions():
    # reducing mod m then mod n (n | m) equals reducing mod n
    m = a1_cone()
    _, cert = verify_fiber_equivalence(m, face_with_support(m, []), 19)
    for big in range(1, 20):
        reduced_big = matrix_mod(cert.comparison_matrix, big)
        for n in (d for d in range(1, big + 1) if big % d == 0):
            reduced = tuple(tuple(x % n for x in row) for row in reduced_big)
            assert reduced == matrix_mod(cert.comparison_matrix, n)


def test_verify_fiber_equivalence_log_point():
    m = n_monoid()
    ok, cert = verify_fiber_equivalence(m, face_with_support(m, []), 100)
    assert ok and cert.torus_rank == 1 and cert.maps_realize_levels
    for record in cert.level_certificate.levels:
        assert record.factors_a == record.factors_b == (record.n,) or record.n == 1


def test_verify_fiber_equivalence_dense_face_trivial():
    m = quadrant()
    ok, cert = verify_fiber_equivalence(m, face_with_support(m, [0, 1]), 25)
    assert ok and cert.torus_rank == 0


def test_verify_fiber_equivalence_a1_vertex():
    m = a1_cone()
    ok, cert = verify_fiber_equivalence(m, face_with_support(m, []), 60)
    assert ok and cert.torus_rank == 2


def test_verify_fiber_equivalence_monotone_in_bound():
    m = quadrant()
    vertex = face_with_support(m, [])
    ok60, _ = verify_fiber_equivalence(m, vertex, 60)
    assert ok60
    for smaller in (1, 7, 30):
        ok, _ = verify_fiber_equivalence(m, vertex, smaller)
        assert ok


def test_fiber_comparison_computes_the_stalk_once(monkeypatch):
    calls = []
    real_stalk = fibers_mod.stalk

    def counting_stalk(m, f):
        calls.append(f.support)
        return real_stalk(m, f)

    monkeypatch.setattr(fibers_mod, "stalk", counting_stalk)
    m = a1_cone()
    vertex = face_with_support(m, [])
    ok, _ = verify_fiber_equivalence(m, vertex, 100)
    assert ok and calls == [()]


def test_fiber_comparison_walks_the_coherence_pairs_once(monkeypatch):
    # the covering pairs up to 100 are 271, and the stalk's tower, whose
    # levels the level table has shown equal, is not walked a second time
    calls = []
    real_transition = FiniteAbelianProSystem.transition_consistent

    def counting_transition(self, m, n):
        calls.append((m, n))
        return real_transition(self, m, n)

    monkeypatch.setattr(FiniteAbelianProSystem, "transition_consistent",
                        counting_transition)
    m = a1_cone()
    ok, _ = verify_fiber_equivalence(m, face_with_support(m, []), 100)
    assert ok and len(calls) == 271


def test_kn_kummer_fiber_log_point():
    m = n_monoid()
    p = KnPoint.exact_point([(2, Fraction(1, 3))])
    fiber = kn_kummer_fiber(m, p, 3)
    assert len(fiber) == 3
    turns = sorted(pt.angle(0) for pt in fiber)
    assert turns == [Fraction(1, 9), Fraction(4, 9), Fraction(7, 9)]
    assert len(kn_kummer_fiber(m, p, 1)) == 1


def test_kn_kummer_fiber_quadrant_units():
    m = quadrant()
    p = KnPoint.exact_point([(1, 0), (1, 0)])
    fiber = kn_kummer_fiber(m, p, 2)
    assert len(fiber) == 4
    pairs = sorted((pt.angle(0), pt.angle(1)) for pt in fiber)
    assert pairs == [(0, 0), (0, Fraction(1, 2)),
                     (Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 2))]


def test_kn_fiber_cardinality_is_stratum_independent():
    m = a1_cone()
    for f in faces(m):
        p = sample_kn_stratum(m, f, 1, seed=8)[0]
        for n in (1, 2, 3, 4):
            assert len(kn_kummer_fiber(m, p, n)) == n ** m.gp_lattice_rank


def test_kn_fiber_points_satisfy_extended_system():
    m = a1_cone()
    # (1/n)P is presented by the same generators as P, so the cover's
    # points satisfy the chart's own system
    system = emit_equations(m, Target.KN_POINTS)
    p = sample_kn_stratum(m, face_with_support(m, []), 1, seed=2)[0]
    for q in kn_kummer_fiber(m, p, 2):
        ok, res = check_membership(system, q)
        assert ok and res == 0.0


def test_kn_fiber_points_satisfy_extended_system_floating():
    m = a1_cone()
    system = emit_equations(m, Target.KN_POINTS)
    import cmath
    p = KnPoint.floating([(1.0, cmath.exp(0.3j)), (2.0, cmath.exp(0.65j)),
                          (4.0, cmath.exp(1.0j))])
    fiber = kn_kummer_fiber(m, p, 3)
    assert len(fiber) == 9
    for q in fiber:
        ok, res = check_membership(system, q, 1e-9)
        assert ok and res <= 1e-9


def test_a_loose_tolerance_is_the_only_angle_tolerance():
    # The turn sum misses z0 z2 = z1^2 by 1.6e-6 turns: accepted at 1e-3,
    # where every fiber point misses it by half that, refused at 1e-9.
    m = a1_cone()
    system = emit_equations(m, Target.KN_POINTS)
    p = KnPoint.floating([(1, 1), (1, 1), (1, complex(1, 1e-5))])
    fiber = kn_kummer_fiber(m, p, 2, 1e-3)
    assert len(fiber) == 4
    assert all(check_membership(system, q, 1e-3)[0] for q in fiber)
    with pytest.raises(InvalidPoint, match="violates the relations"):
        kn_kummer_fiber(m, p, 2)


def test_kn_kummer_fiber_rejects_invalid_point():
    m = a1_cone()
    bad = KnPoint.exact_point([(1, 0), (1, Fraction(1, 3)), (1, 0)])
    with pytest.raises(InvalidPoint):
        kn_kummer_fiber(m, bad, 2)


def test_algebraic_fiber_over_vertex_is_single_point():
    m = n_monoid()
    origin = CxPoint.exact_point([0])
    for n in range(1, 9):
        fiber = algebraic_kummer_fiber(m, origin, n)
        assert len(fiber) == 1 and fiber[0].values[0].is_zero()


def test_algebraic_fiber_roots_of_unity():
    m = n_monoid()
    fiber = algebraic_kummer_fiber(m, CxPoint.exact_point([1]), 4)
    assert len(fiber) == 4 and all(q.exact for q in fiber)
    values = sorted((v.re, v.im) for q in fiber for v in q.values)
    assert values == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_algebraic_fiber_on_edge_stratum():
    m = quadrant()
    fiber = algebraic_kummer_fiber(m, CxPoint.exact_point([1, 0]), 2)
    assert len(fiber) == 2
    for q in fiber:
        assert q.values[1].is_zero() if q.exact else abs(q.values[1]) == 0


def test_small_complex_values_are_refused_on_their_angles():
    # z0 z2 = z1^2 holds here to a relative 2e-10, within 1e-9, but the turn
    # sum 0 - 2/4 + 0 misses a whole turn by half a turn: rounding it gave
    # four roots of size 1e-5 and 1e-5 i, 1.4e-5 apart on the relation
    m = a1_cone()
    system = emit_equations(m, Target.COMPLEX_POINTS)
    p = CxPoint.floating([1e-5, 1e-5j, 1e-5])
    assert check_membership(system, p, 1e-9)[0]
    with pytest.raises(NotOnVariety):
        algebraic_kummer_fiber(m, p, 2, 1e-9)
    fiber = algebraic_kummer_fiber(m, CxPoint.floating([1e-5, 1e-5, 1e-5]), 2, 1e-9)
    assert len(fiber) == 4 and all(check_membership(system, q, 1e-9)[0] for q in fiber)


def test_ramification_contrast():
    # the circle factors trivialize ramification: the log-model fiber has
    # n points over the vertex where the complex model has one
    m = n_monoid()
    origin = CxPoint.exact_point([0])
    kn_origin = KnPoint.exact_point([(0, Fraction(1, 5))])
    for n in range(1, 9):
        assert len(algebraic_kummer_fiber(m, origin, n)) == 1
        assert len(kn_kummer_fiber(m, kn_origin, n)) == n


def test_projection_of_kn_fiber_is_algebraic_fiber_on_dense_stratum():
    m = a1_cone()
    dense = face_with_support(m, [0, 1, 2])
    point = sample_kn_stratum(m, dense, 1, seed=9)[0]
    kn_images = {
        tuple((round(v.real, 9), round(v.imag, 9)) for v in tau(q).to_complex())
        for q in kn_kummer_fiber(m, point, 2)}
    algebraic = {
        tuple((round(v.real, 9), round(v.imag, 9)) for v in q.to_complex())
        for q in algebraic_kummer_fiber(m, tau(point), 2)}
    assert kn_images == algebraic


def test_torsor_check_log_point():
    m = n_monoid()
    p = KnPoint.exact_point([(2, Fraction(1, 3))])
    ok, report = torsor_check(m, p, 6)
    assert ok and report.group_order == 6 and report.fiber_size == 6
    ok, report = torsor_check(m, p, 1)
    assert ok and report.group_order == 1


def test_torsor_check_a1_cone():
    m = a1_cone()
    p = sample_kn_stratum(m, face_with_support(m, [0, 1, 2]), 1, seed=42)[0]
    ok, report = torsor_check(m, p, 2)
    assert ok and report.group_order == 4
    assert sorted(report.orbit_table) == list(range(4))


def test_torsor_check_floating_point_mode():
    m = n_monoid()
    import cmath
    p = KnPoint.floating([(2.0, cmath.exp(1.1j))])
    ok, report = torsor_check(m, p, 4)
    assert ok and report.group_order == 4


def test_fiber_cardinality_mismatch_is_hard_error():
    # an incomplete relation set (index-2 sublattice of the kernel) breaks
    # the count at even levels and must raise, not warn
    spec = MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                           [[[2, 0, 2], [0, 4, 0]]])
    m = validate(spec)
    p = KnPoint.exact_point([(1, 0), (1, 0), (1, 0)])
    with pytest.raises(FalsifiedProperty):
        kn_kummer_fiber(m, p, 2)


def _span_mod(generators, n, k):
    """The subgroup of (Z/n)^k generated by the given tuples."""
    span, frontier = {(0,) * k}, [(0,) * k]
    while frontier:
        u = frontier.pop()
        for g in generators:
            w = tuple((a + b) % n for a, b in zip(u, g))
            if w not in span:
                span.add(w)
                frontier.append(w)
    return span


def test_root_choices_match_the_scan_oracle():
    rng = random.Random(20261017)
    kinds = set()
    for _ in range(500):
        k, n = rng.randint(1, 4), rng.randint(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(0, 4))]
        if rows and rng.random() < 0.3:
            rows[0] = [2 * x for x in rows[0]]  # an index-2 sublattice
        offsets = [rng.randint(-9, 9) if rng.random() < 0.5 else 0 for _ in rows]
        solutions, generators = fibers_mod._root_choices(rows, offsets, n, k)
        assert solutions == root_choices_by_scan(rows, offsets, n, k), (rows, offsets, n)
        homogeneous = root_choices_by_scan(rows, [0] * len(rows), n, k)
        assert len(generators) <= k
        assert _span_mod(generators, n, k) == set(homogeneous), (rows, n)
        free_count = n ** (k - rank(rows, k))
        kinds.add("unsolvable" if not solutions
                  else "complete" if len(solutions) == free_count else "incomplete")
    assert kinds == {"unsolvable", "complete", "incomplete"}


def test_torsor_check_acts_once_per_group_element_and_generator(monkeypatch):
    calls = []
    real_act = fibers_mod._act

    def counting_act(c, u, n):
        calls.append(u)
        return real_act(c, u, n)

    monkeypatch.setattr(fibers_mod, "_act", counting_act)
    m = a1_cone()
    p = sample_kn_stratum(m, face_with_support(m, [0, 1, 2]), 1, seed=42)[0]
    ok, report = torsor_check(m, p, 6)
    assert ok and report.group_order == 36
    assert sorted(report.orbit_table) == list(range(36))
    assert 36 <= len(calls) <= 3 * 36


def test_torsor_flags_are_decided_by_the_action(monkeypatch):
    real_act = fibers_mod._act
    m = a1_cone()
    p = sample_kn_stratum(m, face_with_support(m, [0, 1, 2]), 1, seed=42)[0]
    # An action that fixes every point is neither free nor transitive.
    monkeypatch.setattr(fibers_mod, "_act", lambda c, u, n: c)
    ok, report = torsor_check(m, p, 3)
    assert not ok and report.preserves_fiber
    assert not report.free and not report.transitive
    # An action by half-steps leaves the fiber.
    monkeypatch.setattr(fibers_mod, "_act", lambda c, u, n: tuple(
        (a + Fraction(sum(u), 2)) % n for a in c))
    ok, report = torsor_check(m, p, 3)
    assert not ok and not report.preserves_fiber
    # An action that is right at the base point only leaves the fiber in
    # the generator sweep, while the orbit map stays onto and injective.
    acted_on = []

    def right_at_base_only(c, u, n):
        acted_on.append(c)
        moved = real_act(c, u, n)
        return moved if c == acted_on[0] else tuple(a + Fraction(1, 2) for a in moved)

    monkeypatch.setattr(fibers_mod, "_act", right_at_base_only)
    ok, report = torsor_check(m, p, 3)
    assert report.free and report.transitive and not report.preserves_fiber


# The torsor workload's charts and cover degrees per group rank.
TORSOR_CHARTS = {
    "log_point": (1, [[1]], None),
    "plane_axes": (2, [[1, 0], [0, 1]], None),
    "a1_cone": (2, [[1, 0], [1, 1], [1, 2]], [[[1, 0, 1], [0, 2, 0]]]),
    "square_cone": (3, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]],
                    [[[1, 0, 0, 1], [0, 1, 1, 0]]]),
    "n3": (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], None),
}
DEGREES = {1: range(2, 17), 2: range(2, 7), 3: range(2, 5)}


def _homomorphism_point(m, support, rng, denominators):
    """An exact log point on the stratum of ``support``: per ambient
    coordinate a rational radius factor and a turn with the given
    denominator, pushed through the generator exponents."""
    rho = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(m.ambient_rank)]
    theta = [Fraction(rng.randrange(q), q) for q in denominators]
    pairs = []
    for i, gen in enumerate(m.generators):
        radius = Fraction(int(i in support))
        for r, e in zip(rho, gen):
            radius *= r ** e
        pairs.append((radius, sum(e * t for e, t in zip(gen, theta))))
    return KnPoint.exact_point(pairs)


def test_exact_fibers_and_torsor_reports_match_the_fraction_oracle():
    rng = random.Random(20261018)
    mixed = 0
    for ambient, gens, rels in TORSOR_CHARTS.values():
        m = validate(MonoidSpec.make(ambient, gens, rels))
        for face in faces(m):
            for n in DEGREES[m.gp_lattice_rank]:
                q = rng.choice((1, 2, 3, 4, 6, 8))
                for denominators in ([q] * ambient,
                                     [rng.choice((1, 2, 3, 5, 7, 12)) for _ in range(ambient)]):
                    p = _homomorphism_point(m, face.support, rng, denominators)
                    mixed += len({a.denominator for _, a in p.values}) > 1
                    fiber = kn_kummer_fiber(m, p, n)
                    assert fiber == kn_kummer_fiber_by_fractions(m, p, n), (p, n)
                    ok, report = torsor_check(m, p, n)
                    assert ok and report == torsor_report_by_fractions(m, p, n), (p, n)
    assert mixed > 50


def test_exact_algebraic_fibers_match_the_floating_path_point_by_point():
    rng = random.Random(20261019)
    units = [GaussianRational(1), GaussianRational(0, 1), GaussianRational(-1),
             GaussianRational(0, -1)]
    exact_count = 0
    for ambient, gens, rels in TORSOR_CHARTS.values():
        m = validate(MonoidSpec.make(ambient, gens, rels))
        for face in faces(m):
            for n in DEGREES[m.gp_lattice_rank]:
                # Quarter-turn units times perfect n-th powers: the roots are
                # Gaussian rational whenever their turns are quarter turns,
                # as for every point at n = 2 with real units.
                params = [rng.choice(units[::2] if n == 2 else units)
                          * GaussianRational(rng.choice((1, 2)) ** n) for _ in range(ambient)]
                values = []
                for i, gen in enumerate(m.generators):
                    z = GaussianRational(int(i in face.support))
                    for t, e in zip(params, gen):
                        z = z * t ** e
                    values.append(z)
                exact = algebraic_kummer_fiber(m, CxPoint.exact_point(values), n)
                floating = algebraic_kummer_fiber(
                    m, CxPoint.floating([z.to_complex() for z in values]), n)
                assert len(exact) == len(floating)
                exact_count += sum(pt.exact for pt in exact)
                for a, b in zip(exact, floating):
                    assert all(abs(x - y) <= 1e-9 * max(1.0, abs(y))
                               for x, y in zip(a.to_complex(), b.values)), (values, n)
    assert exact_count > 100


def test_root_indices_refuse_points_off_the_radii_or_the_grid():
    r = NonnegRoot.of(2)
    base = KnPoint(((r, Fraction(11, 12)),), True)

    def lift(radius, turn):
        return fibers_mod._root_indices(KnPoint(((radius, turn),), True), base, 2, 1e-7)

    assert lift(r, Fraction(5, 12)) == (1,)
    assert lift(r, Fraction(1, 48)) is None
    assert lift(r, Fraction(1, 5)) is None
    assert lift(NonnegRoot.of(3), Fraction(5, 12)) is None
    # Floating points lift within the tolerance.
    base = KnPoint.floating([(2.0, cmath.exp(2j * cmath.pi * 11 / 12))])
    for turn, lifted in ((5 / 12, (1,)), (5 / 12 + 1e-9, (1,)), (5 / 12 + 1e-3, None)):
        point = KnPoint.floating([(2.0, cmath.exp(2j * cmath.pi * turn))])
        assert fibers_mod._root_indices(point, base, 2, 1e-7) == lifted, turn


def _move_last_point(fiber, r0, shift):
    """The fiber with its last point's first radius set to r0 (unless
    None) and its first angle turned by ``shift`` turns."""
    (r, a), *rest = fiber[-1].values
    if r0 is not None:
        r = NonnegRoot.of(r0) if fiber[-1].exact else r0
    return fiber[:-1] + [KnPoint(((r, (a + shift) % 1), *rest), fiber[-1].exact)]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "floating"])
@pytest.mark.parametrize("r0, shift", [(7, 0), (None, Fraction(1, 1000))],
                         ids=["radius", "angle"])
def test_torsor_check_never_locates_a_point_off_the_radii_or_the_grid(monkeypatch, exact,
                                                                      r0, shift):
    m = a1_cone()
    p = sample_kn_stratum(m, face_with_support(m, [0, 1, 2]), 1, seed=42)[0]
    if not exact:
        p = KnPoint.floating([(float(r), cmath.exp(2j * cmath.pi * float(a)))
                              for r, a in p.values])
    real_fiber = fibers_mod.kn_kummer_fiber
    monkeypatch.setattr(fibers_mod, "kn_kummer_fiber", lambda m, p, n, tol: _move_last_point(
        real_fiber(m, p, n, tol), r0, shift))
    ok, report = torsor_check(m, p, 3)
    assert not ok and not report.transitive and not report.preserves_fiber
    assert report.orbit_table[-1] == -1


def test_torsor_check_floating_log_point_at_degree_64():
    m = n_monoid()
    turn = Fraction(5, 7)
    ok, floating = torsor_check(
        m, KnPoint.floating([(2.0, cmath.exp(2j * cmath.pi * float(turn)))]), 64)
    assert ok and floating.group_order == floating.fiber_size == 64
    _, exact = torsor_check(m, KnPoint.exact_point([(2, turn)]), 64)
    assert floating.orbit_table == exact.orbit_table


def test_fiber_size_cap_refuses_before_enumerating():
    m = a1_cone()
    dense = face_with_support(m, [0, 1, 2])
    p = sample_kn_stratum(m, dense, 1, seed=42)[0]
    for build in (lambda: kn_kummer_fiber(m, p, 1000),
                  lambda: torsor_check(m, p, 1000),
                  lambda: algebraic_kummer_fiber(m, tau(p), 1000)):
        with pytest.raises(ChartError, match="enumeration cap"):
            build()
    # Over the vertex the complex fiber is one point at any degree.
    origin = CxPoint.exact_point([0, 0, 0])
    assert len(algebraic_kummer_fiber(m, origin, 10 ** 6)) == 1


_A1_POINT = KnPoint.exact_point([(1, 0), (1, 0), (1, 0)])
_LEVEL_CALLS = {
    "tensor_mod": lambda v: tensor_mod(FgAbelianGroup.free(1), v),
    "mu": lambda v: mu(a1_cone(), v),
    "kn_kummer_fiber": lambda v: kn_kummer_fiber(a1_cone(), _A1_POINT, v),
    "algebraic_kummer_fiber": lambda v: algebraic_kummer_fiber(a1_cone(), tau(_A1_POINT), v),
    "torsor_check": lambda v: torsor_check(a1_cone(), _A1_POINT, v),
    "equivalent_up_to": lambda v: equivalent_up_to(completion(FgAbelianGroup.free(1)),
                                                   mu_tower(n_monoid()), v),
    "check_coherence": lambda v: completion(FgAbelianGroup.free(1)).check_coherence(v),
    "verify_fiber_equivalence": lambda v: verify_fiber_equivalence(
        a1_cone(), face_with_support(a1_cone(), []), v),
}


@pytest.mark.parametrize("value", [2.5, 3.9, 3.7, 2.0, Fraction(2), True, "2", 0, -3])
@pytest.mark.parametrize("name", sorted(_LEVEL_CALLS))
def test_levels_cover_degrees_and_bounds_must_be_positive_ints(name, value):
    # a float, a Fraction or a bool is refused, not truncated: a level of
    # 2.5 used to give Z/2, and True the trivial group
    with pytest.raises(ValueError, match="is not a positive integer"):
        _LEVEL_CALLS[name](value)
    _LEVEL_CALLS[name](2)
