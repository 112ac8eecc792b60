"""Fiber models read off the stalk, Kummer fibers, the deck-action torsor
law, and the fiberwise profinite comparison."""

import cmath
import collections
import itertools
import math
import operator
import os
import random
import time
from fractions import Fraction

import pytest

import logcharts.fibers as fibers_mod
import logcharts.abgrp as abgrp
import logcharts.exactnum as exactnum
import logcharts.semialg as semialg
from logcharts.abgrp import FgAbelianGroup, rank, smith_normal_form, tensor_mod
from logcharts.cli import corpus_path, load_chart
from logcharts.errors import (ArityMismatch, ChartError, FalsifiedProperty, InvalidLevel,
                              InvalidPoint, NotAFace, NotOnVariety)
from logcharts.exactnum import GaussianRational, NonnegRoot
from logcharts.fibers import (algebraic_kummer_fiber, kn_kummer_fiber,
                              torsor_check, verify_fiber_equivalence)
from logcharts.monoid import (MonoidSpec, face_with_support, faces, mu, stalk,
                              validate)
from logcharts.profin import (FiniteAbelianProSystem, completion, equivalent_up_to,
                              mu_tower)
from logcharts.semialg import CxPoint, KnPoint, check_membership, tau
from logcharts.strata import stratum_of_point
from oracles import (kn_kummer_fiber_by_fractions, root_choices_by_scan, sample_kn_stratum,
                     torsor_report_by_fractions)


def n_monoid():
    return validate(MonoidSpec.make(1, [[1]]))


def quadrant():
    return validate(MonoidSpec.make(2, [[1, 0], [0, 1]]))


def a1_cone():
    return validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                    [[[1, 0, 1], [0, 2, 0]]]))


def levels_read_n_to_the_r(cert, r):
    """Does every level record of a fiber comparison read (Z/n)^r, the
    invariant factors (n,)*r, on both sides (nothing at n = 1)?"""
    return all(rec.factors_a == rec.factors_b == ((rec.n,) * r if rec.n > 1 else ())
               for rec in cert.levels.levels)


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
    # level n on both sides is pi1 = Z^r read mod n: (Z/n)^r, trivial at n = 1
    m = n_monoid()
    vertex = face_with_support(m, [])
    ok, cert = verify_fiber_equivalence(m, vertex, 5)
    assert ok and levels_read_n_to_the_r(cert, 1)
    level5 = mu(stalk(m, vertex)[0], 5)
    assert level5 == FgAbelianGroup.cyclic(5) == tensor_mod(FgAbelianGroup.free(1), 5)
    assert cert.levels.levels[4].factors_b == tuple(level5.invariant_factors())
    assert mu(stalk(m, vertex)[0], 1) == FgAbelianGroup.trivial()
    q = quadrant()
    q_vertex = face_with_support(q, [])
    ok, q_cert = verify_fiber_equivalence(q, q_vertex, 2)
    assert ok and levels_read_n_to_the_r(q_cert, 2)
    level2 = mu(stalk(q, q_vertex)[0], 2)
    assert level2 == FgAbelianGroup(0, (2, 2)) == tensor_mod(FgAbelianGroup.free(2), 2)


def test_comparison_commutes_with_transitions():
    # every level reads (Z/n)^2, and reducing level m mod n (n | m) gives level n
    m = a1_cone()
    quotient, r = stalk(m, face_with_support(m, []))
    ok, cert = verify_fiber_equivalence(m, face_with_support(m, []), 19)
    assert ok and r == 2 and levels_read_n_to_the_r(cert, r)
    tower = mu_tower(quotient)
    for big in range(1, 20):
        for n in (d for d in range(1, big + 1) if big % d == 0):
            assert tower.transition_consistent(big, n)
            assert tensor_mod(tower.level(big), n) == tower.level(n)


def test_verify_fiber_equivalence_log_point():
    m = n_monoid()
    ok, cert = verify_fiber_equivalence(m, face_with_support(m, []), 100)
    assert ok and cert.torus_rank == 1 and cert.bound == len(cert.levels.levels) == 100
    assert levels_read_n_to_the_r(cert, 1)


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
    turns = sorted(pt.values[0][1] for pt in fiber)
    assert turns == [Fraction(1, 9), Fraction(4, 9), Fraction(7, 9)]
    assert len(kn_kummer_fiber(m, p, 1)) == 1


def test_kn_kummer_fiber_quadrant_units():
    m = quadrant()
    p = KnPoint.exact_point([(1, 0), (1, 0)])
    fiber = kn_kummer_fiber(m, p, 2)
    assert len(fiber) == 4
    pairs = sorted((pt.values[0][1], pt.values[1][1]) for pt in fiber)
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
    p = sample_kn_stratum(m, face_with_support(m, []), 1, seed=2)[0]
    for q in kn_kummer_fiber(m, p, 2):
        ok, res = check_membership(m, q)
        assert ok and res == 0.0


def test_kn_fiber_points_satisfy_extended_system_floating():
    # a point written as floats is read as the exact turns 1/10, 3/20, 1/5,
    # and its fiber holds the relation exactly
    m = a1_cone()
    p = KnPoint.floating([(1.0, cmath.exp(0.2j * cmath.pi)), (2.0, cmath.exp(0.3j * cmath.pi)),
                          (4.0, cmath.exp(0.4j * cmath.pi))])
    assert p == KnPoint.exact_point([(1, Fraction(1, 10)), (2, Fraction(3, 20)),
                                     (4, Fraction(1, 5))])
    fiber = kn_kummer_fiber(m, p, 3)
    assert len(fiber) == 9
    for q in fiber:
        assert check_membership(m, q) == (True, 0.0)


def test_a_floating_point_near_the_variety_is_refused():
    # The turn sum misses z0 z2 = z1^2 by 1.6e-6 turns, which the reading
    # keeps (1/628319 of a turn): there is no tolerance to accept it at.
    m = a1_cone()
    p = KnPoint.floating([(1, 1), (1, 1), (1, complex(1, 1e-5))])
    assert p.values[2][1] == Fraction(1, 628319)
    with pytest.raises(InvalidPoint, match="violates the relations"):
        kn_kummer_fiber(m, p, 2)


def test_kn_kummer_fiber_rejects_invalid_point():
    m = a1_cone()
    bad = KnPoint.exact_point([(1, 0), (1, Fraction(1, 3)), (1, 0)])
    with pytest.raises(InvalidPoint):
        kn_kummer_fiber(m, bad, 2)


def test_fibers_refuse_a_point_of_the_wrong_arity():
    # one arity check, check_membership's: ArityMismatch is an InvalidPoint
    m = a1_cone()
    kn = KnPoint.exact_point([(1, 0), (2, 0)])
    cx = CxPoint.exact_point([1, 2])
    for run, p in ((kn_kummer_fiber, kn), (algebraic_kummer_fiber, cx), (torsor_check, kn)):
        with pytest.raises(ArityMismatch, match="point has 2 coordinates, chart has 3 generators"):
            run(m, p, 2)
    assert issubclass(ArityMismatch, InvalidPoint)


def test_each_fiber_refuses_the_other_models_point():
    # membership takes either model's point, by its type; each Kummer fiber
    # lies over its own model's points only
    m = a1_cone()
    kn, cx = KnPoint.exact_point([(1, 0)] * 3), CxPoint.exact_point([1, 1, 1])
    for run, p, model in ((kn_kummer_fiber, cx, "log"), (torsor_check, cx, "log"),
                          (algebraic_kummer_fiber, kn, "complex")):
        with pytest.raises(InvalidPoint, match=f"the {model} model's Kummer fiber lies over"):
            run(m, p, 2)


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
    # sum 0 - 2/4 + 0 misses a whole turn by half a turn, a chord of 2:
    # rounding it gave four roots of size 1e-5 and 1e-5 i, 1.4e-5 apart on
    # the relation.  Membership, the stratum and the fiber all refuse it.
    m = a1_cone()
    p = CxPoint.floating([1e-5, 1e-5j, 1e-5])
    ok, residual = check_membership(m, p)
    assert not ok and residual == pytest.approx(2.0)
    with pytest.raises(NotOnVariety):
        stratum_of_point(m, p)
    with pytest.raises(NotOnVariety):
        algebraic_kummer_fiber(m, p, 2)
    fiber = algebraic_kummer_fiber(m, CxPoint.floating([1e-5, 1e-5, 1e-5]), 2)
    assert len(fiber) == 4 and all(check_membership(m, q)[0] for q in fiber)


def _agreement_charts():
    """The bundled corpus, the square cone, and the cones over the
    triangle of P^2 and the hexagon: every relation has equal degrees on
    both sides, so scaling all coordinates by one factor stays on the
    variety."""
    charts = [validate(load_chart(corpus_path(name)).spec)
              for name in ("log_point", "affine_line", "plane_axes", "a1_cone")]
    charts.append(validate(MonoidSpec.make(*TORSOR_CHARTS["square_cone"])))
    data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
    charts += [validate(load_chart(os.path.join(data, f"{stem}.json")).spec)
               for stem in ("reflexive_01_b3_v3", "reflexive_10_b6_v6")]
    assert all(sum(r) == sum(s) for m in charts for r, s in m.relations)
    return charts


def test_membership_the_stratum_and_the_fiber_accept_the_same_floating_points():
    # One rule decides a floating complex point.  Points on the variety are
    # pushed from the torus, at moduli near 1 or scaled to 1e-6..1e-3; some
    # have their pairing-positive coordinates shrunk by s^<w, g_i> <= 1e-12
    # along a w of the dual cone, so they vanish on a face; some have one
    # live coordinate turned by half a turn.
    rng = random.Random(20261024)
    verdicts = collections.Counter()
    for m in _agreement_charts():
        d, gens = m.ambient_rank, m.generators
        duals = [w for w in itertools.product(range(-2, 3), repeat=d)
                 if all(sum(map(operator.mul, w, g)) >= 0 for g in gens)]
        for _ in range(180):
            t = [rng.uniform(0.5, 1.5) * cmath.exp(2j * math.pi * rng.random()) for _ in range(d)]
            scale = rng.choice((1.0, 10 ** -rng.uniform(3, 6)))
            values = [scale * math.prod(x ** e for x, e in zip(t, g)) for g in gens]
            if rng.random() < 0.5:
                w, s = rng.choice(duals), 1e-12 * rng.uniform(0.1, 1)
                values = [z * s ** sum(map(operator.mul, w, g)) for z, g in zip(values, gens)]
            live = [i for i, z in enumerate(values) if abs(z) > 1e-9]
            if live and rng.random() < 0.5:
                values[rng.choice(live)] *= -1
            p = CxPoint.floating(values)
            member = check_membership(m, p)[0]
            try:
                face = stratum_of_point(m, p)
            except NotOnVariety:
                face = None
            try:
                fiber = algebraic_kummer_fiber(m, p, 2)
            except NotOnVariety:
                fiber = None
            assert member == (face is not None) == (fiber is not None), (gens, values)
            if face is not None:
                assert len(fiber) == 2 ** fibers_mod._angles(m, face.support)[2]
            verdicts[member, scale < 1] += 1
    # 1,260 points, 174 refused; the relative residual alone accepts 43 of
    # those, all at small moduli, which only the chord of the turn sum refuses
    assert sum(verdicts.values()) >= 1000 and min(verdicts.values()) >= 50, verdicts
    # The A1 cone's [1e-5, 1e-5 i, 1e-5] is refused by all three (above).
    # Membership reads equations only: a pattern that is no face passes it,
    # and the stratum and the fiber both refuse it as NotAFace.
    m = a1_cone()
    p = CxPoint.floating([1e-12, 1e-6, 1.0])
    assert check_membership(m, p)[0]
    for run in (lambda: stratum_of_point(m, p), lambda: algebraic_kummer_fiber(m, p, 2)):
        with pytest.raises(NotAFace):
            run()


def doubled_a1_cone():
    """The A1 cone with its relation and twice it."""
    return validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                    [[[1, 0, 1], [0, 2, 0]], [[2, 0, 2], [0, 4, 0]]]))


def test_inconsistent_offsets_falsify_the_torsor_law(monkeypatch):
    # a point on the variety meets its offsets, exact or rounded within
    # FLOAT_TOLERANCE, so offsets that admit no root choice, injected here,
    # falsify the torsor law
    m = doubled_a1_cone()
    real_root_choices = fibers_mod._root_choices
    monkeypatch.setattr(fibers_mod, "_root_choices",
                        lambda smith, offsets, n: real_root_choices(smith, [0, 1], n))
    with pytest.raises(FalsifiedProperty, match="has 0 elements"):
        kn_kummer_fiber(m, KnPoint.exact_point([(1, 0), (1, 0), (1, 0)]), 2)
    for p in (CxPoint.exact_point([1, 1, 1]), CxPoint.floating([1, 1, 1])):
        with pytest.raises(FalsifiedProperty, match="has 0 elements"):
            algebraic_kummer_fiber(m, p, 2)


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
    p = KnPoint.floating([(2.0, cmath.exp(1.1j))])
    assert p.values[0][1] == Fraction(1.1 / (2 * math.pi)).limit_denominator(10 ** 6)
    ok, report = torsor_check(m, p, 4)
    assert ok and report.group_order == 4


def test_fiber_cardinality_mismatch_is_hard_error():
    # an incomplete relation set (index-2 sublattice of the kernel) breaks
    # the count at even levels and must raise, not warn; validate refuses
    # such a set, so the fault is injected into a validated chart
    m = a1_cone()
    object.__setattr__(m, "relations", (((2, 0, 2), (0, 4, 0)),))
    p = KnPoint.exact_point([(1, 0), (1, 0), (1, 0)])
    with pytest.raises(FalsifiedProperty, match="has 8 elements, expected n\\^2 = 4"):
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
        solutions, generators = fibers_mod._root_choices(smith_normal_form(rows, k), offsets, n)
        assert solutions == root_choices_by_scan(rows, offsets, n, k), (rows, offsets, n)
        homogeneous = root_choices_by_scan(rows, [0] * len(rows), n, k)
        assert len(generators) <= k
        assert _span_mod(generators, n, k) == set(homogeneous), (rows, n)
        free_count = n ** (k - rank(rows, k))
        kinds.add("unsolvable" if not solutions
                  else "complete" if len(solutions) == free_count else "incomplete")
    assert kinds == {"unsolvable", "complete", "incomplete"}


def test_each_chart_and_support_runs_one_smith_form(monkeypatch):
    # the fibers and the deck group over a support of nonvanishing
    # coordinates read one congruence system, solved once per chart
    m = a1_cone()
    calls = []

    def counting(rows, cols):
        calls.append(cols)
        return smith_normal_form(rows, cols)

    for module in (abgrp, fibers_mod):
        monkeypatch.setattr(module, "smith_normal_form", counting)

    def count(build):
        calls.clear()
        build()
        return len(calls)

    p = KnPoint.exact_point([(1, 0), (1, 0), (1, 0)])
    assert count(lambda: torsor_check(m, p, 2)) == 1
    assert count(lambda: torsor_check(m, p, 3)) == 0
    assert count(lambda: kn_kummer_fiber(m, p, 4)) == 0
    assert count(lambda: algebraic_kummer_fiber(m, tau(p), 2)) == 0
    # a proper face also runs the rank of its generators; the vertex's is 0
    edge = CxPoint.exact_point([1, 0, 0])
    assert count(lambda: algebraic_kummer_fiber(m, edge, 2)) <= 2
    assert count(lambda: algebraic_kummer_fiber(m, edge, 3)) == 0
    assert count(lambda: algebraic_kummer_fiber(m, CxPoint.exact_point([0, 0, 0]), 2)) == 1


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
    # Every character carries the base to itself, so no other point is reached.
    assert report.orbit_table == (0,) + (-1,) * 8
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


def test_a_repeated_deck_element_leaves_one_point_unreached(monkeypatch):
    # The deck group's solve returns one character twice, in place of
    # another.  The count still reads n^r, but the orbit map is neither
    # injective nor onto, and the one point the lost character carried the
    # base to keeps the orbit table's default, -1.
    real_root_choices = fibers_mod._root_choices
    lost = []

    def repeat_one(smith, offsets, n):
        solutions, generators = real_root_choices(smith, offsets, n)
        if offsets == ():
            lost.append(solutions[1])
            solutions[1] = solutions[2]
        return solutions, generators

    m = a1_cone()
    p = sample_kn_stratum(m, face_with_support(m, [0, 1, 2]), 1, seed=42)[0]
    fiber = kn_kummer_fiber(m, p, 3)
    lifts = fibers_mod._root_indices(fiber, p, [rho for rho, _ in fiber[0].values], 3)
    monkeypatch.setattr(fibers_mod, "_root_choices", repeat_one)
    ok, report = torsor_check(m, p, 3)
    assert report.group_order == report.fiber_size == 9 and report.preserves_fiber
    assert not report.free and not report.transitive and not ok
    (unreached,) = [i for i, c in enumerate(report.orbit_table) if c == -1]
    assert lifts[unreached] == fibers_mod._act(lifts[0], lost[0], 3)


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


def test_floating_input_reads_back_as_the_exact_point_it_was_written_from():
    # Seeded points as the samplers and the benchmark build them: radii
    # products of p/q (p <= 9, q <= 4) and turns with denominators 1..12,
    # pushed through the generator exponents, written as floats (the
    # radius, and the angle as cos + i sin) and read back.
    rng = random.Random(20261023)
    count = 0
    for ambient, gens, rels in TORSOR_CHARTS.values():
        m = validate(MonoidSpec.make(ambient, gens, rels))
        for face in faces(m):
            for _ in range(12):
                p = _homomorphism_point(m, face.support, rng,
                                        [rng.randint(1, 12) for _ in range(ambient)])
                written = [(float(r), complex(math.cos(2 * math.pi * a), math.sin(2 * math.pi * a)))
                           for r, a in p.values]
                assert KnPoint.floating(written) == p, p
                count += 1
    assert count > 200
    # no radius is moved beyond float rounding: one that no rational with
    # denominator at most 10^6 rounds to reads as the decimal it prints as,
    # small, large or with many digits, and only 0.0 reads as 0
    for radius, read in ((0.0, 0), (-0.0, 0), (1e-7, Fraction(1, 10 ** 7)),
                         (4.99e-7, Fraction(499, 10 ** 9)), (7e-7, Fraction(7, 10 ** 7)),
                         (1.0000001, Fraction(10000001, 10 ** 7)),
                         (0.1234567, Fraction(1234567, 10 ** 7)), (1e50, 10 ** 50),
                         (2.1e51, 21 * 10 ** 50), (0.3333333333333333, Fraction(1, 3)),
                         (1.4142135623730951, Fraction(14142135623730951, 10 ** 16))):
        assert KnPoint.floating([(radius, 1)]).values[0][0] == read, radius
        assert float(read) == radius


def test_exact_fibers_and_torsor_checks_compute_no_float(monkeypatch):
    # an exact point's turn sums are whole, so no float chord is computed
    def no_float(t):
        raise AssertionError(f"float unit of turn {t!r} computed in exact mode")

    monkeypatch.setattr(exactnum, "unit_from_turn_float", no_float)
    rng = random.Random(20261020)
    for name in ("a1_cone", "square_cone", "n3"):
        ambient, gens, rels = TORSOR_CHARTS[name]
        m = validate(MonoidSpec.make(ambient, gens, rels))
        for face in faces(m):
            for n in (2, 3, 4):
                p = _homomorphism_point(m, face.support, rng, [rng.choice((1, 2, 3, 5, 12))
                                                               for _ in range(ambient)])
                assert len(kn_kummer_fiber(m, p, n)) == n ** m.gp_lattice_rank
                assert torsor_check(m, p, n)[0], (name, face.support, n)


def test_exact_root_turns_are_the_turn_formula():
    # (u + j v) mod n v over n v is (t + j) / n % 1 for t = u / v, also for
    # turns outside [0, 1), which a directly built exact point may hold
    m = n_monoid()
    rng = random.Random(20261021)
    turns = [Fraction(rng.randrange(-40, 40), rng.randint(1, 12)) for _ in range(60)]
    assert any(t < 0 for t in turns) and any(t >= 1 for t in turns)
    for t in turns:
        p = KnPoint(((NonnegRoot.of(1), t),))
        for n in (1, 2, 3, 7, 12, 16):
            got = [a for ((_, a),) in (q.values for q in kn_kummer_fiber(m, p, n))]
            assert got == [(t + j) / n % 1 for j in range(n)], (t, n)


def test_exact_turn_offsets_are_whole_turn_sums():
    rng = random.Random(20261022)
    for ambient, gens, rels in TORSOR_CHARTS.values():
        m = validate(MonoidSpec.make(ambient, gens, rels))
        relations = fibers_mod._angles(m, tuple(range(m.generator_count)))[0]
        for _ in range(20):
            p = _homomorphism_point(m, range(m.generator_count), rng,
                                    [rng.choice((1, 2, 3, 5, 7, 12)) for _ in range(ambient)])
            # shifted by whole turns, negative ones too, under multiples and
            # sums of the relation rows, every turn sum stays whole
            turns = [a + rng.randint(-3, 3) for _, a in p.values]
            scales = [rng.randint(-3, 3) for _ in relations]
            rows = [tuple(c * x for x in row) for c, row in zip(scales, relations)]
            rows += [tuple(map(sum, zip(*rows)))] if rows else []
            assert semialg._turn_offsets(rows, turns) == [
                (round(sum(x * t for x, t in zip(row, turns))), 0) for row in rows]
    # a sum that is not whole is 5/6 of a turn past one, and below zero too
    assert semialg._turn_offsets([(1, 1), (-1, -1)], [Fraction(1, 3), Fraction(1, 2)]) == [
        (0, Fraction(5, 6)), (-1, Fraction(1, 6))]


def test_a_huge_exact_coordinate_is_refused_after_the_level_and_cap_checks():
    # 10^400 is beyond the float range: the level and the cap are checked
    # first, and the float conversion is then refused as an input error
    m, p = n_monoid(), CxPoint.exact_point([10 ** 400])
    with pytest.raises(ValueError, match="not a positive integer"):
        algebraic_kummer_fiber(m, p, 2.5)
    with pytest.raises(ChartError, match="enumeration cap"):
        algebraic_kummer_fiber(m, p, 10 ** 6)
    with pytest.raises(InvalidPoint, match="exact coordinate 0 is beyond the float range"):
        algebraic_kummer_fiber(m, p, 2)
    with pytest.raises(InvalidPoint, match="exact coordinate 1 is beyond"):
        CxPoint.exact_point([1, GaussianRational(0, -10 ** 400)]).to_complex()
    # parts within the float range whose modulus is not: abs() overflowed
    # in the floating root table
    huge = GaussianRational(15 * 10 ** 307, 15 * 10 ** 307)
    with pytest.raises(InvalidPoint, match="exact coordinate 0 is beyond the float range"):
        algebraic_kummer_fiber(m, CxPoint.exact_point([huge]), 2)


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


def test_exact_algebraic_roots_on_each_half_axis():
    # at n = 1 the fiber is the point itself: each half-axis keeps its
    # quarter turn, and every coordinate stays exact
    m = validate(MonoidSpec.make(4, [[int(i == j) for j in range(4)] for i in range(4)]))
    values = [GaussianRational(3), GaussianRational(-3), GaussianRational(0, 3),
              GaussianRational(0, -3)]
    (q,) = algebraic_kummer_fiber(m, CxPoint.exact_point(values), 1)
    assert q.exact and list(q.values) == values
    # off the axes, or at a magnitude that is no n-th power, the roots are
    # floating even where they are Gaussian rational: (1+i)^1, sqrt(2i) = 1+i
    for z, n in ((GaussianRational(1, 1), 1), (GaussianRational(0, 2), 2)):
        fiber = algebraic_kummer_fiber(n_monoid(), CxPoint.exact_point([z]), n)
        assert len(fiber) == n and not any(q.exact for q in fiber)


def test_torsor_check_at_a_high_level_of_a_radical_radius_is_quick():
    # the radius test raised both bases to the full cross powers, and each
    # root's normal form tried every integer up to its degree: about 20 s
    # here, where the reduced exponents and the degree's primes take 0.2 s
    p = KnPoint(((NonnegRoot(Fraction(99999999, 99999998), 64), Fraction(1, 3)),))
    start = time.perf_counter()
    ok, report = torsor_check(n_monoid(), p, 9973)
    assert ok and report.fiber_size == report.group_order == 9973
    assert time.perf_counter() - start < 5


def test_torsor_check_refuses_base_radii_that_are_no_nth_roots(monkeypatch):
    # over the radius 2^(1/2) at n = 3 the roots have radius 2^(1/6); the
    # test compares rho^n with r on exponents reduced by their gcd, and must
    # refuse 2^(1/4), whose degree 4 does not divide n * 2 = 6
    m = n_monoid()
    p = KnPoint(((NonnegRoot(Fraction(2), 2), Fraction(1, 3)),))
    fiber = kn_kummer_fiber(m, p, 3)
    assert {rho for q in fiber for rho, _ in q.values} == {NonnegRoot(Fraction(2), 6)}
    assert torsor_check(m, p, 3)[0]
    for wrong in (NonnegRoot(Fraction(2), 4), NonnegRoot(Fraction(2), 12), NonnegRoot.of(2)):
        moved = [KnPoint(((wrong, t),)) for q in fiber for _, t in q.values]
        monkeypatch.setattr(fibers_mod, "kn_kummer_fiber", lambda m, p, n: moved)
        with pytest.raises(FalsifiedProperty, match="radii or relation congruences"):
            torsor_check(m, p, 3)


def test_root_indices_refuse_points_off_the_radii_or_the_grid():
    # p = (4, 5/6 turn) has the square roots (2, 5/12) and (2, 11/12)
    r = NonnegRoot.of(2)
    p = KnPoint(((NonnegRoot.of(4), Fraction(5, 6)),))

    def lift(radius, turn):
        return fibers_mod._root_indices([KnPoint(((radius, turn),))], p, [r], 2)

    assert lift(r, Fraction(5, 12)) == [(0,)]
    assert lift(r, Fraction(11, 12)) == [(1,)]
    # an equal radius that is another object lifts the same way
    assert lift(NonnegRoot.of(2), Fraction(5, 12)) == [(0,)]
    # the whole fiber lifts in one call; a point off it is named
    points = [KnPoint(((r, a),)) for a in (Fraction(11, 12), Fraction(5, 12))]
    assert fibers_mod._root_indices(points, p, [r], 2) == [(1,), (0,)]
    off = KnPoint(((r, Fraction(1, 5)),))
    with pytest.raises(FalsifiedProperty) as err:
        fibers_mod._root_indices(points + [off], p, [r], 2)
    assert str(err.value).startswith(f"fiber point {off} is not a degree-2 root of {p}")
    for radius, turn in ((r, Fraction(1, 48)), (r, Fraction(1, 5)),
                         (NonnegRoot.of(3), Fraction(5, 12))):
        with pytest.raises(FalsifiedProperty, match="is not a degree-2 root"):
            lift(radius, turn)
    # the same point written as floats is read as p, and lifts the same way
    assert KnPoint.floating([(4.0, cmath.exp(2j * cmath.pi * 5 / 6))]) == p


def _a1_point(exact):
    """A dense-stratum point of the A1 cone, built exactly or read from
    floats."""
    m = a1_cone()
    p = sample_kn_stratum(m, face_with_support(m, [0, 1, 2]), 1, seed=42)[0]
    if not exact:
        p = KnPoint.floating([(float(r), cmath.exp(2j * cmath.pi * float(a)))
                              for r, a in p.values])
    return m, p


def _move_last_point(fiber, r0, shift):
    """The fiber with its last point's first radius set to r0 (unless
    None) and its first angle turned by ``shift`` turns."""
    (r, a), *rest = fiber[-1].values
    if r0 is not None:
        r = NonnegRoot.of(r0)
    return fiber[:-1] + [KnPoint(((r, (a + shift) % 1), *rest))]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "floating"])
@pytest.mark.parametrize("r0, shift", [(7, 0), (None, Fraction(1, 1000))],
                         ids=["radius", "angle"])
def test_torsor_check_falsifies_a_point_off_the_radii_or_the_grid(monkeypatch, exact, r0,
                                                                  shift):
    m, p = _a1_point(exact)
    real_fiber = fibers_mod.kn_kummer_fiber
    moved = _move_last_point(real_fiber(m, p, 3), r0, shift)
    monkeypatch.setattr(fibers_mod, "kn_kummer_fiber", lambda m, p, n: moved)
    with pytest.raises(FalsifiedProperty) as err:
        torsor_check(m, p, 3)
    assert str(err.value).startswith(f"fiber point {moved[-1]} is not a degree-3 root of {p}")


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "floating"])
def test_torsor_check_falsifies_a_fiber_turned_off_the_model(monkeypatch, exact):
    # Every point turned by 1/n on circle 0, to the next root (t + j + 1) / n
    # as the fiber's own formula gives it, is still an n-th root of p, and
    # the turned fiber is still a coset of the deck group, so the action
    # flags all hold; but the points miss z0 z2 = z1^2, which the base
    # point's relation congruence finds.
    m, p = _a1_point(exact)
    t = p.values[0][1]
    turned = [KnPoint(((r, (t + (round(3 * a - t) + 1) % 3) / 3 % 1), *rest))
              for q in fibers_mod.kn_kummer_fiber(m, p, 3) for (r, a), *rest in [q.values]]
    monkeypatch.setattr(fibers_mod, "kn_kummer_fiber", lambda m, p, n: turned)
    with pytest.raises(FalsifiedProperty, match="root of .* [(]radii or relation congruences"):
        torsor_check(m, p, 3)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "floating"])
def test_torsor_check_names_the_point_with_a_corrupted_root_entry(monkeypatch, exact):
    # One root-table entry (radius, turn) of one point is corrupted, in
    # its radius or off the 1/n grid, at every point and coordinate in turn.
    m, p = _a1_point(exact)
    fiber = fibers_mod.kn_kummer_fiber(m, p, 3)
    double = NonnegRoot.of(2)
    for i, j in [(i, j) for i in range(len(fiber)) for j in range(m.generator_count)]:
        r, a = fiber[i].values[j]
        for entry in ((double * r, a), (r, (a + Fraction(1, 6)) % 1)):
            values = list(fiber[i].values)
            values[j] = entry
            bad = KnPoint(tuple(values))
            corrupted = fiber[:i] + [bad] + fiber[i + 1:]
            monkeypatch.setattr(fibers_mod, "kn_kummer_fiber", lambda m, p, n: corrupted)
            with pytest.raises(FalsifiedProperty) as err:
                torsor_check(m, p, 3)
            assert str(err.value).startswith(f"fiber point {bad} is not"), (i, j, entry)
    monkeypatch.undo()
    assert torsor_check(m, p, 3)[0]


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


def test_every_bad_level_cover_degree_and_bound_is_one_invalid_level():
    # each layer refuses with the one class, an input error that is also a
    # ValueError, in the one message form
    tower = completion(FgAbelianGroup.free(1))
    calls = {**_LEVEL_CALLS, "level": tower.level,
             "transition_consistent m": lambda v: tower.transition_consistent(v, 1),
             "transition_consistent n": lambda v: tower.transition_consistent(6, v)}
    for name, call in calls.items():
        for value in (0, -1, True, 2.0):
            with pytest.raises(InvalidLevel) as caught:
                call(value)
            assert isinstance(caught.value, ChartError) and isinstance(caught.value, ValueError)
            assert str(caught.value).endswith(f" {value!r} is not a positive integer"), name
    with pytest.raises(InvalidLevel, match=r"transition needs n \| m, got n=4, m=6"):
        tower.transition_consistent(6, 4)
