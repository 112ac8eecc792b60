"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
(run with -s or look at captured output).  Tolerances and runtime budgets
are pinned here; exact-mode checks demand residual exactly zero.
"""

import math
import random
import time

from logcharts.abgrp import FgAbelianGroup, cokernel, smith_normal_form, tensor_mod
from logcharts.fibers import (algebraic_kummer_fiber, kn_kummer_fiber,
                              torsor_check, verify_fiber_equivalence)
from logcharts.monoid import (MonoidSpec, face_with_support, faces, mu,
                              validate)
from logcharts.profin import FiniteAbelianProSystem, equivalent_up_to
from logcharts.semialg import CxPoint, KnPoint, check_membership, emit_equations, tau

from oracles import (coset_count_bfs, diagonal, face_supports_by_axiom, is_unimodular,
                     matmul, sample_kn_stratum, sample_stratum)


def _report(criterion, ok, detail, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.3f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {criterion}: {status}{timing} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def corpus():
    return [
        ("N", 1, validate(MonoidSpec.make(1, [[1]]))),
        ("N^2", 2, validate(MonoidSpec.make(2, [[1, 0], [0, 1]]))),
        ("A1-cone", 2, validate(MonoidSpec.make(
            2, [[1, 0], [1, 1], [1, 2]], [[[1, 0, 1], [0, 2, 0]]]))),
    ]


def test_criterion_1_log_point_fiber_equivalence():
    start = time.perf_counter()
    m = validate(MonoidSpec.make(1, [[1]]))
    vertex = face_with_support(m, [])
    ok, cert = verify_fiber_equivalence(m, vertex, 100)
    levels_cyclic = all(
        rec.factors_a == rec.factors_b
        and rec.factors_a == ((rec.n,) if rec.n > 1 else ())
        for rec in cert.levels.levels)
    # level n of the root tower is pi1 = Z of the circle read mod n
    levels_are_reductions = all(tensor_mod(FgAbelianGroup.free(1), n) == mu(m, n)
                                for n in (1, 2, 50, 97))
    elapsed = time.perf_counter() - start
    _report(1, ok and levels_cyclic and levels_are_reductions and elapsed < 1.0,
            "log point: tower comparison true at bound 100, levels Z/n on both "
            "sides, mu_n is Z read mod n", elapsed)


def test_criterion_2_finite_products_of_completions():
    start = time.perf_counter()
    ok = True
    for k in (1, 2, 3, 4):
        # level n of completion(Z)^k is (Z/n)^k, the cokernel of n * I_k
        tower = FiniteAbelianProSystem(FgAbelianGroup.free(k))
        ok &= all(tower.level(n) == cokernel(diagonal([n] * k), k) for n in range(1, 101))
    elapsed = time.perf_counter() - start
    _report(2, ok and elapsed < 1.0,
            "completion(Z^k) = completion(Z)^k up to bound 100 for k in 1..4",
            elapsed)


def test_criterion_3_torsor_property_on_corpus():
    start = time.perf_counter()
    ok = True
    detail = []
    for name, rank_expected, m in corpus():
        face_cycle = faces(m)
        points = []
        seed = 0
        while len(points) < 5:
            f = face_cycle[len(points) % len(face_cycle)]
            points.extend(sample_kn_stratum(m, f, 1, seed=seed))
            seed += 1
        # (1/n)P is presented by the same generators as P
        for n in range(1, 9):
            for p in points:
                passed, report = torsor_check(m, p, n)
                ok &= passed and report.group_order == n ** rank_expected
                for q in kn_kummer_fiber(m, p, n):
                    member, residual = check_membership(m, q)
                    ok &= member and residual == 0.0  # exact mode: zero residual
        detail.append(f"{name}: order n^{rank_expected}")
    elapsed = time.perf_counter() - start
    _report(3, ok and elapsed < 10.0,
            "torsor law on 5 seeded points per chart, n = 1..8 "
            f"({'; '.join(detail)})", elapsed)


def test_criterion_4_ramification_contrast():
    m = validate(MonoidSpec.make(1, [[1]]))
    origin = CxPoint.exact_point([0])
    kn_origin = KnPoint.exact_point([(0, 0)])
    ok = True
    for n in range(1, 9):
        ok &= len(algebraic_kummer_fiber(m, origin, n)) == 1
        ok &= len(kn_kummer_fiber(m, kn_origin, n)) == n
    _report(4, ok, "over the vertex of N: |algebraic fiber| = 1, "
                   "|log-model fiber| = n, for n <= 8")


def test_criterion_5_rank_stratification_laws():
    ok = True
    for name, _, m in corpus():
        face_list = faces(m)
        from logcharts.monoid import stalk
        ranks = {f.support: stalk(m, f)[1] for f in face_list}
        # (a) unique maximal-rank face is the empty support
        tops = [s for s, r in ranks.items() if r == m.gp_lattice_rank]
        ok &= tops == [()]
        # (b) face inclusion weakly reverses stalk rank
        for a in face_list:
            for b in face_list:
                if set(a.support) <= set(b.support):
                    ok &= ranks[b.support] <= ranks[a.support]
        # (c) face count matches the exhaustive-subset oracle
        oracle = face_supports_by_axiom([tuple(g) for g in m.generators], 10)
        ok &= {f.support for f in face_list} == oracle
    _report(5, ok, "vertex uniqueness, rank monotonicity, and face count "
                   "per the exhaustive-subset oracle, on all corpus charts")


def test_criterion_6_semialgebraic_emission():
    m = validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                 [[[1, 0, 1], [0, 2, 0]]]))
    ok = emit_equations(m, "complex").equations == (((1, 0, 1), (0, 2, 0)),)  # z1 z3 = z2^2
    dense = face_with_support(m, [0, 1, 2])
    for p in sample_stratum(m, dense, 100, seed=2026):
        member, residual = check_membership(m, p)
        ok &= member and residual == 0.0  # exact mode: exactly zero
    for p in sample_kn_stratum(m, dense, 100, seed=2027):
        member, residual = check_membership(m, p)
        ok &= member and residual == 0.0
        image = tau(p)
        ok &= image.exact
        member, residual = check_membership(m, image)
        ok &= member and residual == 0.0
    _report(6, ok, "A1-cone emits z1*z3 = z2^2; 100 exact dense samples and "
                   "their tau-images have residual exactly 0")


def test_criterion_7_snf_oracle_suite():
    start = time.perf_counter()
    rng = random.Random(424242)
    ok = True
    finite_checked = 0
    for _ in range(500):
        rows_n, cols_n = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(cols_n)] for _ in range(rows_n)]
        u, diag, v = smith_normal_form(rows, cols_n)
        ok &= matmul(matmul(u, rows), v) == diagonal(diag, rows_n, cols_n)
        ok &= is_unimodular(u) and is_unimodular(v)
        nz = [x for x in diag if x]
        ok &= all(b % a == 0 for a, b in zip(nz, nz[1:]))
        g = cokernel(rows, cols_n)
        counted = coset_count_bfs(rows, rows_n, cols_n)
        if g.free_rank > 0:
            ok &= counted is None
        else:
            ok &= counted == math.prod(g.torsion)
            finite_checked += 1
    elapsed = time.perf_counter() - start
    _report(7, ok and elapsed < 30.0,
            f"500 random matrices: U*m*V = D exact, chain holds, and "
            f"{finite_checked} finite cokernel orders match direct coset "
            f"enumeration", elapsed)


def test_criterion_8_tower_coherence():
    ok = True
    for name, _, m in corpus():
        r = m.gp_lattice_rank
        free = FgAbelianGroup.free(r)
        _, cert = verify_fiber_equivalence(m, face_with_support(m, []), 60)
        # every comparison level reads (Z/n)^r on both sides
        ok &= all(rec.factors_a == rec.factors_b == ((rec.n,) * r if rec.n > 1 else ())
                  for rec in cert.levels.levels)
        for big in range(1, 61):
            mu_big = mu(m, big)
            for n in (d for d in range(1, big + 1) if big % d == 0):
                # transition composed with level data: tensor_mod identity
                ok &= tensor_mod(mu_big, n) == mu(m, n)
                ok &= tensor_mod(free, n) == mu(m, n)
    _report(8, ok, "mu-tower transitions commute and every comparison level "
                   "reads (Z/n)^r for all n | m <= 60 on every corpus chart")
